/**
 * @file
 * 2D-mesh network-on-chip latency model.
 *
 * The modelled machine (Table 2) has one core + one LLC slice per mesh
 * tile, 16 B links and 3 cycles/hop with XY dimension-ordered routing.
 * Multi-socket machines replicate the mesh per socket and add a fixed
 * inter-socket latency (260 ns, following AMD Zen5 Turin, §5) for any
 * message crossing the socket boundary.
 *
 * The model is contention-free: the evaluation's coherence-bound effects
 * come from message counts and distances, not link congestion.
 */

#ifndef JORD_NOC_MESH_HH
#define JORD_NOC_MESH_HH

#include <cstdint>
#include <vector>

#include "sim/machine.hh"
#include "sim/types.hh"

namespace jord::noc {

/** What is being carried: a control flit or a full cache block. */
enum class MsgKind {
    Control, ///< single-flit request/ack/invalidate
    Data,    ///< cache-block payload (64 B = 4 flits on 16 B links)
};

/** Tile coordinate inside one socket's mesh. */
struct Coord {
    unsigned col;
    unsigned row;
};

/**
 * Latency oracle for the on-chip (and cross-socket) interconnect.
 *
 * Tiles are identified by global core id: core i sits on tile i and hosts
 * LLC slice i. For multi-socket configs, core ids are split evenly across
 * sockets and each socket has its own private mesh. Each tile's
 * coordinate and socket are computed once, at construction, so the
 * per-message queries need no division.
 */
class Mesh
{
  public:
    explicit Mesh(const sim::MachineConfig &cfg);

    /** Tiles per socket. */
    unsigned tilesPerSocket() const { return tilesPerSocket_; }

    /** Total tiles (== total cores == total LLC slices). */
    unsigned numTiles() const { return cfg_.numCores; }

    /** Coordinate of a tile within its socket's mesh. */
    Coord coordOf(unsigned tile) const { return tiles_[tile].coord; }

    /** Manhattan hop count between two tiles on the same socket. */
    unsigned hops(unsigned tile_a, unsigned tile_b) const;

    /**
     * One-way message latency from tile @p src to tile @p dst.
     *
     * Same-socket: hops * hopCycles plus serialization of extra flits.
     * Cross-socket: each tile routes to its socket edge, then pays the
     * inter-socket link latency.
     */
    sim::Cycles latency(unsigned src, unsigned dst, MsgKind kind) const;

    /** Round-trip: request out, response back (response carries @p kind). */
    sim::Cycles roundTrip(unsigned src, unsigned dst, MsgKind kind) const;

    /** Average one-way control latency from @p src to all tiles. */
    double avgLatencyFrom(unsigned src, MsgKind kind) const;

    /**
     * Home LLC slice for a physical block address (static address
     * interleaving across all slices of the socket that owns @p from —
     * the LLC is per-socket, so homes are chosen in the requester's
     * socket).
     */
    unsigned homeSlice(sim::Addr block_addr, unsigned from_tile) const;

    /** Flits needed for a message kind. */
    unsigned flits(MsgKind kind) const;

    /** True if the two tiles live on different sockets. */
    bool
    crossSocket(unsigned a, unsigned b) const
    {
        return tiles_[a].socket != tiles_[b].socket;
    }

    const sim::MachineConfig &config() const { return cfg_; }

  private:
    struct Tile {
        Coord coord;
        unsigned socket;
        unsigned firstOfSocket; ///< global id of the socket's tile 0
    };

    sim::MachineConfig cfg_;
    unsigned tilesPerSocket_;
    /** Extra cycles for the tail flits of a Data message. */
    sim::Cycles dataSerialize_;
    std::vector<Tile> tiles_;
};

} // namespace jord::noc

#endif // JORD_NOC_MESH_HH
