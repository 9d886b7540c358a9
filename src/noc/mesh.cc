#include "noc/mesh.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace jord::noc {

Mesh::Mesh(const sim::MachineConfig &cfg) : cfg_(cfg)
{
    tilesPerSocket_ = cfg.meshCols * cfg.meshRows;
    if (tilesPerSocket_ * cfg.numSockets != cfg.numCores) {
        sim::fatal("mesh %ux%u x %u sockets does not cover %u cores",
                   cfg.meshCols, cfg.meshRows, cfg.numSockets,
                   cfg.numCores);
    }
}

Coord
Mesh::coordOf(unsigned tile) const
{
    unsigned local = tile % tilesPerSocket_;
    return Coord{local % cfg_.meshCols, local / cfg_.meshCols};
}

unsigned
Mesh::hops(unsigned tile_a, unsigned tile_b) const
{
    Coord a = coordOf(tile_a);
    Coord b = coordOf(tile_b);
    return static_cast<unsigned>(
        std::abs(static_cast<int>(a.col) - static_cast<int>(b.col)) +
        std::abs(static_cast<int>(a.row) - static_cast<int>(b.row)));
}

unsigned
Mesh::flits(MsgKind kind) const
{
    if (kind == MsgKind::Control)
        return 1;
    return 1 + (sim::kCacheBlockBytes + cfg_.linkBytes - 1) /
                   cfg_.linkBytes;
}

sim::Cycles
Mesh::latency(unsigned src, unsigned dst, MsgKind kind) const
{
    // Serialization: the tail flit arrives (flits - 1) cycles after the
    // head under wormhole routing with one flit/cycle links.
    sim::Cycles serialize = flits(kind) - 1;
    if (!crossSocket(src, dst)) {
        if (src == dst)
            return serialize; // local slice: no hops
        return hops(src, dst) * cfg_.hopCycles + serialize;
    }
    // Cross-socket: route to the local edge router (column 0), traverse
    // the socket link, then route from the remote edge to the target.
    Coord src_c = coordOf(src);
    Coord dst_c = coordOf(dst);
    unsigned edge_hops = src_c.col + dst_c.col +
        static_cast<unsigned>(
            std::abs(static_cast<int>(src_c.row) -
                     static_cast<int>(dst_c.row)));
    return edge_hops * cfg_.hopCycles + cfg_.interSocketCycles + serialize;
}

sim::Cycles
Mesh::roundTrip(unsigned src, unsigned dst, MsgKind kind) const
{
    return latency(src, dst, MsgKind::Control) + latency(dst, src, kind);
}

double
Mesh::avgLatencyFrom(unsigned src, MsgKind kind) const
{
    double total = 0.0;
    for (unsigned t = 0; t < numTiles(); ++t)
        total += static_cast<double>(latency(src, t, kind));
    return total / static_cast<double>(numTiles());
}

unsigned
Mesh::homeSlice(sim::Addr block_addr, unsigned from_tile) const
{
    // Mix the block index so consecutive blocks spread across slices.
    sim::Addr block = block_addr / sim::kCacheBlockBytes;
    block ^= block >> 17;
    block *= 0xff51afd7ed558ccdull;
    block ^= block >> 33;
    unsigned socket = cfg_.socketOf(from_tile);
    return socket * tilesPerSocket_ +
           static_cast<unsigned>(block % tilesPerSocket_);
}

} // namespace jord::noc
