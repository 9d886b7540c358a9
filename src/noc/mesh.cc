#include "noc/mesh.hh"

#include "sim/logging.hh"

namespace jord::noc {

namespace {

unsigned
absDiff(unsigned a, unsigned b)
{
    return a > b ? a - b : b - a;
}

} // namespace

Mesh::Mesh(const sim::MachineConfig &cfg) : cfg_(cfg)
{
    tilesPerSocket_ = cfg.meshCols * cfg.meshRows;
    if (tilesPerSocket_ * cfg.numSockets != cfg.numCores) {
        sim::fatal("mesh %ux%u x %u sockets does not cover %u cores",
                   cfg.meshCols, cfg.meshRows, cfg.numSockets,
                   cfg.numCores);
    }
    dataSerialize_ = flits(MsgKind::Data) - 1;
    tiles_.reserve(cfg.numCores);
    for (unsigned tile = 0; tile < cfg.numCores; ++tile) {
        unsigned local = tile % tilesPerSocket_;
        unsigned socket = cfg.socketOf(tile);
        tiles_.push_back(Tile{
            Coord{local % cfg.meshCols, local / cfg.meshCols}, socket,
            socket * tilesPerSocket_});
    }
}

unsigned
Mesh::hops(unsigned tile_a, unsigned tile_b) const
{
    Coord a = tiles_[tile_a].coord;
    Coord b = tiles_[tile_b].coord;
    return absDiff(a.col, b.col) + absDiff(a.row, b.row);
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
    sim::Cycles serialize = kind == MsgKind::Control ? 0 : dataSerialize_;
    const Tile &s = tiles_[src];
    const Tile &d = tiles_[dst];
    if (s.socket == d.socket) {
        if (src == dst)
            return serialize; // local slice: no hops
        return hops(src, dst) * cfg_.hopCycles + serialize;
    }
    // Cross-socket: route to the local edge router (column 0), traverse
    // the socket link, then route from the remote edge to the target.
    unsigned edge_hops =
        s.coord.col + d.coord.col + absDiff(s.coord.row, d.coord.row);
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
    return tiles_[from_tile].firstOfSocket +
           static_cast<unsigned>(block % tilesPerSocket_);
}

} // namespace jord::noc
