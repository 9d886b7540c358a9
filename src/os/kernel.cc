#include "os/kernel.hh"

namespace jord::os {

namespace {
/** Physical range the boot firmware sets aside for Jord. */
constexpr sim::Addr kReservedPaBase = 0x0800'0000'0000ull;
} // namespace

Kernel::Kernel(const sim::MachineConfig &cfg, std::uint64_t reserved_bytes)
    : reservedBytes_(reserved_bytes),
      nextPa_(kReservedPaBase),
      endPa_(kReservedPaBase + reserved_bytes),
      syscallCycles_(sim::nsToCycles(250.0, cfg.freqGhz))
{
}

SyscallResult
Kernel::uatConfigReserve(std::uint64_t bytes)
{
    SyscallResult res;
    res.latency = syscallCycles_;
    ++numSyscalls_;
    // Chunks are cache-block aligned so VTE offsets stay block-aligned.
    std::uint64_t aligned =
        (bytes + sim::kCacheBlockBytes - 1) & ~(sim::kCacheBlockBytes - 1);
    if (nextPa_ + aligned > endPa_)
        return res; // reservation exhausted
    res.ok = true;
    res.addr = nextPa_;
    res.len = aligned;
    nextPa_ += aligned;
    return res;
}

} // namespace jord::os
