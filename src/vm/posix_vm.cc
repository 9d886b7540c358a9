#include "vm/posix_vm.hh"

#include <algorithm>

namespace jord::vm {

using sim::Addr;
using sim::Cycles;

namespace {
constexpr Addr kMmapVaBase = 0x7f00'0000'0000ull;
constexpr Addr kMmapPaBase = 0x0100'0000'0000ull;
} // namespace

PosixVm::PosixVm(const sim::MachineConfig &cfg,
                 mem::CoherenceEngine &coherence)
    : cfg_(cfg),
      coherence_(coherence),
      nextVa_(kMmapVaBase),
      nextPa_(kMmapPaBase)
{
}

Cycles
PosixVm::shootdown(unsigned initiator, std::uint64_t len, unsigned &ipis)
{
    // Linux-style: flush locally, then IPI every other core and spin until
    // all have acknowledged. Remote handlers run concurrently, but the
    // initiator still pays per-IPI send cost plus the slowest handler.
    std::uint64_t pages = pageAlignUp(len) / kPageBytes;
    Cycles local_flush = pages * 2;

    Cycles send_total = 0;
    Cycles slowest_handler = 0;
    for (unsigned core = 0; core < cfg_.numCores; ++core) {
        if (core == initiator)
            continue;
        send_total += oscost::kIpi / 4; // send side of each IPI
        Cycles handler = oscost::kIpi + pages * 2;
        if (coherence_.mesh().crossSocket(initiator, core))
            handler += cfg_.interSocketCycles * 2;
        slowest_handler = std::max(slowest_handler, handler);
        ++ipis;
    }
    return local_flush + send_total + slowest_handler;
}

VmOpResult
PosixVm::mmap(unsigned core, std::uint64_t len, PagePerms perms)
{
    VmOpResult res;
    if (len == 0)
        return res;
    len = pageAlignUp(len);

    Addr va = nextVa_;
    Addr pa = nextPa_;
    nextVa_ += len + kPageBytes; // guard page
    nextPa_ += len;

    if (!table_.map(va, pa, len, perms))
        return res;
    vmas_[va] = len;

    std::uint64_t pages = len / kPageBytes;
    res.ok = true;
    res.addr = va;
    res.latency = oscost::kSyscall + oscost::kVmaTree +
                  pages * oscost::kPerPage;
    // Touch the leaf PTE lines (kernel writes them).
    for (std::uint64_t p = 0; p < pages; ++p) {
        auto path = table_.walkPath(va + p * kPageBytes);
        if (!path.empty())
            res.latency += coherence_.write(core, path.back()).latency;
    }
    return res;
}

VmOpResult
PosixVm::munmap(unsigned core, Addr va, std::uint64_t len)
{
    VmOpResult res;
    auto it = vmas_.find(va);
    if (it == vmas_.end() || it->second != pageAlignUp(len))
        return res;

    std::uint64_t pages = pageAlignUp(len) / kPageBytes;
    table_.unmap(va, len);
    vmas_.erase(it);

    res.ok = true;
    res.latency = oscost::kSyscall + oscost::kVmaTree +
                  pages * oscost::kPerPage;
    res.latency += shootdown(core, len, res.ipis);
    return res;
}

VmOpResult
PosixVm::mprotect(unsigned core, Addr va, std::uint64_t len,
                  PagePerms perms)
{
    VmOpResult res;
    std::uint64_t updated = table_.protect(va, len, perms);
    if (updated == 0)
        return res;

    res.ok = true;
    res.latency = oscost::kSyscall + oscost::kVmaTree +
                  updated * oscost::kPerPage;
    // Kernel rewrites the PTEs...
    for (std::uint64_t p = 0; p < updated; ++p) {
        auto path = table_.walkPath(va + p * kPageBytes);
        if (!path.empty())
            res.latency += coherence_.write(core, path.back()).latency;
    }
    // ...then must make every core's TLB coherent.
    res.latency += shootdown(core, len, res.ipis);
    return res;
}

} // namespace jord::vm
