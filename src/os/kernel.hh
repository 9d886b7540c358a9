/**
 * @file
 * OS support model (§4.4).
 *
 * Jord needs the OS only for bootstrap and refill: reserving the UAT
 * virtual region, loading PrivLib and the initial privileged VMAs,
 * handing reserved physical memory chunks to PrivLib through the
 * uat_config syscall, and saving/restoring the UAT CSRs on context
 * switch. Everything else happens at user level.
 */

#ifndef JORD_OS_KERNEL_HH
#define JORD_OS_KERNEL_HH

#include <cstdint>

#include "sim/machine.hh"
#include "sim/types.hh"
#include "uat/csr.hh"

namespace jord::os {

/** Result of a modelled syscall. */
struct SyscallResult {
    bool ok = false;
    sim::Addr addr = 0;
    std::uint64_t len = 0;
    sim::Cycles latency = 0;
};

/**
 * The kernel model: physical memory reservation and uat_config.
 */
class Kernel
{
  public:
    /**
     * @param cfg Machine configuration.
     * @param reserved_bytes Physical memory set aside for Jord at boot;
     * the OS pins it so it can never be swapped (§4.1).
     */
    explicit Kernel(const sim::MachineConfig &cfg,
                    std::uint64_t reserved_bytes = 8ull << 30);

    /**
     * uat_config(UAT_RESERVE): hand PrivLib a pinned physical chunk of
     * at least @p bytes. Fails when the reservation is exhausted.
     */
    SyscallResult uatConfigReserve(std::uint64_t bytes);

    /** Syscall entry/exit cost (trap + return). */
    sim::Cycles syscallCycles() const { return syscallCycles_; }

    /**
     * Cost of saving/restoring the uatp/uatc/ucid CSRs as part of an OS
     * context switch (three CSR reads + writes).
     */
    sim::Cycles csrContextSwitchCycles() const { return 12; }

    /** Save a core's UAT CSRs into a process context block. */
    void saveContext(const uat::UatCsrFile &csrs, uat::UatCsrFile &ctx) const
    {
        ctx = csrs;
    }

    /** Restore a process context block into a core's UAT CSRs. */
    void restoreContext(const uat::UatCsrFile &ctx,
                        uat::UatCsrFile &csrs) const
    {
        csrs = ctx;
    }

    /** Total syscalls served (for tests/stats). */
    std::uint64_t numSyscalls() const { return numSyscalls_; }

  private:
    std::uint64_t reservedBytes_;
    sim::Addr nextPa_;
    sim::Addr endPa_;
    sim::Cycles syscallCycles_;
    std::uint64_t numSyscalls_ = 0;
};

} // namespace jord::os

#endif // JORD_OS_KERNEL_HH
