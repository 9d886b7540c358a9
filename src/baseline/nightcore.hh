/**
 * @file
 * Enhanced-NightCore baseline model (§5).
 *
 * NightCore [35] uses provisioned containers and optimizes intra-server
 * communication with OS pipes and SysV shared memory. The paper enhances
 * it to its upper bound: launchers and workers run as plain threads in a
 * single address space with thread pinning and the same JBSQ dispatch as
 * Jord, so its performance "is primarily limited by OS pipes".
 *
 * This header models exactly that limit: per-message pipe costs (syscall
 * work that burns CPU on both endpoints, data copies, and a scheduler
 * wake-up that adds latency but not load) and the 0.8 ms worker
 * provisioning cost NightCore pays when a function's concurrency grows
 * beyond what is provisioned (§6.2).
 */

#ifndef JORD_BASELINE_NIGHTCORE_HH
#define JORD_BASELINE_NIGHTCORE_HH

#include <cstdint>

#include "sim/types.hh"

namespace jord::baseline {

/** Cost model for one pipe message between two pinned threads. */
namespace pipe {

/** write(2): syscall entry/exit + pipe-buffer copy-in setup. */
inline constexpr sim::Cycles kWriteSyscall = sim::nsToCycles(350.0);
/** read(2): syscall entry/exit + copy-out setup. */
inline constexpr sim::Cycles kReadSyscall = sim::nsToCycles(350.0);
/** Futex/scheduler wake-up of the blocked reader. */
inline constexpr sim::Cycles kWakeupLatency = sim::nsToCycles(800.0);
/** Copy throughput through the pipe buffer (per byte, per side). */
inline constexpr double kCopyCyclesPerByte = 0.25;

/** Busy cycles the sender burns to push @p bytes. */
inline constexpr sim::Cycles
sendBusy(std::uint64_t bytes)
{
    return kWriteSyscall + static_cast<sim::Cycles>(
                               kCopyCyclesPerByte *
                               static_cast<double>(bytes));
}

/** Busy cycles the receiver burns to pull @p bytes. */
inline constexpr sim::Cycles
recvBusy(std::uint64_t bytes)
{
    return kReadSyscall + static_cast<sim::Cycles>(
                              kCopyCyclesPerByte *
                              static_cast<double>(bytes));
}

/** Extra latency before the receiver starts running. */
inline constexpr sim::Cycles
recvLatency()
{
    return kWakeupLatency;
}

} // namespace pipe

/** Preparing a worker process for a function (NightCore, §6.2). */
inline constexpr sim::Cycles kProvisionCycles = sim::usToCycles(800.0);

/** Worker-pool provisioning model. */
struct ProvisioningModel {
    /**
     * Workers provisioned per function before the run starts. The §6.1
     * comparison is at steady state, so the default is generous; lower
     * it to study cold-start behaviour (kProvisionCycles each).
     */
    unsigned preProvisioned = 64;
};

} // namespace jord::baseline

#endif // JORD_BASELINE_NIGHTCORE_HH
