/**
 * @file
 * Machine configuration: the modelled CPU, memory hierarchy and
 * interconnect parameters (Table 2 of the paper), plus the scalability
 * variants of §6.3 and the FPGA profile of §6.2.
 */

#ifndef JORD_SIM_MACHINE_HH
#define JORD_SIM_MACHINE_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace jord::sim {

/**
 * Which hardware model produced the latencies.
 *
 * Raw SRAM latencies are identical in both profiles; operations involving
 * instruction execution run at a lower IPC on the FPGA RTL model because
 * the cycle-accurate simulator models a more aggressive pipeline (§6.2).
 */
enum class MachineProfile {
    Simulator, ///< QFlex-style cycle-accurate model (Table 2)
    Fpga,      ///< OpenXiangShan RTL on FPGA
};

/**
 * Full description of the modelled worker server.
 *
 * Defaults reproduce Table 2: 32-core 4 GHz CPU, 8x4 2D-mesh NoC with
 * 16 B links and 3 cycles/hop, 32 KB L1s (2-cycle), 2 MB/tile non-inclusive
 * LLC (6-cycle), directory-based MESI. Table 2's ROB, store buffer, issue
 * width, memory-controller count and TLBs are not modelled.
 */
struct MachineConfig {
    // --- Core ---
    double freqGhz = kDefaultFreqGhz;
    unsigned numCores = 32;

    // --- Sockets (for the §6.3 scalability study) ---
    unsigned numSockets = 1;
    /** One-way extra latency for crossing the socket boundary. */
    Cycles interSocketCycles = nsToCycles(260.0);

    // --- NoC (per socket) ---
    unsigned meshCols = 8;
    unsigned meshRows = 4;
    Cycles hopCycles = 3;
    unsigned linkBytes = 16;

    // --- Cache hierarchy ---
    Cycles l1HitCycles = 2;
    /** L1D capacity in cache blocks (32 KB / 64 B, Table 2). */
    unsigned l1Lines = 512;
    Cycles llcHitCycles = 6;
    Cycles dramCycles = nsToCycles(100.0);

    // --- UAT hardware (Jord) ---
    unsigned ivlbEntries = 16;
    unsigned dvlbEntries = 16;
    /** VTD: set-associative slice structure co-located with the LLC. */
    unsigned vtdSets = 256;
    unsigned vtdWays = 8;

    /** Which hardware model to emulate (affects software-op IPC only). */
    MachineProfile profile = MachineProfile::Simulator;
    /**
     * Multiplier on the instruction-execution component of software
     * operation latencies when running the FPGA profile. Calibrated so the
     * FPGA column of Table 4 emerges from the same operation recipes.
     */
    double fpgaIpcPenalty = 2.4;

    /** Cores per socket (cores are split evenly across sockets). */
    unsigned
    coresPerSocket() const
    {
        return numCores / numSockets;
    }

    /** Socket that owns a given core. */
    unsigned
    socketOf(unsigned core) const
    {
        return core / coresPerSocket();
    }

    /** Scale factor applied to instruction-execution latency components. */
    double
    swLatencyScale() const
    {
        return profile == MachineProfile::Fpga ? fpgaIpcPenalty : 1.0;
    }

    /** The Table 2 configuration. */
    static MachineConfig isca25Default();

    /** FPGA proof-of-concept profile (two OpenXiangShan cores). */
    static MachineConfig fpgaPrototype();

    /**
     * Scalability-study configuration (§6.3): @p num_cores cores spread
     * over @p num_sockets sockets, mesh resized to the nearest balanced
     * rectangle per socket.
     */
    static MachineConfig scaled(unsigned num_cores, unsigned num_sockets);

    /** Human-readable one-line description. */
    std::string describe() const;
};

} // namespace jord::sim

#endif // JORD_SIM_MACHINE_HH
