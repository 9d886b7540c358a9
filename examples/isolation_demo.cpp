/**
 * @file
 * Direct use of the in-process memory-isolation layer: PrivLib's
 * Table 1 API and the UAT hardware underneath, without the FaaS
 * runtime on top.
 *
 * The demo walks through the paper's §3.2 mechanism step by step:
 * create two protection domains, allocate private memory, share an
 * ArgBuf by moving its permission, watch the hardware fault when an
 * attacker forges addresses, and print the nanosecond-scale latencies
 * of each operation.
 */

#include <cstdio>

#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "os/kernel.hh"
#include "privlib/privlib.hh"
#include "uat/uat_system.hh"

using namespace jord;
using privlib::PrivLib;
using privlib::PrivResult;
using uat::Fault;
using uat::PdId;
using uat::Perm;

namespace {

void
show(const char *what, const PrivResult &res)
{
    std::printf("  %-34s %s (%.0f ns)\n", what,
                res.ok ? "ok" : uat::faultName(res.fault),
                sim::cyclesToNs(res.latency));
}

void
tryAccess(uat::UatSystem &uat, unsigned core, const char *what,
          sim::Addr va, Perm need)
{
    uat::UatAccess acc = uat.dataAccess(core, va, need);
    std::printf("  %-34s %s\n", what,
                acc.ok() ? "ALLOWED" : uat::faultName(acc.fault));
}

} // namespace

int
main()
{
    // Assemble the stack by hand: mesh -> coherence -> VMA table ->
    // UAT hardware -> kernel -> PrivLib.
    sim::MachineConfig cfg = sim::MachineConfig::isca25Default();
    noc::Mesh mesh(cfg);
    mem::CoherenceEngine coherence(cfg, mesh);
    uat::VaEncoding encoding;
    uat::PlainListVmaTable table(encoding);
    uat::UatSystem uat(cfg, coherence, table);
    os::Kernel kernel(cfg);
    PrivLib privlib(cfg, coherence, uat, table, kernel);

    std::printf("== protection domains ==\n");
    PrivResult alice_pd = privlib.cget(0);
    PrivResult bob_pd = privlib.cget(1);
    show("cget (alice)", alice_pd);
    show("cget (bob)", bob_pd);
    PdId alice = static_cast<PdId>(alice_pd.value);
    PdId bob = static_cast<PdId>(bob_pd.value);

    std::printf("\n== private memory ==\n");
    PrivResult heap = privlib.mmapFor(0, alice, 8192, Perm::rw());
    show("mmap 8 KB into alice", heap);
    PrivResult argbuf = privlib.mmapFor(0, alice, 512, Perm::rw());
    show("mmap 512 B ArgBuf into alice", argbuf);

    // Enter alice's domain on core 0 and touch the heap.
    privlib.ccall(0, alice);
    tryAccess(uat, 0, "alice reads her heap", heap.value, Perm::r());

    // Bob (core 1) forges alice's pointer: the VTW walks the VMA
    // table, finds no sub-array entry for bob's ucid, and faults.
    privlib.ccall(1, bob);
    tryAccess(uat, 1, "bob forges alice's heap pointer", heap.value,
              Perm::r());

    std::printf("\n== zero-copy sharing via pmove ==\n");
    PrivResult mv = privlib.pmove(0, argbuf.value, bob, Perm::rw());
    show("alice pmoves ArgBuf to bob", mv);
    tryAccess(uat, 1, "bob reads the ArgBuf", argbuf.value, Perm::r());
    tryAccess(uat, 0, "alice reads it after the move", argbuf.value,
              Perm::r());

    std::printf("\n== privilege boundary ==\n");
    tryAccess(uat, 1, "bob loads PrivLib's data VMA",
              privlib.privDataBase(), Perm::r());
    uat::UatAccess gate = uat.fetch(1, privlib.privCodeBase() + 8);
    std::printf("  %-34s %s\n", "bob jumps past the uatg gate",
                gate.ok() ? "ALLOWED" : uat::faultName(gate.fault));
    Fault csr = uat.writeCsr(1, uat::UatCsr::Ucid, alice);
    std::printf("  %-34s %s\n", "bob writes the ucid CSR",
                csr == Fault::None ? "ALLOWED" : uat::faultName(csr));

    std::printf("\n== teardown ==\n");
    // Bob owns the ArgBuf now and frees it from inside his domain;
    // alice trying the same on memory she no longer owns is rejected.
    PrivResult steal = privlib.munmap(0, argbuf.value, 512);
    std::printf("  %-34s %s\n", "alice munmaps bob's ArgBuf",
                steal.ok ? "ALLOWED" : uat::faultName(steal.fault));
    show("bob munmaps his ArgBuf", privlib.munmap(1, argbuf.value, 512));
    show("alice munmaps her heap", privlib.munmap(0, heap.value, 8192));

    // Both harts return to the trusted runtime domain, which retires
    // the PDs (cput refuses while a PD still holds permissions).
    privlib.cexit(0);
    privlib.cexit(1);
    show("cput (alice)", privlib.cput(0, alice));
    show("cput (bob)", privlib.cput(0, bob));
    return 0;
}
