/**
 * @file
 * Shared helpers for the benchmark harnesses: a standalone Jord stack
 * (machine + coherence + UAT + PrivLib) for microbenchmarks, and output
 * formatting conventions.
 */

#ifndef JORD_BENCH_COMMON_HH
#define JORD_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "os/kernel.hh"
#include "par/par.hh"
#include "privlib/privlib.hh"
#include "prof/profile_json.hh"
#include "sim/logging.hh"
#include "stats/sampler.hh"
#include "uat/btree_table.hh"
#include "uat/uat_system.hh"

namespace jord::bench {

/** Default untimed iterations to warm caches and free lists. */
inline constexpr unsigned kWarmupIters = 32;

/**
 * Warm measurement loop: calls @p op `warmup + iters` times, passing a
 * `measured` flag that turns true once the warmup is done. The body
 * records into caller-owned stats::Samplers only when the flag is set,
 * so multi-op loops (mmap/munmap pairs, triples) share one shape.
 */
template <typename Op>
void
warmIters(unsigned iters, unsigned warmup, Op &&op)
{
    for (unsigned i = 0; i < warmup + iters; ++i)
        op(i >= warmup);
}

/**
 * Measure one operation warm: @p op returns its per-call cycle cost;
 * the returned sampler holds the `iters` post-warmup samples.
 */
template <typename Op>
stats::Sampler
sampleOp(unsigned iters, Op &&op, unsigned warmup = kWarmupIters)
{
    stats::Sampler sampler;
    warmIters(iters, warmup, [&](bool measured) {
        sim::Cycles cost = op();
        if (measured)
            sampler.record(static_cast<double>(cost));
    });
    return sampler;
}

/** Mean of a cycles-valued sampler, converted to nanoseconds. */
inline double
meanNs(const stats::Sampler &sampler,
       double ghz = sim::kDefaultFreqGhz)
{
    return sim::cyclesToNs(sampler.mean(), ghz);
}

/** A self-contained Jord hardware/software stack on one machine. */
struct Stack {
    sim::MachineConfig machine;
    std::unique_ptr<noc::Mesh> mesh;
    std::unique_ptr<mem::CoherenceEngine> coherence;
    std::unique_ptr<uat::VmaTableBase> table;
    std::unique_ptr<uat::UatSystem> uat;
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<privlib::PrivLib> privlib;

    explicit Stack(sim::MachineConfig cfg, bool btree = false)
        : machine(cfg)
    {
        mesh = std::make_unique<noc::Mesh>(machine);
        coherence = std::make_unique<mem::CoherenceEngine>(machine,
                                                           *mesh);
        uat::VaEncoding encoding;
        if (btree)
            table = std::make_unique<uat::BTreeVmaTable>(encoding);
        else
            table = std::make_unique<uat::PlainListVmaTable>(encoding);
        uat = std::make_unique<uat::UatSystem>(machine, *coherence,
                                               *table);
        kernel = std::make_unique<os::Kernel>(machine);
        privlib = std::make_unique<privlib::PrivLib>(
            machine, *coherence, *uat, *table, *kernel);
    }
};

/** Print a section banner matching the paper's table/figure naming. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/**
 * Standard bench CLI: `--quick` shrinks the run for CI perf gating,
 * `--json PATH` overrides where the BENCH_<name>.json summary lands,
 * `--jobs N` fans independent simulation points across N host
 * threads (0 = all cores, default 1; output stays byte-identical to
 * --jobs 1).
 */
struct BenchArgs {
    bool quick = false;
    std::string jsonPath;
    unsigned jobs = 1;

    static BenchArgs
    parse(int argc, char **argv, const std::string &bench_name)
    {
        BenchArgs args;
        args.jsonPath = "BENCH_" + bench_name + ".json";
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--quick") {
                args.quick = true;
            } else if (arg == "--json") {
                if (i + 1 >= argc)
                    sim::fatal("--json requires a value");
                args.jsonPath = argv[++i];
            } else if (arg.rfind("--json=", 0) == 0) {
                args.jsonPath = arg.substr(std::strlen("--json="));
            } else if (arg == "--jobs") {
                if (i + 1 >= argc)
                    sim::fatal("--jobs requires a value");
                args.jobs = par::resolveJobs(static_cast<unsigned>(
                    std::strtoul(argv[++i], nullptr, 10)));
            } else if (arg.rfind("--jobs=", 0) == 0) {
                args.jobs = par::resolveJobs(static_cast<unsigned>(
                    std::strtoul(arg.c_str() + std::strlen("--jobs="),
                                 nullptr, 10)));
            } else {
                sim::fatal("unknown flag '%s' "
                           "(--quick, --json PATH, --jobs N)",
                           arg.c_str());
            }
        }
        return args;
    }

    /** The host-parallel pool for --jobs (null = serial). */
    std::unique_ptr<par::ThreadPool>
    makePool() const
    {
        if (jobs <= 1)
            return nullptr;
        return std::make_unique<par::ThreadPool>(jobs);
    }
};

/** Write the machine-comparable bench summary for tools/jordprof. */
inline void
writeBenchJson(const std::string &path,
               const std::map<std::string, double> &kv)
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("cannot open '%s'", path.c_str());
    prof::writeFlatJson(out, kv);
    std::fprintf(stderr, "wrote %zu bench metrics to %s\n", kv.size(),
                 path.c_str());
}

} // namespace jord::bench

#endif // JORD_BENCH_COMMON_HH
