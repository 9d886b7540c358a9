/**
 * @file
 * Pinned output of worker runs with every observer attached.
 *
 * Four fault-injected runs, one per evaluated system, attach the span
 * tracer, the PMU with the sampling profiler and JordSan with every
 * checker family at once. Every artifact those observers produce
 * (Chrome trace, PMU counter and top-down CSVs, folded stacks,
 * profiler time series, JordSan report) and every RunResult field
 * fold into one FNV-1a digest per run. The
 * constants below pin those digests, so a change to the
 * instrumentation path must leave each observer's output
 * byte-identical.
 *
 * Observers are pure: each configuration also runs with nothing
 * attached, and its RunResult must equal the instrumented run's.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "check/check.hh"
#include "fault/fault.hh"
#include "prof/pmu.hh"
#include "prof/profiler.hh"
#include "runtime/worker.hh"
#include "trace/export.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace {

using namespace jord;
using runtime::RunResult;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

/** FNV-1a over the bytes of the strings added. */
class Digest
{
  public:
    void
    add(const std::string &bytes)
    {
        for (unsigned char c : bytes) {
            h_ ^= c;
            h_ *= 0x100000001b3ull;
        }
        // Length-terminate so adjacent artifacts cannot alias.
        for (int i = 0; i < 8; ++i) {
            h_ ^= (bytes.size() >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void
renderSampler(std::ostream &out, const char *name,
              const stats::Sampler &s)
{
    out << name << ' ' << s.count();
    if (!s.empty()) {
        out << ' ' << s.mean() << ' ' << s.min() << ' ' << s.max();
        for (double p : {50.0, 90.0, 99.0, 99.9})
            out << ' ' << s.percentile(p);
    }
    out << '\n';
}

void
renderBreakdown(std::ostream &out, const runtime::Breakdown &bd)
{
    out << bd.exec << ' ' << bd.isolation << ' ' << bd.dispatch << ' '
        << bd.comm << ' ' << bd.pipe << ' ' << bd.queue << '\n';
}

/** Every RunResult field, printed exactly (17 significant digits). */
std::string
renderResult(const RunResult &r)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "offered " << r.offeredMrps << "\nachieved " << r.achievedMrps
        << "\nutilization " << r.executorUtilization << '\n';
    out << "counts " << r.invocations << ' ' << r.completedRequests
        << ' ' << r.failedRequests << ' ' << r.timedOutRequests << ' '
        << r.shedRequests << ' ' << r.retries << ' '
        << r.abortedInvocations << ' ' << r.faultsInjected << '\n';
    renderBreakdown(out, r.totals);
    renderSampler(out, "latency", r.latencyUs);
    renderSampler(out, "service", r.serviceUs);
    renderSampler(out, "failed", r.failedUs);
    renderSampler(out, "timed_out", r.timedOutUs);
    renderSampler(out, "retry_delay", r.retryDelayUs);
    renderSampler(out, "dispatch", r.dispatchNs);
    renderSampler(out, "shootdown", r.shootdownNs);
    for (std::size_t fn = 0; fn < r.perFunctionCount.size(); ++fn) {
        out << "fn " << fn << ' ' << r.perFunctionCount[fn] << '\n';
        renderSampler(out, "service", r.perFunctionServiceUs[fn]);
        renderBreakdown(out, r.perFunctionBreakdown[fn]);
    }
    return out.str();
}

struct Case {
    const char *workload;
    SystemKind system;
    double mrps;
    std::size_t shedCap;
};

WorkerConfig
configFor(const Case &c, bool checked)
{
    WorkerConfig cfg;
    cfg.system = c.system;
    cfg.seed = 3;
    cfg.faultPlan =
        fault::FaultPlan::parse("crash=0.02,perm=0.01,spike=0.05");
    cfg.timeoutUs = 300;
    cfg.maxRetries = 2;
    cfg.shedCap = c.shedCap;
    if (checked)
        cfg.check = check::CheckConfig::all();
    return cfg;
}

constexpr std::uint64_t kRequests = 400;

struct Observed {
    RunResult result;
    std::uint64_t digest = 0;
    std::uint64_t violations = 0;
};

/** One run with the tracer, PMU + profiler and JordSan. */
Observed
runObserved(const Case &c)
{
    workloads::Workload w = workloads::makeByName(c.workload);
    WorkerConfig cfg = configFor(c, true);
    WorkerServer worker(cfg, w.registry);

    trace::Tracer tracer(cfg.machine.freqGhz);
    prof::Pmu pmu(cfg.machine.numCores);
    prof::Profiler::Config pcfg;
    pcfg.freqGhz = cfg.machine.freqGhz;
    prof::Profiler profiler(worker.eventQueue(), worker, pcfg);
    worker.setTracer(&tracer);
    worker.setPmu(&pmu);
    worker.setProfiler(&profiler);

    Observed out;
    out.result = worker.run(c.mrps, kRequests, w.mix);

    std::ostringstream trace_json, counters, topdown, folded, timeseries,
        report;
    trace::writeChromeTrace(tracer, trace_json);
    pmu.writeCountersCsv(counters);
    pmu.writeTopDownCsv(topdown);
    profiler.writeFolded(folded);
    profiler.writeTimeSeriesCsv(timeseries);
    check::Checker *checker = worker.checker();
    checker->report(report);
    out.violations = checker->totalViolations();

    Digest d;
    for (const std::ostringstream *artifact :
         {&trace_json, &counters, &topdown, &folded, &timeseries,
          &report})
        d.add(artifact->str());
    d.add(renderResult(out.result));
    out.digest = d.value();
    return out;
}

/** The same configuration with no observer attached. */
RunResult
runPlain(const Case &c)
{
    workloads::Workload w = workloads::makeByName(c.workload);
    WorkerServer worker(configFor(c, false), w.registry);
    return worker.run(c.mrps, kRequests, w.mix);
}

Observed
checkCase(const Case &c, std::uint64_t pinned)
{
    Observed run = runObserved(c);
    EXPECT_EQ(run.violations, 0u);
    EXPECT_EQ(renderResult(runPlain(c)), renderResult(run.result));
    EXPECT_EQ(run.digest, pinned)
        << "actual 0x" << std::hex << run.digest;
    return run;
}

TEST(ObserverDigest, MediaJord)
{
    Observed run = checkCase({"Media", SystemKind::Jord, 1.0, 256},
                             0x690d0d502e85786dull);
    EXPECT_GT(run.result.retries, 0u);
    EXPECT_GT(run.result.failedRequests, 0u);
    EXPECT_GT(run.result.timedOutRequests, 0u);
}

TEST(ObserverDigest, HotelJordBT)
{
    Observed run = checkCase({"Hotel", SystemKind::JordBT, 1.0, 256},
                             0x074199e90e4ace57ull);
    EXPECT_GT(run.result.retries, 0u);
}

TEST(ObserverDigest, HipsterJordNI)
{
    Observed run = checkCase({"Hipster", SystemKind::JordNI, 2.0, 256},
                             0x400581132518da7dull);
    EXPECT_GT(run.result.retries, 0u);
}

TEST(ObserverDigest, SocialNightCoreOverloaded)
{
    // Past a shed cap of two queued requests per orchestrator.
    Observed run = checkCase({"Social", SystemKind::NightCore, 1.0, 2},
                             0x53188d789f459d11ull);
    EXPECT_GT(run.result.shedRequests, 0u);
    EXPECT_GT(run.result.timedOutRequests, 0u);
}

} // namespace
