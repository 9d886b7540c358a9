/**
 * @file
 * End-to-end tests for the command-line tools, shelling out to the
 * built binaries (paths injected by CMake):
 *
 *  - jordsim --prof-out / --pmu-out produce the advertised files,
 *    byte-identical across same-seed runs, and --prof-hz validates;
 *  - jordsim --json writes a flat summary in every mode but --sweep,
 *    and a single run's summary holds each layer's own counts;
 *  - trace_report and jordlint exit non-zero on empty and truncated
 *    trace files;
 *  - jordprof diff exits zero on identical inputs and non-zero on a
 *    synthetic 20% P99 regression.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "prof/profile_json.hh"
#include "runtime/worker.hh"
#include "tests/tmp_path.hh"
#include "trace/export.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace {

using jord::test::tmpPath;

std::string
shellQuote(const std::string &s)
{
    return "'" + s + "'";
}

/** Run a command with stdout/stderr captured; return its exit code. */
int
runCmd(const std::string &cmd)
{
    int status = std::system((cmd + " >/dev/null 2>&1").c_str());
    if (status < 0)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(out)) << path;
    out << content;
}

const std::string kJordsim = JORD_JORDSIM_BIN;
const std::string kJordprof = JORD_JORDPROF_BIN;
const std::string kTraceReport = JORD_TRACE_REPORT_BIN;
const std::string kJordlint = JORD_JORDLINT_BIN;

std::string
profRun(const std::string &base, const std::string &extra = "")
{
    return kJordsim +
           " --workload Hotel --mrps 2.0 --requests 3000 --csv " +
           extra + " --prof-out " + shellQuote(base);
}

// --- jordsim profiling flags ------------------------------------------------

TEST(JordsimProf, ProfOutWritesAllArtifactsDeterministically)
{
    std::string a = tmpPath("prof_a"), b = tmpPath("prof_b");
    ASSERT_EQ(runCmd(profRun(a)), 0);
    ASSERT_EQ(runCmd(profRun(b)), 0);
    for (const char *ext :
         {".folded", ".timeseries.csv", ".topdown.csv", ".json"}) {
        std::string fa = slurp(a + ext), fb = slurp(b + ext);
        EXPECT_FALSE(fa.empty()) << ext;
        EXPECT_EQ(fa, fb) << ext;
    }
    // The JSON summary parses and reports samples were taken.
    std::string json = slurp(a + ".json");
    EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
    EXPECT_NE(json.find("\"topdown.retire\""), std::string::npos);
    EXPECT_EQ(runCmd(kJordprof + " report " + shellQuote(a + ".json")),
              0);
}

TEST(JordsimProf, PmuOutWritesCounterCsv)
{
    std::string path = tmpPath("pmu.csv");
    ASSERT_EQ(runCmd(kJordsim +
                     " --workload Hotel --mrps 1.0 --requests 2000 "
                     "--csv --pmu-out " +
                     shellQuote(path)),
              0);
    std::string csv = slurp(path);
    EXPECT_NE(csv.find("core,counter,value"), std::string::npos);
    EXPECT_NE(csv.find("retired_ops"), std::string::npos);
    EXPECT_NE(csv.find("total,"), std::string::npos);
}

TEST(JordsimProf, ProfHzValidatesItsArgument)
{
    std::string base = tmpPath("prof_hz");
    // Negative rates are rejected.
    EXPECT_NE(runCmd(profRun(base, "--prof-hz -5")), 0);
    // Rates above one sample per core cycle exceed the event-queue
    // horizon.
    EXPECT_NE(runCmd(profRun(base, "--prof-hz 1e13")), 0);
    // An explicit zero disables profiling: run succeeds, no files.
    std::string off = tmpPath("prof_off");
    std::remove((off + ".json").c_str());
    EXPECT_EQ(runCmd(profRun(off, "--prof-hz 0")), 0);
    std::ifstream probe(off + ".json");
    EXPECT_FALSE(static_cast<bool>(probe));
}

TEST(JordsimProf, HelpDocumentsProfilingFlags)
{
    std::string out = tmpPath("help.txt");
    ASSERT_EQ(std::system((kJordsim + " --help > " + shellQuote(out) +
                           " 2>&1")
                              .c_str()),
              0);
    std::string help = slurp(out);
    EXPECT_NE(help.find("--prof-out"), std::string::npos);
    EXPECT_NE(help.find("--prof-hz"), std::string::npos);
    EXPECT_NE(help.find("--pmu-out"), std::string::npos);
}

// --- trace_report / jordlint robustness --------------------------------------

class TraceToolsTest : public ::testing::Test
{
  protected:
    static std::string tracePath_;

    static void
    SetUpTestSuite()
    {
        tracePath_ = tmpPath("trace.json");
        ASSERT_EQ(runCmd(kJordsim +
                         " --workload Hotel --mrps 1.0 "
                         "--requests 2000 --csv --trace-out " +
                         shellQuote(tracePath_)),
                  0);
    }
};

std::string TraceToolsTest::tracePath_;

TEST_F(TraceToolsTest, ToolsAcceptACompleteTrace)
{
    EXPECT_EQ(runCmd(kTraceReport + " " + shellQuote(tracePath_)), 0);
    EXPECT_EQ(runCmd(kJordlint + " " + shellQuote(tracePath_)), 0);
}

TEST_F(TraceToolsTest, ToolsRejectEmptyTraces)
{
    std::string empty = tmpPath("empty.json");
    spit(empty, "");
    EXPECT_NE(runCmd(kTraceReport + " " + shellQuote(empty)), 0);
    EXPECT_NE(runCmd(kJordlint + " " + shellQuote(empty)), 0);
}

TEST_F(TraceToolsTest, CompleteButEmptyTracePassesIntegrity)
{
    // A complete file with zero spans (nothing arrived inside the
    // measured window) is valid: trace_report reports the empty run
    // and exits 0; jordlint still objects — but because there is
    // nothing to lint, not because the file looks truncated.
    jord::trace::Tracer empty_tracer;
    std::string path = tmpPath("empty_valid.json");
    spit(path, jord::trace::chromeTraceJson(empty_tracer));
    EXPECT_EQ(runCmd(kTraceReport + " " + shellQuote(path)), 0);
    EXPECT_NE(runCmd(kJordlint + " " + shellQuote(path)), 0);
}

TEST_F(TraceToolsTest, ToolsRejectTruncatedTraces)
{
    std::string full = slurp(tracePath_);
    ASSERT_GT(full.size(), 4000u);
    std::string trunc = tmpPath("trunc.json");
    spit(trunc, full.substr(0, full.size() / 2));
    EXPECT_NE(runCmd(kTraceReport + " " + shellQuote(trunc)), 0);
    EXPECT_NE(runCmd(kJordlint + " " + shellQuote(trunc)), 0);
}

// --- jordprof diff ------------------------------------------------------------

TEST(JordprofDiff, IdenticalInputsPassAndRegressionsFail)
{
    std::string old_path = tmpPath("bench_old.json");
    std::string new_path = tmpPath("bench_new.json");
    spit(old_path, "{\n"
                   "  \"fig9.Hotel.Jord.goodput_mrps\": 4.0,\n"
                   "  \"p50_us\": 3.0,\n"
                   "  \"p99_us\": 5.0\n"
                   "}\n");
    EXPECT_EQ(runCmd(kJordprof + " diff " + shellQuote(old_path) + " " +
                     shellQuote(old_path) + " --threshold 10%"),
              0);

    // A synthetic 20% P99 regression must fail a 10% gate.
    spit(new_path, "{\n"
                   "  \"fig9.Hotel.Jord.goodput_mrps\": 4.0,\n"
                   "  \"p50_us\": 3.0,\n"
                   "  \"p99_us\": 6.0\n"
                   "}\n");
    EXPECT_EQ(runCmd(kJordprof + " diff " + shellQuote(old_path) + " " +
                     shellQuote(new_path) + " --threshold 10%"),
              1);
    // ...and pass a 25% gate (threshold accepted as a fraction too).
    EXPECT_EQ(runCmd(kJordprof + " diff " + shellQuote(old_path) + " " +
                     shellQuote(new_path) + " --threshold 0.25"),
              0);

    // Goodput is higher-is-better: a 20% drop fails.
    spit(new_path, "{\n"
                   "  \"fig9.Hotel.Jord.goodput_mrps\": 3.2,\n"
                   "  \"p50_us\": 3.0,\n"
                   "  \"p99_us\": 5.0\n"
                   "}\n");
    EXPECT_EQ(runCmd(kJordprof + " diff " + shellQuote(old_path) + " " +
                     shellQuote(new_path) + " --threshold 10%"),
              1);
}

TEST(JordprofDiff, RejectsEmptyAndMalformedInputs)
{
    std::string empty = tmpPath("empty_bench.json");
    spit(empty, "");
    EXPECT_NE(runCmd(kJordprof + " report " + shellQuote(empty)), 0);
    std::string garbage = tmpPath("garbage_bench.json");
    spit(garbage, "{\"p99_us\": 5.0");
    EXPECT_NE(runCmd(kJordprof + " diff " + shellQuote(garbage) + " " +
                     shellQuote(garbage)),
              0);
}

} // namespace

// --- jordsim fleet mode -----------------------------------------------------

TEST(JordsimCluster, MetricsOutIsPerServerNamespacedAndDeterministic)
{
    std::string a = tmpPath("cluster_a.json"),
                b = tmpPath("cluster_b.json");
    std::string run = kJordsim +
                      " --cluster 2 --lb jsq --traffic diurnal"
                      " --mrps 1.5 --duration-ms 4 --requests 2000"
                      " --csv --json ";
    ASSERT_EQ(runCmd(run + shellQuote(a)), 0);
    ASSERT_EQ(runCmd(run + shellQuote(b)), 0);
    std::string json = slurp(a);
    EXPECT_NE(json.find("cluster.server0.completed"), std::string::npos);
    EXPECT_NE(json.find("cluster.server1.completed"), std::string::npos);
    EXPECT_NE(json.find("cluster.goodput_mrps"), std::string::npos);
    EXPECT_EQ(json, slurp(b));
    // Fleet mode owns the run: trace capture is a per-worker feature.
    EXPECT_NE(runCmd(kJordsim + " --cluster 2 --trace-out " +
                     shellQuote(tmpPath("cluster.trace"))),
              0);
}

TEST(JordsimCluster, HelpDocumentsFleetFlags)
{
    std::string out = tmpPath("cluster_help.txt");
    ASSERT_EQ(std::system((kJordsim + " --help > " + shellQuote(out) +
                           " 2>&1")
                              .c_str()),
              0);
    std::string help = slurp(out);
    EXPECT_NE(help.find("--cluster"), std::string::npos);
    EXPECT_NE(help.find("--lb"), std::string::npos);
    EXPECT_NE(help.find("--traffic"), std::string::npos);
    EXPECT_NE(help.find("--autoscale"), std::string::npos);
}

// --- jordsim flag/mode compatibility matrix ---------------------------------

/** Run a command and capture its combined stdout+stderr. */
int
runCapture(const std::string &cmd, std::string &out)
{
    static int seq = 0;
    std::string path = tmpPath("capture_" + std::to_string(seq++) + ".txt");
    int status = std::system(
        (cmd + " > " + shellQuote(path) + " 2>&1").c_str());
    out = slurp(path);
    if (status < 0)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(JordsimCluster, WorkerOnlyFlagsAreRejectedInClusterMode)
{
    // Each worker-only knob must fail loudly under --cluster with a
    // one-line pointer, not be silently ignored.
    const char *flags[] = {"--fault-plan crash=0.1", "--timeout-us 300",
                           "--max-retries 2", "--retry-backoff-us 10"};
    for (const char *flag : flags) {
        std::string out;
        EXPECT_NE(runCapture(kJordsim + " --cluster 2 --duration-ms 2 " +
                                 flag,
                             out),
                  0)
            << flag;
        EXPECT_NE(out.find("is a worker-only flag and has no effect "
                           "with --cluster (remove it)"),
                  std::string::npos)
            << out;
    }
}

TEST(JordsimCluster, FleetOnlyFlagsAreRejectedInWorkerMode)
{
    const char *flags[] = {"--lb jsq", "--traffic diurnal",
                           "--duration-ms 4", "--slo-us 100",
                           "--autoscale 1..4"};
    for (const char *flag : flags) {
        std::string out;
        EXPECT_NE(runCapture(kJordsim + " --requests 100 " + flag, out),
                  0)
            << flag;
        EXPECT_NE(
            out.find("is a fleet-only flag and requires --cluster N"),
            std::string::npos)
            << out;
    }
}

TEST(JordsimModes, JsonIsRejectedWhereNoModeWritesIt)
{
    // A load sweep rejects --json instead of exiting 0 with no file.
    std::string rejected = tmpPath("json_rejected.json");
    std::remove(rejected.c_str());
    std::string out;
    EXPECT_NE(runCapture(kJordsim +
                             " --workload Hotel --requests 300"
                             " --sweep 0.5:1.0:2 --json " +
                             shellQuote(rejected),
                         out),
              0);
    EXPECT_NE(out.find("does not support --json"), std::string::npos)
        << out;
    EXPECT_FALSE(std::filesystem::exists(rejected));
    // The three modes the help names do write it.
    const char *writers[] = {"", "--seed-sweep 1..2",
                             "--cluster 2 --duration-ms 2"};
    for (const char *mode : writers) {
        std::string json = tmpPath("json_written.json");
        std::remove(json.c_str());
        ASSERT_EQ(runCmd(kJordsim + " --workload Hotel --requests 300 " +
                         mode + " --json " + shellQuote(json)),
                  0)
            << mode;
        EXPECT_EQ(slurp(json).rfind("{", 0), 0u) << mode;
    }
    // --help names all three on the --json line.
    std::string help;
    ASSERT_EQ(runCapture(kJordsim + " --help", help), 0);
    std::size_t at = help.find("--json FILE");
    ASSERT_NE(at, std::string::npos);
    std::string line = help.substr(at, help.find("--trace-out", at) - at);
    EXPECT_NE(line.find("single run"), std::string::npos) << line;
    EXPECT_NE(line.find("--cluster"), std::string::npos) << line;
    EXPECT_NE(line.find("--seed-sweep"), std::string::npos) << line;
}

TEST(JordsimModes, SingleRunJsonReadsEachLayerFromItsOwner)
{
    std::string path = tmpPath("single_run.json");
    ASSERT_EQ(runCmd(kJordsim +
                     " --workload Hotel --mrps 1.0 --requests 2000"
                     " --check --csv --json " +
                     shellQuote(path)),
              0);
    std::map<std::string, double> json;
    ASSERT_TRUE(jord::prof::parseFlatJson(slurp(path), json));
    EXPECT_EQ(runCmd(kJordprof + " report " + shellQuote(path)), 0);

    // The same run in process, without JordSan (a pure observer); each
    // layer's count is its change across run().
    using jord::privlib::PrivOp;
    jord::workloads::Workload w = jord::workloads::makeHotel();
    jord::runtime::WorkerServer worker(jord::runtime::WorkerConfig{},
                                       w.registry);
    auto vlbTotals = [&] {
        std::pair<std::uint64_t, std::uint64_t> hits_misses{0, 0};
        for (unsigned core = 0;
             core < worker.config().machine.numCores; ++core)
            for (const jord::uat::Vlb *vlb :
                 {&worker.uat().ivlb(core), &worker.uat().dvlb(core)}) {
                hits_misses.first += vlb->stats().hits;
                hits_misses.second += vlb->stats().misses;
            }
        return hits_misses;
    };
    const jord::privlib::OpStats pmove0 =
        worker.privlib().stats(PrivOp::Pmove);
    auto vlb0 = vlbTotals();
    std::uint64_t pessimistic0 = worker.uat().vtd().stats().pessimistic;
    jord::runtime::RunResult res = worker.run(1.0, 2000, w.mix);
    const jord::privlib::OpStats &pmove =
        worker.privlib().stats(PrivOp::Pmove);
    auto vlb = vlbTotals();

    auto expectKey = [&](const char *key, std::uint64_t value) {
        ASSERT_EQ(json.count(key), 1u) << key;
        EXPECT_EQ(json.at(key), static_cast<double>(value)) << key;
    };
    expectKey("completed", res.completedRequests);
    expectKey("invocations", res.invocations);
    expectKey("privlib.pmove.calls", pmove.count - pmove0.count);
    expectKey("privlib.pmove.cycles", pmove.cycles - pmove0.cycles);
    expectKey("uat.vlb.hits", vlb.first - vlb0.first);
    expectKey("uat.vlb.misses", vlb.second - vlb0.second);
    expectKey("uat.vtd.shootdowns", res.shootdownNs.count());
    expectKey("uat.vtd.shootdowns_pessimistic",
              worker.uat().vtd().stats().pessimistic - pessimistic0);
    for (const char *family : {"access", "vlb", "difftable"})
        expectKey((std::string("check.violations.") + family).c_str(),
                  0);
    EXPECT_GT(json.at("privlib.pmove.calls"), 0.0);
    EXPECT_NEAR(json.at("p99_us"), res.latencyUs.p99(),
                1e-9 * res.latencyUs.p99());
}

TEST(JordsimModes, SweepRejectsBadRangesBeforeRunning)
{
    // The knee rule reads the loads in ascending order, so a reversed,
    // empty or non-positive range is a one-line error at parse time.
    const char *specs[] = {"9:0.5:4", "0.5:1:0", "0:1:3", "-1:1:3"};
    for (const char *spec : specs) {
        std::string out;
        EXPECT_NE(runCapture(kJordsim +
                                 " --workload Hotel --requests 300"
                                 " --sweep " +
                                 spec,
                             out),
                  0)
            << spec;
        EXPECT_NE(out.find("--sweep expects LO:HI:N with 0 < LO <= HI "
                           "and N >= 1"),
                  std::string::npos)
            << out;
    }
}

// --- detlint static analyzer ------------------------------------------------

namespace {

const std::string kDetlint = JORD_DETLINT_BIN;
const std::string kCorpusDir = JORD_LINT_CORPUS_DIR;
const std::string kSourceDir = JORD_SOURCE_DIR;

/**
 * Reduce detlint text output to the golden `RULE LINE SYMBOL` form,
 * dropping the path prefix and the trailing summary line.
 */
std::string
findingsOf(const std::string &out)
{
    std::istringstream in(out);
    std::string line, result;
    while (std::getline(in, line)) {
        if (line.rfind("detlint:", 0) == 0)
            continue; // summary
        std::size_t path_end = line.find(".cc:");
        if (path_end == std::string::npos)
            continue;
        std::size_t num = path_end + 4;
        std::size_t num_end = line.find(':', num);
        std::size_t rule = num_end + 2;
        std::size_t rule_end = line.find(' ', rule);
        std::size_t sym = line.find('[', rule_end);
        std::size_t sym_end = line.find(']', sym);
        if (num_end == std::string::npos ||
            rule_end == std::string::npos ||
            sym == std::string::npos || sym_end == std::string::npos)
            continue;
        result += line.substr(rule, rule_end - rule) + " " +
                  line.substr(num, num_end - num) + " " +
                  line.substr(sym + 1, sym_end - sym - 1) + "\n";
    }
    return result;
}

} // namespace

TEST(Detlint, CorpusGoldensMatchEveryRule)
{
    namespace fs = std::filesystem;
    unsigned corpus_files = 0;
    for (const auto &entry : fs::directory_iterator(kCorpusDir)) {
        if (entry.path().extension() != ".cc")
            continue;
        ++corpus_files;
        std::string cc = entry.path().string();
        std::string expect =
            entry.path().parent_path() /
            (entry.path().stem().string() + ".expect");
        std::string golden = slurp(expect);
        std::string out;
        int rc = runCapture(kDetlint + " --d4-scope lint_corpus " +
                                shellQuote(cc),
                            out);
        EXPECT_EQ(findingsOf(out), golden) << cc;
        // Exit code mirrors the golden: 1 with findings, 0 without.
        EXPECT_EQ(rc, golden.empty() ? 0 : 1) << cc;
    }
    // Every rule has a firing and a non-firing file, plus the two
    // suppression files.
    EXPECT_EQ(corpus_files, 12u);
}

TEST(Detlint, SuppressionWithoutJustificationIsRejected)
{
    std::string out;
    EXPECT_EQ(runCapture(kDetlint + " " +
                             shellQuote(kCorpusDir + "/supp_bad.cc"),
                         out),
              1);
    EXPECT_NE(out.find("missing justification"), std::string::npos)
        << out;
    EXPECT_NE(out.find("empty justification"), std::string::npos);
    EXPECT_NE(out.find("unknown rule 'D9'"), std::string::npos);
    // The findings a bad suppression tried to hide still fire.
    EXPECT_NE(out.find("raw 'getenv'"), std::string::npos);
}

TEST(Detlint, BaselineAdoptsLegacyFindingsAndGatesNewOnes)
{
    std::string base = tmpPath("detlint_baseline.txt");
    std::string d1 = shellQuote(kCorpusDir + "/d1_pos.cc");
    std::string d5 = shellQuote(kCorpusDir + "/d5_pos.cc");
    std::string out;
    ASSERT_EQ(runCapture(kDetlint + " --write-baseline " +
                             shellQuote(base) + " " + d1,
                         out),
              0);
    // Everything in the baseline: clean exit, nothing new.
    EXPECT_EQ(runCapture(kDetlint + " --baseline " + shellQuote(base) +
                             " " + d1,
                         out),
              0);
    EXPECT_NE(out.find("0 new finding(s), 8 baselined"),
              std::string::npos)
        << out;
    // A file outside the baseline still gates.
    EXPECT_EQ(runCapture(kDetlint + " --baseline " + shellQuote(base) +
                             " " + d1 + " " + d5,
                         out),
              1);
    EXPECT_NE(out.find("d5_pos.cc"), std::string::npos) << out;
    EXPECT_NE(out.find("8 baselined"), std::string::npos) << out;
}

TEST(Detlint, JsonAndSarifAreByteIdenticalAcrossRuns)
{
    std::string sarif_a = tmpPath("detlint_a.sarif");
    std::string sarif_b = tmpPath("detlint_b.sarif");
    std::string run = kDetlint + " --json --d4-scope lint_corpus " +
                      shellQuote(kCorpusDir);
    std::string json_a, json_b;
    EXPECT_EQ(runCapture(run + " --sarif " + shellQuote(sarif_a),
                         json_a),
              1);
    EXPECT_EQ(runCapture(run + " --sarif " + shellQuote(sarif_b),
                         json_b),
              1);
    EXPECT_EQ(json_a, json_b);
    EXPECT_FALSE(json_a.empty());
    std::string sa = slurp(sarif_a), sb = slurp(sarif_b);
    EXPECT_EQ(sa, sb);
    EXPECT_NE(sa.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sa.find("\"ruleId\""), std::string::npos);
}

TEST(Detlint, RepoIsCleanWithAnEmptyBaseline)
{
    // The whole tree lints clean — the CI gate, enforced locally too.
    std::string out;
    EXPECT_EQ(runCapture(kDetlint + " " +
                             shellQuote(kSourceDir + "/src") + " " +
                             shellQuote(kSourceDir + "/tools") + " " +
                             shellQuote(kSourceDir + "/bench") + " " +
                             shellQuote(kSourceDir + "/tests"),
                         out),
              0)
        << out;
    EXPECT_NE(out.find("0 new finding(s)"), std::string::npos) << out;
}
