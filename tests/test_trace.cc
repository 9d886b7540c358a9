/**
 * @file
 * Tests for the src/trace subsystem: span recording and parentage
 * across a nested ccall chain, the metrics registry's find-or-create
 * and kind-collision semantics, golden determinism of the Chrome
 * trace export, and round-tripping the exported JSON through the
 * breakdown analyzer.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "runtime/worker.hh"
#include "tests/tmp_path.hh"
#include "trace/breakdown.hh"
#include "trace/export.hh"
#include "trace/integrity.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace {

using namespace jord;
using runtime::CallSpec;
using runtime::EntryMix;
using runtime::FunctionId;
using runtime::FunctionRegistry;
using runtime::FunctionSpec;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

FunctionSpec
makeSpec(const char *name, double exec_us,
         std::vector<CallSpec> calls = {})
{
    FunctionSpec spec;
    spec.name = name;
    spec.execMeanUs = exec_us;
    spec.execCv = 0.1;
    spec.calls = std::move(calls);
    return spec;
}

/** root -> mid -> leaf, each level one synchronous ccall deep. */
struct Chain {
    FunctionRegistry reg;
    FunctionId leaf, mid, root;

    Chain()
    {
        leaf = reg.add(makeSpec("leaf", 0.5));
        mid = reg.add(makeSpec("mid", 0.8, {{leaf, 256, true}}));
        root = reg.add(makeSpec("root", 1.0, {{mid, 512, true}}));
    }
};

/** Run @p requests externally-arriving root invocations, traced. */
void
runChain(const Chain &chain, trace::Tracer &tracer,
         std::uint64_t requests = 60)
{
    WorkerConfig cfg;
    WorkerServer worker(cfg, chain.reg);
    worker.setTracer(&tracer);
    worker.run(0.05, requests, {{chain.root, 1.0}});
    worker.setTracer(nullptr);
}

// --- Tracer primitives ------------------------------------------------------

TEST(Tracer, RecordsSpansWithParentage)
{
    trace::Tracer tracer;
    trace::SpanId outer =
        tracer.begin("outer", trace::Category::Invoke, 2, 100);
    trace::SpanId inner = tracer.complete(
        "inner", trace::Category::Exec, 2, 150, 40, outer);
    tracer.end(outer, 400);

    ASSERT_EQ(tracer.numSpans(), 2u);
    const trace::SpanRecord &o = tracer.spans()[outer - 1];
    const trace::SpanRecord &i = tracer.spans()[inner - 1];
    EXPECT_EQ(tracer.spanName(o), "outer");
    EXPECT_EQ(o.parent, 0u);
    EXPECT_EQ(o.start, 100u);
    EXPECT_EQ(o.end, 400u);
    EXPECT_FALSE(o.open);
    EXPECT_EQ(i.parent, outer);
    EXPECT_EQ(i.end, 190u);
    EXPECT_EQ(tracer.numOpenSpans(), 0u);

    // Names are interned: a second "inner" reuses the id.
    trace::SpanId again = tracer.complete(
        "inner", trace::Category::Exec, 2, 200, 10);
    EXPECT_EQ(tracer.spans()[again - 1].name, i.name);

    tracer.clear();
    EXPECT_EQ(tracer.numSpans(), 0u);
}

TEST(Tracer, ClockAndCategoryNames)
{
    trace::Tracer tracer;
    EXPECT_EQ(tracer.now(), 0u);
    sim::Tick tick = 1234;
    tracer.setClock([&] { return tick; });
    EXPECT_EQ(tracer.now(), 1234u);

    trace::Category cat;
    ASSERT_TRUE(
        trace::categoryFromName(categoryName(trace::Category::Exec), cat));
    EXPECT_EQ(cat, trace::Category::Exec);
    EXPECT_FALSE(trace::categoryFromName("nonsense", cat));
}

// --- Metrics registry -------------------------------------------------------

TEST(TraceMetrics, FindOrCreateIsIdempotent)
{
    trace::MetricsRegistry registry;
    trace::Counter &a = registry.counter("worker.requests");
    a.add(3);
    trace::Counter &b = registry.counter("worker.requests");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_TRUE(registry.contains("worker.requests"));
    EXPECT_EQ(registry.size(), 1u);
}

TEST(TraceMetrics, NameCollisionAcrossKindsThrows)
{
    trace::MetricsRegistry registry;
    registry.counter("shared.name");
    EXPECT_THROW(registry.gauge("shared.name"), std::logic_error);
    EXPECT_THROW(registry.distribution("shared.name"), std::logic_error);
    registry.gauge("other.name");
    EXPECT_THROW(registry.counter("other.name"), std::logic_error);
}

TEST(TraceMetrics, GaugeIsSimulatedTimeWeighted)
{
    trace::Gauge gauge;
    gauge.set(0, 0);
    gauge.set(4, 100); // level 0 held for 100 ticks
    gauge.set(0, 200); // level 4 held for 100 ticks
    EXPECT_DOUBLE_EQ(gauge.mean(), 2.0);
    EXPECT_DOUBLE_EQ(gauge.max(), 4.0);
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(TraceMetrics, CsvIsDeterministicAndSorted)
{
    trace::MetricsRegistry registry;
    registry.counter("b.count").add(2);
    registry.distribution("c.lat").record(10);
    registry.gauge("a.depth").set(1, 5);
    std::ostringstream first, second;
    registry.writeCsv(first);
    registry.writeCsv(second);
    EXPECT_EQ(first.str(), second.str());
    // Sorted by name: a.depth before b.count before c.lat.
    std::string csv = first.str();
    EXPECT_LT(csv.find("a.depth"), csv.find("b.count"));
    EXPECT_LT(csv.find("b.count"), csv.find("c.lat"));
}

// --- Worker integration: nested ccall chain ---------------------------------

TEST(TraceWorker, NestedCcallSpanParentage)
{
    Chain chain;
    trace::Tracer tracer;
    runChain(chain, tracer);

    const auto &spans = tracer.spans();
    ASSERT_GT(spans.size(), 0u);
    EXPECT_EQ(tracer.numOpenSpans(), 0u);

    // Parents are always recorded before their children.
    for (std::size_t i = 0; i < spans.size(); ++i)
        EXPECT_LE(spans[i].parent, i);

    // Walk every leaf invocation up its parent chain:
    // leaf Invoke -> mid Invoke -> root Invoke -> Request.
    unsigned leaves = 0;
    for (const trace::SpanRecord &rec : spans) {
        if (rec.cat != trace::Category::Invoke ||
            rec.fn != static_cast<std::int32_t>(chain.leaf))
            continue;
        ++leaves;
        ASSERT_NE(rec.parent, 0u);
        const trace::SpanRecord &mid = spans[rec.parent - 1];
        EXPECT_EQ(mid.cat, trace::Category::Invoke);
        EXPECT_EQ(mid.fn, static_cast<std::int32_t>(chain.mid));
        ASSERT_NE(mid.parent, 0u);
        const trace::SpanRecord &root = spans[mid.parent - 1];
        EXPECT_EQ(root.cat, trace::Category::Invoke);
        EXPECT_EQ(root.fn, static_cast<std::int32_t>(chain.root));
        ASSERT_NE(root.parent, 0u);
        const trace::SpanRecord &req = spans[root.parent - 1];
        EXPECT_EQ(req.cat, trace::Category::Request);
        // The child's service window nests inside its parent's.
        EXPECT_GE(rec.start, mid.start);
        EXPECT_LE(rec.end, mid.end);
        EXPECT_GE(mid.start, root.start);
        EXPECT_LE(mid.end, root.end);
        EXPECT_GE(root.start, req.start);
        EXPECT_LE(root.end, req.end);
    }
    EXPECT_EQ(leaves, 60u);

    // Exec segments hang off the invocation that ran them.
    unsigned execs = 0;
    for (const trace::SpanRecord &rec : spans) {
        if (rec.cat != trace::Category::Exec)
            continue;
        ++execs;
        ASSERT_NE(rec.parent, 0u);
        EXPECT_EQ(spans[rec.parent - 1].cat, trace::Category::Invoke);
        EXPECT_EQ(spans[rec.parent - 1].fn, rec.fn);
        EXPECT_GE(rec.end, rec.start);
    }
    EXPECT_GT(execs, 0u);
}

TEST(TraceWorker, DisabledTracerRecordsNothing)
{
    Chain chain;
    WorkerConfig cfg;
    WorkerServer worker(cfg, chain.reg);
    EXPECT_EQ(worker.tracer(), nullptr);
    worker.run(0.05, 20, {{chain.root, 1.0}});
    // Nothing to assert beyond "it ran" — the null-tracer path is the
    // default for every other runtime test in this suite.
}

// --- Golden determinism -----------------------------------------------------

TEST(TraceGolden, SameSeedSameTraceBytes)
{
    Chain chain;
    trace::Tracer first, second;
    runChain(chain, first);
    runChain(chain, second);

    ASSERT_GT(first.numSpans(), 0u);
    EXPECT_EQ(first.numSpans(), second.numSpans());
    EXPECT_EQ(trace::chromeTraceJson(first),
              trace::chromeTraceJson(second));
}

TEST(TraceGolden, ExportIsWellFormed)
{
    Chain chain;
    trace::Tracer tracer;
    runChain(chain, tracer, 10);
    tracer.setMeta("workload", "chain");

    std::string json = trace::chromeTraceJson(tracer);
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"otherData\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"chain\""), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
}

TEST(TraceGolden, ExportLabelsProcessesAndTracksForPerfetto)
{
    trace::Tracer tracer;
    tracer.setProcessName(2, "server 1");
    tracer.setTrackPid(3, 2);
    tracer.setTrackName(3, "server 1");
    tracer.complete("queue", trace::Category::Dispatch, 3, 10, 5);

    std::string json = trace::chromeTraceJson(tracer);
    // Pid 0 keeps the worker default until renamed; the extra pid is
    // announced with its own process_name metadata record.
    EXPECT_NE(json.find("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":"
                        "\"process_name\",\"args\":{\"name\":"
                        "\"jord worker\"}}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":"
                        "\"process_name\",\"args\":{\"name\":"
                        "\"server 1\"}}"),
              std::string::npos);
    // The named track is announced under its owning pid, and the
    // span lands on that pid rather than the default 0.
    EXPECT_NE(json.find("{\"ph\":\"M\",\"pid\":2,\"tid\":3,\"name\":"
                        "\"thread_name\",\"args\":{\"name\":"
                        "\"server 1\"}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\",\"pid\":2,\"tid\":3,"),
              std::string::npos);
    EXPECT_EQ(tracer.trackPid(3), 2u);
    EXPECT_EQ(tracer.trackPid(0), 0u);

    // Renaming pid 0 replaces the default label (fleet traces).
    tracer.setProcessName(0, "jord fleet");
    json = trace::chromeTraceJson(tracer);
    EXPECT_NE(json.find("\"jord fleet\""), std::string::npos);
    EXPECT_EQ(json.find("\"jord worker\""), std::string::npos);
}

// --- Trace-file integrity ----------------------------------------------------

TEST(TraceIntegrity, CompleteButEmptyTraceIsAcceptedTruncationIsNot)
{
    // A span-free run still writes a complete file: header, metadata
    // records, closing sentinel. That must pass the integrity check.
    trace::Tracer tracer;
    std::string json = trace::chromeTraceJson(tracer);
    std::string path = test::tmpPath("empty_trace.json");
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(static_cast<bool>(out));
        out << json;
    }
    trace::requireCompleteTraceFile(path);

    std::string trunc = test::tmpPath("trunc_trace.json");
    {
        std::ofstream out(trunc, std::ios::binary);
        out << json.substr(0, json.size() / 2);
    }
    EXPECT_DEATH(trace::requireCompleteTraceFile(trunc), "truncated");

    std::string zero = test::tmpPath("zero_trace.json");
    {
        std::ofstream out(zero, std::ios::binary);
    }
    EXPECT_DEATH(trace::requireCompleteTraceFile(zero), "zero-byte");
}

// --- Analyzer round-trip ----------------------------------------------------

TEST(TraceBreakdown, ExportRoundTripMatchesLiveAnalysis)
{
    Chain chain;
    trace::Tracer tracer;
    runChain(chain, tracer);

    trace::BreakdownReport live = trace::analyzeSpans(tracer);
    std::istringstream in(trace::chromeTraceJson(tracer));
    trace::BreakdownReport parsed = trace::analyzeChromeTrace(in);

    ASSERT_EQ(live.rows.size(), 3u);
    ASSERT_EQ(parsed.rows.size(), live.rows.size());
    for (std::size_t i = 0; i < live.rows.size(); ++i) {
        const trace::BreakdownRow &a = live.rows[i];
        const trace::BreakdownRow &b = parsed.rows[i];
        EXPECT_EQ(a.fn, b.fn);
        EXPECT_EQ(a.invocations, b.invocations);
        EXPECT_NEAR(a.serviceUs, b.serviceUs, 1e-3);
        EXPECT_NEAR(a.execUs, b.execUs, 1e-3);
        EXPECT_NEAR(a.isolationUs, b.isolationUs, 1e-3);
        EXPECT_NEAR(a.queueUs, b.queueUs, 1e-3);
    }
    const trace::BreakdownRow *leaf = live.row("leaf");
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->fnId, static_cast<std::int32_t>(chain.leaf));
    EXPECT_GT(leaf->execUs, 0.0);
    EXPECT_FALSE(trace::renderBreakdown(live).empty());
}

} // namespace
