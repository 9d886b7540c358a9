/**
 * @file
 * Tests for the src/trace subsystem: span recording and parentage
 * across a nested ccall chain, golden determinism of the Chrome trace
 * export, and the breakdown analyzer reading back from the exported
 * JSON the per-function accounting the run itself kept.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "runtime/worker.hh"
#include "tests/tmp_path.hh"
#include "trace/breakdown.hh"
#include "trace/export.hh"
#include "trace/integrity.hh"
#include "trace/trace.hh"

namespace {

using namespace jord;
using runtime::CallSpec;
using runtime::EntryMix;
using runtime::FunctionId;
using runtime::FunctionRegistry;
using runtime::FunctionSpec;
using runtime::RunResult;
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
RunResult
runChain(const Chain &chain, trace::Tracer &tracer,
         std::uint64_t requests = 60)
{
    WorkerConfig cfg;
    WorkerServer worker(cfg, chain.reg);
    worker.setTracer(&tracer);
    RunResult res = worker.run(0.05, requests, {{chain.root, 1.0}});
    worker.setTracer(nullptr);
    return res;
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
    // The breakdown read back from an exported trace is the run's own
    // per-function accounting (the run aborts and retries nothing).
    Chain chain;
    trace::Tracer tracer;
    RunResult res = runChain(chain, tracer);
    std::istringstream in(trace::chromeTraceJson(tracer));
    trace::BreakdownReport parsed = trace::analyzeChromeTrace(in);

    ASSERT_EQ(parsed.rows.size(), 3u);
    const double ghz = WorkerConfig{}.machine.freqGhz;
    for (const trace::BreakdownRow &row : parsed.rows) {
        auto fn = static_cast<FunctionId>(row.fnId);
        ASSERT_LT(fn, res.perFunctionCount.size()) << row.fn;
        ASSERT_EQ(row.invocations, res.perFunctionCount[fn]) << row.fn;
        const runtime::Breakdown &bd = res.perFunctionBreakdown[fn];
        auto us = [&](sim::Cycles cycles) {
            return sim::cyclesToUs(cycles, ghz) /
                   static_cast<double>(row.invocations);
        };
        EXPECT_NEAR(row.serviceUs, res.perFunctionServiceUs[fn].mean(),
                    1e-3)
            << row.fn;
        EXPECT_NEAR(row.execUs, us(bd.exec), 1e-3) << row.fn;
        EXPECT_NEAR(row.isolationUs, us(bd.isolation), 1e-3) << row.fn;
        EXPECT_NEAR(row.dispatchUs, us(bd.dispatch), 1e-3) << row.fn;
        EXPECT_NEAR(row.commUs, us(bd.comm), 1e-3) << row.fn;
        EXPECT_NEAR(row.pipeUs, us(bd.pipe), 1e-3) << row.fn;
        EXPECT_NEAR(row.queueUs, us(bd.queue), 1e-3) << row.fn;
    }
    const trace::BreakdownRow *leaf = parsed.row("leaf");
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->fnId, static_cast<std::int32_t>(chain.leaf));
    EXPECT_GT(leaf->execUs, 0.0);
    EXPECT_FALSE(trace::renderBreakdown(parsed).empty());
}

} // namespace
