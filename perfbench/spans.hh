/**
 * @file
 * In-memory span recording for the benchmark's traced run.
 *
 * Two kinds of record, both kept in memory and written out at the end:
 *
 *   - Top-level spans, opened by the runner around the calls it makes
 *     itself (model build, server construction or calibration, run),
 *     each with its parent span and rep number.
 *   - Inner calls into each layer's public functions, entered through
 *     the generated --wrap interposers. A worker rep makes millions of
 *     them, so they are aggregated per (phase, function, calling
 *     function) as calls, inclusive time and self time.
 *
 * Self time is inclusive time minus the inclusive time of the wrapped
 * calls made inside it, less the calibrated cost a wrapper adds: the
 * part of each child's wrapper outside the child's own timestamps
 * (charged to the parent) and the part inside them (charged to the
 * call itself).
 *
 * The recorder is single-threaded; the runner runs on one thread.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

/** A wrapped function: its layer and a Class.method label. */
struct WrappedFn {
    const char *layer;
    const char *label;
};

/** The wrapped-function table (generated wrap.cc, or empty). */
extern const WrappedFn kWrapped[];
extern const std::size_t kNumWrapped;

namespace spans {

using Ticks = std::uint64_t;

/** steady_clock nanoseconds. */
Ticks nowNs();

/** Raw timestamp: the TSC on x86-64, steady_clock ns elsewhere. */
inline Ticks
now()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return nowNs();
#endif
}

/** Sums for one (phase, function, caller) key. */
struct Agg {
    std::uint64_t calls = 0;
    /** Inclusive and self time, in ticks. */
    double incl = 0;
    double self = 0;
};

/** Caller index of calls made directly from a top-level span. */
inline std::size_t
topCaller()
{
    return kNumWrapped;
}

/** Enter wrapped function @p fn at time @p t. */
void enter(std::size_t fn, Ticks t);

/** Leave the innermost wrapped function at time @p t. */
void leave(Ticks t);

/** RAII frame used by every generated wrapper. */
struct Frame {
    explicit Frame(std::size_t fn) { enter(fn, now()); }
    ~Frame() { leave(now()); }
    Frame(const Frame &) = delete;
    Frame &operator=(const Frame &) = delete;
};

/**
 * Open a top-level span named @p name under @p parent (-1 for none);
 * inner calls made while it is open are aggregated under the phase
 * @p name. @return the span's id.
 */
int open(const std::string &name, int parent, int rep);

/** Close a span opened with open(); later inner calls are aggregated
 * under its parent's phase ("idle" for a top-level span). */
void close(int id);

/** Per-call wrapper cost in ticks: inside and outside a child's own
 * timestamps. */
void setOverhead(double inside, double outside);

/** Measure the wrapper cost on an empty function and set it. */
void calibrateOverhead();

/** The aggregate of @p fn called from @p caller in @p phase. */
const Agg &agg(std::size_t phase, std::size_t fn, std::size_t caller);

/** Forget every span and aggregate (keeps the overhead). */
void reset();

/** Write spans and aggregates as one JSON object. */
void writeJson(std::FILE *out);

} // namespace spans
} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
