/**
 * @file
 * Request-scoped span tracer keyed by simulated time.
 *
 * A Tracer collects spans — named intervals of simulated time with
 * parent/child links — emitted by the runtime and the hardware models
 * around request lifecycle stages (arrival, JBSQ dispatch, executor
 * run, nested ccall sub-invocations, ArgBuf transfers) and hardware
 * events (VLB miss walks, VTD shootdowns, pipe round-trips). Because
 * the simulator is deterministic, the recorded span stream is
 * byte-stable across runs with the same seed.
 *
 * Tracing is strictly opt-in: a worker reaches its tracer through its
 * instrumentation channel (runtime::Instruments), which is a null
 * pointer while nothing is attached, so the disabled cost is one
 * pointer test per instrumentation site. All timestamps are simulator
 * ticks; exporters convert to nanoseconds using the machine frequency
 * captured at construction.
 */

#ifndef JORD_TRACE_TRACE_HH
#define JORD_TRACE_TRACE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/arena.hh"
#include "sim/types.hh"

namespace jord::trace {

/** Identifies a recorded span; 0 means "no span". */
using SpanId = std::uint32_t;

/**
 * What a span's duration is attributed to.
 *
 * The first five categories mirror the Fig. 11 service-time breakdown
 * (`runtime::Breakdown`); the analyzer sums only those. The remaining
 * categories carry structure (request/invocation lifecycles) or
 * unattributed detail (hardware events, orchestrator bookkeeping).
 */
enum class Category : std::uint8_t {
    Exec,      ///< function computation segments
    Isolation, ///< PrivLib PD + VMA management
    Dispatch,  ///< orchestrator JBSQ dispatch share
    Comm,      ///< ArgBuf coherence transfers
    Pipe,      ///< NightCore pipe work
    Request,   ///< external request lifetime (arrival -> response)
    Invoke,    ///< one invocation's service window (may span suspends)
    Hw,        ///< hardware events: VTW walks, VLB shootdowns
    Runtime,   ///< unattributed runtime work (intake, provisioning)
};

/** Stable short name of a category (used as the export "cat" field). */
const char *categoryName(Category cat);

/** Parse a category name back; returns false on unknown names. */
bool categoryFromName(std::string_view name, Category &out);

/** Optional attribution attached to a span. */
struct SpanArgs {
    /** Request id the span's cost belongs to (0 = unattributed). */
    std::uint64_t req = 0;
    /** FunctionId of the invocation, -1 when not function-scoped. */
    std::int32_t fn = -1;
    /** Whether the owning request is inside the measured window. */
    bool measured = false;
};

/** One recorded span. Ids are indices + 1 into the span arena. */
struct SpanRecord {
    SpanId parent = 0;
    std::uint32_t name = 0; ///< interned name index
    Category cat = Category::Runtime;
    std::uint16_t track = 0; ///< export thread id (usually a core)
    bool measured = false;
    bool open = true;
    std::int32_t fn = -1;
    sim::Tick start = 0;
    sim::Tick end = 0;
    std::uint64_t req = 0;
};

/**
 * The span collector.
 */
class Tracer
{
  public:
    explicit Tracer(double freq_ghz = sim::kDefaultFreqGhz);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    // --- Clock ------------------------------------------------------

    /**
     * Install the simulated clock (usually the worker's event queue).
     * Modules without their own notion of "now" (the UAT hardware)
     * timestamp their spans through this.
     */
    void setClock(std::function<sim::Tick()> clock)
    {
        clock_ = std::move(clock);
    }

    /** Current simulated time; 0 when no clock is installed. */
    sim::Tick now() const { return clock_ ? clock_() : 0; }

    // --- Recording --------------------------------------------------

    /** Open a span at @p start; close it later with end(). */
    SpanId begin(std::string_view name, Category cat, unsigned track,
                 sim::Tick start, SpanId parent = 0,
                 const SpanArgs &args = {});

    /** Close an open span at @p end_tick. */
    void end(SpanId id, sim::Tick end_tick);

    /** Record a complete span of @p dur ticks starting at @p start. */
    SpanId complete(std::string_view name, Category cat, unsigned track,
                    sim::Tick start, sim::Cycles dur, SpanId parent = 0,
                    const SpanArgs &args = {});

    // --- Metadata ---------------------------------------------------

    /** Attach a key/value pair exported in the trace header. */
    void setMeta(const std::string &key, const std::string &value);

    /** Name an export track ("core 3 (executor)"). */
    void setTrackName(unsigned track, const std::string &name);

    // --- Access -----------------------------------------------------

    /** Recorded spans, in record order. Chunked arena storage: hot
     * instrumentation sites never pay a stream-wide reallocation copy,
     * and clear() parks the chunks for the next run. */
    const sim::Arena<SpanRecord> &spans() const { return spans_; }
    const std::string &name(std::uint32_t id) const { return names_[id]; }
    const std::string &spanName(const SpanRecord &rec) const
    {
        return names_[rec.name];
    }
    const std::map<std::string, std::string> &meta() const
    {
        return meta_;
    }
    const std::map<unsigned, std::string> &trackNames() const
    {
        return trackNames_;
    }
    double freqGhz() const { return freqGhz_; }
    std::size_t numSpans() const { return spans_.size(); }

    /** Number of spans begun but never ended (dropped by exporters). */
    std::size_t numOpenSpans() const;

    /** Drop all recorded spans (metadata and track names stay). */
    void clear();

  private:
    double freqGhz_;
    std::function<sim::Tick()> clock_;
    sim::Arena<SpanRecord> spans_;
    std::vector<std::string> names_;
    std::unordered_map<std::string, std::uint32_t> nameIds_;
    std::map<std::string, std::string> meta_;
    std::map<unsigned, std::string> trackNames_;

    std::uint32_t intern(std::string_view name);
};

} // namespace jord::trace

#endif // JORD_TRACE_TRACE_HH
