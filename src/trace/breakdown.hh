/**
 * @file
 * Service-time breakdown analyzer (the Fig. 11 view of a trace).
 *
 * Joins every request's category spans (exec / isolation / dispatch /
 * comm / pipe) against its invocation span and aggregates per-function
 * means, attributing the unaccounted remainder of each invocation's
 * service window to queueing/waiting — the same accounting the
 * runtime's RunResult breakdown performs, but recomputed purely from
 * an exported Chrome trace-event JSON file (tools/trace_report).
 *
 * The two agree on a run without faults. A faulty run's trace also
 * counts aborted attempts as invocations, and sums the attempts of a
 * retried request under its one request id, so there the trace's
 * counts and means differ from RunResult's.
 */

#ifndef JORD_TRACE_BREAKDOWN_HH
#define JORD_TRACE_BREAKDOWN_HH

#include <istream>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace jord::trace {

/** Mean per-invocation breakdown of one function's service time. */
struct BreakdownRow {
    std::string fn;
    std::int32_t fnId = -1;
    std::uint64_t invocations = 0;
    double serviceUs = 0;
    double execUs = 0;
    double isolationUs = 0;
    double dispatchUs = 0;
    double commUs = 0;
    double pipeUs = 0;
    double queueUs = 0;

    /** Isolation + dispatch + pipe share of the service time (%). */
    double overheadPct() const;
};

/** The analyzed breakdown plus the trace's identifying metadata. */
struct BreakdownReport {
    std::map<std::string, std::string> meta; ///< system, workload, ...
    std::vector<BreakdownRow> rows;          ///< ordered by fn id

    /** Look a row up by function name; nullptr when absent. */
    const BreakdownRow *row(const std::string &fn) const;
};

/** Parse an exported Chrome trace-event JSON stream and analyze it. */
BreakdownReport analyzeChromeTrace(std::istream &in);

/** Render the report as an aligned ASCII table. */
std::string renderBreakdown(const BreakdownReport &report);

} // namespace jord::trace

#endif // JORD_TRACE_BREAKDOWN_HH
