/**
 * @file
 * trace_report: offline analyzer for jordsim trace files.
 *
 * Reads a Chrome trace-event JSON file produced by
 * `jordsim --trace-out=FILE` and prints the Fig. 11-style per-function
 * service-time breakdown table (exec / isolation / dispatch / comm /
 * pipe / wait), recomputed purely from the exported spans:
 *
 *     jordsim --workload Hotel --trace-out trace.json
 *     trace_report trace.json
 *
 * On a run that aborts and retries nothing the table is the run's own
 * per-function accounting (RunResult). In a faulty run it is not: the
 * trace counts aborted attempts as invocations and sums the attempts
 * of a retried request under its one request id.
 *
 * Flags:
 *   --csv   machine-readable output instead of the table
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "sim/logging.hh"
#include "trace/breakdown.hh"
#include "trace/integrity.hh"

using namespace jord;

int
main(int argc, char **argv)
{
    bool csv = false;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0) {
            csv = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::printf("usage: trace_report [--csv] TRACE.json\n");
            return 0;
        } else if (path.empty()) {
            path = argv[i];
        } else {
            sim::fatal("unexpected argument '%s'", argv[i]);
        }
    }
    if (path.empty())
        sim::fatal("usage: trace_report [--csv] TRACE.json");

    trace::requireCompleteTraceFile(path);
    std::ifstream in(path);
    if (!in)
        sim::fatal("cannot open '%s'", path.c_str());
    trace::BreakdownReport report = trace::analyzeChromeTrace(in);
    if (report.rows.empty()) {
        // A complete-but-empty trace (a run where nothing completed
        // inside the measured window) is valid — report it as such
        // instead of misdiagnosing the file.
        if (csv)
            std::printf("fn,invocations,service_us,exec_us,"
                        "isolation_us,dispatch_us,comm_us,pipe_us,"
                        "wait_us,overhead_pct\n");
        else
            std::printf("'%s' is a complete trace with no measured "
                        "invocation spans (empty run)\n",
                        path.c_str());
        return 0;
    }

    if (csv) {
        std::printf("fn,invocations,service_us,exec_us,isolation_us,"
                    "dispatch_us,comm_us,pipe_us,wait_us,overhead_pct\n");
        for (const trace::BreakdownRow &row : report.rows)
            std::printf("%s,%llu,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,"
                        "%.2f\n",
                        row.fn.c_str(),
                        static_cast<unsigned long long>(row.invocations),
                        row.serviceUs, row.execUs, row.isolationUs,
                        row.dispatchUs, row.commUs, row.pipeUs,
                        row.queueUs, row.overheadPct());
        return 0;
    }

    std::string header;
    for (const char *key : {"system", "workload", "mrps", "machine"}) {
        auto it = report.meta.find(key);
        if (it == report.meta.end())
            continue;
        if (!header.empty())
            header += ", ";
        header += std::string(key) + "=" + it->second;
    }
    if (!header.empty())
        std::printf("%s\n", header.c_str());
    std::fputs(trace::renderBreakdown(report).c_str(), stdout);
    return 0;
}
