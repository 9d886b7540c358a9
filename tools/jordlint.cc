/**
 * @file
 * jordlint: offline isolation-lifecycle linter for jordsim traces.
 *
 * Reads a Chrome trace-event JSON file produced by
 * `jordsim --trace-out=FILE` and re-derives the per-request PD and
 * ArgBuf lifecycles purely from the exported spans — independently of
 * the in-process JordSan checker — then flags requests whose lifecycle
 * does not balance:
 *
 *   - a PD set up (pd_setup) with no matching retire (pd_teardown) or
 *     abort-path reclaim (abort.reclaim), and vice versa;
 *   - a JordNI stack/heap VMA set up (vma_setup) that is never torn
 *     down (vma_teardown) or reclaimed;
 *   - an ArgBuf answered (argbuf.respond) before it was ever read
 *     (argbuf.read), i.e. a response that cannot have consumed the
 *     request's input;
 *   - invocation/request lifecycle spans still open at end of trace.
 *
 * Usage:
 *     jordsim --workload Hotel --trace-out trace.json
 *     jordlint trace.json            # exit 1 if anything is flagged
 *
 * Flags:
 *   --verbose   also print per-request lifecycle tallies
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "sim/logging.hh"
#include "trace/integrity.hh"

namespace {

using jord::trace::jsonNumber;
using jord::trace::jsonString;

/** Lifecycle tallies re-derived for one request id. */
struct ReqLifecycle {
    unsigned pdSetups = 0;
    unsigned pdTeardowns = 0;
    unsigned vmaSetups = 0;
    unsigned vmaTeardowns = 0;
    unsigned abortReclaims = 0;
    unsigned argbufReads = 0;
    unsigned argbufResponds = 0;
    double firstReadTs = -1;
    double firstRespondTs = -1;
};

/** One async lifecycle span awaiting its end event. */
struct OpenSpan {
    std::string name;
    double req = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool verbose = false;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--verbose") == 0) {
            verbose = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            std::printf("usage: jordlint [--verbose] TRACE.json\n");
            return 0;
        } else if (path.empty()) {
            path = argv[i];
        } else {
            jord::sim::fatal("unexpected argument '%s'", argv[i]);
        }
    }
    if (path.empty())
        jord::sim::fatal("usage: jordlint [--verbose] TRACE.json");

    jord::trace::requireCompleteTraceFile(path);
    std::ifstream in(path);
    if (!in)
        jord::sim::fatal("cannot open '%s'", path.c_str());

    std::map<std::uint64_t, ReqLifecycle> reqs;
    // std::map so still-open spans print in span-id order at the end.
    std::map<std::uint64_t, OpenSpan> open;
    std::uint64_t spanLines = 0;

    std::string line, ph, name;
    while (std::getline(in, line)) {
        if (!jsonString(line, "\"ph\":\"", ph))
            continue;
        if (ph == "X") {
            double req = 0, ts = 0;
            if (!jsonString(line, "\"name\":\"", name) ||
                !jsonNumber(line, "\"req\":", req) || req == 0)
                continue;
            jsonNumber(line, "\"ts\":", ts);
            ++spanLines;
            ReqLifecycle &rl = reqs[static_cast<std::uint64_t>(req)];
            if (name == "pd_setup") {
                ++rl.pdSetups;
            } else if (name == "pd_teardown") {
                ++rl.pdTeardowns;
            } else if (name == "vma_setup") {
                ++rl.vmaSetups;
            } else if (name == "vma_teardown") {
                ++rl.vmaTeardowns;
            } else if (name == "abort.reclaim") {
                ++rl.abortReclaims;
            } else if (name == "argbuf.read") {
                ++rl.argbufReads;
                if (rl.firstReadTs < 0)
                    rl.firstReadTs = ts;
            } else if (name == "argbuf.respond") {
                ++rl.argbufResponds;
                if (rl.firstRespondTs < 0)
                    rl.firstRespondTs = ts;
            }
        } else if (ph == "b") {
            double id = 0;
            std::string cat;
            if (!jsonString(line, "\"cat\":\"", cat) ||
                (cat != "invoke" && cat != "request") ||
                !jsonNumber(line, "\"id\":", id))
                continue;
            OpenSpan span;
            jsonString(line, "\"name\":\"", span.name);
            jsonNumber(line, "\"req\":", span.req);
            open[static_cast<std::uint64_t>(id)] = span;
        } else if (ph == "e") {
            double id = 0;
            if (jsonNumber(line, "\"id\":", id))
                open.erase(static_cast<std::uint64_t>(id));
        }
    }
    if (reqs.empty() && open.empty())
        jord::sim::fatal("'%s' holds no request-attributed spans "
                         "(was the run traced?)", path.c_str());

    unsigned findings = 0;
    auto flag = [&](std::uint64_t req, const char *what) {
        std::printf("jordlint: request %llu: %s\n",
                    static_cast<unsigned long long>(req), what);
        ++findings;
    };

    for (const auto &[req, rl] : reqs) {
        // Every isolation setup must retire through the epilogue or
        // the abort path; an unbalanced count is a leak (or a double
        // teardown) that outlived the run.
        unsigned setups = rl.pdSetups + rl.vmaSetups;
        unsigned teardowns =
            rl.pdTeardowns + rl.vmaTeardowns + rl.abortReclaims;
        if (setups > teardowns)
            flag(req, "PD/VMA set up but never torn down or "
                      "abort-reclaimed");
        else if (teardowns > setups && rl.abortReclaims == 0)
            flag(req, "PD/VMA teardown without a matching setup");
        if (rl.argbufResponds > 0 && rl.argbufReads == 0)
            flag(req, "ArgBuf response without a prior input read");
        else if (rl.argbufResponds > 0 && rl.firstRespondTs >= 0 &&
                 rl.firstReadTs > rl.firstRespondTs)
            flag(req, "ArgBuf response precedes the first input read");
        if (verbose)
            std::printf("  req %llu: pd %u/%u vma %u/%u abort %u "
                        "argbuf %u/%u\n",
                        static_cast<unsigned long long>(req),
                        rl.pdSetups, rl.pdTeardowns, rl.vmaSetups,
                        rl.vmaTeardowns, rl.abortReclaims,
                        rl.argbufReads, rl.argbufResponds);
    }
    for (const auto &[id, span] : open) {
        std::printf("jordlint: span %llu (%s, request %llu) still "
                    "open at end of trace\n",
                    static_cast<unsigned long long>(id),
                    span.name.c_str(),
                    static_cast<unsigned long long>(span.req));
        ++findings;
    }

    std::printf("jordlint: %zu request(s), %llu lifecycle span(s), "
                "%u finding(s)\n",
                reqs.size(),
                static_cast<unsigned long long>(spanLines), findings);
    return findings == 0 ? 0 : 1;
}
