/**
 * @file
 * jordprof: render and compare profile / bench JSON summaries.
 *
 * Works on the flat {"key": number} JSON written by `jordsim
 * --prof-out` (BASE.json) and by the bench targets (BENCH_<name>.json):
 *
 *     jordprof report profile.json
 *     jordprof diff old.json new.json --threshold 10%
 *
 * `diff` compares the performance metrics the two files share and
 * exits non-zero when any regresses by more than the threshold.
 * Latency-style keys (us/ns suffixes) regress when they grow;
 * throughput-style keys (mrps/goodput/achieved/throughput) regress
 * when they shrink.  Event-count keys (counter.*, topdown.*, samples)
 * are reported for context but never gate.
 */

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "prof/profile_json.hh"
#include "sim/logging.hh"

using namespace jord;
using prof::contains;

namespace {

/** Throughput-style metric: a decrease is the regression. */
bool
higherIsBetter(const std::string &key)
{
    return contains(key, "mrps") || contains(key, "goodput") ||
           contains(key, "achieved") || contains(key, "throughput");
}

/** Keys that gate a diff; the rest is informational context. */
bool
isGatingMetric(const std::string &key)
{
    // Event counts and sample totals are context, never a gate
    // ("counter.noc_msgs" must not match the "_ms" latency suffix).
    if (key.rfind("counter.", 0) == 0 || key.rfind("topdown.", 0) == 0 ||
        key == "samples" || key == "total_ticks")
        return false;
    static const char *const kPatterns[] = {
        "_us",  ".us",  "_ns",     ".ns",      "_ms",    ".ms",
        "mrps", "goodput", "achieved", "throughput", "latency",
    };
    for (const char *pattern : kPatterns)
        if (contains(key, pattern))
            return true;
    return false;
}

/** jordprof's gate: latency keys regress upward, throughput downward. */
std::optional<double>
regression(const std::string &key, double old_value, double new_value)
{
    if (!isGatingMetric(key))
        return std::nullopt;
    return prof::relativeRegression(old_value, new_value,
                                    higherIsBetter(key));
}

int
cmdReport(const std::string &path)
{
    auto kv = prof::loadFlatJson(path);
    std::printf("%s (%zu keys)\n", path.c_str(), kv.size());
    std::string group;
    for (const auto &[key, value] : kv) {
        std::size_t dot = key.find('.');
        std::string prefix =
            dot == std::string::npos ? "" : key.substr(0, dot);
        if (prefix != group) {
            group = prefix;
            std::printf("\n[%s]\n", group.c_str());
        }
        std::printf("  %-28s %.6g\n", key.c_str(), value);
    }
    return 0;
}

void
printUsage()
{
    std::printf(
        "usage: jordprof report FILE.json\n"
        "       jordprof diff OLD.json NEW.json [--threshold 10%%]\n"
        "\n"
        "report  pretty-print a profile/bench JSON summary\n"
        "diff    compare performance metrics of two summaries and\n"
        "        exit 1 when any regresses past the threshold\n"
        "        (default 10%%); latency keys regress upward,\n"
        "        throughput keys downward\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printUsage();
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        printUsage();
        return 0;
    }
    if (cmd == "report") {
        if (argc != 3)
            sim::fatal("report expects exactly one FILE.json");
        return cmdReport(argv[2]);
    }
    if (cmd == "diff")
        return prof::diffCommand({argv + 2, argv + argc}, regression);
    sim::fatal("unknown subcommand '%s' (report|diff)", cmd.c_str());
}
