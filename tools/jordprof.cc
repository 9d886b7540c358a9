/**
 * @file
 * jordprof: render and compare profile / bench JSON summaries.
 *
 * Works on the flat {"key": number} JSON written by `jordsim --json`,
 * `jordsim --prof-out` (BASE.json) and the bench targets
 * (BENCH_<name>.json):
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

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "prof/profile_json.hh"
#include "sim/logging.hh"

using namespace jord;

namespace {

/** True when @p key contains @p needle. */
bool
contains(const std::string &key, const char *needle)
{
    return key.find(needle) != std::string::npos;
}

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

/**
 * Relative change from @p old_value to @p new_value in the worse
 * direction (positive = regression). A zero baseline cannot regress
 * relatively: a nonzero new value on it is an infinite regression for
 * a lower-is-better key and no change for a higher-is-better one.
 */
double
relativeRegression(double old_value, double new_value,
                   bool higher_is_better)
{
    if (old_value != 0) {
        double delta = (new_value - old_value) / std::fabs(old_value);
        return higher_is_better ? -delta : delta;
    }
    return new_value != 0 && !higher_is_better
               ? std::numeric_limits<double>::infinity()
               : 0;
}

/**
 * jordprof's gate: how much worse @p key got (> 0 = regression), with
 * latency keys regressing upward and throughput keys downward, or
 * nullopt when the key does not gate a diff.
 */
std::optional<double>
regression(const std::string &key, double old_value, double new_value)
{
    if (!isGatingMetric(key))
        return std::nullopt;
    return relativeRegression(old_value, new_value, higherIsBetter(key));
}

/** A --threshold value: a fraction ("0.1") or a percentage ("10%"). */
double
parseThreshold(const std::string &spec)
{
    char *end = nullptr;
    double value = std::strtod(spec.c_str(), &end);
    if (end == spec.c_str() || value < 0)
        sim::fatal("--threshold expects a fraction ('0.1') or a "
                   "percentage ('10%%'), got '%s'",
                   spec.c_str());
    if (*end == '%')
        value /= 100.0;
    else if (*end != '\0')
        sim::fatal("--threshold expects a fraction ('0.1') or a "
                   "percentage ('10%%'), got '%s'",
                   spec.c_str());
    return value;
}

int
diffFiles(const std::string &old_path, const std::string &new_path,
          double threshold)
{
    auto old_kv = prof::loadFlatJson(old_path);
    auto new_kv = prof::loadFlatJson(new_path);

    unsigned regressions = 0, improvements = 0, compared = 0;
    for (const auto &[key, old_value] : old_kv) {
        auto it = new_kv.find(key);
        if (it == new_kv.end()) {
            std::printf("  %-28s only in %s\n", key.c_str(),
                        old_path.c_str());
            continue;
        }
        double new_value = it->second;
        std::optional<double> delta = regression(key, old_value, new_value);
        if (!delta)
            continue;
        ++compared;
        const char *mark = " ";
        if (*delta > threshold) {
            mark = "!";
            ++regressions;
        } else if (*delta < -threshold) {
            mark = "+";
            ++improvements;
        }
        std::printf("%s %-28s %12.6g -> %-12.6g (%+.1f%%)\n", mark,
                    key.c_str(), old_value, new_value,
                    100.0 * (old_value != 0
                                 ? (new_value - old_value) /
                                       std::fabs(old_value)
                                 : 0.0));
    }
    for (const auto &[key, value] : new_kv)
        if (!old_kv.count(key))
            std::printf("  %-28s only in %s\n", key.c_str(),
                        new_path.c_str());

    std::printf("%u metrics compared, %u regressed, %u improved "
                "(threshold %.1f%%)\n",
                compared, regressions, improvements,
                100.0 * threshold);
    return regressions ? 1 : 0;
}

/**
 * `diff OLD.json NEW.json [--threshold 10%]`; @p args are the
 * arguments after "diff". Prints every gating key the two files share
 * and every key only one of them has.
 *
 * @return 1 when any gating key regressed past the threshold (default
 *     10%), else 0.
 */
int
cmdDiff(const std::vector<std::string> &args)
{
    std::vector<std::string> files;
    double threshold = 0.10;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--threshold", 0) == 0) {
            std::string spec;
            if (std::size_t eq = arg.find('='); eq != std::string::npos)
                spec = arg.substr(eq + 1);
            else if (i + 1 < args.size())
                spec = args[++i];
            else
                sim::fatal("--threshold requires a value");
            threshold = parseThreshold(spec);
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2)
        sim::fatal("diff expects OLD.json NEW.json");
    return diffFiles(files[0], files[1], threshold);
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
        return cmdDiff({argv + 2, argv + argc});
    sim::fatal("unknown subcommand '%s' (report|diff)", cmd.c_str());
}
