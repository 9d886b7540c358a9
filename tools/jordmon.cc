/**
 * @file
 * jordmon: incident timelines over the fleet observability artifacts.
 *
 * Works on the `BASE.windows.csv` / `BASE.events.csv` pair written by
 * `jordsim --cluster --obs-interval-ms ... --obs-out BASE`:
 *
 *     jordmon report BASE
 *     jordmon report BASE --json mon.json --heatmap heat.csv
 *     jordmon diff old.json new.json --threshold 10%
 *
 * `report` joins the SLO monitor's alerts against the ground-truth
 * chaos incidents (obs/monitor.hh) and prints, per incident: kind,
 * blast radius (servers and tenants), detect latency (first alert -
 * injection), time-to-recover, and the attributable SLO burn.
 * `--heatmap` adds the per-server x window P99 matrix.
 *
 * `diff` compares two `report --json` summaries the way jordprof diff
 * compares profiles, except every gating key here is lower-is-better:
 * detect latency, TTR, burn, and unmatched (false-positive) alerts
 * regress when they grow. Exits 1 on a regression past the threshold.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/monitor.hh"
#include "prof/profile_json.hh"
#include "sim/logging.hh"

using namespace jord;
using prof::contains;

namespace {

/**
 * jordmon's gate: detect latency, TTR, burn and unmatched alerts, all
 * lower-is-better.
 */
std::optional<double>
regression(const std::string &key, double old_value, double new_value)
{
    if (!contains(key, "ttr") && !contains(key, "detect") &&
        !contains(key, "burn") && !contains(key, "unmatched"))
        return std::nullopt;
    if (contains(key, "detect") && (old_value < 0 || new_value < 0)) {
        // detect_us = -1 means "never detected": losing detection is
        // the regression, gaining it the improvement.
        constexpr double kInf = std::numeric_limits<double>::infinity();
        if (old_value < 0 && new_value >= 0)
            return -kInf;
        if (old_value >= 0 && new_value < 0)
            return kInf;
        return 0.0;
    }
    return prof::relativeRegression(old_value, new_value, false);
}

int
cmdReport(const std::string &base, double slack_us,
          const std::string &json_out, const std::string &heatmap_out)
{
    std::string windows_path = base + ".windows.csv";
    std::string events_path = base + ".events.csv";
    std::ifstream win(windows_path);
    if (!win)
        sim::fatal("cannot open '%s' (jordsim --obs-out %s writes "
                   "it)",
                   windows_path.c_str(), base.c_str());
    std::ifstream evt(events_path);
    if (!evt)
        sim::fatal("cannot open '%s' (jordsim --obs-out %s writes "
                   "it)",
                   events_path.c_str(), base.c_str());
    std::vector<obs::MonWindow> windows =
        obs::parseWindowsCsv(win, windows_path);
    std::vector<obs::MonEvent> events =
        obs::parseEventsCsv(evt, events_path);
    obs::MonReport report =
        obs::buildReport(events, windows, slack_us);

    std::fputs(obs::renderReport(report).c_str(), stdout);

    if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out)
            sim::fatal("cannot open '%s'", json_out.c_str());
        prof::writeFlatJson(out, obs::flatReport(report));
        std::fprintf(stderr, "wrote jordmon summary to %s\n",
                     json_out.c_str());
    }
    if (!heatmap_out.empty()) {
        std::ofstream out(heatmap_out);
        if (!out)
            sim::fatal("cannot open '%s'", heatmap_out.c_str());
        obs::writeHeatmapCsv(windows, out);
        std::fprintf(stderr, "wrote p99 heatmap to %s\n",
                     heatmap_out.c_str());
    }
    return 0;
}

void
printUsage()
{
    std::printf(
        "usage: jordmon report BASE [--slack-us X] [--json FILE]\n"
        "                           [--heatmap FILE]\n"
        "       jordmon diff OLD.json NEW.json [--threshold 10%%]\n"
        "\n"
        "report  join the SLO monitor's alerts in BASE.events.csv\n"
        "        against the ground-truth chaos incidents and print\n"
        "        the incident timeline: detect latency, TTR, blast\n"
        "        radius, attributable burn. --slack-us extends each\n"
        "        incident's attribution horizon (default 5000).\n"
        "        --json writes a flat summary for jordmon diff;\n"
        "        --heatmap writes the server x window P99 CSV\n"
        "diff    compare two report --json summaries and exit 1 when\n"
        "        any detect/ttr/burn/unmatched metric regresses past\n"
        "        the threshold (default 10%%); all gating keys here\n"
        "        are lower-is-better\n");
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
        std::string base, json_out, heatmap_out;
        double slack_us = 5000.0;
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            auto optValue = [&](const char *flag) -> std::string {
                if (std::size_t eq = arg.find('=');
                    eq != std::string::npos)
                    return arg.substr(eq + 1);
                if (i + 1 < argc)
                    return argv[++i];
                sim::fatal("%s requires a value", flag);
            };
            if (arg.rfind("--slack-us", 0) == 0)
                slack_us =
                    std::strtod(optValue("--slack-us").c_str(),
                                nullptr);
            else if (arg.rfind("--json", 0) == 0)
                json_out = optValue("--json");
            else if (arg.rfind("--heatmap", 0) == 0)
                heatmap_out = optValue("--heatmap");
            else if (base.empty())
                base = arg;
            else
                sim::fatal("unexpected argument '%s'", arg.c_str());
        }
        if (base.empty())
            sim::fatal("report expects the BASE of an --obs-out "
                       "artifact pair");
        if (slack_us < 0)
            sim::fatal("--slack-us expects a horizon >= 0, got %g",
                       slack_us);
        return cmdReport(base, slack_us, json_out, heatmap_out);
    }
    if (cmd == "diff")
        return prof::diffCommand({argv + 2, argv + argc}, regression);
    sim::fatal("unknown subcommand '%s' (report|diff)", cmd.c_str());
}
