/**
 * @file
 * Fleet observability plane: windowed telemetry accounting, the SLO
 * burn-rate monitor, ground-truth incident events, jordmon's offline
 * incident correlation, and the end-to-end chaos <-> alert join
 * (gray server detected with nonzero latency, crash TTR inside the
 * restart envelope, zero false positives on a clean run).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/monitor.hh"
#include "obs/obs.hh"
#include "prof/profile_json.hh"
#include "tests/tmp_path.hh"
#include "trace/export.hh"
#include "trace/metrics.hh"

namespace {

using namespace jord;

// --- FleetObserver windowed telemetry ---------------------------------------

obs::ObsConfig
windowedConfig()
{
    obs::ObsConfig cfg;
    cfg.intervalUs = 100;
    cfg.sloTargetFrac = 0.9; // 10% error budget
    cfg.burnFastWindows = 2;
    cfg.burnSlowWindows = 4;
    cfg.burnThreshold = 2.0;
    return cfg;
}

std::vector<obs::ObsTenant>
twoTenants()
{
    return {{"gold", 50.0}, {"free", 500.0}};
}

TEST(ObsWindows, FlushAccountsPerServerAndTenant)
{
    obs::FleetObserver obs(windowedConfig(), 2, twoTenants(), 4, 1.0);
    sim::Tick w = obs.windowTicks();
    ASSERT_GT(w, 0u);

    // Server 0 / tenant 0: one completed request inside its SLO.
    obs.onArrival(10, 1, 0, 0, true);
    obs.onStart(20, 1, 0, 0, 0, true);
    obs.onComplete(40, 1, 0, 0, 0, 30'000, false);
    // Server 1 / tenant 1: one shed arrival.
    obs.onShed(15, 1, 1, false);

    std::vector<obs::ServerSnapshot> snap(2);
    snap[0].warmSlots = 3;
    obs.flushWindow(w, snap);

    // Rows are ordered server-major: aggregate first, then active
    // tenants. Server 0 saw tenant 0; server 1 saw tenant 1.
    const std::vector<obs::WindowRow> &rows = obs.windows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].server, 0u);
    EXPECT_EQ(rows[0].tenant, -1);
    EXPECT_EQ(rows[0].arrivals, 1u);
    EXPECT_EQ(rows[0].completions, 1u);
    EXPECT_EQ(rows[0].coldStarts, 1u);
    EXPECT_EQ(rows[0].warmSlots, 3u);
    EXPECT_GT(rows[0].p99Us, 0.0);
    EXPECT_EQ(rows[1].server, 0u);
    EXPECT_EQ(rows[1].tenant, 0);
    EXPECT_EQ(rows[2].server, 1u);
    EXPECT_EQ(rows[2].tenant, -1);
    EXPECT_EQ(rows[2].shed, 1u);
    EXPECT_EQ(rows[3].tenant, 1);

    // A second, idle window still emits the aggregate rows.
    obs.flushWindow(2 * w, snap);
    ASSERT_EQ(obs.windows().size(), 6u);
    EXPECT_EQ(obs.windows()[4].arrivals, 0u);

    // The CSV carries the documented header and the tenant names.
    std::ostringstream csv;
    obs.writeWindowsCsv(csv);
    EXPECT_NE(csv.str().find("window,start_us,end_us,server,tenant,"
                             "arrivals,completions,shed,failed,"
                             "slo_miss,cold_starts,warm_slots,"
                             "queue_depth,occupancy,p50_us,p99_us"),
              std::string::npos);
    EXPECT_NE(csv.str().find(",gold,"), std::string::npos);
    EXPECT_NE(csv.str().find(",free,"), std::string::npos);
}

TEST(ObsSloMonitor, BurnRateAlertRaisesOnBothWindowsAndClearsOnFast)
{
    obs::FleetObserver obs(windowedConfig(), 1, twoTenants(), 4, 1.0);
    sim::Tick w = obs.windowTicks();
    std::vector<obs::ServerSnapshot> snap(1);

    auto window = [&](unsigned idx, unsigned misses) {
        for (unsigned i = 0; i < 10; ++i) {
            std::uint64_t req = idx * 100 + i;
            obs.onArrival(idx * w + i, req, 0, 0, true);
            obs.onComplete(idx * w + i + 1, req, 0, 0, 0, 1000,
                           i < misses);
        }
        obs.flushWindow((idx + 1) * w, snap);
    };

    // Window 0: every request misses its SLO. Burn = (10/10)/0.1 =
    // 10x the budget on both the fast and slow windows -> raise.
    window(0, 10);
    ASSERT_EQ(obs.events().size(), 1u);
    EXPECT_EQ(obs.events()[0].kind, obs::EventKind::AlertRaise);
    EXPECT_EQ(obs.events()[0].tenant, 0);
    EXPECT_NEAR(obs.events()[0].value, 10.0, 1e-9);

    // Window 1 is clean, but the fast (2-window) burn is still
    // (10/20)/0.1 = 5 > 2: the alert holds.
    window(1, 0);
    EXPECT_EQ(obs.events().size(), 1u);

    // Window 2: the fast window is now all-clean -> clear.
    window(2, 0);
    ASSERT_EQ(obs.events().size(), 2u);
    EXPECT_EQ(obs.events()[1].kind, obs::EventKind::AlertClear);

    // The tenant that never erred never alerts.
    trace::MetricsRegistry registry;
    obs.attachMetrics(registry);
    std::ostringstream csv;
    registry.writeCsv(csv);
    EXPECT_NE(csv.str().find("obs.alerts_raised,counter,,1"),
              std::string::npos)
        << csv.str();
    EXPECT_NE(csv.str().find("obs.alerts_cleared,counter,,1"),
              std::string::npos);
}

TEST(ObsIncidents, CrashGrayAndFinalizeCloseOpenIncidents)
{
    obs::FleetObserver obs(windowedConfig(), 2, twoTenants(), 4, 1.0);
    std::vector<obs::ServerSnapshot> snap(2);

    obs.onCrash(1000, 0);
    obs.onRestart(3000, 0);
    obs.onGrayRun(2000, 4000, 1);
    obs.onCrash(5000, 1); // never restarts inside the horizon

    obs.finalize(obs.windowTicks(), snap);

    std::ostringstream csv;
    obs.writeEventsCsv(csv);
    std::string text = csv.str();
    EXPECT_EQ(text.rfind("time_us,end_us,kind,server,tenant,value\n",
                         0),
              0u);
    // Crash on server 0: closed by its restart (1us -> 3us).
    EXPECT_NE(text.find("1.000,3.000,crash,0,,"), std::string::npos)
        << text;
    EXPECT_NE(text.find("2.000,4.000,gray,1,,"), std::string::npos);
    // The still-down server's crash ends at the end of the run.
    EXPECT_NE(text.find("5.000,100.000,crash,1,,"),
              std::string::npos)
        << text;
}

// --- Counter interval snapshots (windowed streams) --------------------------

TEST(ObsMetrics, CounterIntervalResetKeepsCumulativeValue)
{
    trace::Counter c;
    c.add(5);
    EXPECT_EQ(c.intervalReset(), 5u);
    EXPECT_EQ(c.value(), 5u);
    c.add(3);
    EXPECT_EQ(c.intervalReset(), 3u);
    EXPECT_EQ(c.intervalReset(), 0u);
    // The cumulative count survives every interval snapshot.
    EXPECT_EQ(c.value(), 8u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(c.intervalReset(), 0u);
}

TEST(ObsMetrics, RegistryRowsAreNamespacedUnderObsPrefix)
{
    obs::FleetObserver obs(windowedConfig(), 1, twoTenants(), 4, 1.0);
    std::vector<obs::ServerSnapshot> snap(1);
    obs.onGrayRun(0, 10, 0);
    obs.flushWindow(obs.windowTicks(), snap);

    trace::MetricsRegistry registry;
    registry.counter("cluster.completed").add(7);
    obs.attachMetrics(registry);

    std::ostringstream csv;
    registry.writeCsv(csv);
    std::string text = csv.str();
    // The obs counters share the registry without colliding with the
    // cluster namespace, and the CSV stays sorted.
    for (const char *key :
         {"obs.windows", "obs.events", "obs.incidents",
          "obs.alerts_raised", "obs.alerts_cleared"})
        EXPECT_NE(text.find(key), std::string::npos) << key;
    EXPECT_LT(text.find("cluster.completed"), text.find("obs."));
}

// --- Fleet trace labeling ---------------------------------------------------

TEST(ObsTrace, ServersGetLabeledPerfettoProcesses)
{
    obs::ObsConfig cfg;
    cfg.trace = true;
    obs::FleetObserver obs(cfg, 2, twoTenants(), 4, 1.0);
    ASSERT_NE(obs.tracer(), nullptr);

    obs.onArrival(10, 1, 0, 1, true);
    obs.onQueue(10, 1, 0, 1);
    obs.onStart(20, 1, 0, 1, 0, false);
    obs.onComplete(40, 1, 0, 1, 0, 30'000, false);

    std::string json = trace::chromeTraceJson(*obs.tracer());
    // One named process per server plus the front-end LB, and the
    // per-server track bound to its pid.
    EXPECT_NE(json.find("\"process_name\",\"args\":{\"name\":"
                        "\"jord fleet\"}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"name\":\"server 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"server 1\""), std::string::npos);
    EXPECT_EQ(obs.tracer()->trackPid(2), 2u);
    // Fleet span kinds land on the server's track.
    EXPECT_NE(json.find("\"lb_decision\""), std::string::npos);
    EXPECT_NE(json.find("\"warm_hit\""), std::string::npos);
}

// --- jordmon join logic -----------------------------------------------------

obs::MonEvent
monEvent(double start_us, double end_us, const char *kind,
         int server = -1, const char *tenant = "")
{
    obs::MonEvent event;
    event.timeUs = start_us;
    event.endUs = end_us;
    event.kind = kind;
    event.server = server;
    event.tenant = tenant;
    return event;
}

obs::MonWindow
monWindow(std::uint64_t idx, double start_us, double end_us,
          int server, const char *tenant, std::uint64_t arrivals,
          std::uint64_t slo_miss)
{
    obs::MonWindow window;
    window.window = idx;
    window.startUs = start_us;
    window.endUs = end_us;
    window.server = server;
    window.tenant = tenant;
    window.arrivals = arrivals;
    window.sloMiss = slo_miss;
    return window;
}

TEST(MonitorJoin, MergesOverlapsAttributesAlertsAndComputesBurn)
{
    std::vector<obs::MonEvent> events = {
        monEvent(1000, 3000, "crash", 0),
        monEvent(2000, 4000, "gray", 1), // overlaps -> same incident
        monEvent(50000, 50000, "link_drop", 1), // second incident
        monEvent(2500, 2500, "alert_raise", -1, "gold"),
        monEvent(99000, 99000, "alert_raise", -1, "gold"), // false +
    };
    std::vector<obs::MonWindow> windows = {
        monWindow(0, 0, 2000, 0, "*", 100, 10),
        monWindow(0, 0, 2000, 0, "gold", 100, 10),
        monWindow(0, 0, 2000, 1, "*", 50, 0),
        monWindow(1, 2000, 4000, 2, "*", 80, 40), // not in incident
    };

    obs::MonReport report =
        obs::buildReport(events, windows, 5000.0);

    ASSERT_EQ(report.incidents.size(), 2u);
    const obs::MonIncident &merged = report.incidents[0];
    EXPECT_EQ(merged.kind, "crash+gray");
    EXPECT_EQ(merged.startUs, 1000.0);
    EXPECT_EQ(merged.endUs, 4000.0);
    EXPECT_EQ(merged.ttrUs, 3000.0);
    ASSERT_EQ(merged.servers, (std::vector<int>{0, 1}));
    EXPECT_EQ(merged.alerts, 1u);
    EXPECT_EQ(merged.detectUs, 1500.0);
    // Burn counts only aggregate windows on the incident's servers:
    // (10 + 0) errors over (100 + 50) arrivals.
    EXPECT_EQ(merged.errorCount, 10u);
    EXPECT_EQ(merged.arrivalCount, 150u);
    ASSERT_EQ(merged.tenants, (std::vector<std::string>{"gold"}));

    // The isolated link drop: no alert ever covered it.
    EXPECT_EQ(report.incidents[1].kind, "link_drop");
    EXPECT_EQ(report.incidents[1].detectUs, -1.0);

    EXPECT_EQ(report.alertsTotal, 2u);
    EXPECT_EQ(report.unmatchedAlerts, 1u);
    EXPECT_EQ(report.maxTtrUs, 3000.0);
    EXPECT_EQ(report.maxDetectUs, 1500.0);
    // Fleet burn uses every aggregate row: 50 / 230.
    EXPECT_EQ(report.errorCount, 50u);
    EXPECT_EQ(report.arrivalCount, 230u);

    std::string text = obs::renderReport(report);
    EXPECT_NE(text.find("incidents: 2, alerts: 2 (1 unmatched)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("detect=never"), std::string::npos);

    std::map<std::string, double> flat = obs::flatReport(report);
    EXPECT_EQ(flat.at("mon.incidents"), 2.0);
    EXPECT_EQ(flat.at("mon.unmatched_alerts"), 1.0);
    EXPECT_EQ(flat.at("incident0.detect_us"), 1500.0);
    EXPECT_EQ(flat.at("incident1.detect_us"), -1.0);
    EXPECT_EQ(flat.at("incident0.servers"), 2.0);
}

TEST(MonitorJoin, HeatmapIsServerByWindowP99)
{
    std::vector<obs::MonWindow> windows = {
        monWindow(0, 0, 100, 0, "*", 10, 0),
        monWindow(1, 100, 200, 0, "*", 10, 0),
        monWindow(1, 100, 200, 1, "*", 10, 0),
        monWindow(0, 0, 100, 0, "gold", 10, 0), // tenant rows skipped
    };
    windows[0].p99Us = 12.5;
    windows[1].p99Us = 80.0;
    windows[2].p99Us = 7.25;
    std::ostringstream out;
    obs::writeHeatmapCsv(windows, out);
    EXPECT_EQ(out.str(), "server,w0,w1\n"
                         "0,12.500,80.000\n"
                         "1,0.000,7.250\n");
}

TEST(MonitorJoin, CsvParsersRejectForeignHeaders)
{
    std::istringstream bad_windows("nope\n");
    EXPECT_DEATH(obs::parseWindowsCsv(bad_windows, "t"),
                 "not a jordsim obs windows CSV");
    std::istringstream bad_events("time_us,nope\n");
    EXPECT_DEATH(obs::parseEventsCsv(bad_events, "t"),
                 "not a jordsim obs events CSV");
}

// --- End-to-end chaos <-> alert correlation ---------------------------------

std::string
shQuote(const std::string &s)
{
    return "'" + s + "'";
}

int
run(const std::string &cmd)
{
    int status = std::system((cmd + " >/dev/null 2>&1").c_str());
    if (status < 0)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::map<std::string, double>
jordmonSummary(const std::string &base)
{
    std::string json_path = base + ".mon.json";
    EXPECT_EQ(run(std::string(JORD_JORDMON_BIN) + " report " +
                  shQuote(base) + " --json " + shQuote(json_path)),
              0);
    std::ifstream in(json_path);
    EXPECT_TRUE(static_cast<bool>(in)) << json_path;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::map<std::string, double> kv;
    EXPECT_TRUE(jord::prof::parseFlatJson(ss.str(), kv));
    return kv;
}

std::string
obsRun(const std::string &base, const std::string &extra)
{
    return std::string(JORD_JORDSIM_BIN) +
           " --cluster 2 --mrps 1.2 --duration-ms 4"
           " --requests 2000 --health-check --csv"
           " --obs-interval-ms 0.25 --obs-out " +
           shQuote(base) + " " + extra;
}

TEST(ObsCorrelation, GrayServerIsDetectedAndCleanRunStaysSilent)
{
    std::string gray = test::tmpPath("obs_gray");
    ASSERT_EQ(run(obsRun(
                  gray,
                  "--fault-plan 'cluster:gray_server=1,grayx=20'")),
              0);
    std::map<std::string, double> mon = jordmonSummary(gray);
    // The gray server is one incident, detected by the burn-rate
    // monitor with a nonzero (positive, interval-quantised) latency
    // and no false positives.
    EXPECT_EQ(mon.at("mon.incidents"), 1.0);
    EXPECT_GE(mon.at("mon.alerts"), 1.0);
    EXPECT_EQ(mon.at("mon.unmatched_alerts"), 0.0);
    EXPECT_GT(mon.at("mon.max_detect_us"), 0.0);
    EXPECT_LE(mon.at("mon.max_detect_us"), 2000.0);
    EXPECT_GT(mon.at("incident0.burn"), 0.1);

    // The same seed without the fault plan: no incidents, no alerts,
    // zero false positives.
    std::string clean = test::tmpPath("obs_clean");
    ASSERT_EQ(run(obsRun(clean, "")), 0);
    std::map<std::string, double> silent = jordmonSummary(clean);
    EXPECT_EQ(silent.at("mon.incidents"), 0.0);
    EXPECT_EQ(silent.at("mon.alerts"), 0.0);
    EXPECT_EQ(silent.at("mon.unmatched_alerts"), 0.0);
}

TEST(ObsCorrelation, CrashTtrStaysInsideTheRestartEnvelope)
{
    std::string base = test::tmpPath("obs_crash");
    ASSERT_EQ(
        run(obsRun(base,
                   "--fault-plan 'cluster:crash_at_ms=1,"
                   "crash_frac=0.5,restart_ms=2' --retry-budget 0.2")),
        0);
    std::map<std::string, double> mon = jordmonSummary(base);
    ASSERT_EQ(mon.at("mon.incidents"), 1.0);
    EXPECT_GT(mon.at("incident0.detect_us"), 0.0);
    // TTR = scripted restart (2 ms) plus the per-slot warm-pool
    // recovery tail; well under one extra millisecond here.
    EXPECT_GE(mon.at("incident0.ttr_us"), 2000.0);
    EXPECT_LE(mon.at("incident0.ttr_us"), 3000.0);
    EXPECT_EQ(mon.at("mon.unmatched_alerts"), 0.0);
}

} // namespace
