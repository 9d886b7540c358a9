#include "trace/breakdown.hh"

#include <algorithm>
#include <unordered_map>

#include "stats/table.hh"
#include "trace/integrity.hh"

namespace jord::trace {

namespace {

/** The five attributable categories, indexed 0..4. */
constexpr unsigned kNumCats = 5;

int
catIndex(Category cat)
{
    switch (cat) {
      case Category::Exec: return 0;
      case Category::Isolation: return 1;
      case Category::Dispatch: return 2;
      case Category::Comm: return 3;
      case Category::Pipe: return 4;
      default: return -1;
    }
}

/** One request's joined accounting while scanning the trace. */
struct PerRequest {
    double catUs[kNumCats] = {0, 0, 0, 0, 0};
    double serviceUs = -1; ///< < 0 until the invoke span is seen
    std::int32_t fn = -1;
    std::string fnName;
    bool measured = false;
};

/** Running per-function aggregate. */
struct FnAgg {
    std::string name;
    std::uint64_t invocations = 0;
    double serviceUs = 0;
    double catUs[kNumCats] = {0, 0, 0, 0, 0};
    double queueUs = 0;
};

BreakdownReport
aggregate(const std::map<std::uint64_t, PerRequest> &reqs,
          std::map<std::string, std::string> meta)
{
    std::map<std::int32_t, FnAgg> byFn;
    for (const auto &[req, pr] : reqs) {
        (void)req;
        // Only invocations that completed inside the measured window
        // contribute, mirroring the runtime's accounting.
        if (pr.serviceUs < 0 || !pr.measured)
            continue;
        FnAgg &agg = byFn[pr.fn];
        if (agg.name.empty())
            agg.name = pr.fnName;
        ++agg.invocations;
        agg.serviceUs += pr.serviceUs;
        double accounted = 0;
        for (unsigned c = 0; c < kNumCats; ++c) {
            agg.catUs[c] += pr.catUs[c];
            accounted += pr.catUs[c];
        }
        // Residual clamped per invocation, as the runtime does (the
        // dispatch share accrues before the service window opens, so
        // short invocations can be over-accounted).
        if (pr.serviceUs > accounted)
            agg.queueUs += pr.serviceUs - accounted;
    }

    BreakdownReport report;
    report.meta = std::move(meta);
    for (const auto &[fn, agg] : byFn) {
        BreakdownRow row;
        row.fn = agg.name;
        row.fnId = fn;
        row.invocations = agg.invocations;
        double n = static_cast<double>(agg.invocations);
        row.serviceUs = agg.serviceUs / n;
        row.execUs = agg.catUs[0] / n;
        row.isolationUs = agg.catUs[1] / n;
        row.dispatchUs = agg.catUs[2] / n;
        row.commUs = agg.catUs[3] / n;
        row.pipeUs = agg.catUs[4] / n;
        row.queueUs = agg.queueUs / n;
        report.rows.push_back(std::move(row));
    }
    return report;
}

} // namespace

double
BreakdownRow::overheadPct() const
{
    double overhead = isolationUs + dispatchUs + pipeUs;
    return serviceUs > 0 ? 100.0 * overhead / serviceUs : 0;
}

const BreakdownRow *
BreakdownReport::row(const std::string &fn) const
{
    for (const BreakdownRow &r : rows)
        if (r.fn == fn)
            return &r;
    return nullptr;
}

BreakdownReport
analyzeChromeTrace(std::istream &in)
{
    // std::map so aggregation visits requests in id order: byFn
    // accumulates floats, and float addition is not associative.
    std::map<std::uint64_t, PerRequest> reqs;
    /** Open async ("b") events awaiting their "e", by span id. */
    struct OpenAsync {
        double tsUs = 0;
        double req = 0;
        double fn = -1;
        std::string name;
        bool measured = false;
    };
    std::unordered_map<std::uint64_t, OpenAsync> openAsync;
    std::map<std::string, std::string> meta;

    std::string line, ph, cat;
    while (std::getline(in, line)) {
        if (line.find("\"otherData\":{") != std::string::npos) {
            std::string value;
            for (const char *key : {"system", "workload", "freq_ghz",
                                    "machine", "mrps", "seed"}) {
                std::string pat = "\"" + std::string(key) + "\":\"";
                if (jsonString(line, pat.c_str(), value))
                    meta[key] = value;
            }
            continue;
        }
        if (!jsonString(line, "\"ph\":\"", ph))
            continue;
        if (ph == "X") {
            double dur = 0, req = 0;
            if (!jsonString(line, "\"cat\":\"", cat) ||
                !jsonNumber(line, "\"dur\":", dur) ||
                !jsonNumber(line, "\"req\":", req))
                continue;
            Category c;
            if (!categoryFromName(cat, c) || catIndex(c) < 0)
                continue;
            PerRequest &pr = reqs[static_cast<std::uint64_t>(req)];
            pr.catUs[catIndex(c)] += dur;
        } else if (ph == "b") {
            double id = 0, ts = 0;
            if (!jsonString(line, "\"cat\":\"", cat) || cat != "invoke" ||
                !jsonNumber(line, "\"id\":", id) ||
                !jsonNumber(line, "\"ts\":", ts))
                continue;
            OpenAsync open;
            open.tsUs = ts;
            jsonNumber(line, "\"req\":", open.req);
            jsonNumber(line, "\"fn\":", open.fn);
            double measured = 0;
            jsonNumber(line, "\"measured\":", measured);
            open.measured = measured != 0;
            jsonString(line, "\"name\":\"", open.name);
            openAsync[static_cast<std::uint64_t>(id)] = open;
        } else if (ph == "e") {
            double id = 0, ts = 0;
            if (!jsonNumber(line, "\"id\":", id) ||
                !jsonNumber(line, "\"ts\":", ts))
                continue;
            auto it = openAsync.find(static_cast<std::uint64_t>(id));
            if (it == openAsync.end())
                continue;
            const OpenAsync &open = it->second;
            PerRequest &pr =
                reqs[static_cast<std::uint64_t>(open.req)];
            pr.serviceUs = ts - open.tsUs;
            pr.fn = static_cast<std::int32_t>(open.fn);
            pr.fnName = open.name;
            pr.measured = open.measured;
            openAsync.erase(it);
        }
    }
    return aggregate(reqs, std::move(meta));
}

std::string
renderBreakdown(const BreakdownReport &report)
{
    stats::Table table({"Fn", "Invocations", "Service (us)", "Exec (us)",
                        "Isolation (us)", "Dispatch (us)", "Comm (us)",
                        "Pipe (us)", "Wait (us)", "Overhead %"});
    for (const BreakdownRow &row : report.rows) {
        table.addRow({row.fn, stats::Table::cell(row.invocations),
                      stats::Table::cell(row.serviceUs, "%.2f"),
                      stats::Table::cell(row.execUs, "%.2f"),
                      stats::Table::cell(row.isolationUs, "%.3f"),
                      stats::Table::cell(row.dispatchUs, "%.3f"),
                      stats::Table::cell(row.commUs, "%.3f"),
                      stats::Table::cell(row.pipeUs, "%.2f"),
                      stats::Table::cell(row.queueUs, "%.2f"),
                      stats::Table::cell(row.overheadPct(), "%.1f")});
    }
    return table.render();
}

} // namespace jord::trace
