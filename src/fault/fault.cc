#include "fault/fault.hh"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace jord::fault {

namespace {

/** splitmix64 finalizer — the workhorse of the stateless hash chain. */
std::uint64_t
smix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Top 53 bits of @p x as a uniform double in [0, 1). */
double
toUnit(std::uint64_t x)
{
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

double
parseProb(const std::string &key, const std::string &val)
{
    char *end = nullptr;
    double v = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0')
        sim::fatal("fault plan: bad value '%s' for key '%s'",
                   val.c_str(), key.c_str());
    if (key != "spikex" && (v < 0.0 || v > 1.0))
        sim::fatal("fault plan: '%s=%s' out of [0,1]",
                   key.c_str(), val.c_str());
    if (key == "spikex" && v < 1.0)
        sim::fatal("fault plan: spikex must be >= 1 (got %s)",
                   val.c_str());
    return v;
}

void
applyKey(FaultRates &r, const std::string &key, const std::string &val)
{
    if (key == "crash")
        r.crash = parseProb(key, val);
    else if (key == "perm")
        r.argbufViolation = parseProb(key, val);
    else if (key == "spike")
        r.spike = parseProb(key, val);
    else if (key == "spikex")
        r.spikeMult = parseProb(key, val);
    else if (key == "drop")
        r.pipeDrop = parseProb(key, val);
    else
        sim::fatal("fault plan: unknown key '%s' "
                   "(expected crash/perm/spike/spikex/drop/seed)",
                   key.c_str());
}

/** Strictly-parsed double for the cluster clause's non-probability
 * keys (durations, multipliers, ids). */
double
parseNum(const std::string &key, const std::string &val)
{
    char *end = nullptr;
    double v = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0')
        sim::fatal("fault plan: bad value '%s' for key 'cluster:%s'",
                   val.c_str(), key.c_str());
    return v;
}

double
parseClusterProb(const std::string &key, const std::string &val)
{
    double v = parseNum(key, val);
    if (v < 0.0 || v > 1.0)
        sim::fatal("fault plan: 'cluster:%s=%s' out of [0,1]",
                   key.c_str(), val.c_str());
    return v;
}

void
applyClusterKey(ClusterFaultRates &r, const std::string &key,
                const std::string &val)
{
    if (key == "crash")
        r.serverCrash = parseClusterProb(key, val);
    else if (key == "restart_ms") {
        r.restartMs = parseNum(key, val);
        if (r.restartMs < 0)
            sim::fatal("fault plan: cluster:restart_ms must be >= 0 "
                       "(got %s)", val.c_str());
    } else if (key == "recover_us") {
        r.recoverUsPerSlot = parseNum(key, val);
        if (r.recoverUsPerSlot < 0)
            sim::fatal("fault plan: cluster:recover_us must be >= 0 "
                       "(got %s)", val.c_str());
    } else if (key == "gray")
        r.gray = parseClusterProb(key, val);
    else if (key == "grayx") {
        r.grayMult = parseNum(key, val);
        if (r.grayMult < 1.0)
            sim::fatal("fault plan: cluster:grayx must be >= 1 "
                       "(got %s)", val.c_str());
    } else if (key == "window_ms") {
        r.windowMs = parseNum(key, val);
        if (r.windowMs <= 0)
            sim::fatal("fault plan: cluster:window_ms must be > 0 "
                       "(got %s)", val.c_str());
    } else if (key == "drop")
        r.linkDrop = parseClusterProb(key, val);
    else if (key == "delay")
        r.linkDelay = parseClusterProb(key, val);
    else if (key == "delay_us") {
        r.linkDelayUs = parseNum(key, val);
        if (r.linkDelayUs < 0)
            sim::fatal("fault plan: cluster:delay_us must be >= 0 "
                       "(got %s)", val.c_str());
    } else if (key == "gray_server")
        r.grayServer = static_cast<int>(parseNum(key, val));
    else if (key == "crash_at_ms")
        r.crashAtMs = parseNum(key, val);
    else if (key == "crash_frac")
        r.crashFrac = parseClusterProb(key, val);
    else
        sim::fatal("fault plan: unknown cluster key '%s' (expected "
                   "crash/restart_ms/recover_us/gray/grayx/window_ms/"
                   "drop/delay/delay_us/gray_server/crash_at_ms/"
                   "crash_frac)",
                   key.c_str());
}

} // namespace

bool
FaultPlan::enabled() const
{
    if (defaults.any())
        return true;
    for (const auto &[name, rates] : byFunction)
        if (rates.any())
            return true;
    return false;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::stringstream clauses(spec);
    std::string clause;
    bool first = true;
    bool seen_cluster = false;
    while (std::getline(clauses, clause, ';')) {
        if (clause.empty())
            continue;
        std::string scope;
        std::string body = clause;
        auto colon = clause.find(':');
        if (colon != std::string::npos) {
            scope = clause.substr(0, colon);
            body = clause.substr(colon + 1);
            if (scope.empty())
                sim::fatal("fault plan: empty function name in '%s'",
                           clause.c_str());
        }
        // The reserved `cluster` scope holds fleet-level events; no
        // deployed function can shadow it.
        bool is_cluster = scope == "cluster";
        if (is_cluster && seen_cluster)
            sim::fatal("fault plan: duplicate cluster clause ('%s')",
                       clause.c_str());
        seen_cluster |= is_cluster;
        FaultRates rates = scope.empty() ? plan.defaults : FaultRates{};
        std::stringstream pairs(body);
        std::string pair;
        while (std::getline(pairs, pair, ',')) {
            if (pair.empty())
                continue;
            auto eq = pair.find('=');
            if (eq == std::string::npos)
                sim::fatal("fault plan: expected key=value, got '%s'",
                           pair.c_str());
            std::string key = pair.substr(0, eq);
            std::string val = pair.substr(eq + 1);
            if (key == "seed") {
                if (!scope.empty())
                    sim::fatal("fault plan: seed is global, not valid "
                               "in clause '%s'", clause.c_str());
                plan.seed = std::strtoull(val.c_str(), nullptr, 10);
                continue;
            }
            if (is_cluster)
                applyClusterKey(plan.cluster, key, val);
            else
                applyKey(rates, key, val);
        }
        if (is_cluster) {
            // nothing else to commit: applyClusterKey wrote in place
        } else if (scope.empty()) {
            if (!first && colon == std::string::npos)
                sim::fatal("fault plan: only the first clause may be "
                           "unscoped ('%s')", clause.c_str());
            plan.defaults = rates;
        } else {
            for (const auto &[name, existing] : plan.byFunction)
                if (name == scope)
                    sim::fatal("fault plan: duplicate clause for "
                               "function '%s' (merge the overrides "
                               "into one clause)", scope.c_str());
            plan.byFunction.emplace_back(scope, rates);
        }
        first = false;
    }
    return plan;
}

void
FaultInjector::configure(const FaultPlan &plan,
                         const std::vector<std::string> &fn_names,
                         std::uint64_t fallback_seed)
{
    seed_ = plan.seed ? plan.seed
                      : smix(fallback_seed ^ 0x9d2c5680a5b85eedull);
    rates_.assign(fn_names.size(), plan.defaults);
    for (const auto &[name, rates] : plan.byFunction) {
        bool found = false;
        for (std::size_t i = 0; i < fn_names.size(); ++i) {
            if (fn_names[i] == name) {
                rates_[i] = rates;
                found = true;
            }
        }
        if (!found)
            sim::fatal("fault plan: no deployed function named '%s'",
                       name.c_str());
    }
    enabled_ = plan.enabled();
}

std::uint64_t
FaultInjector::mix(std::uint64_t req_id, unsigned attempt,
                   unsigned site) const
{
    std::uint64_t h = smix(seed_ ^ smix(req_id));
    h = smix(h ^ (static_cast<std::uint64_t>(attempt) << 32 | site));
    return h;
}

double
FaultInjector::u(std::uint64_t req_id, unsigned attempt,
                 unsigned site) const
{
    return toUnit(mix(req_id, attempt, site));
}

Decision
FaultInjector::decide(std::uint64_t req_id, unsigned attempt,
                      std::uint32_t fn, unsigned num_segments) const
{
    Decision d;
    if (!enabled_ || fn >= rates_.size() || num_segments == 0)
        return d;
    const FaultRates &r = rates_[fn];
    if (!r.any())
        return d;

    // Sites: 0 = fate draw, 1 = segment pick, 2 = fraction, 3 = spike.
    double fate = u(req_id, attempt, 0);
    int seg = -1;
    if (fate < r.crash + r.argbufViolation) {
        seg = static_cast<int>(u(req_id, attempt, 1) * num_segments);
        if (seg >= static_cast<int>(num_segments))
            seg = static_cast<int>(num_segments) - 1;
        // Abort 5%..95% of the way through the chosen segment.
        d.fraction = 0.05 + 0.90 * u(req_id, attempt, 2);
    }
    if (fate < r.crash)
        d.crashSegment = seg;
    else if (fate < r.crash + r.argbufViolation)
        d.violationSegment = seg;
    if (r.spike > 0 && u(req_id, attempt, 3) < r.spike)
        d.spikeMult = r.spikeMult;
    return d;
}

bool
FaultInjector::pipeDrop(std::uint64_t req_id, unsigned attempt,
                        std::uint32_t fn) const
{
    if (!enabled_ || fn >= rates_.size())
        return false;
    const FaultRates &r = rates_[fn];
    // Site 4 keeps the drop draw independent of the fate draw.
    return r.pipeDrop > 0 && u(req_id, attempt, 4) < r.pipeDrop;
}

void
ClusterFaultInjector::configure(const FaultPlan &plan,
                                std::uint64_t fallback_seed)
{
    // A distinct mixing constant keeps the fleet hash stream
    // independent of the worker injector's even when both derive from
    // the same fallback seed.
    std::uint64_t base = plan.seed ? plan.seed : fallback_seed;
    seed_ = smix(base ^ 0x6368616f732121ull);
    rates_ = plan.cluster;
    enabled_ = rates_.any();
}

double
ClusterFaultInjector::u(std::uint64_t a, std::uint64_t b,
                        unsigned site) const
{
    std::uint64_t h = smix(seed_ ^ smix(a));
    h = smix(h ^ (b << 8 | site));
    return toUnit(h);
}

bool
ClusterFaultInjector::crashes(std::uint32_t server,
                              std::uint64_t window) const
{
    return enabled_ && rates_.serverCrash > 0 &&
           u(server, window, 0) < rates_.serverCrash;
}

double
ClusterFaultInjector::crashOffset(std::uint32_t server,
                                  std::uint64_t window) const
{
    return u(server, window, 1);
}

bool
ClusterFaultInjector::grayWindow(std::uint32_t server,
                                 std::uint64_t window) const
{
    if (!enabled_)
        return false;
    if (rates_.grayServer >= 0 &&
        server == static_cast<std::uint32_t>(rates_.grayServer))
        return true;
    return rates_.gray > 0 && u(server, window, 2) < rates_.gray;
}

std::vector<GrayIncident>
ClusterFaultInjector::grayIncidents(std::uint32_t num_servers,
                                    std::uint64_t num_windows) const
{
    std::vector<GrayIncident> runs;
    if (!enabled_ || (rates_.gray <= 0 && rates_.grayServer < 0))
        return runs;
    for (std::uint32_t s = 0; s < num_servers; ++s) {
        bool open = false;
        std::uint64_t begin = 0;
        for (std::uint64_t w = 0; w < num_windows; ++w) {
            bool gray = grayWindow(s, w);
            if (gray && !open) {
                open = true;
                begin = w;
            } else if (!gray && open) {
                open = false;
                runs.push_back(GrayIncident{s, begin, w});
            }
        }
        if (open)
            runs.push_back(GrayIncident{s, begin, num_windows});
    }
    return runs;
}

bool
ClusterFaultInjector::linkDrop(std::uint64_t req_id, unsigned attempt,
                               unsigned copy) const
{
    return enabled_ && rates_.linkDrop > 0 &&
           u(req_id, (static_cast<std::uint64_t>(attempt) << 2) | copy,
             3) < rates_.linkDrop;
}

bool
ClusterFaultInjector::linkDelay(std::uint64_t req_id, unsigned attempt,
                                unsigned copy) const
{
    return enabled_ && rates_.linkDelay > 0 &&
           u(req_id, (static_cast<std::uint64_t>(attempt) << 2) | copy,
             4) < rates_.linkDelay;
}

} // namespace jord::fault
