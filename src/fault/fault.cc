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
            applyKey(rates, key, val);
        }
        if (scope.empty()) {
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

} // namespace jord::fault
