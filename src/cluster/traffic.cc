#include "cluster/traffic.hh"

#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace jord::cluster {

const char *
trafficShapeName(TrafficShape shape)
{
    switch (shape) {
      case TrafficShape::Constant: return "constant";
      case TrafficShape::Diurnal: return "diurnal";
      case TrafficShape::Flash: return "flash";
      case TrafficShape::Mix: return "mix";
    }
    return "?";
}

namespace {

/** Distinct sessions generating each tenant's requests (session ids
 * feed the LB's locality/affinity policy). */
constexpr std::uint64_t kSessions = 4096;

TrafficShape
parseShape(const std::string &name)
{
    if (name == "constant")
        return TrafficShape::Constant;
    if (name == "diurnal")
        return TrafficShape::Diurnal;
    if (name == "flash")
        return TrafficShape::Flash;
    if (name == "mix")
        return TrafficShape::Mix;
    sim::fatal("unknown traffic shape '%s' "
               "(constant|diurnal|flash|mix)",
               name.c_str());
}

/**
 * Rate profile of one tenant: a multiplier on its base rate as a
 * function of simulated µs, plus the peak the thinning loop needs.
 * The mix's "bursty" tenant reuses the flash profile; the scalar
 * shapes are carried by the single implicit tenant.
 */
struct Profile {
    sim::RateFn rate;
    double peak = 1.0;
};

Profile
makeProfile(const TrafficConfig &cfg, TrafficShape shape)
{
    switch (shape) {
      case TrafficShape::Constant:
      case TrafficShape::Mix: // per-tenant shapes are resolved before here
        return {[](double) { return 1.0; }, 1.0};
      case TrafficShape::Diurnal: {
          double amp = cfg.diurnalAmplitude;
          double period = cfg.diurnalPeriodUs;
          if (amp < 0 || amp >= 1)
              sim::fatal("diurnal amplitude must be in [0, 1), got %g",
                         amp);
          return {[amp, period](double us) {
                      return 1.0 +
                             amp * std::sin(2.0 * M_PI * us / period);
                  },
                  1.0 + amp};
      }
      case TrafficShape::Flash: {
          double lo = cfg.flashStartFrac * cfg.durationUs;
          double hi = cfg.flashEndFrac * cfg.durationUs;
          double factor = cfg.flashFactor;
          if (factor < 1.0)
              sim::fatal("flash factor must be >= 1, got %g", factor);
          return {[lo, hi, factor](double us) {
                      return us >= lo && us < hi ? factor : 1.0;
                  },
                  factor};
      }
    }
    sim::fatal("unreachable traffic shape");
}

} // namespace

TrafficConfig
TrafficConfig::parse(const std::string &spec)
{
    TrafficConfig cfg;
    std::string name = spec;
    std::string params;
    if (std::size_t colon = spec.find(':'); colon != std::string::npos) {
        name = spec.substr(0, colon);
        params = spec.substr(colon + 1);
    }
    cfg.shape = parseShape(name);
    while (!params.empty()) {
        std::string clause;
        if (std::size_t comma = params.find(',');
            comma != std::string::npos) {
            clause = params.substr(0, comma);
            params = params.substr(comma + 1);
        } else {
            clause = params;
            params.clear();
        }
        std::size_t eq = clause.find('=');
        if (eq == std::string::npos)
            sim::fatal("traffic parameter '%s' is not key=value",
                       clause.c_str());
        std::string key = clause.substr(0, eq);
        double value = std::strtod(clause.c_str() + eq + 1, nullptr);
        if (key == "amp")
            cfg.diurnalAmplitude = value;
        else if (key == "period_ms")
            cfg.diurnalPeriodUs = value * 1000.0;
        else if (key == "factor")
            cfg.flashFactor = value;
        else if (key == "start")
            cfg.flashStartFrac = value;
        else if (key == "end")
            cfg.flashEndFrac = value;
        else
            sim::fatal("unknown traffic parameter '%s' "
                       "(amp, period_ms, factor, start, end)",
                       key.c_str());
    }
    return cfg;
}

void
TrafficConfig::finalize()
{
    if (!tenants.empty())
        return;
    if (shape != TrafficShape::Mix) {
        TenantSpec all;
        all.name = "all";
        all.shape = shape;
        tenants.push_back(all);
        return;
    }
    // The default multi-tenant mix: a latency-sensitive interactive
    // service, a throughput-oriented batch tenant riding a diurnal
    // curve, and a small bursty tenant that flash-crowds.
    TenantSpec interactive;
    interactive.name = "interactive";
    interactive.weight = 0.6;
    interactive.sloMultiplier = 1.0;
    interactive.shape = TrafficShape::Constant;
    TenantSpec batch;
    batch.name = "batch";
    batch.weight = 0.3;
    batch.sloMultiplier = 5.0;
    batch.shape = TrafficShape::Diurnal;
    TenantSpec bursty;
    bursty.name = "bursty";
    bursty.weight = 0.1;
    bursty.sloMultiplier = 2.0;
    bursty.shape = TrafficShape::Flash;
    tenants = {interactive, batch, bursty};
}

TrafficSource::TrafficSource(const TrafficConfig &cfg,
                             std::uint64_t seed, double freq_ghz)
{
    TrafficConfig resolved = cfg;
    resolved.finalize();
    if (resolved.mrps <= 0)
        sim::fatal("traffic rate must be positive, got %g MRPS",
                   resolved.mrps);
    if (resolved.durationUs <= 0)
        sim::fatal("traffic duration must be positive, got %g us",
                   resolved.durationUs);
    durationTicks_ = sim::usToCycles(resolved.durationUs, freq_ghz);

    double total_weight = 0;
    for (const TenantSpec &tenant : resolved.tenants)
        total_weight += tenant.weight;
    if (total_weight <= 0)
        sim::fatal("tenant weights sum to %g", total_weight);

    // One independent seeded stream per tenant; the master Rng only
    // splits children, so adding a tenant never perturbs the others.
    sim::Rng master(seed ^ 0x636c757374657221ull);
    streams_.reserve(resolved.tenants.size());
    for (const TenantSpec &tenant : resolved.tenants) {
        Profile profile = makeProfile(resolved, tenant.shape);
        double share = tenant.weight / total_weight;
        double gap =
            sim::meanGapCycles(resolved.mrps * share, freq_ghz);
        Stream stream{tenant, master.split(),
                      sim::ModulatedPoissonArrivals(
                          gap, profile.peak, profile.rate, freq_ghz),
                      0};
        streams_.push_back(std::move(stream));
        advance(streams_.back());
    }
}

const TenantSpec &
TrafficSource::tenant(std::size_t i) const
{
    if (i >= streams_.size())
        sim::panic("tenant index %zu out of range (%zu tenants)", i,
                   streams_.size());
    return streams_[i].spec;
}

void
TrafficSource::advance(Stream &stream)
{
    if (stream.pending == sim::kTickMax)
        return;
    sim::Tick next =
        stream.process.nextArrivalTick(stream.rng, stream.pending);
    stream.pending = next > durationTicks_ ? sim::kTickMax : next;
}

std::optional<Arrival>
TrafficSource::next()
{
    // Merge by pending tick; ties break by tenant id, so the merged
    // order is independent of container iteration quirks.
    std::size_t best = streams_.size();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        if (streams_[i].pending == sim::kTickMax)
            continue;
        if (best == streams_.size() ||
            streams_[i].pending < streams_[best].pending)
            best = i;
    }
    if (best == streams_.size())
        return std::nullopt;

    Stream &stream = streams_[best];
    Arrival arrival;
    arrival.tick = stream.pending;
    arrival.tenant = static_cast<std::uint32_t>(best);
    arrival.session =
        (static_cast<std::uint64_t>(best) << 32) |
        stream.rng.uniformInt(kSessions);
    advance(stream);
    return arrival;
}

} // namespace jord::cluster
