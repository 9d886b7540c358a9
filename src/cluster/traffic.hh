/**
 * @file
 * Open-loop traffic models for fleet-scale simulation.
 *
 * A TrafficSource turns a shape description — constant-rate Poisson,
 * a diurnal curve, a flash crowd, or a multi-tenant mix with
 * per-tenant SLOs — into one merged, seeded arrival stream tagged
 * with (tenant, session). Every tenant is an independent
 * sim::ModulatedPoissonArrivals process (Lewis-Shedler thinning over
 * the shared sim/arrivals.hh machinery) with its own split-off Rng,
 * so the merged stream is a pure function of (config, seed): streams
 * merge by arrival tick with ties broken by tenant id, and
 * same-seed runs are byte-identical.
 *
 * Rates are open-loop: arrivals model independent users (the paper's
 * "millions of users" deployment target), so the generator never
 * reacts to fleet state — overload shows up as queueing and shedding,
 * never as back-pressure on the source.
 */

#ifndef JORD_CLUSTER_TRAFFIC_HH
#define JORD_CLUSTER_TRAFFIC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/arrivals.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace jord::cluster {

/** Traffic shapes (jordsim --traffic, bench/fig_cluster). */
enum class TrafficShape {
    Constant, ///< homogeneous Poisson at the base rate
    Diurnal,  ///< sinusoidal rate: base * (1 + amp * sin(2pi t/T))
    Flash,    ///< base rate with a flash-crowd burst window
    Mix,      ///< multi-tenant mix (per-tenant shapes and SLOs)
};

const char *trafficShapeName(TrafficShape shape);

/** One tenant of a multi-tenant mix. */
struct TenantSpec {
    std::string name = "all";
    /** Share of the fleet base rate (weights need not sum to 1). */
    double weight = 1.0;
    /** Per-tenant SLO as a multiple of the fleet SLO. */
    double sloMultiplier = 1.0;
    /** This tenant's own rate shape (Mix tenants differ; for the
     * non-Mix shapes the single implicit tenant carries the shape). */
    TrafficShape shape = TrafficShape::Constant;
};

/** Traffic model configuration. */
struct TrafficConfig {
    TrafficShape shape = TrafficShape::Constant;
    /** Fleet-wide base offered load in MRPS. */
    double mrps = 1.0;
    /** Arrivals are generated for this much simulated time. */
    double durationUs = 20000.0;

    // --- Diurnal parameters ---
    /** Rate swings in [base*(1-amp), base*(1+amp)]. */
    double diurnalAmplitude = 0.6;
    double diurnalPeriodUs = 10000.0;

    // --- Flash-crowd parameters ---
    /** Rate multiplier inside the burst window. */
    double flashFactor = 8.0;
    /** Burst window as fractions of the duration. */
    double flashStartFrac = 0.45;
    double flashEndFrac = 0.60;

    /** Tenants; filled by finalize() when empty (one implicit tenant
     * for the scalar shapes, the default three-tenant mix for Mix). */
    std::vector<TenantSpec> tenants;

    /**
     * Parse a `--traffic` spec: a shape name optionally followed by
     * `:key=value[,key=value...]` overrides (amp, period_ms, factor,
     * start, end). Fatal on an unknown shape or key. The returned
     * config still needs mrps/durationUs and finalize().
     */
    static TrafficConfig parse(const std::string &spec);

    /** Populate default tenants for the shape (idempotent). */
    void finalize();
};

/** One arrival of the merged stream. */
struct Arrival {
    sim::Tick tick = 0;
    std::uint32_t tenant = 0;
    /** Session id (already namespaced per tenant). */
    std::uint64_t session = 0;
};

/**
 * The merged, seeded arrival stream over all tenants.
 */
class TrafficSource
{
  public:
    TrafficSource(const TrafficConfig &cfg, std::uint64_t seed,
                  double freq_ghz = sim::kDefaultFreqGhz);

    /** Next arrival in tick order, or nullopt past the duration. */
    std::optional<Arrival> next();

    std::size_t numTenants() const { return streams_.size(); }
    const TenantSpec &tenant(std::size_t i) const;

    /** End of the generation window in ticks. */
    sim::Tick durationTicks() const { return durationTicks_; }

  private:
    struct Stream {
        TenantSpec spec;
        sim::Rng rng;
        sim::ModulatedPoissonArrivals process;
        /** Tick of this tenant's pending arrival (kTickMax = done). */
        sim::Tick pending = 0;
    };

    void advance(Stream &stream);

    std::vector<Stream> streams_;
    sim::Tick durationTicks_ = 0;
};

} // namespace jord::cluster

#endif // JORD_CLUSTER_TRAFFIC_HH
