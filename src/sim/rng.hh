/**
 * @file
 * Deterministic random number generation for workload models.
 *
 * Wraps xoshiro256** with the distribution helpers the load generator and
 * workload models need (uniform, exponential for Poisson arrivals,
 * lognormal for service times). All randomness in the simulator flows
 * through seeded Rng instances, never through std::random device state,
 * so runs are reproducible.
 */

#ifndef JORD_SIM_RNG_HH
#define JORD_SIM_RNG_HH

#include <array>
#include <cstdint>

namespace jord::sim {

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, n). @p n must be non-zero. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Exponential variate with the given mean (Poisson inter-arrivals). */
    double exponential(double mean);

    /** Standard normal variate (Box-Muller, cached second value). */
    double normal();

    /** Normal variate with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Lognormal variate parameterised by the mean/sigma of log-space. */
    double lognormal(double mu, double sigma);

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p);

    /** Split off an independent child generator (for per-core streams). */
    Rng split();

  private:
    std::array<std::uint64_t, 4> state_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace jord::sim

#endif // JORD_SIM_RNG_HH
