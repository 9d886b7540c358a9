#include "sim/rng.hh"

#include <cmath>

namespace jord::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    // Lemire's multiply-shift rejection-free approximation is fine here;
    // modulo bias is negligible for simulation workloads but we still use
    // the widening multiply to avoid it entirely for small n.
    unsigned __int128 product =
        static_cast<unsigned __int128>(next()) * n;
    return static_cast<std::uint64_t>(product >> 64);
}

double
Rng::exponential(double mean)
{
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    double u2 = uniform();
    double radius = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    cachedNormal_ = radius * std::sin(theta);
    hasCachedNormal_ = true;
    return radius * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xdeadbeefcafef00dull);
}

} // namespace jord::sim
