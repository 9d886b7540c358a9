/**
 * @file
 * The benchmark's host-speed yardstick: a fixed memory-bound kernel in
 * std-only code, sharing nothing with the simulator.
 *
 * The runner runs one slice of it in a fresh process between every two
 * timed reps, so the slice sees the host as the reps around it did,
 * while its memory never counts toward the runner's peak RSS and no
 * heap state left by the simulator can change its work. The slice
 * prints the host seconds of each phase and a checksum of the work.
 *
 * The phases mirror what the simulator's host time is made of: hash
 * map probes, inserts and erases with node allocation on a cache-sized
 * table (like per-core state) and on a DRAM-sized one (like the
 * coherence line table of a large machine), and first touches of fresh
 * memory, which are most of a WorkerServer's construction. The work is
 * the same on every run; only the host's speed changes the time.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace {

/** xorshift64: a fixed pseudo-random key stream. */
struct KeyStream {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;

    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

/**
 * Fill a map with @p size keys drawn from a space twice as large, then
 * toggle @p ops random keys: erase when present, insert when absent.
 * The map stays near @p size entries while nodes churn through the
 * allocator.
 */
std::uint64_t
churn(KeyStream &keys, std::uint64_t size, std::uint64_t ops)
{
    std::uint64_t space = 2 * size;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    map.reserve(size);
    for (std::uint64_t i = 0; i < size; ++i)
        map.emplace(keys.next() % space, i);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        std::uint64_t key = keys.next() % space;
        auto it = map.find(key);
        if (it != map.end()) {
            sum += it->second;
            map.erase(it);
        } else {
            map.emplace(key, i);
        }
    }
    return sum + map.size();
}

/** Touch @p bytes of fresh memory; the kernel faults every page in. */
std::uint64_t
fault(std::uint64_t bytes)
{
    std::vector<std::uint64_t> pages(bytes / sizeof(std::uint64_t));
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < pages.size(); i += 512)
        sum += pages[i];
    return sum + pages.size();
}

} // namespace

int
main()
{
    using Clock = std::chrono::steady_clock;
    auto seconds = [](Clock::time_point from) {
        return std::chrono::duration<double>(Clock::now() - from).count();
    };
    KeyStream keys;
    auto start = Clock::now();
    std::uint64_t sum = churn(keys, std::uint64_t{1} << 14, 1600000);
    double cache_s = seconds(start);
    auto mid = Clock::now();
    sum += churn(keys, std::uint64_t{1} << 18, 240000);
    double dram_s = seconds(mid);
    auto last = Clock::now();
    for (int i = 0; i < 4; ++i)
        sum += fault(std::uint64_t{16} << 20);
    double fault_s = seconds(last);
    std::printf("%.9f %.9f %.9f %llu\n", cache_s, dram_s, fault_s,
                static_cast<unsigned long long>(sum));
    return 0;
}
