#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

namespace perfbench::spans {

namespace {

struct Active {
    std::size_t fn;
    Ticks start;
    /** Inclusive ticks of wrapped calls made inside this one. */
    Ticks child;
    std::uint32_t children;
};

struct Span {
    std::string name;
    int parent;
    int rep;
    Ticks start;
    Ticks end;
};

constexpr std::size_t kMaxDepth = 256;

Active stack[kMaxDepth];
std::size_t depth = 0;

double inside = 0;
double outside = 0;

std::vector<std::string> phaseNames;
std::size_t phase = 0;
/** aggs[phase][fn * (kNumWrapped + 1) + caller] */
std::vector<std::vector<Agg>> aggs;
std::vector<Span> spanList;

std::size_t
phaseIndex(const std::string &name)
{
    auto it = std::find(phaseNames.begin(), phaseNames.end(), name);
    if (it != phaseNames.end())
        return static_cast<std::size_t>(it - phaseNames.begin());
    phaseNames.push_back(name);
    aggs.emplace_back(kNumWrapped * (kNumWrapped + 1));
    return phaseNames.size() - 1;
}

/** The reference points ticksPerSecond() measures against. */
const Ticks kStartTicks = now();
const Ticks kStartNs = nowNs();

/** Timestamp ticks per host second, measured against steady_clock. */
double
ticksPerSecond()
{
#if defined(__x86_64__)
    Ticks ticks = now() - kStartTicks;
    Ticks ns = nowNs() - kStartNs;
    return ns ? static_cast<double>(ticks) * 1e9 / static_cast<double>(ns)
              : 1e9;
#else
    return 1e9;
#endif
}

} // namespace

Ticks
nowNs()
{
    return static_cast<Ticks>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

__attribute__((noinline)) void
enter(std::size_t fn, Ticks t)
{
    if (depth == kMaxDepth) {
        std::fprintf(stderr, "perfbench: wrapped calls nest deeper "
                             "than %zu\n", kMaxDepth);
        std::abort();
    }
    stack[depth++] = Active{fn, t, 0, 0};
}

__attribute__((noinline)) void
leave(Ticks t)
{
    const Active &f = stack[--depth];
    Ticks incl = t - f.start;
    std::size_t caller = depth ? stack[depth - 1].fn : topCaller();
    if (aggs.empty())
        phaseIndex("untracked");
    Agg &a = aggs[phase][f.fn * (kNumWrapped + 1) + caller];
    ++a.calls;
    a.incl += static_cast<double>(incl);
    a.self += static_cast<double>(incl) -
              static_cast<double>(f.child) -
              outside * static_cast<double>(f.children) - inside;
    if (depth) {
        stack[depth - 1].child += incl;
        ++stack[depth - 1].children;
    }
}

int
open(const std::string &name, int parent, int rep)
{
    phase = phaseIndex(name);
    spanList.push_back(Span{name, parent, rep, now(), 0});
    return static_cast<int>(spanList.size() - 1);
}

void
close(int id)
{
    Span &s = spanList[static_cast<std::size_t>(id)];
    s.end = now();
    phase = phaseIndex(s.parent < 0
                           ? std::string("idle")
                           : spanList[static_cast<std::size_t>(s.parent)]
                                 .name);
}

void
setOverhead(double in, double out)
{
    inside = in;
    outside = out;
}

namespace {

__attribute__((noinline)) void
emptyCall()
{
    asm volatile("");
}

} // namespace

void
calibrateOverhead()
{
    if (kNumWrapped < 2)
        return;
    constexpr int kRounds = 7;
    constexpr int kCalls = 200000;
    std::vector<double> ins, outs;
    for (int r = 0; r < kRounds; ++r) {
        reset();
        setOverhead(0, 0);
        Ticks a0 = now();
        for (int i = 0; i < kCalls; ++i)
            emptyCall();
        double a = static_cast<double>(now() - a0);
        open("overhead", -1, -1);
        enter(0, now());
        Ticks b0 = now();
        for (int i = 0; i < kCalls; ++i) {
            Frame f(1);
            emptyCall();
        }
        double b = static_cast<double>(now() - b0);
        leave(now());
        double child = agg(0, 1, 0).incl;
        ins.push_back(std::max(0.0, (child - a) / kCalls));
        outs.push_back(std::max(0.0, (b - child) / kCalls));
    }
    std::sort(ins.begin(), ins.end());
    std::sort(outs.begin(), outs.end());
    reset();
    setOverhead(ins[kRounds / 2], outs[kRounds / 2]);
}

const Agg &
agg(std::size_t ph, std::size_t fn, std::size_t caller)
{
    return aggs[ph][fn * (kNumWrapped + 1) + caller];
}

void
reset()
{
    depth = 0;
    phase = 0;
    phaseNames.clear();
    aggs.clear();
    spanList.clear();
}

void
writeJson(std::FILE *out)
{
    double tps = ticksPerSecond();
    Ticks origin = spanList.empty() ? 0 : spanList.front().start;
    std::fprintf(out,
                 "{\"ticks_per_second\": %.17g, \"overhead_inside_s\": "
                 "%.17g, \"overhead_outside_s\": %.17g, \"spans\": [",
                 tps, inside / tps, outside / tps);
    for (std::size_t i = 0; i < spanList.size(); ++i) {
        const Span &s = spanList[i];
        std::fprintf(out,
                     "%s{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"rep\": %d, \"start_s\": %.9f, \"dur_s\": %.9f}",
                     i ? ", " : "", i, s.name.c_str(), s.parent, s.rep,
                     static_cast<double>(s.start - origin) / tps,
                     static_cast<double>(s.end - s.start) / tps);
    }
    std::fprintf(out, "], \"calls\": [");
    bool first = true;
    for (std::size_t ph = 0; ph < phaseNames.size(); ++ph)
        for (std::size_t fn = 0; fn < kNumWrapped; ++fn)
            for (std::size_t c = 0; c <= kNumWrapped; ++c) {
                const Agg &a = agg(ph, fn, c);
                if (!a.calls)
                    continue;
                bool top = c == topCaller();
                std::fprintf(
                    out,
                    "%s{\"phase\": \"%s\", \"layer\": \"%s\", \"fn\": "
                    "\"%s\", \"caller_layer\": \"%s\", \"caller\": "
                    "\"%s\", \"calls\": %llu, \"incl_s\": %.9f, "
                    "\"self_s\": %.9f}",
                    first ? "" : ", ", phaseNames[ph].c_str(),
                    kWrapped[fn].layer, kWrapped[fn].label,
                    top ? "" : kWrapped[c].layer,
                    top ? "" : kWrapped[c].label,
                    static_cast<unsigned long long>(a.calls),
                    a.incl / tps, a.self / tps);
                first = false;
            }
    std::fprintf(out, "]}");
}

} // namespace perfbench::spans
