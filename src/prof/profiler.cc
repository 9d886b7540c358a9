#include "prof/profiler.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "sim/logging.hh"

namespace jord::prof {

namespace {

/** Time-series ring capacity. */
constexpr std::size_t kRingCap = 1 << 16;

} // namespace

Profiler::Profiler(sim::EventQueue &events, SampleSource &source,
                   const Config &cfg)
    : events_(events), source_(source), cfg_(cfg)
{
    if (cfg_.hz <= 0.0)
        sim::panic("Profiler: sample rate must be positive");
    double cycles = cfg_.freqGhz * 1e9 / cfg_.hz;
    period_ = std::max<sim::Cycles>(
        1, static_cast<sim::Cycles>(std::llround(cycles)));
    ring_.reserve(std::min<std::size_t>(kRingCap, 4096));
}

void
Profiler::arm()
{
    // Daemon events never advance lastWorkTick(), so sampling cannot
    // stretch the run's measured window past its last real event.
    events_.scheduleDaemonAfter(period_, [this] { fire(); });
}

void
Profiler::fire()
{
    // Our own event has been popped; if nothing else remains the run's
    // last real event already executed — record nothing (the tail
    // would be a pure-idle sample) and let the queue drain.
    if (events_.empty())
        return;
    record();
    events_.scheduleDaemonAfter(period_, [this] { fire(); });
}

void
Profiler::record()
{
    ++samples_;
    coreScratch_.clear();
    GlobalSample global;
    source_.profSample(coreScratch_, global);

    TimePoint pt;
    pt.tick = events_.curTick();
    pt.liveInvocations = global.liveInvocations;
    pt.livePds = global.livePds;
    pt.liveArgBufs = global.liveArgBufs;

    for (const CoreSample &cs : coreScratch_) {
        pt.queueDepth += cs.queueDepth;
        pt.vlbIOccupancy += cs.vlbIOccupancy;
        pt.vlbDOccupancy += cs.vlbDOccupancy;
        if (!cs.busy)
            continue;
        ++pt.busyCores;
        std::string key;
        if (cs.orchestrator) {
            key = "orchestrator";
        } else if (cs.stack.empty()) {
            key = "runtime";
        } else {
            for (const std::string &frame : cs.stack) {
                if (!key.empty())
                    key += ';';
                key += frame;
            }
        }
        folded_[key] += period_;
    }

    if (ring_.size() < kRingCap) {
        ring_.push_back(pt);
    } else {
        ring_[ringHead_] = pt;
        ringHead_ = (ringHead_ + 1) % kRingCap;
        ++dropped_;
    }
}

void
Profiler::writeFolded(std::ostream &out) const
{
    for (const auto &[stack, cycles] : folded_)
        out << stack << ' ' << cycles << '\n';
}

void
Profiler::writeTimeSeriesCsv(std::ostream &out) const
{
    out << "tick,busy_cores,live_invocations,live_pds,live_argbufs,"
           "queue_depth,vlb_i_occupancy,vlb_d_occupancy\n";
    // ringHead_ points at the oldest entry once the ring has wrapped.
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        const TimePoint &pt = ring_[(ringHead_ + i) % ring_.size()];
        out << pt.tick << ',' << pt.busyCores << ','
            << pt.liveInvocations << ',' << pt.livePds << ','
            << pt.liveArgBufs << ',' << pt.queueDepth << ','
            << pt.vlbIOccupancy << ',' << pt.vlbDOccupancy << '\n';
    }
}

} // namespace jord::prof
