/**
 * @file
 * Calendar-queue event storage: the sorted-heap replacement behind the
 * EventQueue hot path (jordprof self-profiling showed the global
 * binary heap's push/pop compares on every schedule/dispatch).
 *
 * A calendar queue (Brown, CACM 1988) hashes events by tick into an
 * array of buckets covering one "year" of simulated time. Pops touch
 * only the current bucket, which is sorted lazily the first time it is
 * drained; schedules append unsorted to a future bucket. Both are
 * O(1) amortized when the bucket width tracks the mean event gap,
 * against O(log n) heap compares for every operation.
 *
 * Determinism contract: pops come out in exactly the (when, seq)
 * order of the EventQueue's binary-heap reference — the lazy bucket
 * sort uses the same key, and the near/far spill heaps break ties
 * identically — so replacing the storage cannot perturb a single
 * event interleaving (asserted by the byte-identity tests). The
 * EventQueue keeps all pending events in one such queue.
 *
 * Records are 24-byte trivially copyable keys: the callback lives in
 * the EventQueue's slot table and the record carries only its index,
 * so the bucket sort, the heaps and rollover never move a
 * std::function. Bucket vectors are recycled through a small arena
 * (freed buckets park their capacity instead of returning it to the
 * allocator), so a steady-state simulation stops allocating on the
 * event path entirely.
 */

#ifndef JORD_SIM_CALENDAR_QUEUE_HH
#define JORD_SIM_CALENDAR_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace jord::sim {

/** One scheduled event, keyed by (when, seq). */
struct EventRecord {
    Tick when = 0;
    std::uint64_t seq = 0;
    /** Index of the callback in the owning EventQueue's slot table. */
    std::uint32_t slot = 0;
    bool daemon = false;
};

static_assert(std::is_trivially_copyable_v<EventRecord> &&
                  sizeof(EventRecord) == 24,
              "the calendar queue moves records by value");

/** Strict weak order on the deterministic dispatch key. */
inline bool
eventBefore(const EventRecord &a, const EventRecord &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
}

/**
 * Time-bucketed event store with exact (when, seq) pop order.
 *
 * Structure: `nb` buckets of `width` ticks starting at `yearStart`
 * cover the current year. The current bucket is sorted descending and
 * drained from the back; later buckets collect unsorted appends.
 * Events landing at or before the current bucket (same-tick
 * reschedules, skipped-bucket stragglers) go to the `near` min-heap,
 * events beyond the year to the `far` min-heap. A pop compares the
 * current bucket's back against the near heap's top; year rollover
 * redistributes the far heap and retunes the bucket width to the
 * observed event span.
 */
class CalendarQueue
{
  public:
    CalendarQueue() { resize(kInitialBuckets, kInitialWidth, 0); }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Insert an event; any `when` is legal (caller checks "past"). */
    void
    push(EventRecord rec)
    {
        ++size_;
        if (rec.when >= yearEnd_) {
            far_.push_back(rec);
            std::push_heap(far_.begin(), far_.end(), FarGreater{});
            return;
        }
        // Behind the calendar's base year: runUntil() peeks past its
        // limit, the peek rolls the year forward to a far event, and a
        // later schedule lands between the limit and the new
        // yearStart. bucketOf() would underflow, and the near heap
        // preserves exact order for anything at or behind the current
        // bucket anyway.
        if (rec.when < yearStart_) {
            near_.push_back(rec);
            std::push_heap(near_.begin(), near_.end(), FarGreater{});
            return;
        }
        std::size_t idx = bucketOf(rec.when);
        if (idx <= curIdx_) {
            near_.push_back(rec);
            std::push_heap(near_.begin(), near_.end(), FarGreater{});
            return;
        }
        buckets_[idx].push_back(rec);
    }

    /**
     * The dispatch key of the next event, or nullptr when empty.
     * Non-const: advancing to the next non-empty bucket (and year
     * rollover) happens lazily here.
     */
    const EventRecord *
    peek()
    {
        if (size_ == 0)
            return nullptr;
        settle();
        if (!near_.empty() &&
            (cur_.empty() || eventBefore(near_.front(), cur_.back())))
            return &near_.front();
        return &cur_.back();
    }

    /** Remove and return the next event; the queue must be non-empty. */
    EventRecord
    pop()
    {
        const EventRecord *next = peek();
        EventRecord out;
        if (!near_.empty() && next == &near_.front()) {
            std::pop_heap(near_.begin(), near_.end(), FarGreater{});
            out = near_.back();
            near_.pop_back();
        } else {
            out = cur_.back();
            cur_.pop_back();
        }
        --size_;
        return out;
    }

    /** Drop everything and reset the year to tick zero. */
    void
    clear()
    {
        for (std::vector<EventRecord> &b : buckets_)
            recycle(b);
        recycle(cur_);
        near_.clear();
        far_.clear();
        size_ = 0;
        curIdx_ = 0;
        yearStart_ = 0;
        yearEnd_ = width_ * static_cast<Tick>(buckets_.size());
    }

  private:
    static constexpr std::size_t kInitialBuckets = 256;
    static constexpr Tick kInitialWidth = 64;
    /** Retune width when the mean far-event gap drifts past 4x. */
    static constexpr Tick kRetuneFactor = 4;

    /** Min-heap comparator (std heaps are max-heaps). */
    struct FarGreater {
        bool
        operator()(const EventRecord &a, const EventRecord &b) const
        {
            return eventBefore(b, a);
        }
    };

    std::size_t
    bucketOf(Tick when) const
    {
        return static_cast<std::size_t>((when - yearStart_) / width_);
    }

    /** Park a vector's capacity for reuse instead of freeing it. */
    void
    recycle(std::vector<EventRecord> &bucket)
    {
        bucket.clear();
        if (bucket.capacity() > 0 && arena_.size() < buckets_.size())
            arena_.push_back(std::move(bucket));
        bucket = std::vector<EventRecord>();
    }

    std::vector<EventRecord>
    takeFromArena()
    {
        if (arena_.empty())
            return {};
        std::vector<EventRecord> v = std::move(arena_.back());
        arena_.pop_back();
        return v;
    }

    void
    resize(std::size_t nb, Tick width, Tick year_start)
    {
        buckets_.assign(nb, {});
        width_ = std::max<Tick>(1, width);
        yearStart_ = year_start;
        yearEnd_ = yearStart_ + width_ * static_cast<Tick>(nb);
        curIdx_ = 0;
        recycle(cur_);
    }

    /** Make `cur_`/`near_` hold the next event, rolling years over. */
    void
    settle()
    {
        while (cur_.empty()) {
            if (!near_.empty())
                return; // stragglers for the current bucket remain
            // Advance to the next populated bucket of this year.
            std::size_t idx = curIdx_ + 1;
            while (idx < buckets_.size() && buckets_[idx].empty())
                ++idx;
            if (idx < buckets_.size()) {
                curIdx_ = idx;
                recycle(cur_);
                cur_ = std::move(buckets_[idx]);
                buckets_[idx] = takeFromArena();
                sortCurrent();
                continue;
            }
            rollover();
        }
    }

    /** Descending sort so the drain pops from the back. */
    void
    sortCurrent()
    {
        std::sort(cur_.begin(), cur_.end(),
                  [](const EventRecord &a, const EventRecord &b) {
                      return eventBefore(b, a);
                  });
    }

    /**
     * The year (and near heap) is empty but far events remain: re-base
     * the calendar on the earliest far event and redistribute. The
     * bucket width is retuned to the far population's mean gap so a
     * sparse tail (daemon timers, deadline horizons) does not leave
     * thousands of empty buckets to skip.
     */
    void
    rollover()
    {
        // settle() only gets here with cur_, near_ and every bucket
        // empty; size_ > 0 then guarantees the events are all in far_.
        if (far_.empty())
            panic("calendar queue: %zu events unaccounted for at "
                  "rollover (internal error)",
                  size_);
        Tick lo = kTickMax;
        Tick hi = 0;
        for (const EventRecord &rec : far_) {
            lo = std::min(lo, rec.when);
            hi = std::max(hi, rec.when);
        }
        Tick span = hi - lo + 1;
        Tick ideal = std::max<Tick>(
            1, span / static_cast<Tick>(buckets_.size()) + 1);
        if (ideal > width_ * kRetuneFactor ||
            ideal * kRetuneFactor < width_)
            width_ = ideal;
        yearStart_ = lo;
        yearEnd_ = yearStart_ + width_ * static_cast<Tick>(buckets_.size());
        curIdx_ = 0;
        recycle(cur_);

        std::vector<EventRecord> keep;
        for (const EventRecord &rec : far_) {
            if (rec.when >= yearEnd_) {
                keep.push_back(rec);
                continue;
            }
            std::size_t idx = bucketOf(rec.when);
            if (idx == 0)
                cur_.push_back(rec);
            else
                buckets_[idx].push_back(rec);
        }
        far_ = std::move(keep);
        std::make_heap(far_.begin(), far_.end(), FarGreater{});
        sortCurrent();
    }

    std::vector<std::vector<EventRecord>> buckets_;
    /** Parked bucket capacity (the event-storage arena). */
    std::vector<std::vector<EventRecord>> arena_;
    /** Current bucket, sorted descending; drains from the back. */
    std::vector<EventRecord> cur_;
    /** Heap of events at/behind the current bucket (dense near-term). */
    std::vector<EventRecord> near_;
    /** Heap of events beyond the current year. */
    std::vector<EventRecord> far_;
    Tick width_ = kInitialWidth;
    Tick yearStart_ = 0;
    Tick yearEnd_ = 0;
    std::size_t curIdx_ = 0;
    std::size_t size_ = 0;
};

} // namespace jord::sim

#endif // JORD_SIM_CALENDAR_QUEUE_HH
