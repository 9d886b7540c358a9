/**
 * @file
 * Host-parallel run engine: a small thread pool plus one fork-join
 * primitive, orderedMap, for fanning independent simulation runs —
 * sweep points, seeds, (workload, system) pairs, fault-matrix configs —
 * across host cores.
 *
 * Determinism contract (DESIGN.md §9): jobs must be independent. Each
 * job owns its Machine/EventQueue/Rng/tracer/PMU instances and
 * touches no shared mutable state; a job's only output is its return
 * value, which orderedMap stores at the job's index. Results are
 * consumed in index order after the join, so everything derived from
 * them (CSV, JSON, tables, traces) is byte-identical regardless of the
 * thread count — including the serial single-thread case.
 *
 * A dependency is expressed as nesting: a job that must precede others
 * (e.g. measuring a workload's SLO) runs first inside the enclosing
 * job, which then calls orderedMap over the runs that need its result.
 *
 * Exceptions propagate deterministically too: when several jobs throw,
 * the surviving exception is the one from the *lowest index*, not the
 * temporally first, so failure output does not depend on scheduling
 * either. A failure does not cancel the remaining jobs (they are
 * independent by contract), matching serial semantics where the error
 * is raised only at the join.
 *
 * Nested fork-join is deadlock-free: a thread blocked at a join runs
 * pending pool tasks meanwhile, so submissions from inside jobs (e.g. a
 * per-workload job fanning its systems, each fanning its load points)
 * always make progress even when every pool thread is inside a join.
 */

#ifndef JORD_PAR_PAR_HH
#define JORD_PAR_PAR_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jord::par {

/** Resolve a --jobs value: 0 means "all host cores" (at least 1). */
unsigned resolveJobs(unsigned requested);

class ThreadPool;

namespace detail {

/**
 * The join behind orderedMap: run job(0) .. job(n-1) and return once
 * all of them finished, rethrowing the lowest-index exception if any
 * job threw. A null or single-thread pool runs the jobs inline, in
 * index order, on the calling thread.
 */
void forkJoin(ThreadPool *pool, std::size_t n,
              const std::function<void(std::size_t)> &job);

} // namespace detail

/**
 * A fixed set of worker threads sharing one FIFO task deque. Tasks are
 * coarse (whole simulation runs), so one mutex-protected deque has
 * negligible contention next to the milliseconds-to-seconds a task
 * runs for. Workers take the oldest task; a thread waiting at a join
 * takes the newest (DESIGN.md §9 says why).
 *
 * Destruction drains every submitted task before returning (join
 * semantics); prefer orderedMap so exceptions are observed.
 */
class ThreadPool
{
  public:
    /** Spawn @p num_threads workers (clamped to at least 1). */
    explicit ThreadPool(unsigned num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Enqueue one task at the back of the deque. The task must not
     * throw: an exception escaping a worker ends the program. */
    void submit(std::function<void()> task);

  private:
    friend void detail::forkJoin(
        ThreadPool *pool, std::size_t n,
        const std::function<void(std::size_t)> &job);

    void workerLoop();

    /** Guards tasks_, stop_ and the state of every join in flight. */
    std::mutex mu_;
    /** Signalled on submit, on a join's last completion and on stop. */
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_;
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

/**
 * Run fn(0) .. fn(n-1) across the pool and return the results in index
 * order — the one way runs fan out: sweep points, seeds, bench
 * configurations, and (nested) whatever depends on an earlier result.
 * T must be default-constructible and movable. Serial (pool == null or
 * single-threaded pool) and parallel executions return byte-identical
 * vectors for independent jobs.
 */
template <typename T, typename Fn>
std::vector<T>
orderedMap(ThreadPool *pool, std::size_t n, Fn fn)
{
    std::vector<T> out(n);
    detail::forkJoin(pool, n, [&out, &fn](std::size_t i) {
        out[i] = fn(i);
    });
    return out;
}

} // namespace jord::par

#endif // JORD_PAR_PAR_HH
