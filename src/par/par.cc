#include "par/par.hh"

#include <exception>

namespace jord::par {

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

// --- ThreadPool ----------------------------------------------------------

ThreadPool::ThreadPool(unsigned num_threads)
{
    unsigned n = num_threads == 0 ? 1 : num_threads;
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    // Workers exit only once the deque is empty, so every submitted
    // task has run when the joins return.
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopped and drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

// --- forkJoin ------------------------------------------------------------

namespace {

/** One join's bookkeeping, guarded by the pool's mutex. */
struct Join {
    std::mutex &mu;
    std::condition_variable &cv;
    const std::function<void(std::size_t)> &job;
    std::size_t remaining;
    std::size_t errorIndex;
    std::exception_ptr error;
};

} // namespace

void
detail::forkJoin(ThreadPool *pool, std::size_t n,
                 const std::function<void(std::size_t)> &job)
{
    if (!pool || pool->numThreads() <= 1) {
        // Serial: inline, in index order — the same jobs the parallel
        // path runs, minus the scheduling. The first failure is the
        // lowest-index one; later jobs still run.
        std::exception_ptr error;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                job(i);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }

    Join join{pool->mu_, pool->cv_, job, n, n, nullptr};
    for (std::size_t i = 0; i < n; ++i)
        pool->submit([&join, i] {
            std::exception_ptr error;
            try {
                join.job(i);
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lk(join.mu);
            // Deterministic propagation: keep the lowest index.
            if (error && i < join.errorIndex) {
                join.error = std::move(error);
                join.errorIndex = i;
            }
            if (--join.remaining == 0)
                join.cv.notify_all();
        });

    // Help until every job finished. The newest task is most likely
    // one of this join's own jobs (or a descendant of one), so running
    // it shortens the wait; the oldest may be an unrelated outer job
    // that would hold this thread long after its own jobs are done.
    std::deque<std::function<void()>> &tasks = pool->tasks_;
    std::unique_lock<std::mutex> lk(join.mu);
    for (;;) {
        join.cv.wait(lk,
                     [&] { return join.remaining == 0 || !tasks.empty(); });
        if (join.remaining == 0)
            break;
        std::function<void()> task = std::move(tasks.back());
        tasks.pop_back();
        lk.unlock();
        task();
        task = nullptr;
        lk.lock();
    }
    if (join.error)
        std::rethrow_exception(join.error);
}

} // namespace jord::par
