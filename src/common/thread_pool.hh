/**
 * @file
 * Fixed-size worker pool used by the DSE driver: architecture candidates are
 * independent, so exploration is a simple parallel-for over the candidate
 * list (the paper runs its DSE on 80-100 threads). Workers are not
 * pinned: each inherits the CPU affinity of the thread that built the
 * pool, so `taskset` and cgroup cpusets confine them as they do the
 * caller.
 */

#ifndef GEMINI_COMMON_THREAD_POOL_HH
#define GEMINI_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gemini {

/**
 * A small task-queue thread pool. Tasks are void() callables; waitIdle()
 * blocks until every submitted task has finished.
 *
 * Tasks are exception-safe: a throwing task never terminates its worker
 * thread. The first escaped exception is captured as an exception_ptr —
 * parallelFor() rethrows it to its caller after the loop drains, and
 * callers that submit() directly can collect it with takeTaskError()
 * (the DSE scheduler does its own capture inside its task wrappers and
 * surfaces errors through the service's JobHandle::rethrow()).
 */
class ThreadPool
{
  public:
    /** Start `threads` workers (0 means hardware_concurrency). */
    explicit ThreadPool(std::size_t threads = 0);

    /** Joins all workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task for execution. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and no task is running. */
    void waitIdle();

    /** Number of worker threads. */
    std::size_t threadCount() const { return workers_.size(); }

    /**
     * Run fn(i) for i in [0, count) across the pool and wait for
     * completion. fn must be safe to call concurrently.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Take (and clear) the first exception that escaped a submitted task
     * since the last take. Null when every task completed cleanly.
     */
    std::exception_ptr takeTaskError();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable idle_;
    std::size_t inFlight_ = 0;
    bool shutdown_ = false;
    std::exception_ptr taskError_; ///< first escaped task exception
};

} // namespace gemini

#endif // GEMINI_COMMON_THREAD_POOL_HH
