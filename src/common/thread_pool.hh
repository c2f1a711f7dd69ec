/**
 * @file
 * Fixed-size worker pool used by the DSE driver: architecture candidates are
 * independent, so exploration is a simple parallel-for over the candidate
 * list (the paper runs its DSE on 80-100 threads).
 *
 * The pool is NUMA-topology-aware: node boundaries are read from sysfs
 * (/sys/devices/system/node/node<N>/cpulist), workers are assigned to
 * nodes round-robin and, on multi-node hosts, pinned to their node's CPU
 * set, so a candidate's scratch first-touches on the socket that reads
 * it. Single-node hosts (and non-Linux builds) skip pinning entirely; the
 * topology accessors still work.
 */

#ifndef GEMINI_COMMON_THREAD_POOL_HH
#define GEMINI_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <string_view>
#include <thread>
#include <vector>

namespace gemini {

/**
 * Parse a Linux cpulist string ("0-3,8,10-11") into sorted CPU ids.
 * Whitespace and a trailing newline are tolerated; malformed ranges are
 * skipped rather than thrown — sysfs is trusted but not depended on.
 */
std::vector<int> parseCpuList(std::string_view text);

/** CPU ids per NUMA node, in node-id order. */
struct NumaTopology
{
    std::vector<std::vector<int>> nodeCpus;

    std::size_t nodeCount() const { return nodeCpus.size(); }

    std::size_t
    cpuCount() const
    {
        std::size_t n = 0;
        for (const auto &node : nodeCpus)
            n += node.size();
        return n;
    }
};

/**
 * Read the host's NUMA topology from sysfs. Hosts without the sysfs
 * node directory (non-Linux, containers with masked sysfs) report one
 * synthetic node holding every CPU — callers never see zero nodes.
 */
NumaTopology detectNumaTopology();

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
    /**
     * Start `threads` workers (0 means hardware_concurrency). On a
     * multi-node host each worker is pinned to its NUMA node's CPU set;
     * on one node the scheduler already keeps memory local and pinning
     * would just fight it.
     */
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

    /** NUMA nodes the pool detected at construction (>= 1). */
    std::size_t numaNodeCount() const { return topology_.nodeCount(); }

    /** Workers successfully pinned to their node's CPU set. */
    std::size_t pinnedWorkers() const { return pinned_; }

    /** NUMA node worker `w` is assigned to (round-robin). */
    std::size_t
    workerNode(std::size_t w) const
    {
        return w % topology_.nodeCount();
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    NumaTopology topology_;
    std::size_t pinned_ = 0;
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
