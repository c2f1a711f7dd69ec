#include "src/common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace gemini {

std::vector<int>
parseCpuList(std::string_view text)
{
    std::vector<int> cpus;
    std::size_t i = 0;
    const auto parse_int = [&](int &out) {
        while (i < text.size() && (text[i] == ' ' || text[i] == '\t'))
            ++i;
        const char *begin = text.data() + i;
        const char *end = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(begin, end, out);
        if (ec != std::errc{} || ptr == begin)
            return false;
        i += static_cast<std::size_t>(ptr - begin);
        return true;
    };
    while (i < text.size()) {
        int lo = 0;
        if (!parse_int(lo)) {
            ++i; // skip a malformed character and resync
            continue;
        }
        int hi = lo;
        if (i < text.size() && text[i] == '-') {
            ++i;
            if (!parse_int(hi))
                hi = lo;
        }
        for (int c = lo; c <= hi; ++c)
            cpus.push_back(c);
        while (i < text.size() && text[i] != ',')
            ++i;
        if (i < text.size())
            ++i; // consume the comma
    }
    std::sort(cpus.begin(), cpus.end());
    cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
    return cpus;
}

NumaTopology
detectNumaTopology()
{
    NumaTopology topo;
#if defined(__linux__)
    for (int node = 0;; ++node) {
        std::ostringstream path;
        path << "/sys/devices/system/node/node" << node << "/cpulist";
        std::ifstream in(path.str());
        if (!in.is_open())
            break;
        std::stringstream buf;
        buf << in.rdbuf();
        std::vector<int> cpus = parseCpuList(buf.str());
        if (!cpus.empty())
            topo.nodeCpus.push_back(std::move(cpus));
    }
#endif
    if (topo.nodeCpus.empty()) {
        // No sysfs topology (non-Linux, masked /sys): one synthetic node
        // with every CPU the standard library reports.
        unsigned hw = std::thread::hardware_concurrency();
        if (hw == 0)
            hw = 4;
        std::vector<int> cpus(hw);
        for (unsigned c = 0; c < hw; ++c)
            cpus[c] = static_cast<int>(c);
        topo.nodeCpus.push_back(std::move(cpus));
    }
    return topo;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 4;
    }
    topology_ = detectNumaTopology();

    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });

#if defined(__linux__)
    // Pin only across real node boundaries: workers round-robin over the
    // nodes so each node gets an even share.
    if (topology_.nodeCount() > 1) {
        for (std::size_t w = 0; w < workers_.size(); ++w) {
            const std::vector<int> &cpus =
                topology_.nodeCpus[workerNode(w)];
            cpu_set_t set;
            CPU_ZERO(&set);
            for (int c : cpus)
                if (c >= 0 && c < CPU_SETSIZE)
                    CPU_SET(c, &set);
            if (pthread_setaffinity_np(workers_[w].native_handle(),
                                       sizeof(set), &set) == 0)
                ++pinned_;
        }
    }
#endif
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock lock(mutex_);
        shutdown_ = true;
    }
    taskReady_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock lock(mutex_);
        tasks_.push(std::move(task));
    }
    taskReady_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return tasks_.empty() && inFlight_ == 0; });
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    // Chunk by an atomic cursor so uneven task costs balance dynamically.
    auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
    const std::size_t workers = workers_.size();
    for (std::size_t w = 0; w < workers; ++w) {
        submit([cursor, count, &fn] {
            for (;;) {
                const std::size_t i = cursor->fetch_add(1);
                if (i >= count)
                    return;
                fn(i);
            }
        });
    }
    waitIdle();
    // Synchronous semantics: an fn(i) that threw surfaces here, on the
    // calling thread, exactly as a serial loop would.
    if (std::exception_ptr err = takeTaskError())
        std::rethrow_exception(err);
}

std::exception_ptr
ThreadPool::takeTaskError()
{
    std::unique_lock lock(mutex_);
    return std::exchange(taskError_, nullptr);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            taskReady_.wait(lock,
                            [this] { return shutdown_ || !tasks_.empty(); });
            if (tasks_.empty()) {
                // shutdown_ must be true here.
                return;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
            ++inFlight_;
        }
        std::exception_ptr err;
        try {
            task();
        } catch (...) {
            // Never let a task kill this worker thread; stash the first
            // exception for takeTaskError()/parallelFor() to surface.
            err = std::current_exception();
        }
        {
            std::unique_lock lock(mutex_);
            if (err && !taskError_)
                taskError_ = err;
            --inFlight_;
            if (tasks_.empty() && inFlight_ == 0)
                idle_.notify_all();
        }
    }
}

} // namespace gemini
