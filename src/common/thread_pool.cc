#include "src/common/thread_pool.hh"

#include <atomic>
#include <memory>
#include <utility>

namespace gemini {

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 4;
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
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
