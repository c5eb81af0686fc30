/**
 * @file
 * Thread-pool implementation.
 */

#include "sim/parallel.hh"

#include <cstdlib>
#include <string>

namespace nocstar::sim
{

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("NOCSTAR_JOBS")) {
        char *end = nullptr;
        long value = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && value > 0)
            return static_cast<unsigned>(value);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultJobs();
    // A single-worker pool runs everything inline in map(); only spawn
    // real workers when there is parallelism to exploit.
    if (threads <= 1)
        return;
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    if (workers_.empty()) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping_ and nothing left to run
            task = std::move(tasks_.front());
            tasks_.pop_front();
            ++active_;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            if (tasks_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

} // namespace nocstar::sim
