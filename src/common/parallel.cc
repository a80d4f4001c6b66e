#include "parallel.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "thread_annotations.h"

namespace pimdl {

namespace {

double
secondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** First exception thrown by any worker, kept under its own lock so
 * the thread-safety analysis can check the cross-thread handoff. */
struct ErrorSlot
{
    Mutex mu{"parallel.error_slot"};
    std::exception_ptr first PIMDL_GUARDED_BY(mu);

    void
    capture() PIMDL_EXCLUDES(mu)
    {
        MutexLock guard(mu);
        if (!first)
            first = std::current_exception();
    }

    std::exception_ptr
    take() PIMDL_EXCLUDES(mu)
    {
        MutexLock guard(mu);
        return first;
    }
};

} // namespace

std::size_t
parallelWorkerCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
parallelFor(std::size_t count, const std::function<void(std::size_t)> &body)
{
    parallelForBlocked(count, 1,
                       [&body](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i)
                               body(i);
                       });
}

void
parallelForBlocked(std::size_t count, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)> &body)
{
    if (count == 0)
        return;
    if (grain == 0)
        grain = 1;

    // Cached metric references: the registry never invalidates them.
    static obs::Counter &calls =
        obs::MetricsRegistry::instance().counter(metrics::kParallelCalls);
    static obs::Counter &items =
        obs::MetricsRegistry::instance().counter(metrics::kParallelItems);
    static obs::Gauge &worker_gauge =
        obs::MetricsRegistry::instance().gauge(metrics::kParallelWorkers);
    static obs::Histogram &utilization =
        obs::MetricsRegistry::instance().histogram(
            metrics::kParallelWorkerUtilization);

    calls.add();
    items.add(count);

    // A worker must own at least one full grain of contiguous work.
    const std::size_t grains = (count + grain - 1) / grain;
    const std::size_t workers =
        std::min<std::size_t>(parallelWorkerCount(), grains);
    worker_gauge.set(static_cast<double>(workers));
    if (workers <= 1) {
        body(0, count);
        utilization.record(1.0);
        return;
    }

    std::vector<std::thread> pool;
    pool.reserve(workers);
    ErrorSlot error;
    std::vector<double> busy_s(workers, 0.0);
    const auto wall_start = std::chrono::steady_clock::now();

    // Contiguous shards, each a whole number of grains.
    const std::size_t grains_per_worker = (grains + workers - 1) / workers;
    const std::size_t chunk = grains_per_worker * grain;
    for (std::size_t w = 0; w < workers; ++w) {
        const std::size_t begin = w * chunk;
        const std::size_t end = std::min(count, begin + chunk);
        if (begin >= end)
            break;
        pool.emplace_back([&, w, begin, end]() {
            const auto start = std::chrono::steady_clock::now();
            try {
                body(begin, end);
            } catch (...) {
                error.capture();
            }
            busy_s[w] = secondsSince(start);
        });
    }
    for (auto &t : pool)
        t.join();

    // Utilization = mean busy fraction across workers for this call;
    // 1.0 means perfectly balanced shards, low values mean stragglers.
    const double wall = secondsSince(wall_start);
    if (wall > 0.0) {
        double busy_total = 0.0;
        for (double b : busy_s)
            busy_total += b;
        utilization.record(
            std::min(1.0, busy_total / (wall * static_cast<double>(
                                                   pool.size()))));
    }

    if (std::exception_ptr first = error.take())
        std::rethrow_exception(first);
}

} // namespace pimdl
