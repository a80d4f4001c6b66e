#include "serving.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/logging.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pimdl {

void
ServingPolicy::validate() const
{
    PIMDL_REQUIRE(max_batch > 0, "max_batch must be positive");
    PIMDL_REQUIRE(std::isfinite(max_wait_s) && max_wait_s >= 0.0,
                  "max_wait_s must be finite and non-negative");
    PIMDL_REQUIRE(std::isfinite(deadline_s) && deadline_s >= 0.0,
                  "deadline_s must be finite and non-negative (0 = off)");
    const ServingFaultProfile &f = faults;
    PIMDL_REQUIRE(std::isfinite(f.batch_fault_rate) &&
                      f.batch_fault_rate >= 0.0 && f.batch_fault_rate <= 1.0,
                  "faults.batch_fault_rate must lie in [0, 1]");
    PIMDL_REQUIRE(std::isfinite(f.degraded_service_factor) &&
                      f.degraded_service_factor >= 1.0,
                  "faults.degraded_service_factor must be >= 1");
    PIMDL_REQUIRE(std::isfinite(f.backoff_base_s) && f.backoff_base_s >= 0.0,
                  "faults.backoff_base_s must be finite and non-negative");
    PIMDL_REQUIRE(std::isfinite(f.backoff_cap_s) &&
                      f.backoff_cap_s >= f.backoff_base_s,
                  "faults.backoff_cap_s must be >= faults.backoff_base_s");
}

std::size_t
ServingPolicy::shapeBatch(std::size_t batch) const
{
    if (!pow2_buckets)
        return batch;
    std::size_t padded = 1;
    while (padded < batch)
        padded <<= 1;
    return std::min(padded, max_batch);
}

LadderStep
ServingPolicy::ladderStep(std::uint64_t ordinal, std::size_t attempt,
                          bool executor_faulted) const
{
    LadderStep step;
    step.faulted = executor_faulted ||
                   (faults.enabled() &&
                    faultHashUniform(faults.seed, kServingBatchFaultStream,
                                     ordinal, attempt) <
                        faults.batch_fault_rate);
    step.retry = step.faulted && attempt < faults.max_retries;
    if (step.retry)
        step.backoff_s = faults.backoffFor(attempt);
    return step;
}

RequestOutcome
ServingOutcomeStats::count(bool served, double latency_s, double deadline_s)
{
    if (!served) {
        ++failed_requests;
        return RequestOutcome::Failed;
    }
    if (deadline_s > 0.0 && latency_s > deadline_s) {
        ++timed_out;
        return RequestOutcome::Late;
    }
    ++completed;
    return RequestOutcome::InDeadline;
}

void
ServingOutcomeStats::countBatch(bool served, std::size_t retries)
{
    ++batches;
    batch_retries += retries;
    if (!served)
        ++failed_batches;
    else if (retries > 0)
        ++degraded_batches;
}

void
ServingOutcomeStats::summarizeLatencies(std::vector<double> &latencies)
{
    if (latencies.empty())
        return;
    std::sort(latencies.begin(), latencies.end());
    auto percentile = [&](double p) {
        const std::size_t idx = static_cast<std::size_t>(
            p * static_cast<double>(latencies.size() - 1));
        return latencies[idx];
    };
    double sum = 0.0;
    for (double l : latencies)
        sum += l;
    mean_latency_s = sum / static_cast<double>(latencies.size());
    p50_latency_s = percentile(0.50);
    p95_latency_s = percentile(0.95);
    p99_latency_s = percentile(0.99);
}

void
ServingConfig::validate() const
{
    PIMDL_REQUIRE(std::isfinite(arrival_rate) && arrival_rate > 0.0,
                  "arrival_rate must be positive (requests/second)");
    PIMDL_REQUIRE(std::isfinite(horizon_s) && horizon_s > 0.0,
                  "horizon_s must be positive (seconds)");
    ServingPolicy::validate();
}

ServingSimulator::ServingSimulator(const PimDlEngine &engine,
                                   const TransformerConfig &model,
                                   const LutNnParams &params)
    : engine_(engine), model_(model), params_(params)
{}

double
ServingSimulator::batchLatency(std::size_t batch,
                               SchedulePolicy policy) const
{
    PIMDL_REQUIRE(batch > 0, "batch must be positive");
    const auto key = std::make_pair(batch, policy);
    {
        MutexLock lock(cache_mu_);
        const auto it = latency_cache_.find(key);
        if (it != latency_cache_.end())
            return it->second;
    }

    TransformerConfig cfg = model_;
    cfg.batch = batch;
    // Estimate outside the lock: distinct batch shapes plan in
    // parallel, and the engine's own tune memo is thread-safe.
    const InferenceEstimate est =
        engine_.estimate(cfg, params_, ExecutionMode::PimDl,
                         schedulerFor(policy));
    MutexLock lock(cache_mu_);
    return latency_cache_.emplace(key, est.total_s).first->second;
}

std::vector<double>
poissonArrivals(double arrival_rate, double horizon_s, std::uint64_t seed)
{
    PIMDL_REQUIRE(std::isfinite(arrival_rate) && arrival_rate > 0.0,
                  "arrival_rate must be positive (requests/second)");
    PIMDL_REQUIRE(std::isfinite(horizon_s) && horizon_s > 0.0,
                  "horizon_s must be positive (seconds)");
    Rng rng(seed);
    std::vector<double> arrivals;
    double t = 0.0;
    while (true) {
        const double u = std::max(1e-12f, rng.uniform());
        t += -std::log(u) / arrival_rate;
        if (t >= horizon_s)
            break;
        arrivals.push_back(t);
    }
    return arrivals;
}

ServingStats
simulateServingTrace(const ServingConfig &config,
                     const std::vector<double> &arrivals,
                     const BatchLatencyFn &latency)
{
    config.validate();
    PIMDL_REQUIRE(std::is_sorted(arrivals.begin(), arrivals.end()),
                  "arrival trace must be sorted ascending");

    obs::TraceSpan span("serving.simulate");
    span.attr("arrival_rate", config.arrival_rate);
    span.attr("max_batch", static_cast<std::uint64_t>(config.max_batch));
    span.attr("horizon_s", config.horizon_s);
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_requests =
        reg.counter(metrics::kServingRequests);
    static obs::Counter &c_batches = reg.counter(metrics::kServingBatches);
    static obs::Histogram &h_latency =
        reg.histogram(metrics::kServingRequestLatencyS);
    static obs::Histogram &h_batch =
        reg.histogram(metrics::kServingBatchSize);
    static obs::Histogram &h_queue =
        reg.histogram(metrics::kServingQueueDepth);
    static obs::Gauge &g_util = reg.gauge(metrics::kServingUtilization);
    // Fault-schema metrics are registered unconditionally so the
    // snapshot artifact carries stable fault.* keys even for fault-free
    // runs (check_metrics.py validates their presence).
    static obs::Counter &c_f_retries =
        reg.counter(metrics::kFaultServingBatchRetries);
    static obs::Counter &c_f_failed_batches =
        reg.counter(metrics::kFaultServingFailedBatches);
    static obs::Counter &c_f_failed_requests =
        reg.counter(metrics::kFaultServingFailedRequests);
    static obs::Counter &c_f_timeouts =
        reg.counter(metrics::kFaultServingDeadlineTimeouts);
    static obs::Counter &c_f_degraded =
        reg.counter(metrics::kFaultServingDegradedBatches);
    static obs::Gauge &g_f_avail =
        reg.gauge(metrics::kFaultServingAvailability);

    ServingStats stats;
    stats.requests = arrivals.size();
    if (arrivals.empty())
        return stats;

    std::vector<double> latencies;
    latencies.reserve(arrivals.size());

    std::deque<double> queue; // arrival times of waiting requests
    std::size_t next_arrival = 0;
    double now = 0.0;
    double busy = 0.0;
    double batch_size_sum = 0.0;

    while (next_arrival < arrivals.size() || !queue.empty()) {
        // Admit everything that has arrived by `now`.
        while (next_arrival < arrivals.size() &&
               arrivals[next_arrival] <= now) {
            queue.push_back(arrivals[next_arrival]);
            ++next_arrival;
        }

        if (queue.empty()) {
            // Idle until the next arrival.
            now = arrivals[next_arrival];
            continue;
        }

        // Dispatch decision: the shared policy's full-or-waited test,
        // or no more arrivals will ever come.
        const bool drained = next_arrival >= arrivals.size();
        if (!config.dispatchReady(queue.size(), now - queue.front()) &&
            !drained) {
            // Wait for whichever comes first: batch-filling arrival or
            // the oldest request's deadline.
            const double next_deadline =
                queue.front() + config.max_wait_s;
            const double target =
                std::min(arrivals[next_arrival], next_deadline);
            // Guarantee forward progress regardless of rounding.
            now = std::max(target, now + ServingPolicy::kWaitEpsS);
            continue;
        }

        h_queue.record(static_cast<double>(queue.size()));
        const std::size_t batch =
            std::min<std::size_t>(queue.size(), config.max_batch);
        h_batch.record(static_cast<double>(batch));
        const double base_service = latency(config.shapeBatch(batch));

        // The initial attempt runs at full speed; each retry
        // re-executes on the degraded (remapped) engine after the
        // ladder's backoff.
        double service = 0.0;
        bool served = false;
        std::size_t retries = 0;
        for (std::size_t attempt = 0;; ++attempt) {
            service += attempt == 0
                           ? base_service
                           : base_service *
                                 config.faults.degraded_service_factor;
            const LadderStep step =
                config.ladderStep(stats.batches, attempt, false);
            if (!step.faulted) {
                served = true;
                break;
            }
            if (!step.retry)
                break; // retries exhausted: the batch is lost
            ++retries;
            service += step.backoff_s;
        }

        const double done = now + service;
        for (std::size_t i = 0; i < batch; ++i) {
            const double lat = done - queue.front();
            queue.pop_front();
            stats.count(served, lat, config.deadline_s);
            if (!served)
                continue;
            latencies.push_back(lat);
            h_latency.record(lat);
        }
        busy += service;
        batch_size_sum += static_cast<double>(batch);
        stats.countBatch(served, retries);
        now = done;
    }

    stats.summarizeLatencies(latencies);
    stats.mean_batch_size =
        batch_size_sum / static_cast<double>(stats.batches);
    stats.throughput_rps =
        static_cast<double>(latencies.size()) / std::max(now, 1e-9);
    stats.goodput_rps =
        static_cast<double>(stats.completed) / std::max(now, 1e-9);
    stats.utilization = busy / std::max(now, 1e-9);
    stats.availability = static_cast<double>(stats.completed) /
                         static_cast<double>(stats.requests);

    c_requests.add(stats.requests);
    c_batches.add(stats.batches);
    g_util.set(stats.utilization);
    c_f_retries.add(stats.batch_retries);
    c_f_failed_batches.add(stats.failed_batches);
    c_f_failed_requests.add(stats.failed_requests);
    c_f_timeouts.add(stats.timed_out);
    c_f_degraded.add(stats.degraded_batches);
    g_f_avail.set(stats.availability);
    span.attr("requests", static_cast<std::uint64_t>(stats.requests));
    span.attr("p99_s", stats.p99_latency_s);
    span.attr("availability", stats.availability);
    span.attr("batch_retries",
              static_cast<std::uint64_t>(stats.batch_retries));
    return stats;
}

ServingStats
ServingSimulator::simulate(const ServingConfig &config) const
{
    const std::vector<double> arrivals = poissonArrivals(
        config.arrival_rate, config.horizon_s, config.seed);
    return simulateServingTrace(
        config, arrivals, [this, &config](std::size_t batch) {
            return batchLatency(batch, config.policy);
        });
}

} // namespace pimdl
