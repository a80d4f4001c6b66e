/**
 * @file
 * Discrete-event batched-serving simulator.
 *
 * The paper motivates PIM-DL with cloud serving scenarios that "require
 * batched inference" (Section 2.2). This module closes the loop: Poisson
 * request arrivals feed a batching queue in front of one PIM-DL engine;
 * batches dispatch when full or when the oldest request has waited past
 * a deadline, and per-batch latency comes from the engine's estimate.
 * Outputs are the serving metrics an operator cares about: throughput,
 * latency percentiles, mean batch size, and device utilization.
 *
 * The simulator also carries failure semantics: a per-batch fault
 * profile (seed-deterministic, sharing src/fault's counter-based hash)
 * can fail dispatch attempts, which are retried with capped exponential
 * backoff on a degraded (remapped) engine; exhausted retries fail the
 * batch, per-request deadlines convert late completions into timeouts,
 * and the stats report availability and degraded goodput alongside the
 * fault-free metrics. The policy (ServingPolicy) is the one the live
 * runtime (serving_live.h) runs.
 */

#ifndef PIMDL_RUNTIME_SERVING_H
#define PIMDL_RUNTIME_SERVING_H

#include <functional>
#include <map>
#include <vector>

#include "common/thread_annotations.h"
#include "fault/fault.h"
#include "runtime/engine.h"

namespace pimdl {

/**
 * Per-batch fault semantics of the serving loop. Batch outcomes are
 * drawn by a counter-based hash of (seed, batch index, attempt), so a
 * sweep over batch_fault_rate sees coupled draws: raising the rate can
 * only add faults, which keeps availability/retry curves monotonic.
 */
struct ServingFaultProfile
{
    /** Per dispatch-attempt probability the batch execution fails. */
    double batch_fault_rate = 0.0;
    /**
     * Service-time multiplier for retry attempts: the re-execution runs
     * on the degraded engine (tiles remapped around the fault).
     */
    double degraded_service_factor = 1.5;
    /** Retries allowed per batch after the initial attempt. */
    std::size_t max_retries = 3;
    /** Backoff before the first retry, seconds. */
    double backoff_base_s = 2e-3;
    /** Backoff ceiling, seconds. */
    double backoff_cap_s = 64e-3;
    /** Root of the per-batch outcome draws. */
    std::uint64_t seed = 0xfa0175ULL;

    bool enabled() const { return batch_fault_rate > 0.0; }

    /** Backoff before retry number @p retry (0-based), seconds. */
    double backoffFor(std::size_t retry) const
    {
        return cappedBackoff(backoff_base_s, backoff_cap_s, retry);
    }
};

/** Terminal outcome of one dispatched request. */
enum class RequestOutcome { InDeadline, Late, Failed };

/** What follows one dispatch attempt on the fault/retry ladder. */
struct LadderStep
{
    bool faulted = false; ///< executor fault or injected draw
    bool retry = false;   ///< another attempt follows after backoff_s
    double backoff_s = 0.0;
};

/**
 * Batching, deadline and fault-retry policy of both serving paths:
 * the discrete-event simulator (simulateServingTrace) and the live
 * runtime (serving_live.h) make every policy decision here. It reads
 * no clock; callers pass the times it decides on.
 */
struct ServingPolicy
{
    /** Max-wait slack: (front + max_wait) - front may land one ULP
     * under max_wait, which would stall the DES clock. */
    static constexpr double kWaitEpsS = 1e-9;

    /** Largest batch the engine accepts. */
    std::size_t max_batch = 64;
    /** Dispatch a partial batch once its oldest request waited this
     * long, seconds. */
    double max_wait_s = 0.5;
    /** Per-request completion deadline, seconds; requests served later
     * count as timeouts against availability. 0 disables it. */
    double deadline_s = 0.0;
    /** Pad dispatched batches to the next power of two (bounded by
     * max_batch): bounds the kernel shapes the auto-tuner plans for. */
    bool pow2_buckets = true;
    /** Per-batch fault semantics (disabled by default). */
    ServingFaultProfile faults;

    /** Throws std::runtime_error naming the bad field (faults
     * included). */
    void validate() const;

    /** Dispatch now: @p queued requests fill a batch, or the oldest
     * has waited @p oldest_wait_s >= max_wait_s. */
    bool dispatchReady(std::size_t queued, double oldest_wait_s) const
    {
        return queued >= max_batch ||
               oldest_wait_s >= max_wait_s - kWaitEpsS;
    }

    /** Executed batch shape for @p batch requests (pow2 bucket). */
    std::size_t shapeBatch(std::size_t batch) const;

    /**
     * One rung of the retry ladder: attempt @p attempt of the batch
     * with 0-based dispatch ordinal @p ordinal faults when the
     * executor did (@p executor_faulted) or the kServingBatchFaultStream
     * draw falls under batch_fault_rate. Draws key on the ordinal so
     * rate sweeps see coupled (monotonic) outcomes.
     */
    LadderStep ladderStep(std::uint64_t ordinal, std::size_t attempt,
                          bool executor_faulted) const;
};

/** Workload of one serving simulation, on top of its policy. */
struct ServingConfig : ServingPolicy
{
    /** Mean request arrival rate, requests/second (Poisson process). */
    double arrival_rate = 10.0;
    /** Simulated wall-clock span, seconds. */
    double horizon_s = 300.0;
    /** Scheduler the engine estimates batches with (plan/schedule.h). */
    SchedulePolicy policy = SchedulePolicy::Sequential;
    std::uint64_t seed = 1;

    /** Throws std::runtime_error with a field-naming message when bad. */
    void validate() const;
};

/**
 * Request and batch accounting both serving paths report. Every
 * dispatched request lands in exactly one of completed, timed_out and
 * failed_requests.
 */
struct ServingOutcomeStats
{
    std::size_t batches = 0;
    double mean_batch_size = 0.0;
    /** Latency (queueing + service) over served requests, seconds. */
    double mean_latency_s = 0.0;
    double p50_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;
    /** Requests served within the deadline (all served requests when
     * no deadline is set). */
    std::size_t completed = 0;
    /** Requests served past the deadline. */
    std::size_t timed_out = 0;
    /** Requests lost to batches that exhausted their retries. */
    std::size_t failed_requests = 0;
    /** Dispatch attempts that were retried after a batch fault. */
    std::size_t batch_retries = 0;
    /** Batches that exhausted retries and were dropped. */
    std::size_t failed_batches = 0;
    /** Batches that completed but needed at least one retry. */
    std::size_t degraded_batches = 0;
    /** completed / requests the path accepted. */
    double availability = 1.0;

    /** Classifies one dispatched request and counts it: Failed unless
     * @p served, Late when a deadline (@p deadline_s > 0) is set and
     * @p latency_s exceeds it. */
    RequestOutcome count(bool served, double latency_s, double deadline_s);

    /** Counts one executed batch that took @p retries retries. */
    void countBatch(bool served, std::size_t retries);

    /** Mean and nearest-rank p50/p95/p99 of @p latencies (sorted in
     * place); no-op when empty. */
    void summarizeLatencies(std::vector<double> &latencies);
};

/** Aggregate metrics of a simulation run. */
struct ServingStats : ServingOutcomeStats
{
    std::size_t requests = 0;
    /** Served requests per second of simulated time. */
    double throughput_rps = 0.0;
    /** Fraction of the horizon the engine spent serving. */
    double utilization = 0.0;
    /** Deadline-meeting completions per second (degraded throughput). */
    double goodput_rps = 0.0;
};

/** Latency model consulted per dispatched batch, seconds. */
using BatchLatencyFn = std::function<double(std::size_t batch)>;

/**
 * Poisson arrival times over [0, horizon_s), sorted ascending. This is
 * the exact stream ServingSimulator::simulate draws, exposed so the
 * live serving driver can replay the identical open-loop trace through
 * the real runtime and through the analytical model.
 */
std::vector<double> poissonArrivals(double arrival_rate, double horizon_s,
                                    std::uint64_t seed);

/**
 * Core discrete-event serving loop over an explicit arrival trace and
 * an injectable batch-latency model. ServingSimulator::simulate is a
 * thin wrapper (Poisson arrivals + the engine's analytical latency);
 * the live-serving cross-validation harness instead replays a measured
 * arrival trace with a measured batch-latency calibration, so the
 * queueing/batching/shedding model itself is what gets validated.
 * @p arrivals must be sorted ascending.
 */
ServingStats simulateServingTrace(const ServingConfig &config,
                                  const std::vector<double> &arrivals,
                                  const BatchLatencyFn &latency);

/**
 * Simulates batched serving of @p model (its batch field is overridden
 * per dispatched batch) on one PIM-DL engine.
 */
class ServingSimulator
{
  public:
    ServingSimulator(const PimDlEngine &engine,
                     const TransformerConfig &model,
                     const LutNnParams &params);

    /** Runs one simulation; deterministic for a fixed config. */
    ServingStats simulate(const ServingConfig &config) const;

    /**
     * Engine latency for a given batch size under a scheduling policy
     * (memoized per instance; safe to call concurrently).
     */
    double batchLatency(std::size_t batch, SchedulePolicy policy) const
        PIMDL_EXCLUDES(cache_mu_);

  private:
    const PimDlEngine &engine_;
    TransformerConfig model_;
    LutNnParams params_;
    /** Guards latency_cache_ (sweeps probe batches in parallel). */
    mutable Mutex cache_mu_{"serving.sim.latency_cache"};
    /** Memoized per (batch, policy) latency. */
    mutable std::map<std::pair<std::size_t, SchedulePolicy>, double>
        latency_cache_ PIMDL_GUARDED_BY(cache_mu_);
};

} // namespace pimdl

#endif // PIMDL_RUNTIME_SERVING_H
