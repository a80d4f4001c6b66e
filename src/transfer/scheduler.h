/**
 * @file
 * Synchronous transfer staging: TransferScheduler::stage() fills one
 * staging buffer through the request's fill callable, in the calling
 * thread, and returns it with its per-burst fault accounting. Every
 * caller consumes a burst as soon as it is staged. stage() is safe to
 * call from concurrent serving workers.
 *
 * Fault injection runs at per-burst granularity (streams 301+): each
 * staged burst draws corruption and stall outcomes keyed by its global
 * sequence number and attempt. A corrupted fill is detected by checksum
 * and re-staged under the retry policy; penalties accumulate as modeled
 * seconds on the burst, never as wall sleeps, so accounting stays
 * ManualClock-deterministic.
 */

#ifndef PIMDL_TRANSFER_SCHEDULER_H
#define PIMDL_TRANSFER_SCHEDULER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "fault/fault.h"

namespace pimdl {
namespace transfer {

/** Per-burst fault draw streams (transfer engine range: 301+; fault.h
 * owns 1-6 and 101, chaos.h owns 201+). */
inline constexpr std::uint64_t kTransferBurstCorruptStream = 301;
inline constexpr std::uint64_t kTransferBurstStallStream = 302;
inline constexpr std::uint64_t kTransferBurstTargetStream = 303;

/** One staging request: how many bytes, how to fill them, and what
 * the burst costs in modeled link seconds. */
struct StageRequest
{
    std::size_t bytes = 0;
    /** Must completely overwrite dst[0, bytes). */
    std::function<void(std::uint8_t *dst, std::size_t bytes)> fill;
    /** Modeled link seconds of this burst (engine pricing). */
    double modeled_seconds = 0.0;
};

/** Outcome accounting of one staged burst. */
struct StagedBurstReport
{
    std::size_t corrupt_retries = 0;
    std::size_t stalls = 0;
    /** Modeled stall/re-stage seconds added to the burst. */
    double added_seconds = 0.0;
};

/** A filled staging buffer and its fault accounting. */
struct StagedBurst
{
    std::vector<std::uint8_t> data;
    StagedBurstReport report;
};

/** Aggregate accounting of a scheduler's lifetime. */
struct TransferSchedulerStats
{
    std::uint64_t bursts_staged = 0;
    double staged_bytes = 0.0;
    std::uint64_t stalls = 0;
    std::uint64_t corrupt_retries = 0;
    /** Wall seconds spent filling buffers. */
    double fill_wall_s = 0.0;
};

/** Stages bursts under per-burst fault draws and keeps their stats. */
class TransferScheduler
{
  public:
    struct Options
    {
        /** Injectable time source for wall accounting. */
        Clock *clock = nullptr;
        /** Per-burst fault draws (nullptr = fault-free). */
        const FaultInjector *faults = nullptr;
        RetryPolicy retry;
    };

    explicit TransferScheduler(Options options);

    TransferScheduler(const TransferScheduler &) = delete;
    TransferScheduler &operator=(const TransferScheduler &) = delete;

    /**
     * Runs @p request's fill, applying the burst's fault draws and
     * retries, and returns the (always clean) buffer. Thread-safe.
     */
    StagedBurst stage(StageRequest request) PIMDL_EXCLUDES(stats_mu_);

    TransferSchedulerStats stats() const PIMDL_EXCLUDES(stats_mu_);

  private:
    Options options_;
    Clock *clock_ = nullptr;
    /** Global burst sequence: the per-burst fault draw key. */
    std::atomic<std::uint64_t> burst_seq_{0};

    mutable Mutex stats_mu_{"transfer.scheduler.stats"};
    TransferSchedulerStats stats_ PIMDL_GUARDED_BY(stats_mu_);

    void recordFill(double bytes, double wall_s,
                    const StagedBurstReport &report)
        PIMDL_EXCLUDES(stats_mu_);
};

} // namespace transfer
} // namespace pimdl

#endif // PIMDL_TRANSFER_SCHEDULER_H
