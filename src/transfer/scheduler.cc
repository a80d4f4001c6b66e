#include "scheduler.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace pimdl {
namespace transfer {

TransferScheduler::TransferScheduler(Options options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : &SteadyClock::instance())
{
    options_.retry.validate();
}

TransferSchedulerStats
TransferScheduler::stats() const
{
    MutexLock lock(stats_mu_);
    return stats_;
}

StagedBurst
TransferScheduler::stage(StageRequest request)
{
    const std::uint64_t seq =
        burst_seq_.fetch_add(1, std::memory_order_relaxed);
    StagedBurst burst;
    burst.data.resize(request.bytes);
    std::uint8_t *dst = burst.data.data();
    StagedBurstReport &report = burst.report;

    const double t0 = clock_->now();

    const FaultInjector *faults = options_.faults;
    const std::uint64_t seed =
        faults != nullptr ? faults->config().seed : 0;
    const FaultConfig *fc =
        faults != nullptr ? &faults->config() : nullptr;

    for (std::size_t attempt = 0;; ++attempt) {
        if (request.fill && request.bytes > 0)
            request.fill(dst, request.bytes);
        if (fc == nullptr || !fc->anyRateSet())
            break;
        // Per-burst stall draw: modeled seconds only, never a wall
        // sleep, so accounting stays clock-implementation agnostic.
        if (faultHashUniform(seed, kTransferBurstStallStream, seq,
                             attempt) < fc->transfer_stall_rate) {
            ++report.stalls;
            report.added_seconds += fc->stall_penalty_s;
        }
        const bool corrupt =
            faultHashUniform(seed, kTransferBurstCorruptStream, seq,
                             attempt) < fc->transfer_corrupt_rate;
        if (!corrupt)
            break;
        if (request.bytes > 0) {
            // Flip one deterministic byte, then detect it the way the
            // runtime would: the staged checksum no longer matches a
            // clean refill's.
            const std::uint64_t clean = faultChecksum(dst, request.bytes);
            const std::size_t target = static_cast<std::size_t>(
                faultHashUniform(seed, kTransferBurstTargetStream, seq,
                                 attempt) *
                static_cast<double>(request.bytes));
            dst[target < request.bytes ? target : request.bytes - 1] ^=
                0xFF;
            PIMDL_REQUIRE(faultChecksum(dst, request.bytes) != clean,
                          "burst corruption must perturb the checksum");
        }
        ++report.corrupt_retries;
        report.added_seconds +=
            request.modeled_seconds +
            options_.retry.backoffFor(report.corrupt_retries - 1);
        if (report.corrupt_retries > options_.retry.max_retries) {
            // Retry budget exhausted: one final clean refill below
            // models the host-mediated recovery path (always succeeds
            // in simulation); data delivered to the consumer is never
            // corrupted, mirroring the SDK's transfer CRC contract.
            if (request.fill && request.bytes > 0)
                request.fill(dst, request.bytes);
            break;
        }
    }

    recordFill(static_cast<double>(request.bytes), clock_->now() - t0,
               report);
    return burst;
}

void
TransferScheduler::recordFill(double bytes, double wall_s,
                              const StagedBurstReport &report)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &c_bursts =
        reg.counter(metrics::kTransferStagedBursts);
    static obs::Counter &c_bytes =
        reg.counter(metrics::kTransferStagedBytes);
    static obs::Counter &c_stalls = reg.counter(metrics::kTransferStalls);
    static obs::Counter &c_retries =
        reg.counter(metrics::kTransferCorruptRetries);
    static obs::Histogram &h_wall =
        reg.histogram(metrics::kTransferStageWallS);
    {
        MutexLock lock(stats_mu_);
        ++stats_.bursts_staged;
        stats_.staged_bytes += bytes;
        stats_.stalls += report.stalls;
        stats_.corrupt_retries += report.corrupt_retries;
        stats_.fill_wall_s += wall_s;
    }
    c_bursts.add();
    c_bytes.add(static_cast<std::uint64_t>(bytes));
    if (report.stalls > 0)
        c_stalls.add(report.stalls);
    if (report.corrupt_retries > 0)
        c_retries.add(report.corrupt_retries);
    h_wall.record(wall_s);
}

} // namespace transfer
} // namespace pimdl
