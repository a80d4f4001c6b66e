/**
 * @file
 * Transfer-engine tests: single-burst link pricing, scatter/gather
 * layout transforms, resident-LUT LRU placement (including a concurrent
 * stress), the synchronous stager's per-burst fault draws, residency
 * and staging through the distributed executor, and the transaction
 * backend's burst command stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>
#include <vector>

#include "backend/transaction.h"
#include "common/clock.h"
#include "common/rng.h"
#include "host/host_model.h"
#include "lutnn/converter.h"
#include "runtime/lut_executor.h"
#include "transfer/layout.h"
#include "transfer/resident.h"
#include "transfer/scheduler.h"
#include "transfer/transfer.h"

namespace pimdl {
namespace {

// ---------------------------------------------------------------------
// Link pricing: one payload, one burst.
// ---------------------------------------------------------------------

TEST(TransferPricing, BurstIsSetupPlusCurvePoint)
{
    const PimPlatformConfig upmem = upmemPlatform();
    const double kBytes = 1024.0 * 1024;
    for (const transfer::LinkPattern pattern :
         {transfer::LinkPattern::Broadcast, transfer::LinkPattern::Scatter,
          transfer::LinkPattern::Gather}) {
        EXPECT_DOUBLE_EQ(
            transfer::burstSeconds(upmem, pattern, kBytes),
            upmem.link_setup_latency_s +
                transfer::curveFor(upmem, pattern).seconds(kBytes));
        EXPECT_DOUBLE_EQ(transfer::burstSeconds(upmem, pattern, 0.0), 0.0)
            << "an empty payload issues no burst";
    }
    EXPECT_EQ(&transfer::curveFor(upmem, transfer::LinkPattern::Scatter),
              &upmem.host_scatter);
}

// ---------------------------------------------------------------------
// Layout transforms: pure permutations.
// ---------------------------------------------------------------------

TEST(TransferLayout, ColumnTilePackUnpackIsIdentity)
{
    constexpr std::size_t kRows = 6, kCols = 12, kTile = 4, kElem = 2;
    std::vector<std::uint8_t> src(kRows * kCols * kElem);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 37 + 11);

    std::vector<std::uint8_t> packed(src.size(), 0);
    std::vector<std::uint8_t> round(src.size(), 0);
    transfer::packColumnTiles(src.data(), kRows, kCols, kTile, kElem,
                              packed.data());
    EXPECT_NE(packed, src) << "packing must actually permute";
    transfer::unpackColumnTiles(packed.data(), kRows, kCols, kTile,
                                kElem, round.data());
    EXPECT_EQ(round, src);

    // Lane l's tile is one contiguous block of all rows x tile columns.
    const std::size_t lane = 1;
    const std::uint8_t *tile =
        packed.data() + lane * kRows * kTile * kElem;
    for (std::size_t r = 0; r < kRows; ++r)
        for (std::size_t c = 0; c < kTile; ++c)
            for (std::size_t e = 0; e < kElem; ++e)
                EXPECT_EQ(tile[(r * kTile + c) * kElem + e],
                          src[(r * kCols + lane * kTile + c) * kElem +
                              e]);
}

// ---------------------------------------------------------------------
// Resident-LUT placement.
// ---------------------------------------------------------------------

TEST(ResidentLut, LruEvictionUnderCapacityPressure)
{
    transfer::ResidentLutManager mgr(100.0);

    EXPECT_FALSE(mgr.touch(1, 40.0)); // miss, pin
    EXPECT_FALSE(mgr.touch(2, 40.0)); // miss, pin
    EXPECT_TRUE(mgr.touch(1, 40.0));  // hit refreshes 1's recency
    EXPECT_FALSE(mgr.touch(3, 40.0)); // evicts 2 (LRU), not 1

    EXPECT_TRUE(mgr.touch(1, 40.0));
    EXPECT_TRUE(mgr.touch(3, 40.0));
    EXPECT_FALSE(mgr.touch(2, 40.0)) << "2 must have been evicted";

    transfer::ResidentLutStats stats = mgr.stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_GE(stats.evictions, 2u);
    EXPECT_LE(stats.resident_bytes, mgr.capacityBytes());
    EXPECT_EQ(stats.entries, 2u);

    // Oversized tables never pin (and never evict the working set,
    // which is {2, 3} after the eviction churn above).
    EXPECT_FALSE(mgr.touch(9, 1000.0));
    EXPECT_FALSE(mgr.touch(9, 1000.0)) << "oversized is always a miss";
    EXPECT_TRUE(mgr.touch(2, 40.0))
        << "an oversized miss must not evict pinned tables";
    EXPECT_TRUE(mgr.touch(3, 40.0));

    mgr.clear();
    stats = mgr.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_DOUBLE_EQ(stats.resident_bytes, 0.0);
    EXPECT_FALSE(mgr.touch(1, 40.0)) << "clear() unpins everything";

    EXPECT_THROW(transfer::ResidentLutManager(0.0), std::runtime_error);
    const PimPlatformConfig upmem = upmemPlatform();
    EXPECT_GT(transfer::residentLutCapacityBytes(upmem), 0.0);
    EXPECT_LT(transfer::residentLutCapacityBytes(upmem),
              static_cast<double>(upmem.num_pes) *
                  static_cast<double>(upmem.pe_local_mem_bytes));
}

TEST(ResidentLut, ConcurrentTouchStressKeepsAccountingConsistent)
{
    constexpr std::size_t kThreads = 8, kTouches = 2000;
    constexpr double kBytes = 64.0;
    // Capacity for half the key space: constant eviction churn.
    transfer::ResidentLutManager mgr(kBytes * 8);

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&mgr, t] {
            Rng rng(0xc0ffee + t);
            for (std::size_t i = 0; i < kTouches; ++i)
                mgr.touch(
                    static_cast<std::uint64_t>(rng.uniform() * 16.0),
                    kBytes);
        });
    }
    for (std::thread &th : threads)
        th.join();

    const transfer::ResidentLutStats stats = mgr.stats();
    EXPECT_EQ(stats.hits + stats.misses, kThreads * kTouches);
    EXPECT_LE(stats.resident_bytes, mgr.capacityBytes());
    EXPECT_LE(stats.entries, 8u);
    EXPECT_GT(stats.evictions, 0u);
}

// ---------------------------------------------------------------------
// Staging scheduler: per-burst faults.
// ---------------------------------------------------------------------

transfer::StageRequest
patternRequest(std::size_t bytes, std::uint8_t tag, double modeled_s)
{
    transfer::StageRequest req;
    req.bytes = bytes;
    req.modeled_seconds = modeled_s;
    req.fill = [tag](std::uint8_t *dst, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = static_cast<std::uint8_t>(tag + i * 3);
    };
    return req;
}

TEST(TransferScheduler, CorruptedBurstsAreRetriedToCleanDelivery)
{
    FaultConfig fc;
    fc.seed = 1234;
    fc.transfer_corrupt_rate = 1.0; // every attempt corrupts
    fc.stall_penalty_s = 500e-6;
    const FaultInjector faults(fc);

    ManualClock clock;
    transfer::TransferScheduler::Options options;
    options.clock = &clock;
    options.faults = &faults;
    options.retry.max_retries = 2;
    transfer::TransferScheduler scheduler(options);

    constexpr std::size_t kBytes = 512;
    const double modeled_s = 3e-6;
    const transfer::StagedBurst burst =
        scheduler.stage(patternRequest(kBytes, 0x11, modeled_s));
    const std::vector<std::uint8_t> &buf = burst.data;
    ASSERT_EQ(buf.size(), kBytes);
    for (std::size_t i = 0; i < kBytes; ++i)
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>(0x11 + i * 3))
            << "delivered data must be clean after retries";

    const transfer::StagedBurstReport &report = burst.report;
    // Rate 1.0 burns the whole retry budget, then the final clean
    // refill delivers: max_retries + 1 corrupt draws.
    EXPECT_EQ(report.corrupt_retries, options.retry.max_retries + 1);
    double expected = 0.0;
    for (std::size_t r = 0; r < report.corrupt_retries; ++r)
        expected += modeled_s + options.retry.backoffFor(r);
    expected += report.stalls * fc.stall_penalty_s;
    EXPECT_NEAR(report.added_seconds, expected, 1e-15)
        << "penalties are modeled seconds, not wall time";

    EXPECT_DOUBLE_EQ(clock.now(), 0.0)
        << "fault penalties must never sleep the clock";
    EXPECT_EQ(scheduler.stats().corrupt_retries,
              report.corrupt_retries);
}

TEST(TransferScheduler, StallDrawsAreDeterministicPerSequence)
{
    FaultConfig fc;
    fc.seed = 99;
    fc.transfer_stall_rate = 0.5;
    const FaultInjector faults(fc);

    const auto stallPattern = [&faults](std::size_t bursts) {
        transfer::TransferScheduler::Options options;
        options.faults = &faults;
        transfer::TransferScheduler scheduler(options);
        std::vector<std::size_t> stalls;
        for (std::size_t b = 0; b < bursts; ++b)
            stalls.push_back(
                scheduler
                    .stage(patternRequest(
                        64, static_cast<std::uint8_t>(b), 1e-6))
                    .report.stalls);
        return stalls;
    };

    const std::vector<std::size_t> first = stallPattern(32);
    const std::vector<std::size_t> second = stallPattern(32);
    EXPECT_EQ(first, second)
        << "per-burst draws are keyed by global sequence: identical "
        << "schedules must see identical stalls";
    const std::size_t total =
        std::accumulate(first.begin(), first.end(), std::size_t{0});
    EXPECT_GT(total, 0u);
    EXPECT_LT(total, 32u) << "rate 0.5 must not stall every burst";
}

// ---------------------------------------------------------------------
// Distributed executor integration: staging and residency.
// ---------------------------------------------------------------------

LutLayer
makeLayerNoBias(std::size_t h, std::size_t f, std::size_t v,
                std::size_t ct, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor w(h, f);
    w.fillGaussian(rng);
    Tensor calib(128, h);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = v;
    options.centroids = ct;
    options.quantize_int8 = true;
    return convertLinearLayer(w, {}, calib, options);
}

/** Largest divisor of @p total that is <= cap. */
std::size_t
divisorUpTo(std::size_t total, std::size_t cap)
{
    for (std::size_t d = std::min(cap, total); d >= 1; --d)
        if (total % d == 0)
            return d;
    return 1;
}

LutMapping
mappingFor(std::size_t n, std::size_t f, std::size_t groups,
           std::size_t lanes)
{
    LutMapping m;
    m.ns_tile = n / groups;
    m.fs_tile = f / lanes;
    m.nm_tile = divisorUpTo(m.ns_tile, 8);
    m.fm_tile = divisorUpTo(m.fs_tile, 8);
    m.cbm_tile = 8;
    m.scheme = LutLoadScheme::FineGrain;
    m.f_load_tile = 1;
    return m;
}

TEST(TransferExecutor, StagedExecutionIsBitExactAndDeterministic)
{
    const PimPlatformConfig upmem = upmemPlatform();
    LutLayer layer = makeLayerNoBias(16, 24, 2, 8, 70);
    Rng rng(71);
    Tensor input(32, 16);
    input.fillGaussian(rng);
    const IndexMatrix idx = layer.closestCentroidSearch(input);
    const LutMapping m = mappingFor(32, 24, 4, 2);

    const DistributedLutResult plain =
        runDistributedLut(upmem, layer, idx, m, false);

    // No resident manager: every launch re-stages the LUT.
    ManualClock clock;
    transfer::TransferScheduler::Options options;
    options.clock = &clock;
    transfer::TransferScheduler scheduler(options);
    LutTransferContext ctx;
    ctx.scheduler = &scheduler;
    const DistributedLutResult first =
        runDistributedLut(upmem, layer, idx, m, false, nullptr, {}, &ctx);
    const DistributedLutResult second =
        runDistributedLut(upmem, layer, idx, m, false, nullptr, {}, &ctx);

    for (const DistributedLutResult *r : {&first, &second}) {
        ASSERT_EQ(r->output.rows(), plain.output.rows());
        ASSERT_EQ(r->output.cols(), plain.output.cols());
        for (std::size_t row = 0; row < plain.output.rows(); ++row)
            for (std::size_t col = 0; col < plain.output.cols(); ++col)
                ASSERT_EQ(r->output(row, col), plain.output(row, col))
                    << "element " << row << "," << col;
        EXPECT_EQ(r->transfer.bursts, 1u);
        // cb 8 x ct 8 rows of 24 FP32 columns.
        EXPECT_DOUBLE_EQ(r->transfer.staged_bytes,
                         static_cast<double>(8 * 8 * 24 * sizeof(float)));
        EXPECT_DOUBLE_EQ(r->transfer.transfer_model_s,
                         plain.cost.t_sub_lut);
        // Fault-free staging without residency moves no modeled time.
        EXPECT_DOUBLE_EQ(r->modelSeconds(), plain.modelSeconds());
        EXPECT_DOUBLE_EQ(r->engineSeconds(), r->modelSeconds());
    }
    EXPECT_EQ(scheduler.stats().bursts_staged, 2u);
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
}

TEST(TransferExecutor, ResidentLutSkipsRestagingOnRepeatedRuns)
{
    const PimPlatformConfig upmem = upmemPlatform();
    ASSERT_FALSE(upmem.lut_resident);
    LutLayer layer = makeLayerNoBias(16, 24, 2, 8, 72);
    Rng rng(73);
    Tensor input(32, 16);
    input.fillGaussian(rng);
    const IndexMatrix idx = layer.closestCentroidSearch(input);
    const LutMapping m = mappingFor(32, 24, 4, 2);

    transfer::TransferScheduler scheduler({});
    transfer::ResidentLutManager resident(
        transfer::residentLutCapacityBytes(upmem));
    LutTransferContext ctx;
    ctx.scheduler = &scheduler;
    ctx.resident = &resident;
    ctx.resident_key = 42;

    const DistributedLutResult cold =
        runDistributedLut(upmem, layer, idx, m, false, nullptr, {}, &ctx);
    EXPECT_EQ(cold.transfer.resident_misses, 1u);
    EXPECT_EQ(cold.transfer.resident_hits, 0u);
    EXPECT_DOUBLE_EQ(cold.transfer.saved_stage_s, 0.0);

    const DistributedLutResult warm =
        runDistributedLut(upmem, layer, idx, m, false, nullptr, {}, &ctx);
    EXPECT_EQ(warm.transfer.resident_hits, 1u);
    EXPECT_EQ(warm.transfer.resident_misses, 0u);
    EXPECT_DOUBLE_EQ(warm.transfer.saved_stage_s, cold.cost.t_sub_lut);
    EXPECT_LT(warm.engineSeconds(), cold.engineSeconds())
        << "a residency hit must be cheaper than the cold run";
    EXPECT_LT(warm.transfer.staged_bytes, cold.transfer.staged_bytes)
        << "the LUT scatter burst must be skipped on a hit";

    // Output is unaffected by residency either way.
    const DistributedLutResult plain =
        runDistributedLut(upmem, layer, idx, m, false);
    for (std::size_t row = 0; row < plain.output.rows(); ++row)
        for (std::size_t col = 0; col < plain.output.cols(); ++col)
            ASSERT_EQ(warm.output(row, col), plain.output(row, col));
}

// ---------------------------------------------------------------------
// Transaction backend: burst command streams.
// ---------------------------------------------------------------------

TEST(TransferTxn, BurstCommandStreamPricesSetupAndCurve)
{
    const TransactionBackend backend(upmemPlatform(), xeon4210Dual(),
                                     {});
    const PimPlatformConfig &upmem = backend.platform();

    const double kBytes = 256.0 * 1024;
    const TxnNodeReport small = backend.simulateTransferBurst(
        TransferDirection::HostToPim, true, kBytes);
    const TxnNodeReport big = backend.simulateTransferBurst(
        TransferDirection::HostToPim, true, 2.0 * kBytes);

    EXPECT_GT(small.commands_generated, 1u);
    EXPECT_EQ(small.commands_completed, small.commands_generated);
    EXPECT_GE(small.seconds, upmem.link_setup_latency_s);
    EXPECT_GT(big.seconds, small.seconds);
    // One burst beats two half-size bursts: one setup saved plus the
    // higher curve point.
    EXPECT_LT(big.seconds, 2.0 * small.seconds);

    // Direction/staging select the command kind and curve.
    EXPECT_GT(small.linkKindSeconds(TxnCommandKind::Scatter), 0.0);
    const TxnNodeReport bcast = backend.simulateTransferBurst(
        TransferDirection::HostToPim, false, kBytes);
    EXPECT_GT(bcast.linkKindSeconds(TxnCommandKind::Broadcast), 0.0);
    EXPECT_DOUBLE_EQ(bcast.linkKindSeconds(TxnCommandKind::Scatter),
                     0.0);
    const TxnNodeReport gather = backend.simulateTransferBurst(
        TransferDirection::PimToHost, false, kBytes);
    EXPECT_GT(gather.linkKindSeconds(TxnCommandKind::Gather), 0.0);

    // Empty bursts still pay the setup command, nothing else.
    const TxnNodeReport empty = backend.simulateTransferBurst(
        TransferDirection::HostToPim, true, 0.0);
    EXPECT_EQ(empty.commands_generated, 1u);
    EXPECT_GE(empty.seconds, upmem.link_setup_latency_s);
}

} // namespace
} // namespace pimdl
