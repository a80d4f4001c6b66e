/** @file Distributed LUT execution tests: per-PE tiles vs monolithic. */

#include <gtest/gtest.h>

#include <bit>
#include <functional>

#include "kernels/kernels.h"
#include "lutnn/converter.h"
#include "obs/metrics.h"
#include "runtime/lut_executor.h"

namespace pimdl {
namespace {

LutLayer
makeLayer(std::size_t h, std::size_t f, std::size_t v, std::size_t ct,
          std::uint64_t seed, bool biased = false)
{
    Rng rng(seed);
    Tensor w(h, f);
    w.fillGaussian(rng);
    Tensor calib(128, h);
    calib.fillGaussian(rng);
    std::vector<float> bias;
    if (biased) {
        Tensor b(1, f);
        b.fillGaussian(rng);
        bias.assign(b.data(), b.data() + f);
    }
    ConvertOptions options;
    options.subvec_len = v;
    options.centroids = ct;
    options.quantize_int8 = true;
    return convertLinearLayer(w, bias, calib, options);
}

IndexMatrix
indicesFor(const LutLayer &layer, std::size_t rows, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor input(rows, layer.shape().input_dim);
    input.fillGaussian(rng);
    return layer.closestCentroidSearch(input);
}

/** Largest divisor of @p total that is <= cap. */
std::size_t
divisorUpTo(std::size_t total, std::size_t cap)
{
    for (std::size_t d = std::min(cap, total); d >= 1; --d) {
        if (total % d == 0)
            return d;
    }
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
    m.cbm_tile = 1;
    m.scheme = LutLoadScheme::FineGrain;
    m.f_load_tile = 1;
    return m;
}

/** Bitwise equality of two tensors; reports the first differing slot. */
::testing::AssertionResult
bitEqual(const Tensor &got, const Tensor &want)
{
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    for (std::size_t i = 0; i < want.size(); ++i) {
        const float g = got.data()[i];
        const float w = want.data()[i];
        if (std::bit_cast<std::uint32_t>(g) !=
            std::bit_cast<std::uint32_t>(w)) {
            return ::testing::AssertionFailure()
                   << "row " << i / want.cols() << " col "
                   << i % want.cols() << ": " << g << " != " << w;
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(LutExecutor, MatchesMonolithicLookup)
{
    LutLayer layer = makeLayer(16, 24, 2, 8, 50);
    const IndexMatrix idx = indicesFor(layer, 32, 51);

    const Tensor reference = layer.lookup(idx);
    for (auto [groups, lanes] :
         {std::pair<std::size_t, std::size_t>{1, 1}, {4, 2}, {8, 3},
          {32, 24}}) {
        LutMapping m = mappingFor(32, 24, groups, lanes);
        m.cbm_tile = 8;
        DistributedLutResult result = runDistributedLut(
            upmemPlatform(), layer, idx, m, /*quantized=*/false);
        EXPECT_TRUE(bitEqual(result.output, reference))
            << groups << "x" << lanes;
        EXPECT_EQ(result.pes_used, groups * lanes);
    }
}

TEST(LutExecutor, QuantizedMatchesMonolithicQuantized)
{
    LutLayer layer = makeLayer(8, 12, 2, 4, 52);
    const IndexMatrix idx = indicesFor(layer, 16, 53);

    const Tensor reference = layer.lookupQuantized(idx);
    LutMapping m = mappingFor(16, 12, 4, 4);
    m.cbm_tile = 4;
    DistributedLutResult result =
        runDistributedLut(upmemPlatform(), layer, idx, m, true);
    EXPECT_TRUE(bitEqual(result.output, reference));
}

TEST(LutExecutor, BiasAppliedOnce)
{
    Rng rng(55);
    Tensor w(8, 4);
    w.fillGaussian(rng);
    Tensor calib(64, 8);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = 2;
    options.centroids = 4;
    LutLayer biased = convertLinearLayer(w, {1.0f, 2.0f, 3.0f, 4.0f},
                                         calib, options);

    Tensor input(8, 8);
    input.fillGaussian(rng);
    IndexMatrix idx = biased.closestCentroidSearch(input);
    const Tensor reference = biased.lookup(idx);

    LutMapping m = mappingFor(8, 4, 2, 2);
    m.cbm_tile = 4;
    DistributedLutResult result =
        runDistributedLut(upmemPlatform(), biased, idx, m, false);
    EXPECT_TRUE(bitEqual(result.output, reference));
}

TEST(LutExecutor, WorkCountersMatchLookup)
{
    // The distributed run records the logical N x CB x F reduction, the
    // same kernels.lut.* work as the monolithic lookup on its indices.
    LutLayer layer = makeLayer(16, 36, 2, 16, 61);
    const IndexMatrix idx = indicesFor(layer, 64, 62);
    const LutMapping m = mappingFor(64, 36, 4, 12); // fs_tile 3
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    const auto snapshot = [&] {
        return std::vector<std::uint64_t>{
            reg.counter("kernels.lut.rows").value(),
            reg.counter("kernels.lut.elements").value(),
            reg.counter("kernels.lut.bytes").value()};
    };
    const auto delta = [&](const std::function<void()> &run) {
        const std::vector<std::uint64_t> before = snapshot();
        run();
        std::vector<std::uint64_t> after = snapshot();
        for (std::size_t i = 0; i < after.size(); ++i)
            after[i] -= before[i];
        return after;
    };

    for (bool quantized : {false, true}) {
        const std::vector<std::uint64_t> distributed = delta([&] {
            runDistributedLut(upmemPlatform(), layer, idx, m, quantized);
        });
        const std::vector<std::uint64_t> monolithic = delta([&] {
            if (quantized)
                layer.lookupQuantized(idx);
            else
                layer.lookup(idx);
        });
        EXPECT_EQ(distributed, monolithic) << "quantized=" << quantized;
        EXPECT_EQ(distributed[1], 64u * 8u * 36u);
    }
}

/**
 * Bit-exactness of every execution path against lookup() /
 * lookupQuantized(), under every available kernel impl, on narrow-lane
 * mappings (fs_tile 2, 3 and 4, as the tuner picks on the ledger
 * config) and a one-lane mapping, with and without bias.
 */
class LutExecutorExact : public ::testing::Test
{
  protected:
    static constexpr std::size_t kRows = 64;
    static constexpr std::size_t kGroups = 4;
    static constexpr std::size_t kF = 36;

    void TearDown() override { kernels::setKernelImpl(""); }

    /** Runs @p path on every case and checks its output bitwise. */
    template <typename Path>
    static void
    expectBitExact(const Path &path)
    {
        for (bool biased : {false, true}) {
            const LutLayer layer = makeLayer(16, kF, 2, 16, 70, biased);
            const IndexMatrix idx = indicesFor(layer, kRows, 71);
            for (const kernels::KernelTable *impl :
                 kernels::availableKernels()) {
                kernels::setKernelImpl(impl->name);
                const std::string label =
                    std::string(impl->name) + (biased ? " biased" : "");
                for (bool quantized : {false, true})
                    expectEveryLane(path, layer, idx, quantized, label);
            }
        }
    }

    /** One layer, impl and dtype over every lane width. */
    template <typename Path>
    static void
    expectEveryLane(const Path &path, const LutLayer &layer,
                    const IndexMatrix &idx, bool quantized,
                    const std::string &label)
    {
        const Tensor reference =
            quantized ? layer.lookupQuantized(idx) : layer.lookup(idx);
        for (std::size_t fs_tile : {2u, 3u, 4u, 36u}) {
            const LutMapping m =
                mappingFor(kRows, kF, kGroups, kF / fs_tile);
            const DistributedLutResult result =
                path(layer, idx, m, quantized);
            EXPECT_TRUE(bitEqual(result.output, reference))
                << label << " quantized=" << quantized
                << " fs_tile=" << fs_tile;
        }
    }
};

TEST_F(LutExecutorExact, UnstagedFullWidthRows)
{
    expectBitExact([](const LutLayer &layer, const IndexMatrix &idx,
                      const LutMapping &m, bool quantized) {
        return runDistributedLut(upmemPlatform(), layer, idx, m,
                                 quantized);
    });
}

TEST_F(LutExecutorExact, EngineAttached)
{
    // Transfer engine attached: a resident miss stages the LUT, the
    // repeat is a hit; both must leave the output bits untouched.
    expectBitExact([](const LutLayer &layer, const IndexMatrix &idx,
                      const LutMapping &m, bool quantized) {
        transfer::TransferScheduler scheduler({});
        transfer::ResidentLutManager resident(
            transfer::residentLutCapacityBytes(upmemPlatform()));
        LutTransferContext ctx;
        ctx.scheduler = &scheduler;
        ctx.resident = &resident;
        const auto run = [&] {
            return runDistributedLut(upmemPlatform(), layer, idx, m,
                                     quantized, nullptr, {}, &ctx);
        };
        const DistributedLutResult miss = run();
        EXPECT_EQ(miss.transfer.resident_misses, 1u);
        EXPECT_EQ(miss.transfer.bursts, 1u);
        DistributedLutResult hit = run();
        EXPECT_EQ(hit.transfer.resident_hits, 1u);
        EXPECT_EQ(hit.transfer.bursts, 0u);
        EXPECT_TRUE(bitEqual(miss.output, hit.output));
        return hit;
    });
}

TEST_F(LutExecutorExact, ZeroRateFaultLadder)
{
    // Per-PE tile path: checksums and retries run, nothing fires.
    const FaultInjector faults{FaultConfig{}};
    expectBitExact([&faults](const LutLayer &layer, const IndexMatrix &idx,
                             const LutMapping &m, bool quantized) {
        DistributedLutResult result = runDistributedLut(
            upmemPlatform(), layer, idx, m, quantized, &faults);
        EXPECT_TRUE(result.fault.faultFree());
        return result;
    });
}

TEST(LutExecutor, RejectsIllegalMapping)
{
    LutLayer layer = makeLayer(8, 12, 2, 4, 56);
    const IndexMatrix idx = indicesFor(layer, 16, 57);
    LutMapping m = mappingFor(16, 12, 4, 4);
    m.ns_tile = 5; // does not divide 16
    EXPECT_THROW(runDistributedLut(upmemPlatform(), layer, idx, m, false),
                 std::runtime_error);
}

TEST(LutExecutor, CostAttachedToResult)
{
    LutLayer layer = makeLayer(8, 12, 2, 4, 58);
    const IndexMatrix idx = indicesFor(layer, 16, 59);
    LutMapping m = mappingFor(16, 12, 4, 4);
    m.cbm_tile = 4;
    DistributedLutResult result =
        runDistributedLut(upmemPlatform(), layer, idx, m, false);
    EXPECT_TRUE(result.cost.legal);
    EXPECT_GT(result.cost.total(), 0.0);
}

TEST(LutExecutor, ShapeHelper)
{
    LutLayer layer = makeLayer(8, 12, 2, 4, 60);
    LutWorkloadShape shape = lutShapeFor(layer, 100);
    EXPECT_EQ(shape.n, 100u);
    EXPECT_EQ(shape.cb, 4u);
    EXPECT_EQ(shape.ct, 4u);
    EXPECT_EQ(shape.f, 12u);
}

} // namespace
} // namespace pimdl
