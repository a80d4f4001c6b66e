#include "lut_executor.h"

#include <algorithm>
#include <cstring>

#include "common/parallel.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/schedule.h"
#include "transfer/layout.h"
#include "verify/verify.h"

namespace pimdl {

LutWorkloadShape
lutShapeFor(const LutLayer &layer, std::size_t rows)
{
    LutWorkloadShape shape;
    shape.n = rows;
    shape.cb = layer.shape().codebooks();
    shape.ct = layer.shape().centroids;
    shape.f = layer.shape().output_dim;
    return shape;
}

namespace {

/** Per-tile outcome of the fault-aware attempt loop (one writer each). */
struct TileOutcome
{
    std::uint32_t transient = 0;
    std::uint32_t bitflips = 0;
    std::uint32_t corruptions = 0;
    std::uint32_t stalls = 0;
    std::uint32_t retries = 0;
    /** Retries exhausted; the tile needs a clean host-side recompute. */
    bool escalated = false;
    /** Stall/backoff/re-execution seconds this tile accumulated. */
    double extra_s = 0.0;
};

/** Flips one bit of one float in a tile buffer (simulated corruption). */
void
flipTileBit(float *data, std::size_t slot, unsigned bit)
{
    std::uint32_t word;
    std::memcpy(&word, data + slot, sizeof(word));
    word ^= 1u << (bit % 32u);
    std::memcpy(data + slot, &word, sizeof(word));
}

} // namespace

DistributedLutResult
runDistributedLut(const PimPlatformConfig &platform, const LutLayer &layer,
                  const IndexMatrix &indices, const LutMapping &mapping,
                  bool quantized, const FaultInjector *faults,
                  const RetryPolicy &retry,
                  const LutTransferContext *transfer_ctx)
{
    const LutWorkloadShape shape = lutShapeFor(layer, indices.rows);
    std::string reason;
    PIMDL_REQUIRE(mappingIsLegal(platform, shape, mapping, &reason),
                  "illegal mapping: " + reason);
    PIMDL_REQUIRE(!quantized || layer.hasQuantizedTables(),
                  "quantized run requires quantizeTables()");
    if (faults != nullptr)
        retry.validate();

    DistributedLutResult result;
    result.cost = evaluateLutMapping(platform, shape, mapping);
    result.pes_used = mapping.totalPes(shape);

    const std::size_t groups = mapping.groups(shape);
    const std::size_t lanes = mapping.pesPerGroup(shape);
    const std::size_t cb = shape.cb;

    // Flight-recorder span + registry counters for this execution. One
    // registry lookup per call (never per PE); PE-side increments go
    // through cached lock-free counters.
    obs::TraceSpan span("lut.runDistributedLut");
    span.attr("n", static_cast<std::uint64_t>(shape.n));
    span.attr("f", static_cast<std::uint64_t>(shape.f));
    span.attr("cb", static_cast<std::uint64_t>(cb));
    span.attr("pes", static_cast<std::uint64_t>(result.pes_used));
    span.attr("model_s", result.cost.total());

    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    static obs::Counter &runs = reg.counter(metrics::kLutRuns);
    static obs::Counter &pe_kernels = reg.counter(metrics::kLutPeKernels);
    static obs::Counter &link_bytes = reg.counter(metrics::kLutLinkBytes);
    static obs::Counter &stream_bytes =
        reg.counter(metrics::kLutPeStreamBytes);
    static obs::Counter &cycles = reg.counter(metrics::kLutModelCycles);
    static obs::Histogram &model_latency =
        reg.histogram(metrics::kLutModelLatencyS);

    runs.add();
    pe_kernels.add(groups * lanes);
    link_bytes.add(static_cast<std::uint64_t>(result.cost.link_bytes));
    stream_bytes.add(static_cast<std::uint64_t>(
        result.cost.pe_stream_bytes * static_cast<double>(result.pes_used)));
    // Modeled PE cycles: lock-step PEs each spend total() seconds at the
    // platform clock.
    cycles.add(static_cast<std::uint64_t>(result.cost.microKernelTotal() *
                                          platform.pe_freq_hz));
    model_latency.record(result.cost.total());

    result.output = Tensor(shape.n, shape.f);
    Tensor &out = result.output;

    // Reduces @p nrows index rows from idx0 against LUT columns
    // [col0, col0 + ncols), bias included, into dst (row stride
    // @p stride). The kernel contract fixes each column's accumulation
    // order (codebook order) whatever column window, PE, ISA variant or
    // host runs it, so a per-PE tile (l * fs_tile, fs_tile) and a
    // full-width row (0, F) yield the same bits, as do degraded-mode and
    // fallback recomputes.
    const kernels::KernelTable &kt = kernels::best();
    const std::vector<float> &bias = layer.bias();
    const float scale = quantized ? layer.quantScale() : 1.0f;
    const auto computeRows = [&](const std::uint16_t *idx0,
                                 std::size_t nrows, float *dst,
                                 std::size_t stride, std::size_t col0,
                                 std::size_t ncols) {
        // INT8 LUT entries use INT32 on-PE accumulators, dequantized on
        // the host after gathering.
        std::vector<std::int32_t> acc(quantized ? ncols : 0);
        for (std::size_t r = 0; r < nrows; ++r, idx0 += indices.cols) {
            float *row = dst + r * stride;
            if (quantized) {
                kt.lut_accum_i8(idx0, cb, shape.ct, layer.quantLutData(),
                                shape.f, col0, ncols, acc.data());
                for (std::size_t fcol = 0; fcol < ncols; ++fcol)
                    row[fcol] = static_cast<float>(acc[fcol]) * scale;
            } else {
                kt.lut_accum_f32(idx0, cb, shape.ct, layer.lutData(),
                                 shape.f, col0, ncols, row);
            }
            // Bias: a separate host-side rounding, as lookup() applies.
            if (!bias.empty()) {
                for (std::size_t fcol = 0; fcol < ncols; ++fcol)
                    row[fcol] += bias[col0 + fcol];
            }
        }
    };

    // Tile (g, l) of the fault ladder, which needs the per-PE grid.
    const auto computeTile = [&](float *dst, std::size_t stride,
                                 std::size_t g, std::size_t l) {
        computeRows(indices.data.data() +
                        g * mapping.ns_tile * indices.cols,
                    mapping.ns_tile, dst, stride, l * mapping.fs_tile,
                    mapping.fs_tile);
    };

    const auto outTilePtr = [&](std::size_t g, std::size_t l) {
        return out.rowPtr(g * mapping.ns_tile) + l * mapping.fs_tile;
    };

    // ---- Transfer engine: resident-LUT placement -------------------
    // On offload-model platforms every launch re-stages the LUT unless
    // the placement manager says the table is already pinned in the
    // banks; a hit removes t_sub_lut from the engine's modeled time, a
    // miss pays one real scatter burst (packed in WRAM tile order).
    if (transfer_ctx != nullptr && !platform.lut_resident) {
        const double lut_model_bytes = static_cast<double>(shape.cb) *
                                       static_cast<double>(shape.ct) *
                                       static_cast<double>(shape.f) *
                                       platform.lut_dtype_bytes;
        bool hit = false;
        if (transfer_ctx->resident != nullptr) {
            hit = transfer_ctx->resident->touch(
                transfer_ctx->resident_key, lut_model_bytes);
            if (hit) {
                ++result.transfer.resident_hits;
                result.transfer.saved_stage_s += result.cost.t_sub_lut;
            } else {
                ++result.transfer.resident_misses;
            }
        }
        if (!hit && transfer_ctx->scheduler != nullptr) {
            // Scatter-stage the table: each lane's fs_tile columns
            // land contiguously, the layout its WRAM kernel consumes.
            const std::size_t elem =
                quantized ? sizeof(std::int8_t) : sizeof(float);
            const std::size_t lut_rows = shape.cb * shape.ct;
            const void *table =
                quantized ? static_cast<const void *>(layer.quantLutData())
                          : static_cast<const void *>(layer.lutData());
            transfer::StageRequest req;
            req.bytes = lut_rows * shape.f * elem;
            req.modeled_seconds = result.cost.t_sub_lut;
            req.fill = [&, table, lut_rows, elem](std::uint8_t *dst,
                                                  std::size_t) {
                transfer::packColumnTiles(table, lut_rows, shape.f,
                                          mapping.fs_tile, elem, dst);
            };
            const transfer::StagedBurstReport br =
                transfer_ctx->scheduler->stage(std::move(req)).report;
            ++result.transfer.bursts;
            result.transfer.staged_bytes +=
                static_cast<double>(lut_rows * shape.f * elem);
            result.transfer.transfer_model_s += result.cost.t_sub_lut;
            result.transfer.stalls += br.stalls;
            result.transfer.corrupt_retries += br.corrupt_retries;
            result.transfer.burst_added_s += br.added_seconds;
        }
    }

    if (faults == nullptr) {
        // Fault-free execution reduces whole output rows, one (0, F)
        // kernel call per row: legality requires fs_tile | F, so a
        // group's lanes partition its columns exactly and the rows
        // equal the per-lane tiles bit for bit.
        const auto rowBlock = [&](std::size_t b, std::size_t e) {
            computeRows(indices.data.data() + b * indices.cols, e - b,
                        out.rowPtr(b), out.cols(), 0, shape.f);
        };
        parallelForBlocked(shape.n, LutLayer::kRowGrain, rowBlock);
    } else {
        const std::size_t tiles = groups * lanes;

        // Stage 1 of the ladder: find the permanently dead PEs in this
        // mapping's pool and, if any, re-schedule their tiles onto the
        // survivors (degraded mode). No survivors at all => the engine
        // abandons the PIM and serves the operator from the host LUT.
        std::vector<bool> failed(tiles, false);
        std::size_t hard_failed = 0;
        for (std::size_t pe = 0; pe < tiles; ++pe) {
            if (faults->peHardFailed(pe)) {
                failed[pe] = true;
                ++hard_failed;
            }
        }
        result.fault.hard_failed_pes = hard_failed;

        static obs::Counter &c_fallbacks =
            reg.counter(metrics::kFaultLutHostFallbacks);
        static obs::Counter &c_transient =
            reg.counter(metrics::kFaultInjectedPeTransient);
        static obs::Counter &c_bitflip =
            reg.counter(metrics::kFaultInjectedLutBitflip);
        static obs::Counter &c_corrupt =
            reg.counter(metrics::kFaultInjectedTransferCorrupt);
        static obs::Counter &c_stall =
            reg.counter(metrics::kFaultInjectedTransferStall);
        static obs::Counter &c_retries =
            reg.counter(metrics::kFaultLutRetries);
        static obs::Counter &c_mismatches =
            reg.counter(metrics::kFaultLutChecksumMismatches);
        static obs::Counter &c_remapped =
            reg.counter(metrics::kFaultLutTilesRemapped);
        static obs::Counter &c_dead =
            reg.counter(metrics::kFaultLutDeadPes);
        static obs::Histogram &h_added =
            reg.histogram(metrics::kFaultLutAddedLatencyS);

        DegradedLutRemap remap;
        if (hard_failed > 0) {
            c_dead.add(hard_failed);
            remap = planDegradedLutRemap(shape, mapping, failed);
            if (!remap.legal) {
                // Ladder bottom: graceful host fallback (lookup() /
                // lookupQuantized() apply the bias and count the work).
                obs::TraceSpan fb("fault.host_fallback");
                fb.attr("dead_pes",
                        static_cast<std::uint64_t>(hard_failed));
                result.output = quantized ? layer.lookupQuantized(indices)
                                          : layer.lookup(indices);
                result.fault.host_fallback = true;
                c_fallbacks.add();
                span.attr("host_fallback", std::uint64_t{1});
                return result;
            }
            result.fault.degraded_waves = remap.waves;
            if (verify::verifyPlansEnabled()) {
                verify::requireClean(
                    verify::verifyDegradedRemap(shape, mapping, failed,
                                                remap),
                    "degraded remap verification");
            }
        }

        // One epoch per kernel launch: consecutive executions see fresh
        // (but still seed-deterministic) draws.
        const std::uint64_t epoch = faults->nextEpoch();
        // Modeled cost of re-running one PE kernel attempt.
        const double attempt_cost =
            result.cost.microKernelTotal() + result.cost.kernel_launch;
        const std::size_t tile_floats =
            mapping.ns_tile * mapping.fs_tile;
        const std::size_t tile_bytes = tile_floats * sizeof(float);

        std::vector<TileOutcome> outcomes(tiles);

        parallelFor(tiles, [&](std::size_t tile) {
            const std::size_t g = tile / lanes;
            const std::size_t l = tile % lanes;
            // Physical executor of this logical tile (survivor under
            // degraded mode, the owning PE otherwise).
            const std::size_t pe =
                remap.legal ? remap.tile_owner[tile] : tile;
            TileOutcome &oc = outcomes[tile];

            std::vector<float> scratch(tile_floats);
            for (std::size_t attempt = 0; attempt <= retry.max_retries;
                 ++attempt) {
                if (faults->transferStall(epoch, pe, attempt)) {
                    ++oc.stalls;
                    oc.extra_s += faults->config().stall_penalty_s;
                }

                bool delivered = false;
                if (faults->transientCrash(epoch, pe, attempt)) {
                    ++oc.transient;
                } else {
                    computeTile(scratch.data(), mapping.fs_tile, g, l);
                    // The PE stamps a checksum on the tile it computed;
                    // corruption strikes after that stamp (in the
                    // resident LUT scrub window or on the wire), so the
                    // host-side re-checksum exposes it.
                    const std::uint64_t device_sum =
                        faultChecksum(scratch.data(), tile_bytes);
                    bool corrupted = false;
                    if (faults->lutBitFlip(epoch, pe, attempt)) {
                        flipTileBit(
                            scratch.data(),
                            faults->corruptionTarget(epoch, pe, attempt,
                                                     tile_floats),
                            static_cast<unsigned>(epoch + attempt));
                        ++oc.bitflips;
                        corrupted = true;
                        // Recovery re-stages the scrubbed LUT tile from
                        // the host copy: one more per-PE LUT load.
                        oc.extra_s += result.cost.t_ld_lut;
                    } else if (faults->transferCorrupt(epoch, pe,
                                                       attempt)) {
                        flipTileBit(
                            scratch.data(),
                            faults->corruptionTarget(epoch, pe, attempt,
                                                     tile_floats),
                            static_cast<unsigned>(epoch + attempt + 7));
                        ++oc.corruptions;
                        corrupted = true;
                    }
                    const std::uint64_t host_sum =
                        faultChecksum(scratch.data(), tile_bytes);
                    delivered = !corrupted && host_sum == device_sum;
                }

                if (delivered) {
                    float *dst = outTilePtr(g, l);
                    for (std::size_t r = 0; r < mapping.ns_tile; ++r)
                        std::memcpy(dst + r * out.cols(),
                                    scratch.data() + r * mapping.fs_tile,
                                    mapping.fs_tile * sizeof(float));
                    return;
                }
                if (attempt == retry.max_retries) {
                    oc.escalated = true;
                    return;
                }
                // Capped exponential backoff, then re-execute.
                ++oc.retries;
                oc.extra_s += retry.backoffFor(attempt) + attempt_cost;
            }
        });

        // Deterministic aggregation after the parallel pass (each tile
        // outcome had exactly one writer).
        double max_tile_extra = 0.0;
        std::size_t escalated = 0;
        for (const TileOutcome &oc : outcomes) {
            result.fault.transient_crashes += oc.transient;
            result.fault.lut_bitflips += oc.bitflips;
            result.fault.checksum_mismatches += oc.corruptions;
            result.fault.stalls += oc.stalls;
            result.fault.retries += oc.retries;
            if (oc.escalated)
                ++escalated;
            max_tile_extra = std::max(max_tile_extra, oc.extra_s);
        }

        // Escalation: a tile that exhausted its retries is treated as
        // running on a just-failed PE — the host recomputes it from its
        // own LUT copy, serially, preserving bit-exact output.
        if (escalated > 0) {
            for (std::size_t tile = 0; tile < tiles; ++tile) {
                if (!outcomes[tile].escalated)
                    continue;
                computeTile(outTilePtr(tile / lanes, tile % lanes),
                            out.cols(), tile / lanes, tile % lanes);
            }
        }

        // Stall/retry terms for the analytical timing: lock-step PEs
        // finish with the slowest tile's recovery chain; degraded mode
        // serializes the survivors into `waves` rounds; escalated tiles
        // recompute serially on the host.
        double remapped = 0.0;
        if (remap.legal) {
            result.fault.added_latency_s +=
                static_cast<double>(remap.waves - 1) * attempt_cost;
            for (std::size_t tile = 0; tile < tiles; ++tile) {
                if (remap.tile_owner[tile] != tile)
                    remapped += 1.0;
            }
        }
        result.fault.tiles_remapped =
            static_cast<std::size_t>(remapped) + escalated;
        result.fault.added_latency_s +=
            max_tile_extra + static_cast<double>(escalated) * attempt_cost;

        c_transient.add(result.fault.transient_crashes);
        c_bitflip.add(result.fault.lut_bitflips);
        c_corrupt.add(result.fault.checksum_mismatches);
        c_stall.add(result.fault.stalls);
        c_retries.add(result.fault.retries);
        c_mismatches.add(result.fault.checksum_mismatches +
                         result.fault.lut_bitflips);
        c_remapped.add(result.fault.tiles_remapped);
        h_added.record(result.fault.added_latency_s);

        if (!result.fault.faultFree()) {
            obs::TraceSpan recover("fault.recover");
            recover.attr("retries", static_cast<std::uint64_t>(
                                        result.fault.retries));
            recover.attr("remapped", static_cast<std::uint64_t>(
                                         result.fault.tiles_remapped));
            recover.attr("added_s", result.fault.added_latency_s);
        }
        span.attr("fault_retries",
                  static_cast<std::uint64_t>(result.fault.retries));
        span.attr("fault_added_s", result.fault.added_latency_s);
    }

    // Logical work: the full N x CB x F reduction, as lookup() counts it
    // (the host fallback above returns early; lookup() counts its own).
    kernels::recordLutWork(shape.n, cb, shape.f,
                           quantized ? sizeof(std::int8_t)
                                     : sizeof(float));
    return result;
}

} // namespace pimdl
