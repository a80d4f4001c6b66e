/**
 * @file
 * Functional distributed execution of a LUT operator across simulated
 * DRAM-PIM PEs under a sub-LUT partition (paper Figure 8-(a)), paired
 * with the analytical latency of the mapping.
 *
 * The per-PE tile grid — each PE owns an (ns_tile x fs_tile) output
 * tile, reduced locally from its group's index tile and its lane's LUT
 * tile — governs the modeled cost, the lut.pe_kernels count and the
 * fault ladder. Fault-free execution computes full-width output rows
 * (one kernel call over all F columns per row) instead: legality
 * requires fs_tile | F, so the lanes partition the columns exactly, and
 * the kernel contract fixes each column's accumulation order, so the
 * rows are bit-identical to the per-PE tiles and to lookup().
 *
 * Execution is optionally fault-aware (src/fault): a seed-driven
 * injector can kill PEs, crash kernel attempts, flip bits in resident
 * LUT tiles, and corrupt or stall host<->PIM transfers. The resilient
 * ladder — per-PE output-tile checksum verification, capped
 * exponential-backoff retries, degraded re-scheduling of tiles owned by
 * dead PEs onto survivors (plan/schedule.h), and finally a host
 * fallback — guarantees the assembled output stays bit-exact versus
 * fault-free execution while the stall/retry/remap cost lands in the
 * analytical timing as FaultReport::added_latency_s.
 */

#ifndef PIMDL_RUNTIME_LUT_EXECUTOR_H
#define PIMDL_RUNTIME_LUT_EXECUTOR_H

#include "fault/fault.h"
#include "lutnn/lut_layer.h"
#include "transfer/resident.h"
#include "transfer/scheduler.h"
#include "tuner/cost_model.h"

namespace pimdl {

/**
 * Optional transfer-engine hookup for one distributed execution. When
 * present (and the platform is an offload model), LUT re-staging
 * consults the resident-LUT manager first: a hit skips the scatter
 * burst and its modeled t_sub_lut; a miss stages the table through the
 * scheduler (packed in WRAM tile order) under per-burst fault draws.
 */
struct LutTransferContext
{
    /** Staging engine; nullptr = residency accounting only. */
    transfer::TransferScheduler *scheduler = nullptr;
    /** Resident-LUT placement; nullptr = re-stage every launch. */
    transfer::ResidentLutManager *resident = nullptr;
    /** Caller-stable identity of this layer's LUT table. */
    std::uint64_t resident_key = 0;
};

/** Transfer-engine outcome of one distributed execution. */
struct TransferReport
{
    /** LUT re-staging bursts this execution issued. */
    std::size_t bursts = 0;
    double staged_bytes = 0.0;
    /** Modeled link seconds of the staged transfers. */
    double transfer_model_s = 0.0;
    /** Modeled LUT re-staging seconds skipped via residency hits. */
    double saved_stage_s = 0.0;
    std::size_t resident_hits = 0;
    std::size_t resident_misses = 0;
    /** Per-burst fault outcomes (streams 301+). */
    std::size_t stalls = 0;
    std::size_t corrupt_retries = 0;
    /** Modeled stall/re-stage seconds the burst faults added. */
    double burst_added_s = 0.0;
};

/** Result of one distributed LUT execution. */
struct DistributedLutResult
{
    /** N x F output assembled from the per-PE tiles. */
    Tensor output;
    /** Analytical latency/traffic breakdown for the mapping. */
    LutCostBreakdown cost;
    /** PEs the partition occupied. */
    std::size_t pes_used = 0;
    /** Fault outcome of this execution (empty when fault-free). */
    FaultReport fault;
    /** Transfer-engine outcome (empty without a LutTransferContext). */
    TransferReport transfer;

    /** Modeled wall time including fault stall/retry/remap terms. */
    double
    modelSeconds() const
    {
        return cost.total() + fault.added_latency_s;
    }

    /**
     * Modeled wall time under the transfer engine: the analytical
     * baseline minus the staging seconds residency skipped, plus
     * per-burst fault penalties. Collapses to modelSeconds() without a
     * context.
     */
    double
    engineSeconds() const
    {
        return modelSeconds() + transfer.burst_added_s -
               transfer.saved_stage_s;
    }
};

/**
 * Runs @p layer's LUT operator for @p indices on the simulated platform
 * under @p mapping. When @p quantized is true the PEs reduce the INT8
 * LUT with INT32 accumulators (the UPMEM deployment mode).
 *
 * When @p faults is non-null, execution runs through the resilient
 * ladder under @p retry; with all rates zero and no forced kills the
 * output (and the analytical cost) is bit-identical to a fault-free
 * run.
 *
 * When @p transfer_ctx is non-null, LUT re-staging runs through the
 * transfer engine (resident-LUT lookup, staged scatter on a miss). The
 * engine moves only modeled seconds: the output is bit-identical with
 * or without it, on the fault-free rows and under the fault ladder.
 *
 * Throws (via PIMDL_REQUIRE) if the mapping is illegal for the shape.
 */
DistributedLutResult runDistributedLut(
    const PimPlatformConfig &platform, const LutLayer &layer,
    const IndexMatrix &indices, const LutMapping &mapping, bool quantized,
    const FaultInjector *faults = nullptr, const RetryPolicy &retry = {},
    const LutTransferContext *transfer_ctx = nullptr);

/** Builds the tuner workload shape for a LUT layer and row count. */
LutWorkloadShape lutShapeFor(const LutLayer &layer, std::size_t rows);

} // namespace pimdl

#endif // PIMDL_RUNTIME_LUT_EXECUTOR_H
