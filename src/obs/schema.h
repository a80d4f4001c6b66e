/**
 * @file
 * The metric declaration table: one row per metric the tree publishes,
 * giving its name, kind, unit, gate and a one-line help. The gate is
 * the scripts/check_metrics.py --require-* mode that requires the
 * metric ("base" is required of every snapshot; None is ungated).
 *
 * Producers name a metric through its row, e.g.
 * reg.counter(metrics::kLutRuns), so each name string appears once in
 * the tree. MetricsRegistry refuses a name that is not declared here,
 * or that is looked up as another kind, and snapshotJson() exports the
 * table as its "declared" section, from which check_metrics.py takes
 * every mode's required keys. Metric names and their gates therefore
 * cannot drift apart.
 */

#ifndef PIMDL_OBS_SCHEMA_H
#define PIMDL_OBS_SCHEMA_H

namespace pimdl {
namespace obs {

enum class MetricKind { Counter, Gauge, Histogram };

/** The check_metrics.py mode that requires a metric. */
enum class MetricGate
{
    None,
    Base,
    FaultExec,
    ServingLive,
    BackendXval,
    Resilience,
    Verify,
    Transfer,
};

struct MetricDef
{
    const char *name;
    MetricKind kind;
    const char *unit;
    MetricGate gate;
    const char *help;
};

constexpr const char *
metricKindName(MetricKind kind)
{
    constexpr const char *kNames[] = {"counter", "gauge", "histogram"};
    return kNames[static_cast<int>(kind)];
}

/** The gate as check_metrics.py spells it (--require-<name>). */
constexpr const char *
metricGateName(MetricGate gate)
{
    constexpr const char *kNames[] = {
        "none",         "base",       "fault-exec", "serving-live",
        "backend-xval", "resilience", "verify",     "transfer"};
    return kNames[static_cast<int>(gate)];
}

} // namespace obs

// One row per metric: M(id, name, kind, unit, gate, help).
// clang-format off
#define PIMDL_METRICS(M)                                                      \
    /* Lock-order tracker totals, mirrored by obs/snapshot.cc. */             \
    M(kLockOrderAcquisitions, "analysis.lockorder.acquisitions",              \
      Counter, "acquisitions", Base, "Annotated mutex acquisitions seen")     \
    M(kLockOrderEdges, "analysis.lockorder.edges",                            \
      Counter, "edges", Base, "Held->acquired lock-order edges added")        \
    M(kLockOrderCycles, "analysis.lockorder.cycles",                          \
      Counter, "reports", Base, "Lock-order cycles (deadlock risks)")         \
    M(kLockOrderSelfLock, "analysis.lockorder.self_lock",                     \
      Counter, "reports", Base, "Re-acquisitions of a mutex already held")    \
    M(kLockOrderWaitWhileHolding, "analysis.lockorder.wait_while_holding",    \
      Counter, "reports", Base, "CondVar waits while holding another mutex")  \
    M(kLockOrderHoldBudgetExceeded, "analysis.lockorder.hold_budget_exceeded",\
      Counter, "reports", Base, "Lock holds longer than the hold budget")     \
    M(kLockOrderEnabled, "analysis.lockorder.enabled",                        \
      Gauge, "bool", Base, "1 when PIMDL_DEADLOCK_CHECK tracking is on")      \
    M(kLockOrderLocksLive, "analysis.lockorder.locks_live",                   \
      Gauge, "locks", Base, "Mutexes currently known to the tracker")         \
    M(kLockOrderEdgesLive, "analysis.lockorder.edges_live",                   \
      Gauge, "edges", Base, "Edges currently in the lock-order graph")        \
    /* PIM-DL engine estimates (runtime/engine.cc): the Fig. 11-(b) split. */ \
    M(kEngineEstimates, "engine.estimates",                                   \
      Counter, "estimates", Base, "PIM-DL inference estimates priced")        \
    M(kEngineCcsS, "engine.ccs_s",                                            \
      Histogram, "s", Base, "Modeled CCS seconds per estimate")               \
    M(kEngineLutS, "engine.lut_s",                                            \
      Histogram, "s", Base, "Modeled LUT seconds per estimate")               \
    M(kEngineTotalS, "engine.total_s",                                        \
      Histogram, "s", Base, "Modeled end-to-end seconds per estimate")        \
    M(kEngineRoleQkvCcsS, "engine.role.QKV.ccs_s",                            \
      Gauge, "s", Base, "Latest QKV CCS seconds")                             \
    M(kEngineRoleQkvLutS, "engine.role.QKV.lut_s",                            \
      Gauge, "s", Base, "Latest QKV LUT seconds")                             \
    M(kEngineRoleOCcsS, "engine.role.O.ccs_s",                                \
      Gauge, "s", Base, "Latest O CCS seconds")                               \
    M(kEngineRoleOLutS, "engine.role.O.lut_s",                                \
      Gauge, "s", Base, "Latest O LUT seconds")                               \
    M(kEngineRoleFfn1CcsS, "engine.role.FFN1.ccs_s",                          \
      Gauge, "s", Base, "Latest FFN1 CCS seconds")                            \
    M(kEngineRoleFfn1LutS, "engine.role.FFN1.lut_s",                          \
      Gauge, "s", Base, "Latest FFN1 LUT seconds")                            \
    M(kEngineRoleFfn2CcsS, "engine.role.FFN2.ccs_s",                          \
      Gauge, "s", Base, "Latest FFN2 CCS seconds")                            \
    M(kEngineRoleFfn2LutS, "engine.role.FFN2.lut_s",                          \
      Gauge, "s", Base, "Latest FFN2 LUT seconds")                            \
    M(kPlanNodesScheduled, "plan.nodes_scheduled",                            \
      Counter, "nodes", None, "Plan nodes priced and scheduled")              \
    /* Analytical serving simulator (runtime/serving.cc). */                  \
    M(kServingRequests, "serving.requests",                                   \
      Counter, "requests", Base, "Requests the simulator served")             \
    M(kServingBatches, "serving.batches",                                     \
      Counter, "batches", Base, "Batches the simulator dispatched")           \
    M(kServingRequestLatencyS, "serving.request_latency_s",                   \
      Histogram, "s", Base, "Simulated request latency")                      \
    M(kServingBatchSize, "serving.batch_size",                                \
      Histogram, "requests", Base, "Simulated dispatched batch size")         \
    M(kServingQueueDepth, "serving.queue_depth",                              \
      Histogram, "requests", Base, "Simulated queue depth at dispatch")       \
    M(kServingUtilization, "serving.utilization",                             \
      Gauge, "ratio", Base, "Simulated engine busy fraction")                 \
    M(kFaultServingBatchRetries, "fault.serving.batch_retries",               \
      Counter, "retries", Base, "Simulated batch retries after a fault")      \
    M(kFaultServingFailedBatches, "fault.serving.failed_batches",             \
      Counter, "batches", Base, "Simulated batches that exhausted retries")   \
    M(kFaultServingFailedRequests, "fault.serving.failed_requests",           \
      Counter, "requests", Base, "Simulated requests lost to failed batches") \
    M(kFaultServingDeadlineTimeouts, "fault.serving.deadline_timeouts",       \
      Counter, "requests", Base, "Simulated requests past their deadline")    \
    M(kFaultServingDegradedBatches, "fault.serving.degraded_batches",         \
      Counter, "batches", Base, "Simulated batches served on the fallback")   \
    M(kFaultServingAvailability, "fault.serving.availability",                \
      Gauge, "ratio", Base, "Simulated completed / admitted requests")        \
    /* Auto-tuner mapping search (tuner/autotuner.cc). */                     \
    M(kTunerSearches, "tuner.searches",                                       \
      Counter, "searches", Base, "Mapping searches run")                      \
    M(kTunerMappingsEvaluated, "tuner.mappings_evaluated",                    \
      Counter, "mappings", Base, "Candidate mappings priced")                 \
    M(kTunerMappingsPruned, "tuner.mappings_pruned",                          \
      Counter, "mappings", Base, "Candidate mappings pruned unpriced")        \
    M(kTunerSearchWallS, "tuner.search_wall_s",                               \
      Histogram, "s", Base, "Wall seconds per mapping search")                \
    /* Distributed LUT executor (runtime/lut_executor.cc). */                 \
    M(kLutRuns, "lut.runs",                                                   \
      Counter, "runs", None, "runDistributedLut calls")                       \
    M(kLutPeKernels, "lut.pe_kernels",                                        \
      Counter, "kernels", None, "Per-PE LUT micro-kernels modeled")           \
    M(kLutLinkBytes, "lut.link_bytes",                                        \
      Counter, "bytes", None, "Modeled host<->PIM link bytes")                \
    M(kLutPeStreamBytes, "lut.pe_stream_bytes",                               \
      Counter, "bytes", None, "Modeled PE-local stream bytes, all PEs")       \
    M(kLutModelCycles, "lut.model_cycles",                                    \
      Counter, "cycles", None, "Modeled PE micro-kernel cycles")              \
    M(kLutModelLatencyS, "lut.model_latency_s",                               \
      Histogram, "s", None, "Modeled seconds per LUT run")                    \
    M(kFaultInjectedPeTransient, "fault.injected.pe_transient",               \
      Counter, "faults", FaultExec, "Transient PE crashes injected")          \
    M(kFaultInjectedLutBitflip, "fault.injected.lut_bitflip",                 \
      Counter, "faults", FaultExec, "Resident-LUT bit flips injected")        \
    M(kFaultInjectedTransferCorrupt, "fault.injected.transfer_corrupt",       \
      Counter, "faults", FaultExec, "Transfer corruptions injected")          \
    M(kFaultInjectedTransferStall, "fault.injected.transfer_stall",           \
      Counter, "faults", FaultExec, "Transfer stalls injected")               \
    M(kFaultLutRetries, "fault.lut.retries",                                  \
      Counter, "retries", FaultExec, "Tile retries on the fault ladder")      \
    M(kFaultLutChecksumMismatches, "fault.lut.checksum_mismatches",           \
      Counter, "tiles", FaultExec, "Tiles whose checksum caught a fault")     \
    M(kFaultLutTilesRemapped, "fault.lut.tiles_remapped",                     \
      Counter, "tiles", FaultExec, "Tiles re-dealt from dead PEs")            \
    M(kFaultLutDeadPes, "fault.lut.dead_pes",                                 \
      Counter, "PEs", FaultExec, "PEs found hard-failed")                     \
    M(kFaultLutHostFallbacks, "fault.lut.host_fallbacks",                     \
      Counter, "runs", FaultExec, "LUT runs finished on the host")            \
    M(kFaultLutAddedLatencyS, "fault.lut.added_latency_s",                    \
      Histogram, "s", FaultExec, "Modeled seconds the fault ladder added")    \
    /* Live serving runtime (runtime/serving_live.cc, resilience.cc). */      \
    M(kServingLiveRequests, "serving.live.requests",                          \
      Counter, "requests", ServingLive, "Requests submitted")                 \
    M(kServingLiveRejected, "serving.live.rejected",                          \
      Counter, "requests", ServingLive, "Submits refused at admission")       \
    M(kServingLiveCompleted, "serving.live.completed",                        \
      Counter, "requests", ServingLive, "Requests served in time")            \
    M(kServingLiveShed, "serving.live.shed",                                  \
      Counter, "requests", ServingLive, "Shed past deadline at dispatch")     \
    M(kServingLiveDeadlineTimeouts, "serving.live.deadline_timeouts",         \
      Counter, "requests", ServingLive, "Served after their deadline")        \
    M(kServingLiveFailedRequests, "serving.live.failed_requests",             \
      Counter, "requests", ServingLive, "Requests lost to failed batches")    \
    M(kServingLiveBatches, "serving.live.batches",                            \
      Counter, "batches", ServingLive, "Batches executed")                    \
    M(kServingLiveBatchRetries, "serving.live.batch_retries",                 \
      Counter, "retries", ServingLive, "Batch retries after a fault")         \
    M(kServingLiveFailedBatches, "serving.live.failed_batches",               \
      Counter, "batches", ServingLive, "Batches that exhausted retries")      \
    M(kServingLiveQueueDepth, "serving.live.queue_depth",                     \
      Gauge, "requests", ServingLive, "Admission queue depth")                \
    M(kServingLiveAvailability, "serving.live.availability",                  \
      Gauge, "ratio", ServingLive, "Completed / admitted requests")           \
    M(kServingLiveRequestLatencyS, "serving.live.request_latency_s",          \
      Histogram, "s", ServingLive, "Submit-to-result request latency")        \
    M(kServingLiveQueueWaitS, "serving.live.queue_wait_s",                    \
      Histogram, "s", ServingLive, "Submit-to-dispatch wait")                 \
    M(kServingLiveBatchSize, "serving.live.batch_size",                       \
      Histogram, "requests", ServingLive, "Dispatched batch size")            \
    M(kServingLiveBatchServiceS, "serving.live.batch_service_s",              \
      Histogram, "s", ServingLive, "Wall seconds per batch execution")        \
    M(kServingLiveBatchQueueDepth, "serving.live.batch_queue_depth",          \
      Histogram, "batches", ServingLive, "Work-queue depth at dispatch")      \
    M(kServingLiveWatchdogHangs, "serving.live.watchdog.hangs",               \
      Counter, "hangs", Resilience, "Worker hangs the watchdog detected")     \
    M(kServingLiveWatchdogRespawns, "serving.live.watchdog.respawns",         \
      Counter, "threads", Resilience, "Workers respawned after a hang")       \
    M(kServingLiveWatchdogDiscarded, "serving.live.watchdog.discarded",       \
      Counter, "batches", Resilience, "Late results of abandoned workers")    \
    M(kServingLiveBreakerState, "serving.live.breaker.state",                 \
      Gauge, "state", Resilience, "0 closed, 1 open, 2 half-open")            \
    M(kServingLiveBreakerOpens, "serving.live.breaker.opens",                 \
      Counter, "transitions", Resilience, "Breaker transitions to open")      \
    M(kServingLiveBreakerCloses, "serving.live.breaker.closes",               \
      Counter, "transitions", Resilience, "Breaker transitions to closed")    \
    M(kServingLiveBreakerProbes, "serving.live.breaker.probes",               \
      Counter, "probes", Resilience, "Half-open probes admitted")             \
    M(kServingLiveBreakerShortCircuited,                                      \
      "serving.live.breaker.short_circuited",                                 \
      Counter, "batches", Resilience, "Batches the breaker sent to fallback") \
    M(kServingLivePoisonIsolated, "serving.live.poison_isolated",             \
      Counter, "requests", Resilience, "Poison requests isolated")            \
    M(kServingLiveBisections, "serving.live.bisections",                      \
      Counter, "bisections", Resilience, "Failed batches split in two")       \
    M(kServingLiveShedAdmission, "serving.live.shed_admission",               \
      Counter, "requests", Resilience, "Requests shed at admission (CoDel)")  \
    M(kServingLiveOverloadRejected, "serving.live.overload_rejected",         \
      Counter, "requests", Resilience, "Submits refused by the AIMD limit")   \
    M(kServingLiveInflightLimit, "serving.live.inflight_limit",               \
      Gauge, "requests", Resilience, "Current AIMD in-flight limit")          \
    /* Deterministic chaos harness (fault/chaos.cc). */                       \
    M(kChaosWorkerStalls, "chaos.worker_stalls",                              \
      Counter, "faults", Resilience, "Worker stalls injected")                \
    M(kChaosExceptions, "chaos.exceptions",                                   \
      Counter, "faults", Resilience, "Executor exceptions injected")          \
    M(kChaosSlowBatches, "chaos.slow_batches",                                \
      Counter, "faults", Resilience, "Slow batches injected")                 \
    M(kChaosHeartbeatLosses, "chaos.heartbeat_losses",                        \
      Counter, "faults", Resilience, "Heartbeat losses injected")             \
    /* Timing backends (backend/) and bench_backend_xval's errors. */         \
    M(kBackendImpl, "backend.impl",                                           \
      Gauge, "enum", BackendXval, "0 analytical, 1 transaction")              \
    M(kBackendTxnCommandsIssued, "backend.txn.commands_issued",               \
      Counter, "commands", BackendXval, "Link and bank commands simulated")   \
    M(kBackendTxnBankConflicts, "backend.txn.bank_conflicts",                 \
      Counter, "commands", BackendXval, "Commands delayed by a busy bank")    \
    M(kBackendTxnModeSwitches, "backend.txn.mode_switches",                   \
      Counter, "switches", BackendXval, "Host/PIM bank-ownership switches")   \
    M(kBackendTxnTraceSuppressed, "backend.txn.trace_suppressed",             \
      Counter, "nodes", BackendXval, "Node simulations past the span budget") \
    M(kBackendXvalMeanRelErr, "backend.xval.mean_rel_err",                    \
      Gauge, "ratio", BackendXval, "Mean analytical-vs-transaction error")    \
    M(kBackendXvalMaxRelErr, "backend.xval.max_rel_err",                      \
      Gauge, "ratio", BackendXval, "Max analytical-vs-transaction error")     \
    M(kBackendXvalBound, "backend.xval.bound",                                \
      Gauge, "ratio", BackendXval, "Committed bound on the mean error")       \
    /* Host micro-kernels (kernels/kernels.cc). */                            \
    M(kKernelsImpl, "kernels.impl",                                           \
      Gauge, "enum", None, "Dispatched kernel impl priority")                 \
    M(kKernelsCcsRows, "kernels.ccs.rows",                                    \
      Counter, "rows", None, "Rows through the CCS kernel")                   \
    M(kKernelsCcsSubvectors, "kernels.ccs.subvectors",                        \
      Counter, "subvectors", None, "Sub-vectors the CCS kernel encoded")      \
    M(kKernelsCcsBytes, "kernels.ccs.bytes",                                  \
      Counter, "bytes", None, "Bytes the CCS kernel read")                    \
    M(kKernelsLutRows, "kernels.lut.rows",                                    \
      Counter, "rows", None, "Rows through the LUT kernel")                   \
    M(kKernelsLutElements, "kernels.lut.elements",                            \
      Counter, "elements", None, "Outputs the LUT kernel accumulated")        \
    M(kKernelsLutBytes, "kernels.lut.bytes",                                  \
      Counter, "bytes", None, "LUT bytes the LUT kernel gathered")            \
    M(kKernelsAxpyElements, "kernels.axpy.elements",                          \
      Counter, "elements", None, "Elements through the GEMM axpy kernel")     \
    M(kKernelsAxpyBytes, "kernels.axpy.bytes",                                \
      Counter, "bytes", None, "Bytes the GEMM axpy kernel touched")           \
    /* Host thread pool (common/parallel.cc). */                              \
    M(kParallelCalls, "parallel.calls",                                       \
      Counter, "calls", None, "parallelFor calls")                            \
    M(kParallelItems, "parallel.items",                                       \
      Counter, "items", None, "Items parallelFor iterated")                   \
    M(kParallelWorkers, "parallel.workers",                                   \
      Gauge, "threads", None, "Workers of the latest parallelFor")            \
    M(kParallelWorkerUtilization, "parallel.worker_utilization",              \
      Histogram, "ratio", None, "Busy fraction of parallelFor workers")       \
    /* DPU ISA interpreter (pim/dpu_isa.cc). */                               \
    M(kDpuKernelRuns, "dpu.kernel_runs",                                      \
      Counter, "runs", None, "DPU kernels interpreted")                       \
    M(kDpuInstructions, "dpu.instructions",                                   \
      Counter, "instructions", None, "DPU instructions retired")              \
    M(kDpuCycles, "dpu.cycles",                                               \
      Counter, "cycles", None, "DPU cycles modeled")                          \
    M(kDpuDmaBytes, "dpu.dma_bytes",                                          \
      Counter, "bytes", None, "DPU DMA bytes moved")                          \
    /* Plan verifier (verify/verify.cc), on with PIMDL_VERIFY_PLANS=1. */     \
    M(kVerifyPlansVerified, "verify.plans_verified",                          \
      Counter, "plans", Verify, "Lowered plans verified")                     \
    M(kVerifyPassesRun, "verify.passes_run",                                  \
      Counter, "passes", Verify, "Verifier passes run")                       \
    M(kVerifyDiagnostics, "verify.diagnostics",                               \
      Counter, "diagnostics", Verify, "Diagnostics of any severity")          \
    M(kVerifyErrors, "verify.errors",                                         \
      Counter, "diagnostics", Verify, "Error diagnostics (must stay 0)")      \
    M(kVerifyWallS, "verify.wall_s",                                          \
      Histogram, "s", Verify, "Wall seconds per plan verification")           \
    /* Host<->PIM transfer engine (transfer/scheduler.cc, resident.cc). */    \
    M(kTransferStagedBursts, "transfer.staged_bursts",                        \
      Counter, "bursts", Transfer, "Payload bursts staged")                   \
    M(kTransferStagedBytes, "transfer.staged_bytes",                          \
      Counter, "bytes", Transfer, "Payload bytes staged")                     \
    M(kTransferStalls, "transfer.stalls",                                     \
      Counter, "stalls", Transfer, "Injected stalls while staging")           \
    M(kTransferCorruptRetries, "transfer.corrupt_retries",                    \
      Counter, "retries", Transfer, "Re-sends after injected corruption")     \
    M(kTransferStageWallS, "transfer.stage_wall_s",                           \
      Histogram, "s", Transfer, "Wall seconds per staged burst")              \
    M(kTransferResidentHits, "transfer.resident_hits",                        \
      Counter, "lookups", Transfer, "LUT tables found resident")              \
    M(kTransferResidentMisses, "transfer.resident_misses",                    \
      Counter, "lookups", Transfer, "LUT tables not resident")                \
    M(kTransferEvictions, "transfer.evictions",                               \
      Counter, "tables", Transfer, "Resident tables evicted")                 \
    M(kTransferResidentBytes, "transfer.resident_bytes",                      \
      Gauge, "bytes", Transfer, "Bytes of resident LUT tables")
// clang-format on

namespace metrics {

#define PIMDL_METRIC_CONSTANT(id, name, kind, unit, gate, help)               \
    inline constexpr obs::MetricDef id{name, obs::MetricKind::kind, unit,     \
                                       obs::MetricGate::gate, help};
PIMDL_METRICS(PIMDL_METRIC_CONSTANT)
#undef PIMDL_METRIC_CONSTANT

#define PIMDL_METRIC_ROW(id, ...) id,
/** The whole table, in declaration order. */
inline constexpr obs::MetricDef kDeclared[] = {PIMDL_METRICS(PIMDL_METRIC_ROW)};
#undef PIMDL_METRIC_ROW

} // namespace metrics
} // namespace pimdl

#undef PIMDL_METRICS

#endif // PIMDL_OBS_SCHEMA_H
