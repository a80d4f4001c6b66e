#!/usr/bin/env python3
"""Validate a pimdl metrics snapshot (--metrics-out artifact).

Used by the CI bench-smoke job as a scaffold for perf-regression gating:
it fails the build when the snapshot is not valid JSON, does not carry
the expected schema id, or is missing the metric keys every later perf
PR relies on (per-role CCS/LUT split, serving latency percentiles,
tuner search counters).

Usage: check_metrics.py <snapshot.json> [--require-fault-exec]
                        [--require-verify] [--require-serving-live]
                        [--require-backend-xval] [--require-resilience]
                        [--require-transfer] [--require-lockorder-clean]
       check_metrics.py --dump-schema

--require-fault-exec additionally requires the fault.lut.* /
fault.injected.* execution-ladder keys, which only appear when a bench
actually drove the fault-aware executor (bench_fault_tolerance).

--require-verify additionally requires the verify.* pass-accounting
keys, which only appear when the run had plan verification enabled
(--verify-plans / PIMDL_VERIFY_PLANS=1), and fails if any verifier
pass reported an error on a lowered plan.

--require-serving-live additionally requires the serving.live.* keys,
which only appear when a bench drove the live multithreaded serving
runtime (bench_serving_live), and fails when the run completed no
requests or its latency percentiles are not ordered.

--require-backend-xval additionally requires the backend.* keys, which
only appear when a bench ran the transaction-level timing backend and
published its cross-validation errors (bench_backend_xval), and fails
when the transaction simulator issued no commands or the mean
analytical-vs-transaction relative error reaches the committed bound.

--require-resilience additionally requires the serving control-plane
resilience keys (serving.live.watchdog.*, serving.live.breaker.*,
poison isolation / bisection / shedding counters) and the chaos.*
injector counters, which only appear when a bench drove the resilient
live runtime under the chaos harness (bench_chaos).

--require-transfer additionally requires the transfer.* keys, which
only appear when a bench drove the host<->PIM transfer engine — the
staging scheduler and the resident-LUT placement manager
(bench_transfer) — and fails when no bursts were staged or residency
was never consulted.

--require-lockorder-clean fails when the runtime lock-order analysis
(PIMDL_DEADLOCK_CHECK) was not enabled for the run or reported any
potential deadlock: a lock-order cycle, a self-lock, or a wait on a
CondVar while holding another mutex.

--dump-schema prints the full required-key schema as JSON (per
section: counters / gauges / gauge_patterns / histograms, for the base
schema and each --require-* mode) and exits; scripts/lint_invariants.py
diffs this against the metric names the C++ tree actually publishes so
the two sides cannot drift apart silently.
"""

import json
import re
import sys

SCHEMA = "pimdl.metrics.v1"

REQUIRED_COUNTERS = [
    "engine.estimates",
    "serving.requests",
    "serving.batches",
    "tuner.searches",
    "tuner.mappings_evaluated",
    "tuner.mappings_pruned",
    # Fault schema: the serving simulator registers these on every run
    # (zero-valued when the profile is disabled) so the artifact always
    # carries the availability/retry accounting keys.
    "fault.serving.batch_retries",
    "fault.serving.failed_batches",
    "fault.serving.failed_requests",
    "fault.serving.deadline_timeouts",
    "fault.serving.degraded_batches",
]

# Only present when a bench drove the fault-aware LUT executor.
FAULT_EXEC_COUNTERS = [
    "fault.injected.pe_transient",
    "fault.injected.lut_bitflip",
    "fault.injected.transfer_corrupt",
    "fault.injected.transfer_stall",
    "fault.lut.retries",
    "fault.lut.checksum_mismatches",
    "fault.lut.tiles_remapped",
    "fault.lut.dead_pes",
    "fault.lut.host_fallbacks",
]
FAULT_EXEC_HISTOGRAMS = ["fault.lut.added_latency_s"]

# Only present when a bench drove the live serving runtime.
SERVING_LIVE_COUNTERS = [
    "serving.live.requests",
    "serving.live.rejected",
    "serving.live.completed",
    "serving.live.shed",
    "serving.live.deadline_timeouts",
    "serving.live.failed_requests",
    "serving.live.batches",
    "serving.live.batch_retries",
    "serving.live.failed_batches",
]
SERVING_LIVE_GAUGES = [
    "serving.live.queue_depth",
    "serving.live.availability",
]
SERVING_LIVE_HISTOGRAMS = [
    "serving.live.request_latency_s",
    "serving.live.queue_wait_s",
    "serving.live.batch_size",
    "serving.live.batch_service_s",
    "serving.live.batch_queue_depth",
]

# Only present when a bench drove the transaction timing backend and
# published cross-validation errors (bench_backend_xval).
BACKEND_XVAL_COUNTERS = [
    "backend.txn.commands_issued",
    "backend.txn.bank_conflicts",
    "backend.txn.mode_switches",
    "backend.txn.trace_suppressed",
]
BACKEND_XVAL_GAUGES = [
    "backend.impl",
    "backend.xval.mean_rel_err",
    "backend.xval.max_rel_err",
    "backend.xval.bound",
]

# Only present when a bench drove the resilient live runtime under the
# chaos harness (bench_chaos).
RESILIENCE_COUNTERS = [
    "serving.live.watchdog.hangs",
    "serving.live.watchdog.respawns",
    "serving.live.watchdog.discarded",
    "serving.live.breaker.opens",
    "serving.live.breaker.closes",
    "serving.live.breaker.probes",
    "serving.live.breaker.short_circuited",
    "serving.live.poison_isolated",
    "serving.live.bisections",
    "serving.live.shed_admission",
    "serving.live.overload_rejected",
    "chaos.worker_stalls",
    "chaos.exceptions",
    "chaos.slow_batches",
    "chaos.heartbeat_losses",
]
RESILIENCE_GAUGES = [
    "serving.live.breaker.state",
    "serving.live.inflight_limit",
]

# Only present when a bench drove the host<->PIM transfer engine
# (bench_transfer): the staging scheduler (scheduler.cc) and
# resident-LUT placement (resident.cc).
TRANSFER_COUNTERS = [
    "transfer.staged_bursts",
    "transfer.staged_bytes",
    "transfer.stalls",
    "transfer.corrupt_retries",
    "transfer.resident_hits",
    "transfer.resident_misses",
    "transfer.evictions",
]
TRANSFER_GAUGES = [
    "transfer.resident_bytes",
]
TRANSFER_HISTOGRAMS = ["transfer.stage_wall_s"]

# Published by every snapshot (obs/snapshot.cc mirrors the lock-order
# tracker's totals unconditionally; all-zero when the detector is off).
LOCKORDER_COUNTERS = [
    "analysis.lockorder.acquisitions",
    "analysis.lockorder.edges",
    "analysis.lockorder.cycles",
    "analysis.lockorder.self_lock",
    "analysis.lockorder.wait_while_holding",
    "analysis.lockorder.hold_budget_exceeded",
]
LOCKORDER_GAUGES = [
    "analysis.lockorder.enabled",
    "analysis.lockorder.locks_live",
    "analysis.lockorder.edges_live",
]

# Only present when plan verification ran (PIMDL_VERIFY_PLANS=1).
VERIFY_COUNTERS = [
    "verify.plans_verified",
    "verify.passes_run",
    "verify.diagnostics",
    "verify.errors",
]
VERIFY_HISTOGRAMS = ["verify.wall_s"]

# Regexes so the check survives role renames/additions as long as the
# per-role split itself is still published.
REQUIRED_GAUGE_PATTERNS = [
    r"engine\.role\..+\.ccs_s",
    r"engine\.role\..+\.lut_s",
    r"serving\.utilization",
    r"fault\.serving\.availability",
]

REQUIRED_HISTOGRAMS = [
    "engine.ccs_s",
    "engine.lut_s",
    "engine.total_s",
    "serving.request_latency_s",
    "serving.batch_size",
    "serving.queue_depth",
    "tuner.search_wall_s",
]

HISTOGRAM_FIELDS = ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"]

# The full required-key schema, keyed by mode ("base" is unconditional;
# the rest correspond 1:1 to the --require-* flags). --dump-schema
# emits exactly this structure so external tooling (the cross-language
# drift lint) consumes the same source of truth main() enforces.
SCHEMA_MODES = {
    "base": {
        "counters": REQUIRED_COUNTERS + LOCKORDER_COUNTERS,
        "gauges": LOCKORDER_GAUGES,
        "gauge_patterns": REQUIRED_GAUGE_PATTERNS,
        "histograms": REQUIRED_HISTOGRAMS,
    },
    "fault-exec": {
        "counters": FAULT_EXEC_COUNTERS,
        "gauges": [],
        "gauge_patterns": [],
        "histograms": FAULT_EXEC_HISTOGRAMS,
    },
    "serving-live": {
        "counters": SERVING_LIVE_COUNTERS,
        "gauges": SERVING_LIVE_GAUGES,
        "gauge_patterns": [],
        "histograms": SERVING_LIVE_HISTOGRAMS,
    },
    "backend-xval": {
        "counters": BACKEND_XVAL_COUNTERS,
        "gauges": BACKEND_XVAL_GAUGES,
        "gauge_patterns": [],
        "histograms": [],
    },
    "resilience": {
        "counters": RESILIENCE_COUNTERS,
        "gauges": RESILIENCE_GAUGES,
        "gauge_patterns": [],
        "histograms": [],
    },
    "verify": {
        "counters": VERIFY_COUNTERS,
        "gauges": [],
        "gauge_patterns": [],
        "histograms": VERIFY_HISTOGRAMS,
    },
    "transfer": {
        "counters": TRANSFER_COUNTERS,
        "gauges": TRANSFER_GAUGES,
        "gauge_patterns": [],
        "histograms": TRANSFER_HISTOGRAMS,
    },
}


def dump_schema():
    print(
        json.dumps(
            {
                "schema": SCHEMA,
                "histogram_fields": HISTOGRAM_FIELDS,
                "modes": SCHEMA_MODES,
            },
            indent=2,
            sort_keys=True,
        )
    )


def fail(message):
    print(f"check_metrics: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    if args == ["--dump-schema"]:
        dump_schema()
        return
    require_fault_exec = "--require-fault-exec" in args
    require_verify = "--require-verify" in args
    require_serving_live = "--require-serving-live" in args
    require_backend_xval = "--require-backend-xval" in args
    require_resilience = "--require-resilience" in args
    require_transfer = "--require-transfer" in args
    require_lockorder_clean = "--require-lockorder-clean" in args
    args = [a for a in args if not a.startswith("--require-")]
    if len(args) != 1:
        fail(
            f"usage: {sys.argv[0]} <snapshot.json> "
            "[--require-fault-exec] [--require-verify] "
            "[--require-serving-live] [--require-backend-xval] "
            "[--require-resilience] [--require-transfer] "
            "[--require-lockorder-clean] "
            f"| {sys.argv[0]} --dump-schema"
        )

    try:
        with open(args[0]) as fh:
            snap = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot load snapshot: {exc}")

    if snap.get("schema") != SCHEMA:
        fail(f"schema mismatch: {snap.get('schema')!r} != {SCHEMA!r}")

    for section in ("counters", "gauges", "histograms", "trace"):
        if section not in snap:
            fail(f"missing section {section!r}")

    for name in REQUIRED_COUNTERS + LOCKORDER_COUNTERS:
        if name not in snap["counters"]:
            fail(f"missing counter {name!r}")

    for name in LOCKORDER_GAUGES:
        if name not in snap["gauges"]:
            fail(f"missing gauge {name!r}")

    for pattern in REQUIRED_GAUGE_PATTERNS:
        if not any(re.fullmatch(pattern, g) for g in snap["gauges"]):
            fail(f"no gauge matches {pattern!r}")

    for name in REQUIRED_HISTOGRAMS:
        hist = snap["histograms"].get(name)
        if hist is None:
            fail(f"missing histogram {name!r}")
        for field in HISTOGRAM_FIELDS:
            if field not in hist:
                fail(f"histogram {name!r} missing field {field!r}")
        if hist["count"] == 0:
            fail(f"histogram {name!r} recorded no samples")

    if require_fault_exec:
        for name in FAULT_EXEC_COUNTERS:
            if name not in snap["counters"]:
                fail(f"missing fault-exec counter {name!r}")
        for name in FAULT_EXEC_HISTOGRAMS:
            hist = snap["histograms"].get(name)
            if hist is None:
                fail(f"missing fault-exec histogram {name!r}")
            if hist["count"] == 0:
                fail(f"histogram {name!r} recorded no samples")

    if require_serving_live:
        for name in SERVING_LIVE_COUNTERS:
            if name not in snap["counters"]:
                fail(f"missing serving-live counter {name!r}")
        for name in SERVING_LIVE_GAUGES:
            if name not in snap["gauges"]:
                fail(f"missing serving-live gauge {name!r}")
        for name in SERVING_LIVE_HISTOGRAMS:
            hist = snap["histograms"].get(name)
            if hist is None:
                fail(f"missing serving-live histogram {name!r}")
            for field in HISTOGRAM_FIELDS:
                if field not in hist:
                    fail(f"histogram {name!r} missing field {field!r}")
            if hist["count"] == 0:
                fail(f"histogram {name!r} recorded no samples")
        if snap["counters"]["serving.live.completed"] == 0:
            fail("live serving run completed no requests")
        live = snap["histograms"]["serving.live.request_latency_s"]
        if not (0 < live["p50"] <= live["p95"] <= live["p99"]):
            fail(
                "live serving latency percentiles not ordered: "
                f"p50={live['p50']} p95={live['p95']} "
                f"p99={live['p99']}"
            )

    if require_resilience:
        for name in RESILIENCE_COUNTERS:
            if name not in snap["counters"]:
                fail(f"missing resilience counter {name!r}")
        for name in RESILIENCE_GAUGES:
            if name not in snap["gauges"]:
                fail(f"missing resilience gauge {name!r}")
        state = snap["gauges"]["serving.live.breaker.state"]
        if state not in (0, 1, 2):
            fail(f"implausible breaker state gauge {state!r}")
        if snap["gauges"]["serving.live.inflight_limit"] <= 0:
            fail("in-flight limit gauge must be positive")

    if require_backend_xval:
        for name in BACKEND_XVAL_COUNTERS:
            if name not in snap["counters"]:
                fail(f"missing backend counter {name!r}")
        for name in BACKEND_XVAL_GAUGES:
            if name not in snap["gauges"]:
                fail(f"missing backend gauge {name!r}")
        if snap["counters"]["backend.txn.commands_issued"] == 0:
            fail("transaction backend issued no commands")
        mean_err = snap["gauges"]["backend.xval.mean_rel_err"]
        bound = snap["gauges"]["backend.xval.bound"]
        if not 0 < bound <= 1:
            fail(f"implausible backend xval bound {bound}")
        if mean_err >= bound:
            fail(
                "backend cross-validation mean relative error "
                f"{mean_err:.4f} >= committed bound {bound:.4f}"
            )

    if require_transfer:
        for name in TRANSFER_COUNTERS:
            if name not in snap["counters"]:
                fail(f"missing transfer counter {name!r}")
        for name in TRANSFER_GAUGES:
            if name not in snap["gauges"]:
                fail(f"missing transfer gauge {name!r}")
        for name in TRANSFER_HISTOGRAMS:
            hist = snap["histograms"].get(name)
            if hist is None:
                fail(f"missing transfer histogram {name!r}")
            for field in HISTOGRAM_FIELDS:
                if field not in hist:
                    fail(f"histogram {name!r} missing field {field!r}")
            if hist["count"] == 0:
                fail(f"histogram {name!r} recorded no samples")
        if snap["counters"]["transfer.staged_bursts"] == 0:
            fail("transfer scheduler staged no bursts")
        touches = (
            snap["counters"]["transfer.resident_hits"]
            + snap["counters"]["transfer.resident_misses"]
        )
        if touches == 0:
            fail("resident-LUT placement was never consulted")

    if require_verify:
        for name in VERIFY_COUNTERS:
            if name not in snap["counters"]:
                fail(f"missing verify counter {name!r}")
        for name in VERIFY_HISTOGRAMS:
            hist = snap["histograms"].get(name)
            if hist is None:
                fail(f"missing verify histogram {name!r}")
            if hist["count"] == 0:
                fail(f"histogram {name!r} recorded no samples")
        if snap["counters"]["verify.plans_verified"] == 0:
            fail("verification enabled but no plans were verified")
        if snap["counters"]["verify.errors"] != 0:
            fail(
                "verifier reported "
                f"{snap['counters']['verify.errors']} error(s) on "
                "lowered plans"
            )

    if require_lockorder_clean:
        if snap["gauges"]["analysis.lockorder.enabled"] != 1:
            fail(
                "lock-order cleanliness required but the detector was "
                "not enabled for this run (PIMDL_DEADLOCK_CHECK)"
            )
        for name in (
            "analysis.lockorder.cycles",
            "analysis.lockorder.self_lock",
            "analysis.lockorder.wait_while_holding",
        ):
            if snap["counters"][name] != 0:
                fail(
                    f"lock-order analysis reported "
                    f"{snap['counters'][name]} violation(s) in "
                    f"{name!r} — see the run's stderr for the cycle "
                    "report"
                )
        if snap["counters"]["analysis.lockorder.acquisitions"] == 0:
            fail(
                "lock-order analysis enabled but tracked no "
                "acquisitions — detector wiring is broken"
            )

    # Sanity: the serving percentiles must be ordered and positive.
    serving = snap["histograms"]["serving.request_latency_s"]
    if not (0 < serving["p50"] <= serving["p95"] <= serving["p99"]):
        fail(
            "serving latency percentiles not ordered: "
            f"p50={serving['p50']} p95={serving['p95']} p99={serving['p99']}"
        )

    n_counters = len(snap["counters"])
    n_gauges = len(snap["gauges"])
    n_hists = len(snap["histograms"])
    print(
        f"check_metrics: OK ({n_counters} counters, {n_gauges} gauges, "
        f"{n_hists} histograms, trace recorded={snap['trace']['recorded']})"
    )


if __name__ == "__main__":
    main()
