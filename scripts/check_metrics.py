#!/usr/bin/env python3
"""Validate a pimdl metrics snapshot (--metrics-out artifact).

Used by the CI bench-smoke jobs: it fails the build when the snapshot is
not valid JSON, does not carry the expected schema id, or is missing a
metric its modes require. The snapshot's "declared" section is the C++
declaration table (src/obs/schema.h); every row names the mode that
requires it, so this script holds no metric-name list of its own.

Usage: check_metrics.py <snapshot.json> [--require-fault-exec]
                        [--require-verify] [--require-serving-live]
                        [--require-backend-xval] [--require-resilience]
                        [--require-transfer] [--require-lockorder-clean]

Every snapshot must publish the rows gated "base" (engine, serving
simulator, tuner and lock-order totals). Each --require-<mode> flag
also requires the rows gated <mode>, which only appear when a bench
drove that subsystem: fault-exec (bench_fault_tolerance), verify
(--verify-plans), serving-live (bench_serving_live), backend-xval
(bench_backend_xval), resilience (bench_chaos), transfer
(bench_transfer). A required histogram must carry the full summary
tuple and at least one sample. Beyond presence, the modes check that
serving percentiles are ordered, the live run completed requests, the
breaker state and in-flight limit are plausible, the transaction
backend issued commands within the committed error bound, bursts were
staged and residency consulted, and plans verified with zero errors.

--require-lockorder-clean fails when the runtime lock-order analysis
(PIMDL_DEADLOCK_CHECK) was not enabled for the run or reported any
potential deadlock: a lock-order cycle, a self-lock, or a wait on a
CondVar while holding another mutex.
"""

import json
import sys

SCHEMA = "pimdl.metrics.v2"

MODES = [
    "fault-exec",
    "verify",
    "serving-live",
    "backend-xval",
    "resilience",
    "transfer",
]

SECTIONS = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}

HISTOGRAM_FIELDS = ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"]


def fail(message):
    print(f"check_metrics: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def require_gate(snap, gate):
    """Every declared row gated @p gate is published, and a histogram
    carries the full summary with at least one sample."""
    for name, row in sorted(snap["declared"].items()):
        if row["gate"] != gate:
            continue
        value = snap[SECTIONS[row["kind"]]].get(name)
        if value is None:
            fail(f"missing {gate} {row['kind']} {name!r}")
        if row["kind"] == "histogram":
            for field in HISTOGRAM_FIELDS:
                if field not in value:
                    fail(f"histogram {name!r} missing field {field!r}")
            if value["count"] == 0:
                fail(f"histogram {name!r} recorded no samples")


def require_ordered(hist, what):
    if not (0 < hist["p50"] <= hist["p95"] <= hist["p99"]):
        fail(
            f"{what} latency percentiles not ordered: "
            f"p50={hist['p50']} p95={hist['p95']} p99={hist['p99']}"
        )


def main():
    args = sys.argv[1:]
    modes = [m for m in MODES if f"--require-{m}" in args]
    require_lockorder_clean = "--require-lockorder-clean" in args
    args = [a for a in args if not a.startswith("--require-")]
    if len(args) != 1:
        flags = " ".join(
            f"[--require-{m}]" for m in MODES + ["lockorder-clean"]
        )
        fail(f"usage: {sys.argv[0]} <snapshot.json> {flags}")

    try:
        with open(args[0]) as fh:
            snap = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot load snapshot: {exc}")

    if snap.get("schema") != SCHEMA:
        fail(f"schema mismatch: {snap.get('schema')!r} != {SCHEMA!r}")

    for section in ("counters", "gauges", "histograms", "declared", "trace"):
        if section not in snap:
            fail(f"missing section {section!r}")

    for gate in ["base"] + modes:
        require_gate(snap, gate)
    counters = snap["counters"]
    gauges = snap["gauges"]

    if "serving-live" in modes:
        if counters["serving.live.completed"] == 0:
            fail("live serving run completed no requests")
        require_ordered(
            snap["histograms"]["serving.live.request_latency_s"],
            "live serving",
        )

    if "resilience" in modes:
        state = gauges["serving.live.breaker.state"]
        if state not in (0, 1, 2):
            fail(f"implausible breaker state gauge {state!r}")
        if gauges["serving.live.inflight_limit"] <= 0:
            fail("in-flight limit gauge must be positive")

    if "backend-xval" in modes:
        if counters["backend.txn.commands_issued"] == 0:
            fail("transaction backend issued no commands")
        mean_err = gauges["backend.xval.mean_rel_err"]
        bound = gauges["backend.xval.bound"]
        if not 0 < bound <= 1:
            fail(f"implausible backend xval bound {bound}")
        if mean_err >= bound:
            fail(
                "backend cross-validation mean relative error "
                f"{mean_err:.4f} >= committed bound {bound:.4f}"
            )

    if "transfer" in modes:
        if counters["transfer.staged_bursts"] == 0:
            fail("transfer scheduler staged no bursts")
        touches = (
            counters["transfer.resident_hits"]
            + counters["transfer.resident_misses"]
        )
        if touches == 0:
            fail("resident-LUT placement was never consulted")

    if "verify" in modes:
        if counters["verify.plans_verified"] == 0:
            fail("verification enabled but no plans were verified")
        if counters["verify.errors"] != 0:
            fail(
                f"verifier reported {counters['verify.errors']} error(s) "
                "on lowered plans"
            )

    if require_lockorder_clean:
        if gauges["analysis.lockorder.enabled"] != 1:
            fail(
                "lock-order cleanliness required but the detector was "
                "not enabled for this run (PIMDL_DEADLOCK_CHECK)"
            )
        for name in (
            "analysis.lockorder.cycles",
            "analysis.lockorder.self_lock",
            "analysis.lockorder.wait_while_holding",
        ):
            if counters[name] != 0:
                fail(
                    f"lock-order analysis reported {counters[name]} "
                    f"violation(s) in {name!r} — see the run's stderr "
                    "for the cycle report"
                )
        if counters["analysis.lockorder.acquisitions"] == 0:
            fail(
                "lock-order analysis enabled but tracked no "
                "acquisitions — detector wiring is broken"
            )

    # Sanity: the serving percentiles must be ordered and positive.
    require_ordered(snap["histograms"]["serving.request_latency_s"], "serving")

    print(
        f"check_metrics: OK ({len(counters)} counters, {len(gauges)} "
        f"gauges, {len(snap['histograms'])} histograms, "
        f"{len(snap['declared'])} declared, "
        f"trace recorded={snap['trace']['recorded']})"
    )


if __name__ == "__main__":
    main()
