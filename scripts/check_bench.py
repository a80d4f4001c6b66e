#!/usr/bin/env python3
"""Gate benchmark results against a checked-in baseline.

Supports two run schemas, auto-detected from the "schema" field:

* pimdl.bench.kernels.v1 (from `bench_kernels --json`): every
  (kernel, impl, shape) entry's ns/op is compared against
  bench/baselines/kernels.json; lower is better and the build fails
  when any entry regresses by more than the tolerance (default 25%).

* pimdl.bench.serving.v1 (from `bench_serving_live --json`): every
  scenario's goodput fraction (in-deadline completions / admitted
  requests — robust to machine speed where raw rps is not) is compared
  against bench/baselines/serving.json; higher is better and the build
  fails when any scenario's fraction drops by more than the tolerance.

* pimdl.bench.transfer.v1 (from `bench_transfer --json`): every
  higher-is-better transfer-engine scalar (achieved GB/s at fixed
  burst sizes, transaction agreement, resident-LUT hit rate,
  end-to-end speedup — all model-derived and deterministic)
  is compared against bench/baselines/transfer.json; the build fails
  when any entry drops by more than the tolerance.

Entries present in the run but absent from the baseline are reported
and accepted (new kernels / scenarios land with their first measurement
via --update); entries present in the baseline but missing from the run
fail, so a silently dropped impl or scenario cannot pass the gate.

Usage: check_bench.py <run.json> [--baseline <baseline.json>]
                      [--tolerance <fraction>] [--update]
                      [--summary <out.md>] [--summary-only]

--update rewrites the baseline from the run instead of gating (used by
`[bench-rebase]` commits and when recording a new machine profile).

--summary writes a GitHub-flavoured markdown table suitable for
$GITHUB_STEP_SUMMARY. --summary-only writes it and skips the gate
(used by jobs that publish results without owning the baseline).
"""

import argparse
import json
import shutil
import sys

KERNELS_SCHEMA = "pimdl.bench.kernels.v1"
SERVING_SCHEMA = "pimdl.bench.serving.v1"
TRANSFER_SCHEMA = "pimdl.bench.transfer.v1"

# Per-schema gating profile: entry key fields, the gated metric, which
# direction is better, and the default baseline location.
PROFILES = {
    KERNELS_SCHEMA: {
        "key_fields": ("kernel", "impl", "shape"),
        "metric": "ns_per_op",
        "better": "lower",
        "unit": "ns/op",
        "baseline": "bench/baselines/kernels.json",
    },
    SERVING_SCHEMA: {
        "key_fields": ("scenario",),
        "metric": "goodput_frac",
        "better": "higher",
        "unit": "goodput frac",
        "baseline": "bench/baselines/serving.json",
    },
    TRANSFER_SCHEMA: {
        "key_fields": ("entry",),
        "metric": "value",
        "better": "higher",
        "unit": "value",
        "baseline": "bench/baselines/transfer.json",
    },
}


def fail(message):
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load(path, expect_schema=None):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot load {path}: {exc}")
    schema = doc.get("schema")
    if expect_schema is not None and schema != expect_schema:
        fail(f"{path}: schema mismatch: {schema!r} != {expect_schema!r}")
    profile = PROFILES.get(schema)
    if profile is None:
        fail(
            f"{path}: unknown schema {schema!r} "
            f"(supported: {sorted(PROFILES)})"
        )
    entries = {}
    for entry in doc.get("entries", []):
        key = tuple(entry[f] for f in profile["key_fields"])
        if key in entries:
            fail(f"{path}: duplicate entry {key}")
        entries[key] = entry
    if not entries:
        fail(f"{path}: no entries")
    return schema, entries


def write_kernels_summary(path, entries):
    lines = [
        "### Kernel micro-benchmarks",
        "",
        "| kernel | shape | impl | ns/op | GB/s | GOPS | vs scalar |",
        "|---|---|---|---:|---:|---:|---:|",
    ]
    for key in sorted(entries):
        e = entries[key]
        lines.append(
            f"| {e['kernel']} | {e['shape']} | {e['impl']} "
            f"| {e['ns_per_op']:.1f} | {e['gb_per_s']:.2f} "
            f"| {e['gops']:.2f} | {e['speedup_vs_scalar']:.2f}x |"
        )
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")


def write_serving_summary(path, entries):
    lines = [
        "### Live serving benchmark",
        "",
        "| scenario | workers | requests | offered rps | p50 ms "
        "| p95 ms | p99 ms | goodput rps | goodput frac | shed "
        "| model err |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for key in sorted(entries):
        e = entries[key]
        lines.append(
            f"| {e['scenario']} | {e['workers']} | {e['requests']} "
            f"| {e['offered_rps']:.0f} | {e['p50_ms']:.2f} "
            f"| {e['p95_ms']:.2f} | {e['p99_ms']:.2f} "
            f"| {e['goodput_rps']:.0f} | {e['goodput_frac']:.3f} "
            f"| {e['shed_frac']:.3f} "
            f"| {e['analytical_err_frac'] * 100.0:.1f}% |"
        )
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")


def write_transfer_summary(path, entries):
    lines = [
        "### Transfer-engine benchmark",
        "",
        "| entry | value |",
        "|---|---:|",
    ]
    for key in sorted(entries):
        e = entries[key]
        lines.append(f"| {e['entry']} | {e['value']:.4f} |")
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(path, schema, entries):
    if schema == KERNELS_SCHEMA:
        write_kernels_summary(path, entries)
    elif schema == TRANSFER_SCHEMA:
        write_transfer_summary(path, entries)
    else:
        write_serving_summary(path, entries)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("run")
    parser.add_argument("--baseline")
    parser.add_argument("--tolerance", type=float, default=0.25)
    parser.add_argument("--update", action="store_true")
    parser.add_argument("--summary")
    parser.add_argument("--summary-only", action="store_true")
    args = parser.parse_args()

    schema, run = load(args.run)
    profile = PROFILES[schema]
    baseline_path = args.baseline or profile["baseline"]

    if args.summary:
        write_summary(args.summary, schema, run)

    if args.summary_only:
        if not args.summary:
            fail("--summary-only requires --summary <out.md>")
        print(f"check_bench: summary written ({len(run)} entries, "
              "gate skipped)")
        return

    if args.update:
        shutil.copyfile(args.run, baseline_path)
        print(f"check_bench: baseline {baseline_path} updated "
              f"({len(run)} entries)")
        return

    _, baseline = load(baseline_path, expect_schema=schema)

    metric = profile["metric"]
    unit = profile["unit"]
    lower_better = profile["better"] == "lower"
    regressions = []
    new_entries = []
    for key, entry in sorted(run.items()):
        base = baseline.get(key)
        if base is None:
            new_entries.append(key)
            continue
        if base[metric] <= 0:
            fail(f"baseline entry {key} has non-positive {metric}")
        ratio = entry[metric] / base[metric]
        regressed = (
            ratio > 1.0 + args.tolerance
            if lower_better
            else ratio < 1.0 - args.tolerance
        )
        marker = "  <-- REGRESSION" if regressed else ""
        if regressed:
            regressions.append((key, base[metric], entry[metric], ratio))
        print(
            f"check_bench: {'/'.join(key)}: "
            f"{base[metric]:.3f} -> {entry[metric]:.3f} {unit} "
            f"({ratio:.2f}x){marker}"
        )

    for key in new_entries:
        print(f"check_bench: NEW {'/'.join(key)} "
              "(not in baseline, accepted)")

    missing = sorted(set(baseline) - set(run))
    if missing:
        fail(
            "baseline entries missing from run (dropped impl, shape, "
            "or scenario?): " + ", ".join("/".join(k) for k in missing)
        )

    if regressions:
        bound = (
            f"{1.0 + args.tolerance:.2f}x allowed"
            if lower_better
            else f"{1.0 - args.tolerance:.2f}x floor"
        )
        for key, base_v, run_v, ratio in regressions:
            print(
                f"check_bench: REGRESSION {'/'.join(key)}: "
                f"{base_v:.3f} -> {run_v:.3f} {unit} "
                f"({ratio:.2f}x vs {bound})",
                file=sys.stderr,
            )
        fail(
            f"{len(regressions)} entr{'y' if len(regressions) == 1 else 'ies'}"
            f" regressed beyond {args.tolerance:.0%}; rerun with --update "
            "(or land with [bench-rebase] in the commit message) if the "
            "change is intentional"
        )

    print(f"check_bench: OK ({len(run)} entries, tolerance "
          f"{args.tolerance:.0%})")


if __name__ == "__main__":
    main()
