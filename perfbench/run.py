#!/usr/bin/env python3
"""Build and run the pimdl benchmark.

    python3 perfbench/run.py --workload <offline|serve-open> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark binary is built from the
sources in the checkout into $CARGO_TARGET_DIR (default .bench_build)
with CMake, RelWithDebInfo. The last line of standard output is the
run's result object; the line before it is the run fingerprint. Metric
names and units are checked against BENCHMARK.json, and per-layer
metrics a workload does not reach are reported as 0. The development
and held-out seeds live in perfbench/config.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no pimdl sources under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "pimdl_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "pimdl_perfbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def config():
    return load_json(os.path.join(HERE, "config.json"))


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (fingerprint line, result dict)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"benchmark binary exited {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("result attempted no operation")
    return lines[-2], result


def declared(trace):
    spec = benchmark_spec()
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def conform(result, trace):
    """Checks the run's metrics against BENCHMARK.json, in place.

    Every metric the binary emits must be declared for the run's kind
    with the same unit and a finite value. An untraced run must emit
    every end-to-end metric; a traced run reports 0 for the per-layer
    metrics its workload does not reach. Returns the names emitted.
    """
    want = declared(trace)
    got = result["metrics"]
    for name, m in got.items():
        if name not in want:
            raise RuntimeError(f"undeclared metric {name}")
        if m["unit"] != want[name]:
            raise RuntimeError(f"metric {name} has unit {m['unit']}, "
                               f"declared {want[name]}")
        value = m["value"]
        if not isinstance(value, (int, float)) or value != value:
            raise RuntimeError(f"metric {name} is not a finite number")
    missing = [n for n in want if n not in got]
    if missing and not trace:
        raise RuntimeError(f"missing metrics {missing}")
    emitted = set(got)
    result["metrics"] = {
        n: got.get(n, {"value": 0.0, "unit": u}) for n, u in want.items()}
    return emitted


def selftest(binary):
    """Benchmark self-tests; returns the number of failures."""
    failures = 0
    dev_seed = str(config()["dev_seed"])

    def check(ok, what):
        nonlocal failures
        print(f"selftest {what}: {'ok' if ok else 'FAILED'}")
        failures += 0 if ok else 1

    # 1. Short runs of every workload emit only declared names, with
    #    their units, every end-to-end metric, and pass their
    #    correctness checks; every per-layer metric is reached by some
    #    workload.
    reached = set()
    for w in benchmark_spec()["workloads"]:
        for trace in (0, 1):
            args = ["--workload", w["name"], "--seed", dev_seed, "--seconds",
                    "2", "--trace", str(trace)]
            try:
                _, result = run_binary(binary, args)
                emitted = conform(result, trace)
            except RuntimeError as e:
                check(False, f"{w['name']} --trace {trace}: {e}")
                continue
            if trace:
                reached |= emitted
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared(trace),
                  f"{w['name']} --trace {trace} emits the declared metrics")
            check(result["correct"] and result["failed"] == 0,
                  f"{w['name']} --trace {trace} outputs correct")
    unreached = sorted(set(declared(True)) - reached)
    check(not unreached,
          f"every per-layer metric is reached {unreached or ''}".strip())

    # 2. model.* and counts repeat exactly across two in-process passes.
    # 3. The shadow-walk coverage check fails when a layer is dropped.
    for name in ("repeat", "shadow-drop"):
        proc = subprocess.run([binary, "--selftest", name, "--seed", dev_seed],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        check(proc.returncode == 0, f"binary self-test {name}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int,
                        help="default: dev_seed in perfbench/config.json")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        binary = build()
        if args.selftest:
            return 1 if selftest(binary) else 0
        if not args.workload:
            parser.error("--workload is required")
        seed = config()["dev_seed"] if args.seed is None else args.seed
        cmd = ["--workload", args.workload, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
        fingerprint, result = run_binary(binary, cmd)
        conform(result, args.trace == "1")
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(fingerprint)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
