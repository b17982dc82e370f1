#!/usr/bin/env python3
"""The gpuperf benchmark: builds the driver from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload predict --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

Each workload runs in its own driver process (perfbench/driver.cc). With
--trace 0 the last stdout line is a JSON object holding every end-to-end
metric of BENCHMARK.json; with --trace 1 it holds every per-layer metric of
a separate traced run, whose spans are written to
<build>/traces/<workload>-seed<N>.jsonl. The command exits nonzero when the
correctness gate fails or a metric is missing.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the checkout root. The build is always Release; the driver
refuses to report timings from any other build type.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 170
TINY_SEED = 7


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the driver; returns its path or None."""
    out = build_dir()
    steps = [["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench_driver",
              "-j", str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_driver")


def load_spec():
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def run_driver(driver, workload, seed, seconds, trace, size="full"):
    """Runs one driver process; returns (returncode, parsed output)."""
    out = build_dir()
    spans = os.path.join(out, "traces", f"{workload}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--work-dir", os.path.join(out, "work"),
           "--spans-out", spans if trace else ""]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {DRIVER_TIMEOUT_S} s")
        return 1, None
    parsed = {"metrics": {}, "traced_e2e": {}, "digests": {}, "lines": [],
              "gate": None, "spans": spans if trace else None}
    for line in done.stdout.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] in ("metric", "traced_e2e") and len(parts) == 4:
            key = "metrics" if parts[0] == "metric" else "traced_e2e"
            parsed[key][parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        elif parts[0] == "digest" and len(parts) == 3:
            parsed["digests"][parts[1]] = parts[2]
        elif parts[0] == "gate" and len(parts) == 3:
            parsed["gate"] = (int(parts[1]), int(parts[2]))
        parsed["lines"].append(line)
    return done.returncode, parsed


def metric_problems(expected, metrics):
    """Names missing, extra, with the wrong unit, or not a finite number."""
    problems = []
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        elif not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got['value']} is not finite")
    names = {m["name"] for m in expected}
    problems += [f"unexpected metric {n}" for n in metrics if n not in names]
    return problems


def span_problems(path):
    """Spans must end after they start and lie inside their parent."""
    with open(path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    if not spans or "machine" not in spans[0]:
        return ["span file lacks its machine header"]
    spans = spans[1:]
    if not spans:
        return ["no spans recorded"]
    problems = []
    for s in spans:
        if s["end_s"] < s["start_s"]:
            problems.append(f"span {s['name']} ends before it starts")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if s["start_s"] < p["start_s"] or s["end_s"] > p["end_s"]:
                problems.append(f"span {s['name']} is not inside {p['name']}")
    return problems


def print_tracing_overhead(workload, traced):
    """Traced-run end-to-end metrics against the last untraced run."""
    path = os.path.join(build_dir(), "results", f"{workload}.json")
    if not os.path.exists(path):
        print(f"tracing-overhead: no untraced {workload} run to compare with")
        return
    with open(path) as f:
        untraced = json.load(f)
    for name, m in sorted(traced.items()):
        base = untraced.get(name, {}).get("value")
        if base:
            change = 100.0 * (m["value"] - base) / base
            print(f"tracing-overhead {name} untraced={base:.6g} "
                  f"traced={m['value']:.6g} change={change:+.1f}%")


def run(args):
    spec = load_spec()
    driver = build()
    if driver is None:
        return 1
    trace = int(args.trace)
    rc, out = run_driver(driver, args.workload, args.seed, args.seconds, trace)
    if out is None:
        return 1
    for line in out["lines"]:
        print(line)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    problems = metric_problems(expected, out["metrics"])
    if trace:
        problems += span_problems(out["spans"])
        print_tracing_overhead(args.workload, out["traced_e2e"])
    for p in problems:
        log("perfbench: " + p)
    if rc != 0 or out["gate"] is None or problems:
        log(f"perfbench: driver exit code {rc}; no result reported")
        return 1
    attempted, failed = out["gate"]
    if not trace:
        results = os.path.join(build_dir(), "results")
        os.makedirs(results, exist_ok=True)
        with open(os.path.join(results, f"{args.workload}.json"), "w") as f:
            json.dump(out["metrics"], f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out["metrics"]}))
    return 0 if failed == 0 else 1


def self_test():
    """Tiny-size run of every workload, checking the benchmark itself."""
    spec = load_spec()
    driver = build()
    if driver is None:
        return 1
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    problems = []
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in per_layer - set(layers["per_layer"]):
        problems.append(f"layers.json does not say what {name} moves")
    for name in set(layers["per_layer"]) - per_layer:
        problems.append(f"layers.json names unknown metric {name}")
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for trace in (0, 0, 1):
            rc, out = run_driver(driver, name, TINY_SEED, 1, trace, "tiny")
            if rc != 0 or out is None or out["gate"] is None:
                problems.append(f"{name} trace={trace}: driver failed ({rc})")
                continue
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            problems += [f"{name} trace={trace}: {p}"
                         for p in metric_problems(expected, out["metrics"])]
            if out["gate"][1] != 0:
                problems.append(f"{name} trace={trace}: correctness gate "
                                f"failed {out['gate'][1]} of {out['gate'][0]}")
            if trace:
                problems += [f"{name}: {p}" for p in span_problems(out["spans"])]
            else:
                runs.append(out)
        if len(runs) == 2:
            if runs[0]["digests"] != runs[1]["digests"]:
                problems.append(f"{name}: digests differ between equal runs")
            for m in ("kw_mape_pct", "sim_p99_ms", "sim_completed_pct",
                      "heal_residual_pct"):
                if runs[0]["metrics"][m] != runs[1]["metrics"][m]:
                    problems.append(f"{name}: {m} differs between equal runs")
        print(f"self-test {name}: done", flush=True)
    for p in problems:
        print("self-test: FAILED: " + p)
    print("self-test: " + ("OK" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
