#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the library sources under src/ plus perfbench.cpp) into
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild only what
changed. Build output goes to stderr, so the last stdout line is the
benchmark's JSON result. run.py checks that result against BENCHMARK.json:
every declared metric of the mode, with its declared unit. A per-layer
metric of a layer the workload leaves idle (IDLE below) is reported as 0;
any other declared metric the program did not produce is an error. Exits
nonzero, without a result, when the build fails (for example when src/ is
missing) or the result does not match BENCHMARK.json.

Extra flags for the benchmark's own tests: --tiny 1 shrinks every input,
--spans <file> sets where a traced run writes its spans.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-moe-dqn", "serve-saturate")
# Per-layer metrics (by name prefix) of the layers a workload makes no
# call into.
IDLE = {
    "train-moe-dqn": ("sim.", "nn.infer_", "serve.", "wal.", "obs."),
    "serve-saturate": ("rl.", "core.", "nn.pretrain_", "quality."),
}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)  # reconfigure next time
            return False
    return subprocess.call(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr) == 0


def complete(result, workload, trace, spec):
    """Check `result` against the metrics `spec` declares for the mode and
    fill the idle layers with 0. Raises ValueError on any mismatch."""
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in units:
            raise ValueError("metric %s is not declared" % name)
        if m["unit"] != units[name]:
            raise ValueError("metric %s has unit %s, declared %s" % (name, m["unit"], units[name]))
    for name, unit in units.items():
        if name in metrics:
            continue
        if not (trace and name.startswith(IDLE[workload])):
            raise ValueError("metric %s was not produced" % name)
        metrics[name] = {"value": 0, "unit": unit}
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--tiny", choices=("0", "1"), default="0")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    work = os.path.join(out, "work-%s-%d" % (args.workload, os.getpid()))
    spans = args.spans or os.path.join(out, "spans-%s.csv" % args.workload)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--tiny", args.tiny, "--work", work,
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: a correctness check failed
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        result = complete(json.loads(lines[-1]), args.workload, args.trace == "1", spec)
    except ValueError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 4
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
