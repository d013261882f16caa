#!/usr/bin/env python3
"""Builds and runs the bitdec wall-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is built from source with
CMake (Release) into $CARGO_TARGET_DIR, or .bench_build when unset; the
build log goes to stderr. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: every end_to_end metric of
BENCHMARK.json with --trace 0, every per_layer metric with --trace 1 (a
layer that does no work on the workload reports 0).

--self-test runs each workload briefly with one output bit flipped and
exits non-zero unless every workload's check catches it.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("longctx-decode", "tiered-idle", "net-prefix-stream")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = pathlib.Path.cwd() / path
    return path / "perfbench"


def build(out):
    """Configures and builds the benchmark; returns the binary path."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return out / "perfbench"


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git " + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-sha256 " + h.hexdigest()[:16] + " (no git metadata)"


def run_once(binary, args, trace_dir):
    """Runs the benchmark binary; returns (header lines, result dict)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(trace_dir)]
    if args.flip:
        cmd.append("--flip")
    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with code {proc.returncode}")
        sys.exit(1)
    return lines[:-1], json.loads(lines[-1])


def shape(result, spec, trace):
    """Orders the metrics as BENCHMARK.json declares them and checks them."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                log(f"metric {name} has unit {got[name]['unit']}, declared {unit}")
                sys.exit(1)
            metrics[name] = got[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            log(f"end-to-end metric {name} missing")
            sys.exit(1)
        if not trace and not metrics[name]["value"] > 0:
            log(f"end-to-end metric {name} is {metrics[name]['value']}, not positive")
            sys.exit(1)
    extra = sorted(set(got) - set(metrics))
    if extra:
        log("undeclared metrics: " + ", ".join(extra))
        sys.exit(1)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def self_test(binary, trace_dir):
    ok = True
    for w in WORKLOADS:
        args = argparse.Namespace(workload=w, seed=1, seconds=1, trace=0, flip=True)
        _, result = run_once(binary, args, trace_dir)
        caught = result["correct"] is False
        ok &= caught
        print(f"self-test {w}: flipped bit {'caught' if caught else 'NOT caught'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--flip", action="store_true",
                    help="flip one bit of one checked output (the run must fail)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if args.seconds is not None and not 0 < args.seconds <= 3600:
        ap.error("--seconds must be in (0, 3600]")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = build_dir()
    binary = build(out)
    if args.self_test:
        return self_test(binary, out)
    header, result = run_once(binary, args, out)
    for line in header:
        print(line)
    print(json.dumps(shape(result, spec, args.trace == 1)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
