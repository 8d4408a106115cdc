#!/usr/bin/env python3
"""Build ccqbench from source and run one workload at one seed.

    python3 ccqbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

Run from anywhere; paths resolve against the checkout that holds this file.
The first run configures and builds ccqbench (library from ../src, optimized
RelWithDebInfo) into $CARGO_TARGET_DIR (default .bench_build) under the
checkout; later runs only re-check the build. Build output goes to stderr.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list; with --trace 1 its per_layer list (a layer a workload does
not exercise reports 0). Traced runs also leave spans, engine traces and a
result record in <build root>/ccqbench-results/. Exit status: 0 when every
answer was right, 1 otherwise (wrong answer, failed determinism check,
build failure, timeout), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oneshot", "svc_ingest", "svc_read")


def fail(msg: str) -> int:
    print(f"ccqbench: {msg}", file=sys.stderr)
    return 1


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build(build_dir: Path) -> bool:
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                return False
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def select_metrics(result: dict, spec: list[dict], fill_zero: bool) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with its units."""
    got = result.get("metrics", {})
    out = {}
    for m in spec:
        name = m["name"]
        if name in got:
            if got[name]["unit"] != m["unit"]:
                raise ValueError(f"metric {name}: unit {got[name]['unit']} "
                                 f"!= BENCHMARK.json {m['unit']}")
            out[name] = got[name]
        elif fill_zero:
            out[name] = {"value": 0, "unit": m["unit"]}
        else:
            raise ValueError(f"metric {name} missing from the run")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        return fail(f"cannot read {spec_path}: {e}")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "ccqbench"
    if not build(build_dir):
        return fail("build failed")

    cmd = [str(build_dir / "ccqbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out", str(build_root / "ccqbench-results"),
           "--commit", git_commit()]
    budget = min(170.0, 3 * args.seconds + 90)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {budget:.0f} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    print(f"ccqbench: run took {time.monotonic() - t0:.1f} s", file=sys.stderr)
    if not lines:
        return fail(f"no output (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
        key = "per_layer" if args.trace else "end_to_end"
        result["metrics"] = select_metrics(result, spec[key],
                                           fill_zero=bool(args.trace))
    except (ValueError, KeyError) as e:
        print(lines[-1])
        return fail(f"bad result line: {e}")
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
