#!/usr/bin/env python3
"""bench_compare — diff fresh bench JSON against committed baselines.

The perf-tracking benches write machine-readable JSON next to their tables
(BENCH_engine.json from bench_micro, BENCH_gc.json from bench_gc). This
tool re-runs those binaries in a scratch directory and compares the fresh
numbers against the committed snapshots in bench/baselines/, so both kinds
of regression are caught in CI:

  - model regressions: the deterministic counters (rounds, messages, words,
    phases) in BENCH_gc.json must match the baseline EXACTLY — the inputs
    are seeded and the accounting is exact, so any drift is a behaviour
    change that must be intentional (then: --refresh and commit);
  - perf catastrophes: the throughput rates in BENCH_engine.json must stay
    above --min-ratio (default 0.05) of the baseline. The band is wide on
    purpose: CI machines differ and ctest runs benches next to other jobs,
    so only order-of-magnitude collapses (a serialized parallel path, an
    accidental O(n^2) pass) should trip the gate, not scheduler noise.
    Ratios below 0.5 are printed as warnings either way.

Rows are keyed (see REGISTRY); baseline rows whose key is missing from the
fresh run fail the check unless the registry marks them optional.
BENCH_engine.json rows are keyed (n, mode) over a fixed lane-mode grid
(serial / parallel, both on the engine's one packed delivery path), so
none are optional.

Usage:
  bench_compare.py [--build-dir DIR] [--baseline-dir DIR] [--min-ratio R]
                   (--check | --refresh)

  --check     run the benches, compare, exit 1 on any regression (CI gate)
  --refresh   run the benches and overwrite the committed baselines — use
              after an intentional accounting or perf change, and commit
              the result

Exit status: 0 clean/updated, 1 regression or bench failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# file -> how to produce and compare it.
#   bench:    binary under <build-dir>/bench that writes the file in its CWD
#   args:     extra argv (bench_micro: skip the google-benchmark suite)
#   keys:     row fields forming the comparison key
#   exact:    deterministic count fields — any difference is a failure
#   rates:    throughput fields — fresh/baseline must stay >= min-ratio
#   optional: predicate(row) -> True when a baseline row may be absent from
#             the fresh run without failing the check
REGISTRY = {
    "BENCH_engine.json": {
        "bench": "bench_micro",
        "args": ["--benchmark_filter=NONE"],
        # Rows are keyed by lane mode (serial / parallel), not thread
        # count: the mode grid is fixed, so every baseline row must exist
        # on every machine.
        "keys": ("n", "mode"),
        "exact": (),
        "rates": ("rounds_per_sec", "messages_per_sec"),
        "optional": lambda row: False,
    },
    "BENCH_gc.json": {
        "bench": "bench_gc",
        "args": [],
        "keys": ("n",),
        "exact": ("gc_rounds", "gc_messages", "gc_words", "lotker_rounds",
                  "boruvka_phases", "wide_rounds"),
        "rates": (),
        "optional": lambda row: False,
    },
}


def fail(msg: str, code: int = 2) -> None:
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(code)


def run_benches(build: Path, scratch: Path) -> dict[str, dict]:
    """Run every registered bench with CWD=scratch; return {file: json}."""
    fresh = {}
    for fname, spec in REGISTRY.items():
        binary = build / "bench" / spec["bench"]
        if not binary.is_file():
            fail(f"bench binary not found: {binary} (build first)")
        print(f"bench_compare: running {spec['bench']} ...")
        result = subprocess.run(
            [str(binary)] + spec["args"], cwd=scratch,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if result.returncode != 0:
            fail(f"{spec['bench']} exited {result.returncode} (self-check "
                 f"failed?)\n{result.stderr}", 1)
        out = scratch / fname
        if not out.is_file():
            fail(f"{spec['bench']} did not write {fname}", 1)
        try:
            fresh[fname] = json.loads(out.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            fail(f"{spec['bench']} wrote invalid JSON to {fname}: {e}", 1)
    return fresh


def load_baselines(baselines: Path) -> dict[str, dict]:
    """Read and parse every committed baseline, failing with the recovery
    command — BEFORE the (expensive) bench run, so a missing or corrupt
    baseline is reported in seconds, not minutes."""
    committed = {}
    for fname in REGISTRY:
        path = baselines / fname
        refresh = ("python3 tools/report/bench_compare.py --refresh "
                   "(then commit bench/baselines/)")
        if not path.is_file():
            fail(f"committed baseline {path} is missing — regenerate it "
                 f"with: {refresh}", 1)
        try:
            committed[fname] = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            fail(f"committed baseline {path} is unparsable ({e}) — "
                 f"regenerate it with: {refresh}", 1)
        if not isinstance(committed[fname], dict) or \
                "rows" not in committed[fname]:
            fail(f"committed baseline {path} has no 'rows' — regenerate it "
                 f"with: {refresh}", 1)
    return committed


def key_of(row: dict, keys: tuple) -> tuple:
    return tuple(row[k] for k in keys)


def compare(fname: str, baseline: dict, fresh: dict,
            min_ratio: float) -> list[str]:
    spec = REGISTRY[fname]
    problems = []
    fresh_rows = {key_of(r, spec["keys"]): r for r in fresh["rows"]}
    for row in baseline["rows"]:
        key = key_of(row, spec["keys"])
        label = ", ".join(f"{k}={v}" for k, v in zip(spec["keys"], key))
        got = fresh_rows.get(key)
        if got is None:
            if not spec["optional"](row):
                problems.append(f"{fname}: row ({label}) missing from the "
                                "fresh run")
            continue
        for field in spec["exact"]:
            if got[field] != row[field]:
                problems.append(
                    f"{fname} ({label}): {field} changed "
                    f"{row[field]} -> {got[field]} (deterministic counter; "
                    "if intentional, --refresh and commit)")
        for field in spec["rates"]:
            base, now = float(row[field]), float(got[field])
            if base <= 0:
                continue
            ratio = now / base
            if ratio < min_ratio:
                problems.append(
                    f"{fname} ({label}): {field} collapsed to "
                    f"{ratio:.3f}x of baseline ({base:.1f} -> {now:.1f})")
            elif ratio < 0.5:
                print(f"bench_compare: warning: {fname} ({label}): {field} "
                      f"at {ratio:.2f}x of baseline (machine noise or a "
                      "real slowdown — watch it)")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="build tree with bench binaries "
                             "(default: <repo>/build)")
    parser.add_argument("--baseline-dir", type=Path, default=None,
                        help="committed baselines "
                             "(default: <repo>/bench/baselines)")
    parser.add_argument("--min-ratio", type=float, default=0.05,
                        help="minimum fresh/baseline throughput ratio "
                             "(default: 0.05)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare against baselines; exit 1 on regression")
    mode.add_argument("--refresh", action="store_true",
                      help="overwrite the committed baselines")
    args = parser.parse_args(argv)

    repo = Path(__file__).resolve().parents[2]
    build = (args.build_dir or repo / "build").resolve()
    baselines = (args.baseline_dir or repo / "bench" / "baselines").resolve()

    # Validate the committed baselines before spending minutes in the
    # benches: a missing or corrupt file fails here, immediately and with
    # the command that repairs it.
    committed = {} if args.refresh else load_baselines(baselines)

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        fresh = run_benches(build, scratch)

        if args.refresh:
            baselines.mkdir(parents=True, exist_ok=True)
            for fname in REGISTRY:
                shutil.copyfile(scratch / fname, baselines / fname)
                print(f"bench_compare: refreshed {baselines / fname}")
            print("bench_compare: commit bench/baselines/ to pin the new "
                  "numbers")
            return 0

        problems = []
        for fname in REGISTRY:
            problems.extend(compare(fname, committed[fname], fresh[fname],
                                    args.min_ratio))

    if problems:
        for p in problems:
            print(f"bench_compare: REGRESSION: {p}", file=sys.stderr)
        return 1
    print(f"bench_compare: {len(REGISTRY)} baseline file(s) verified")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
