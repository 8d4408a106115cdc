#!/usr/bin/env python3
"""Selftest for theory_check's failure modes, on seeded fixtures.

The acceptance criterion for the conformance gate is that it actually
fires: against the handcrafted mini sweep in fixtures/mini_sweep,

  - fixtures/bounds_ok.json must pass (exit 0),
  - fixtures/bounds_violation.json (constant deliberately tightened below
    a measurement) must exit 1 and say VIOLATED,
  - fixtures/bounds_loose.json (constant deliberately loosened past 2x
    the observed fit) must exit 1 and say DRIFT.

The grid is the one manifest.json lists, not whatever *.ndjson the
directory holds: in a copy of the mini sweep,

  - a stale point file the manifest does not list (one that would violate
    bounds_ok.json) must not enter the gate (exit 0),
  - a manifest entry whose file is missing must fail (exit 2) and name it.

This pins the gate itself, independent of the real grid — if the
violation/drift logic regresses, theory_conformance could go green while
checking nothing.

Run as ctest theory_check_selftest (needs no build tree or sweep run).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRIPT = HERE / "theory_check.py"
SWEEP = HERE / "fixtures" / "mini_sweep"


def run(bounds: str, sweep: Path = SWEEP) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--verify-only",
         "--sweep-dir", str(sweep),
         "--bounds", str(HERE / "fixtures" / bounds)],
        capture_output=True, text=True)


def manifest_problems(scratch: Path) -> list[str]:
    """The gate reads the manifest's points: stale extras are ignored, a
    listed file that is missing fails."""
    problems = []
    sweep = scratch / "sweep"
    shutil.copytree(SWEEP, sweep)
    stale = sweep / "gc-n8192-d2.ndjson"
    stale.write_text(
        '{"type":"sweep","algo":"gc","n":8192,"m":16384,"density":2,'
        '"seed":3,"rounds":1000,"messages":9000000,"words":9000000}\n'
        '{"type":"bound","theorem":"T4","scope_prefix":"gc","instances":1,'
        '"rounds":1000,"messages":9000000,"words":9000000,'
        '"max_rounds":1000,"max_messages":9000000,'
        '"peak_messages_in_round":9000}\n')
    result = run("bounds_ok.json", sweep)
    if result.returncode != 0:
        problems.append(f"stale unlisted point entered the gate: expected "
                        f"exit 0, got {result.returncode}:\n{result.stderr}")

    stale.unlink()
    manifest = json.loads((sweep / "manifest.json").read_text())
    missing = manifest["points"][0]["file"]
    (sweep / missing).unlink()
    result = run("bounds_ok.json", sweep)
    if result.returncode != 2:
        problems.append(f"missing listed point: expected exit 2, got "
                        f"{result.returncode}:\n{result.stderr}")
    if missing not in result.stderr or "Traceback" in result.stderr:
        problems.append(f"missing listed point: stderr does not name "
                        f"{missing} cleanly:\n{result.stderr}")
    return problems


def main() -> int:
    problems = []

    ok = run("bounds_ok.json")
    if ok.returncode != 0:
        problems.append(f"bounds_ok.json: expected exit 0, got "
                        f"{ok.returncode}:\n{ok.stderr}")

    violation = run("bounds_violation.json")
    if violation.returncode != 1:
        problems.append(f"bounds_violation.json: expected exit 1, got "
                        f"{violation.returncode}:\n{violation.stderr}")
    if "VIOLATED" not in violation.stderr:
        problems.append(f"bounds_violation.json: stderr does not say "
                        f"VIOLATED:\n{violation.stderr}")

    loose = run("bounds_loose.json")
    if loose.returncode != 1:
        problems.append(f"bounds_loose.json: expected exit 1, got "
                        f"{loose.returncode}:\n{loose.stderr}")
    if "DRIFT" not in loose.stderr:
        problems.append(f"bounds_loose.json: stderr does not say "
                        f"DRIFT:\n{loose.stderr}")
    for result in (violation, loose):
        if "Traceback" in result.stderr:
            problems.append(f"leaked a raw traceback:\n{result.stderr}")

    with tempfile.TemporaryDirectory() as scratch:
        problems += manifest_problems(Path(scratch))

    for p in problems:
        print(f"test_theory_check: FAIL: {p}", file=sys.stderr)
    if problems:
        return 1
    print("test_theory_check: gate passes clean registry, fires on seeded "
          "violation and drift, reads only the manifest's points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
