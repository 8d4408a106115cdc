#!/usr/bin/env python3
"""Run `quickstart 8192 1 42` and check its verdict, exact cost and memory.

GC at n = 8192 stores only the input's own edges, so its peak RSS stays far
below the 128 MiB that an n^2/2 weight triangle would take. The peak is the
child's ru_maxrss, read with getrusage(RUSAGE_CHILDREN) after it exits.

Usage: check_quickstart.py QUICKSTART_BINARY [--max-rss-mib N]
Exits 0 if every check holds, 1 otherwise (each failure is printed).
"""
import argparse
import resource
import subprocess
import sys

ARGS = ["8192", "1", "42"]
VERDICT = "verdict: CONNECTED"
COST = "rounds=20 messages=82542962 words=247645640"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary")
    parser.add_argument("--max-rss-mib", type=float, default=None,
                        help="fail if the child's peak RSS exceeds this")
    args = parser.parse_args()

    run = subprocess.run([args.binary, *ARGS], capture_output=True,
                         text=True, check=False)
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(run.stdout, end="")
    print(f"peak_rss_mib: {peak_mib:.1f}")

    failures = []
    if run.returncode != 0:
        failures.append(f"exit status {run.returncode}: {run.stderr.strip()}")
    lines = run.stdout.splitlines()
    if not any(line.startswith(VERDICT) for line in lines):
        failures.append(f"no '{VERDICT}' line")
    cost = [line for line in lines if line.startswith("cost:")]
    if not cost or COST not in cost[0]:
        failures.append(f"cost line is {cost[:1]}, expected '{COST}'")
    if args.max_rss_mib is not None and peak_mib > args.max_rss_mib:
        failures.append(f"peak RSS {peak_mib:.1f} MiB exceeds "
                        f"{args.max_rss_mib:g} MiB")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
