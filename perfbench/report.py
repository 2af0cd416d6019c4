"""Print the end-to-end and per-layer tables for every workload.

Run from the repository root::

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload it runs ``run.py`` untraced and traced on the same seed
and prints both outputs, then one summary row per workload: untraced and
traced op p50, the tracing overhead (their ratio), and how much handler
wall time the layer rows cover.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    print(out.stdout.rstrip())
    if out.stderr.strip():
        print(out.stderr.rstrip())
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    args = parser.parse_args(argv)
    rows = []
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        untraced_p50 = plain["op_p50_ms"]["value"]
        traced_p50 = traced["trace.op_p50_ms"]["value"]
        coverage = traced.get("trace.coverage_frac", {}).get("value", float("nan"))
        rows.append((workload, untraced_p50, traced_p50, traced_p50 / untraced_p50, coverage))
    print(f"\n{'workload':14s} {'op_p50_ms':>10s} {'traced':>10s} {'overhead':>9s} {'coverage':>9s}")
    for workload, untraced_p50, traced_p50, overhead, coverage in rows:
        print(f"{workload:14s} {untraced_p50:10.2f} {traced_p50:10.2f} "
              f"{overhead:8.3f}x {coverage:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
