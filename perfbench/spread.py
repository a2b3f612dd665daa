"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads census long_words --seeds 10 \
        [--seconds 20] [--trace 0] [--out FILE]

For every workload it runs perfbench/run.py once per seed (seeds 1..N),
then prints, for each metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: (q3 - q1) / median.
A run that fails its checks or exits non-zero is reported and stops the
script.  --out writes all values and summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        values = {}
        for seed in range(1, args.seeds + 1):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({time.monotonic() - t0:.0f} s): " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {workload} {name}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.4f}")
        report[workload] = {"values": values, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
