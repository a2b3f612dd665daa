"""The f2aut benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

    census           f2aut enumerate --lengths 0..13 --workers 1 --format json
    census_parallel  the same with --workers 2; its --out tree must be
                     byte-identical to the --workers 1 tree of the same sources
    census_report    f2aut enumerate --lengths 0..12 --workers 1
                     --check-conjectures --scan-coincidences
    long_words       seeded word pairs through minimize, are_conjugate and
                     build_graph(minimize(w)[0]); only this one uses --seed

With --trace 0 the census command runs in a fresh process, again and
again, and long_words repeats its passes over the pairs in one process:
at least twice, and then as long as the next repetition should end
within S seconds.  wall_s is the median repetition, each scaled to a
fixed host speed by a reference computation timed around it (see
perfbench/README.md); peak_rss_mb is the median peak; setup_s is the
median of interpreter starts timed before and after the workload.  With --trace 1 the workload
runs once untraced and once traced, plus the public enumerate_minimal /
enumerate_classes calls for the census workloads, and the per-layer
metrics are printed.  Every output is checked; a failed check counts
against `failed` and makes `correct` false.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --small runs a reduced version (lengths
0..8, two word pairs) for the self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

from checks import (check_census_stdout, check_census_tree, load_fixtures,
                    tree_bytes, tree_digest)
from layertrace import PER_LAYER, layer_metrics
from words import make_pairs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUDGET_S = 170  # every run must end within 180 s
SETUP_REPEATS = 6  # interpreter starts timed before the workload, and again after it
MIN_REPEATS = 2  # repetitions of a workload timed in every run, even past --seconds
# wall_s is scaled to a host on which reference_s() (driven.py) takes this long
REF_S = 0.3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}

CENSUS = {
    "census": {"top": 13, "workers": 1, "extra": ["--format", "json"]},
    "census_parallel": {"top": 13, "workers": 2, "extra": ["--format", "json"]},
    "census_report": {"top": 12, "workers": 1,
                      "extra": ["--check-conjectures", "--scan-coincidences"]},
}


class Run:
    """One benchmark run: scratch directory, child processes, tallies."""

    def __init__(self, args, fixtures):
        self.args = args
        self.fixtures = fixtures  # (type counts, size histograms) from tests/data
        self.deadline = monotonic() + BUDGET_S
        self.tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
        self.keep = ROOT / ".perfbench_out"  # span dumps and the reference digest
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.jobs = 0
        self.setup_times = []

    def record(self, problems) -> None:
        """Count one operation; it failed if its checks found problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"check failed: {p}", file=sys.stderr)

    def child(self, cmd, stdout_path=None) -> int:
        """Run cmd to completion in its own process group, within the budget.

        The wait blocks in waitpid, so the caller's clock stops when the
        child exits; a timer kills the whole group if the budget runs out.
        """
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        try:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out,
                                    start_new_session=True)
            timer = threading.Timer(max(1.0, self.deadline - monotonic()),
                                    os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                code = proc.wait()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
        finally:
            if stdout_path:
                out.close()
        if code == -signal.SIGKILL:
            raise SystemExit(f"{cmd[1]} was killed: the run exceeded {BUDGET_S} s")
        return code

    def driven(self, job: dict, stdout_path=None):
        """Start driven.py on a job; returns (exit code, result dict or None)."""
        self.jobs += 1
        job_path = self.tmp / f"job-{self.jobs}.json"
        job["result"] = str(self.tmp / f"result-{self.jobs}.json")
        job_path.write_text(json.dumps(job))
        code = self.child([sys.executable, str(HERE / "driven.py"), str(job_path)], stdout_path)
        result_path = Path(job["result"])
        return code, (json.loads(result_path.read_text()) if result_path.exists() else None)

    def setup_samples(self, count: int) -> None:
        """Time `count` interpreter starts that import f2aut."""
        cmd = [sys.executable, "-c", "import f2aut"]
        for _ in range(count):
            t0 = perf_counter()
            code = self.child(cmd)
            self.setup_times.append(perf_counter() - t0)
            if code != 0:
                raise SystemExit("import f2aut failed")

    # -- census workloads ------------------------------------------------

    def census_once(self, spec, workers, trace=False, reference=None):
        """One enumerate command in a fresh process, checked; returns its result."""
        self.jobs += 1
        out_dir = self.tmp / f"out-{self.jobs}"
        stdout_path = self.tmp / f"stdout-{self.jobs}.txt"
        argv = ["enumerate", "--lengths", f"0..{spec['top']}", "--workers", str(workers),
                "--out", str(out_dir), *spec["extra"]]
        job = {"mode": "census", "argv": argv, "trace": trace, "top_length": spec["top"],
               "spans": str(self.keep / f"spans-{self.args.workload}.bin")}
        code, result = self.driven(job, stdout_path)
        lengths = range(spec["top"] + 1)
        if code != 0 or result is None or result["code"] != 0:
            problems = [f"enumerate exited with {code}/{result and result['code']}"]
        else:
            problems = check_census_tree(out_dir, lengths, *self.fixtures,
                                         report="--check-conjectures" in argv)
            if "json" in spec["extra"]:
                problems += check_census_stdout(stdout_path.read_text(), lengths, self.fixtures[0])
            result["digest"] = tree_digest(out_dir)
            result["out_bytes"] = tree_bytes(out_dir)
            if reference is not None and result["digest"] != reference:
                problems.append("--out tree differs from the --workers 1 reference")
        self.record(problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        stdout_path.unlink(missing_ok=True)
        return result or {}

    def reference_digest(self, spec) -> str | None:
        """Digest of the --workers 1 tree for spec.

        It is computed once per source tree and interpreter and kept, so
        later runs in the same checkout spend their time on the workload.
        """
        key = hashlib.sha256(
            (sys.version + json.dumps(spec) + tree_digest(ROOT / "src", "*.py")).encode()
        ).hexdigest()[:20]
        cache = self.keep / f"reference-{key}.txt"
        if cache.exists():
            return cache.read_text()
        failed = self.failed
        digest = self.census_once(spec, 1).get("digest")
        if digest and self.failed == failed:
            cache.write_text(digest)
        return digest

    def census(self, spec) -> dict:
        workers = spec["workers"]
        reference = self.reference_digest(spec) if workers > 1 else None
        classes = sum(
            sum(self.fixtures[0][str(n)].values()) for n in range(spec["top"] + 1)
        )
        if self.args.trace:
            plain = self.census_once(spec, workers, reference=reference)
            traced = self.census_once(spec, workers, trace=True, reference=reference)
            code, rows = self.driven({"mode": "rows", "trace": False, "length": spec["top"],
                                      "workers": workers,
                                      "classes": sum(self.fixtures[0][str(spec["top"])].values())})
            if "out_bytes" not in plain or "out_bytes" not in traced or rows is None:
                raise SystemExit("a census or rows process failed; no layer metrics")
            self.record(rows["failures"])
            return layer_metrics(self.trace_summary(traced), rows["rows_s"],
                                 rows["classes_s"] - rows["rows_s"], traced["out_bytes"],
                                 traced["wall"] - plain["wall"])
        walls, scaled, peaks = [], [], []
        begin = monotonic()
        while True:
            started = monotonic()
            result = self.census_once(spec, workers, reference=reference)
            if "wall" not in result:
                break
            walls.append(result["wall"])
            scaled.append(result["wall"] * REF_S / result["ref"])
            peaks.append(result["peak_rss_mb"])
            # stop before a repetition that would end after --seconds
            now = monotonic()
            if len(walls) >= MIN_REPEATS and 2 * now - started - begin > self.args.seconds:
                break
        if not walls:
            raise SystemExit("no census run completed")
        wall = statistics.median(scaled)
        print(f"repetitions: {len(walls)}; measured wall s: " + " ".join(f"{w:.3f}" for w in walls))
        print("scaled to the reference speed: " + " ".join(f"{w:.3f}" for w in scaled))
        print("peak_rss_mb each: " + " ".join(f"{p:.2f}" for p in peaks))
        return {"wall_s": wall, "peak_rss_mb": statistics.median(peaks),
                "items_per_s": classes / wall}

    # -- long words ------------------------------------------------------

    def long_words(self) -> dict:
        pairs = make_pairs(self.args.seed, small=self.args.small)
        pairs_path = self.tmp / "pairs.json"
        pairs_path.write_text(json.dumps(pairs))
        job = {"mode": "long_words", "pairs": str(pairs_path), "seconds": self.args.seconds,
               "min_passes": MIN_REPEATS, "spans": str(self.keep / "spans-long_words.bin")}
        if self.args.trace:
            plain = self.long_job(dict(job, trace=False, passes=1))
            traced = self.long_job(dict(job, trace=True, passes=1))
            return layer_metrics(self.trace_summary(traced), 0.0, 0.0, 0,
                                 traced["passes"][0]["wall"] - plain["passes"][0]["wall"])
        result = self.long_job(dict(job, trace=False))
        passes = result["passes"]
        scaled = [p["wall"] * REF_S / p["ref"] for p in passes]
        wall = statistics.median(scaled)
        calls = sorted(dt for p in passes for _, _, dt in p["queries"])
        tail = max(len(calls) - 11, 0)  # the highest percentile with 10 calls beyond it
        print(f"passes: {len(passes)} over {len(pairs)} pairs; measured wall s: "
              + " ".join(f"{p['wall']:.3f}" for p in passes))
        print("scaled to the reference speed: " + " ".join(f"{w:.3f}" for w in scaled))
        for verb in ("minimize", "equiv", "graph"):
            per_pass = [sum(dt for _, v, dt in p["queries"] if v == verb) for p in passes]
            print(f"{verb}_s = {statistics.median(per_pass):.6f} s (measured, median per pass)")
        print(f"query_p50_ms = {1000 * statistics.median(calls):.3f} ms over {len(calls)} calls")
        print(f"query_tail_ms = {1000 * calls[tail]:.3f} ms (p{100 * (tail + 1) / len(calls):.1f}, "
              f"{len(calls) - tail - 1} of {len(calls)} calls beyond it)")
        return {"wall_s": wall, "peak_rss_mb": result["peak_rss_mb"],
                "items_per_s": len(pairs) / wall}

    @staticmethod
    def trace_summary(result) -> dict:
        summary = result["trace"]
        if summary["missing"]:
            print("not traced, no longer in the package: " + " ".join(summary["missing"]),
                  file=sys.stderr)
        return summary

    def long_job(self, job) -> dict:
        code, result = self.driven(job)
        if code != 0 or result is None:
            raise SystemExit(f"long_words driven process exited with {code}")
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for p in result["failures"][:5]:
            print(f"check failed: {p}", file=sys.stderr)
        return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*CENSUS, "long_words"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true", help="lengths 0..8 and two word pairs")
    args = parser.parse_args()
    # a terminated run still kills and reaps its child processes (Run.child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "f2aut" / "__init__.py").is_file():
        print(f"no f2aut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = Run(args, load_fixtures(ROOT))
    except OSError as exc:
        print(f"golden fixtures missing: {exc}", file=sys.stderr)
        return 2
    run.tmp.mkdir(parents=True, exist_ok=True)
    run.keep.mkdir(exist_ok=True)
    setup_repeats = 0 if args.trace else SETUP_REPEATS
    try:
        run.child([sys.executable, "-c", "import f2aut"])  # untimed: warms the file cache
        run.setup_samples(setup_repeats)
        if args.workload == "long_words":
            measured = run.long_words()
        else:
            spec = dict(CENSUS[args.workload])
            if args.small:
                spec["top"] = 8
            measured = run.census(spec)
        run.setup_samples(setup_repeats)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.tmp.parent.rmdir()  # only when no other run is using it

    if args.trace:
        metrics = {name: {"value": measured[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    else:
        measured["setup_s"] = statistics.median(run.setup_times)
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"error_rate = {run.failed / max(run.attempted, 1)} "
          f"({run.failed} failed of {run.attempted} operations)")
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
