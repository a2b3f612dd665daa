"""The driven process: one census command, the enumeration rows/merge
calls, or the long-word passes, optionally traced.

Usage: python3 perfbench/driven.py JOB.json

run.py writes the job file and starts this script with src/ on the path,
so each measurement gets a fresh interpreter and its own peak RSS.  The
result, timings, check failures and the trace summary go to the job's
"result" file.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from layertrace import Tracer


def peak_rss_kb() -> int:
    """Largest peak resident set of this process and its reaped pool workers.

    For this process VmHWM is read rather than ru_maxrss, because Linux
    carries ru_maxrss across exec and it would include the peak of the
    benchmark process this one was started from.
    """
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, workers)


def reference_s() -> float:
    """Time of a fixed pure-Python computation that does not use f2aut.

    It walks the necklaces of length 10 over four letters the way the
    package's scan does (recursion, list indexing, string joins, dict
    updates), so the host's speed changes slow it as they slow the
    workload.  run.py scales each timing by it; see README.md.
    """
    n = 10
    a = [0] * (n + 1)
    counts = {}

    def rec(t, p):
        if t > n:
            if n % p == 0:
                w = "".join("abAB"[a[i]] for i in range(1, n + 1))
                counts[w[:3]] = counts.get(w[:3], 0) + 1
            return
        a[t] = a[t - p]
        rec(t + 1, p)
        for v in range(a[t - p] + 1, 4):
            a[t] = v
            rec(t + 1, t)

    t0 = perf_counter()
    rec(1, 1)
    return perf_counter() - t0


def census(job, tracer):
    """One `f2aut enumerate` invocation through the public entry point."""
    from f2aut.cli import main

    if tracer is not None:
        main = tracer.span("cli.main", main)
    ref = reference_s()
    t0 = perf_counter()
    code = main(job["argv"])
    wall = perf_counter() - t0
    sys.stdout.flush()
    return {"wall": wall, "ref": (ref + reference_s()) / 2, "code": code}


def rows(job, tracer):
    """enumerate_minimal and enumerate_classes at one length, timed apart."""
    from f2aut import enumerate_classes, enumerate_minimal

    n, workers = job["length"], job["workers"]
    t0 = perf_counter()
    words = enumerate_minimal(n, workers)
    t1 = perf_counter()
    records = enumerate_classes(n, workers)
    t2 = perf_counter()
    fails = []
    if len(records) != job["classes"]:
        fails.append(f"enumerate_classes({n}) gave {len(records)} classes, expected {job['classes']}")
    if len(words) != sum(r.size for r in records):
        fails.append(f"enumerate_minimal({n}) gave {len(words)} words, not the sum of class sizes")
    return {"rows_s": t1 - t0, "classes_s": t2 - t1, "failures": fails}


def long_words(job, tracer):
    """Passes over the seeded pairs: minimize, are_conjugate, build_graph.

    Runs job["passes"] passes, or at least job["min_passes"] and then more
    while the next would still end within job["seconds"].  Each verb call
    is timed alone, and the reference computation before and after each
    pass.  Outputs are checked after the pass, outside the timed region,
    and an output equal to one already checked for the same input is not
    checked again.
    """
    import checks
    from f2aut import are_conjugate, build_graph, minimize, replay_witness

    if tracer is not None:
        minimize = tracer.span("minimality.minimize", minimize)
        are_conjugate = tracer.span("minimality.are_conjugate", are_conjugate, tracer.witness)
        build_graph = tracer.span("class_graph.build_graph", build_graph, tracer.graph)
    pairs = json.loads(Path(job["pairs"]).read_text())
    verified = {}
    passes, fails = [], []
    attempted = failed = 0
    begin = perf_counter()
    while True:
        started = perf_counter()
        queries = []
        outputs = []
        ref = reference_s()
        t_pass = perf_counter()
        for i, pair in enumerate(pairs):
            out = {}
            for verb, call in (
                ("minimize", lambda: minimize(pair["w"])),
                ("equiv", lambda: are_conjugate(pair["w"], pair["v"])),
                ("graph", lambda: build_graph(out["minimize"][0])),
            ):
                t0 = perf_counter()
                try:
                    out[verb] = call()
                except Exception:  # a crash is a failed operation, not a crashed benchmark
                    out[verb] = traceback.format_exc(limit=3)
                queries.append((i, verb, perf_counter() - t0))
                if verb == "minimize" and isinstance(out[verb], str):
                    out["graph"] = "skipped: minimize failed"
                    break
            outputs.append(out)
        wall = perf_counter() - t_pass
        passes.append({"wall": wall, "ref": (ref + reference_s()) / 2, "queries": queries})

        for i, (pair, out) in enumerate(zip(pairs, outputs)):
            for verb in ("minimize", "equiv", "graph"):
                attempted += 1
                result = out.get(verb)
                key = (i, verb)
                if key in verified and verified[key][0] == result:
                    problems = verified[key][1]
                elif isinstance(result, str):
                    problems = [f"{pair['kind']} {verb} raised: {result}"]
                elif verb == "minimize":
                    problems = checks.check_minimize(pair, result)
                elif verb == "equiv":
                    problems = checks.check_equiv(pair, result, replay_witness)
                else:
                    problems = checks.check_graph(pair, result)
                verified[key] = (result, problems)
                if problems:
                    failed += 1
                    fails.extend(problems)
        now = perf_counter()
        if job.get("passes"):
            if len(passes) >= job["passes"]:
                break
        elif len(passes) >= job["min_passes"] and 2 * now - started - begin > job["seconds"]:
            break
    return {"passes": passes, "attempted": attempted,
            "failed": failed, "failures": fails[:20]}


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if job["trace"]:
        tracer = Tracer(top_length=job.get("top_length"))
        tracer.install()
    result = {"census": census, "rows": rows, "long_words": long_words}[job["mode"]](job, tracer)
    result["peak_rss_mb"] = peak_rss_kb() / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
