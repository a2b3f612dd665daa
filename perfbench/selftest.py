"""Self-test of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload in small mode (lengths 0..8, two word pairs), with
   and without tracing, and checks that the last line is the result object
   and that every metric named in BENCHMARK.json is printed with its unit.
2. Feeds corrupted outputs to the checkers (an altered type count, a
   vertex total that is not the sum of class sizes, a truncated witness, a
   wrong answer, a non-minimal word, ...) and requires each to be caught.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from words import make_pairs  # noqa: E402

TMP = ROOT / ".perfbench_tmp" / "selftest"
failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_printed_metrics() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                expect(False, f"{workload} trace={trace}: last line is a result\n{proc.stderr}")
                continue
            expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: exit 0, correct, nothing failed")
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: every {key} metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{workload} trace={trace}: every value is a number")
            text = "\n".join(lines[:-1])
            expect(all(f"{name} = " in text and f" {unit}\n" in text + "\n"
                       for name, unit in wanted.items()),
                   f"{workload} trace={trace}: every metric printed by name with its unit")


def check_census_checkers() -> None:
    from f2aut.cli import main

    fixtures = checks.load_fixtures(ROOT)
    lengths = range(9)
    out = TMP / "census"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(["enumerate", "--lengths", "0..8", "--workers", "1", "--out", str(out),
              "--format", "json", "--check-conjectures", "--scan-coincidences"])
    text = stdout.getvalue()

    def census_fails():
        return checks.check_census_tree(out, lengths, *fixtures, report=True)

    expect(census_fails() == [], "census tree of lengths 0..8 passes")
    expect(checks.check_census_stdout(text, lengths, fixtures[0]) == [], "census stdout passes")
    digest = checks.tree_digest(out)

    def corrupted(path: Path, old: str, new: str, what: str) -> None:
        original = path.read_bytes()
        assert old.encode() in original, (path, old)
        path.write_bytes(original.replace(old.encode(), new.encode(), 1))
        expect(census_fails() != [], f"caught: {what}")
        expect(checks.tree_digest(out) != digest, f"digest moves: {what}")
        path.write_bytes(original)

    corrupted(out / "type_counts.csv", "8,22,0,8", "8,23,0,8", "altered type count")
    corrupted(out / "type_counts.csv", ",43,67", ",43,68", "vertex total not the sum of sizes")
    corrupted(out / "classes_8.jsonl", '"size": 1', '"size": 2', "altered class size")
    corrupted(out / "sizes_P1.csv", "8,22", "8,21", "altered size histogram")
    corrupted(out / "coincidence_scan.txt", "n=8: 0", "n=8: 1", "counterexample reported")
    corrupted(out / "conjectures.txt", "[ok]", "[MISMATCH]", "conjecture mismatch")
    (out / "classes_5.jsonl").rename(out / "moved.jsonl")
    expect(census_fails() != [], "caught: missing classes file")
    (out / "moved.jsonl").rename(out / "classes_5.jsonl")
    expect(checks.check_census_stdout(text.replace('"R4": 1', '"R4": 2', 1), lengths, fixtures[0]) != [],
           "caught: altered type count on stdout")
    expect(checks.check_census_stdout(text[: len(text) // 2], lengths, fixtures[0]) != [],
           "caught: truncated stdout")
    expect(census_fails() == [] and checks.tree_digest(out) == digest, "restored tree passes again")


def check_long_word_checkers() -> None:
    from f2aut import are_conjugate, build_graph, minimize, replay_witness

    positive, negative = make_pairs(7, small=True)
    minimal = minimize(positive["w"])
    equiv = are_conjugate(positive["w"], positive["v"])
    graph = build_graph(minimal[0])
    expect(checks.check_minimize(positive, minimal) == [], "minimize output passes")
    expect(checks.check_equiv(positive, equiv, replay_witness) == [], "positive witness passes")
    expect(checks.check_graph(positive, graph) == [], "graph output passes")
    expect(checks.check_equiv(negative, are_conjugate(negative["w"], negative["v"]), replay_witness) == [],
           "negative pair passes")

    flag, tokens = equiv
    expect(checks.check_equiv(positive, (flag, tokens[:-1]), replay_witness) != [],
           "caught: truncated witness")
    expect(checks.check_equiv(positive, (flag, tokens[:-1] + ("W[a,b]",)), replay_witness) != [],
           "caught: altered witness step")
    expect(checks.check_equiv(positive, (flag, ("X[a]",) + tokens), replay_witness) != [],
           "caught: malformed witness token")
    expect(checks.check_equiv(positive, (False, None), replay_witness) != [],
           "caught: equivalent pair answered False")
    expect(checks.check_equiv(negative, (True, tokens), replay_witness) != [],
           "caught: negative pair answered True")
    expect(checks.check_minimize(positive, (minimal[0][:-1], minimal[1])) != [],
           "caught: minimize result of the wrong length")
    expect(checks.check_minimize(positive, (positive["w"], ())) != [],
           "caught: minimize result not minimal")
    shrunk = type(graph)(graph.vertices[:-1], graph.edges, graph.is_root_class,
                         graph.has_alternating, graph.gtype)
    expect(checks.check_graph(dict(positive, vertices=len(graph.vertices)), shrunk) != [],
           "caught: graph missing a vertex")
    expect(checks.check_graph(positive, type(graph)(("ab" * len(positive["base"]),), (), False, False, "P1")) != [],
           "caught: graph vertex that is not minimal of the right length")


def check_bare_directory() -> None:
    bare = TMP / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "census", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "fails without a result in a directory holding only the benchmark")


def main() -> int:
    shutil.rmtree(TMP, ignore_errors=True)
    TMP.mkdir(parents=True)
    try:
        check_census_checkers()
        check_long_word_checkers()
        check_bare_directory()
        check_printed_metrics()
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
