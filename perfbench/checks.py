"""Output checks for the benchmark.

Every check returns a list of failure messages; an empty list means the
output is correct.  The census checks read only the files the command
wrote and the golden fixtures under tests/data; the long-word checks use
the independent oracle in words.py plus the package's own witness replay.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

from words import cyclic_core, is_minimal

GRAPH_TYPES = ("P1", "P2", "P3", "R1", "R2", "R3", "R4", "R5", "R6", "R7")
PATH_TYPES = ("P1", "P2", "P3")


def load_fixtures(root: Path):
    data = root / "tests" / "data"
    return (
        json.loads((data / "type_counts.json").read_text()),
        json.loads((data / "size_histograms.json").read_text()),
    )


def tree_digest(out_dir: Path, pattern: str = "*") -> str:
    """sha256 over the relative names and bytes of the files under out_dir."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob(pattern) if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def tree_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def _read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def check_census_tree(out_dir: Path, lengths, type_fixture, size_fixture,
                      report: bool = False) -> list:
    """The --out tree of `f2aut enumerate` against the golden fixtures.

    Per length: type counts equal the fixture, the classes_<n>.jsonl lines
    agree with type_counts.csv, the vertex total equals the sum of class
    sizes, and the P1-P3 size histograms (from the JSONL records and from
    sizes_<type>.csv) equal the fixture.  With report, the coincidence scan
    must list no counterexample and the conjecture report no mismatch.
    """
    fails = []
    try:
        rows = _read_csv(out_dir / "type_counts.csv")
    except OSError as exc:
        return [f"type_counts.csv: {exc}"]
    header = ["n", *GRAPH_TYPES, "classes", "vertices"]
    if not rows or rows[0] != header:
        return [f"type_counts.csv header {rows[:1]}"]
    try:
        table = {int(r[0]): dict(zip(header[1:], map(int, r[1:]))) for r in rows[1:]}
    except ValueError as exc:
        return [f"type_counts.csv: {exc}"]
    if sorted(table) != list(lengths):
        fails.append(f"type_counts.csv lengths {sorted(table)}")

    for n in lengths:
        row = table.get(n, {})
        golden = {g: type_fixture[str(n)].get(g, 0) for g in GRAPH_TYPES}
        if {g: row.get(g) for g in GRAPH_TYPES} != golden:
            fails.append(f"n={n}: type counts differ from tests/data/type_counts.json")
        try:
            records = [json.loads(line) for line in
                       (out_dir / f"classes_{n}.jsonl").read_text().splitlines()]
        except (OSError, ValueError) as exc:
            fails.append(f"classes_{n}.jsonl: {exc}")
            continue
        types = Counter(r["type"] for r in records)
        if {g: types.get(g, 0) for g in GRAPH_TYPES} != golden:
            fails.append(f"n={n}: classes_{n}.jsonl type counts differ from the fixture")
        if row.get("classes") != len(records):
            fails.append(f"n={n}: {row.get('classes')} classes in the table, {len(records)} records")
        if row.get("vertices") != sum(r["size"] for r in records):
            fails.append(f"n={n}: vertex total {row.get('vertices')} is not the sum of class sizes")
        for g in PATH_TYPES:
            sizes = Counter(str(r["size"]) for r in records if r["type"] == g)
            if dict(sizes) != size_fixture[g].get(str(n), {}):
                fails.append(f"n={n}: {g} size histogram differs from tests/data/size_histograms.json")

    for g in PATH_TYPES:
        try:
            rows = _read_csv(out_dir / f"sizes_{g}.csv")
            sizes = rows[0][1:]
            hist = {int(r[0]): {s: int(c) for s, c in zip(sizes, r[1:]) if int(c)} for r in rows[1:]}
        except (OSError, IndexError, ValueError) as exc:
            fails.append(f"sizes_{g}.csv: {exc}")
            continue
        for n in lengths:
            if hist.get(n, {}) != size_fixture[g].get(str(n), {}):
                fails.append(f"n={n}: sizes_{g}.csv differs from tests/data/size_histograms.json")

    if report:
        expected = [f"n={n}: 0 counterexamples" for n in lengths]
        try:
            scan = (out_dir / "coincidence_scan.txt").read_text().splitlines()
            conj = (out_dir / "conjectures.txt").read_text()
        except OSError as exc:
            return fails + [str(exc)]
        if scan != expected:
            fails.append("coincidence_scan.txt does not report 0 counterexamples at every length")
        if not conj.startswith("conjecture report") or "MISMATCH" in conj or "OUT OF RANGE" in conj:
            fails.append("conjectures.txt reports a mismatch")
    return fails


def check_census_stdout(text: str, lengths, type_fixture) -> list:
    """The --format json summary printed by `f2aut enumerate`."""
    try:
        payload = json.loads(text)
        counts, vertices = payload["type_counts"], payload["vertex_totals"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"stdout is not the census JSON: {exc}"]
    fails = []
    for n in lengths:
        golden = {g: type_fixture[str(n)].get(g, 0) for g in GRAPH_TYPES}
        if counts.get(str(n)) != golden:
            fails.append(f"n={n}: stdout type counts differ from the fixture")
        if not isinstance(vertices.get(str(n)), int):
            fails.append(f"n={n}: stdout has no vertex total")
    return fails


def check_minimize(pair: dict, result) -> list:
    """minimize(w) must return a minimal word as long as the pair's base."""
    minimal = result[0]
    fails = []
    if len(minimal) != len(pair["base"]):
        fails.append(f"{pair['kind']}: minimize gave length {len(minimal)}, base has {len(pair['base'])}")
    if cyclic_core(minimal) != minimal or not is_minimal(minimal):
        fails.append(f"{pair['kind']}: minimize result is not a minimal cyclic word")
    return fails


def check_equiv(pair: dict, result, replay_witness) -> list:
    """are_conjugate(w, v): the expected answer, and a witness that replays."""
    flag, tokens = result
    if flag != pair["equivalent"]:
        return [f"{pair['kind']}: are_conjugate returned {flag}, expected {pair['equivalent']}"]
    if not flag:
        return []
    try:
        landed = replay_witness(pair["w"], tokens)
    except (ValueError, TypeError, AssertionError) as exc:
        return [f"{pair['kind']}: witness does not replay: {exc}"]
    if landed != cyclic_core(pair["v"]):
        return [f"{pair['kind']}: witness does not land on cyclic_reduce(v)"]
    return []


def check_graph(pair: dict, graph) -> list:
    """build_graph(minimize(w)[0]): a valid shape over minimal words of the base's length."""
    fails = []
    if graph.gtype not in GRAPH_TYPES:
        fails.append(f"{pair['kind']}: graph type {graph.gtype!r}")
    if pair["vertices"] is not None and len(graph.vertices) != pair["vertices"]:
        fails.append(f"{pair['kind']}: graph has {len(graph.vertices)} vertices, expected {pair['vertices']}")
    if not graph.vertices or any(
        len(v) != len(pair["base"]) or not is_minimal(v) for v in graph.vertices
    ):
        fails.append(f"{pair['kind']}: graph vertices are not minimal words of the base's length")
    return fails
