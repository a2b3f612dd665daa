"""Exhaustive enumeration of automorphic conjugacy classes by word length.

Pipeline, per length n:

1. generate every cyclically reduced necklace (least rotation) containing
   the letter a, with a Duval-style scan over letter codes;
2. keep the words that are minimal: principal_deltas has no negative entry;
3. keep the least representative mod rotation and signed permutation (no
   _rotation_keys key is below the word's own), so each surviving word is
   one vertex of one class graph;
4. for each vertex apply the principal automorphisms with length change 0,
   reduce the images to their canonical forms, and union the endpoints;
5. assemble one ClassGraph per union component and number the classes
   by ascending (size, least word).

Shards are defined by forced word prefixes, so results are identical for
any worker count: shard outputs are concatenated in prefix order.
principal_coincidence_scan reads the records instead of enumerating again.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .automorphism import PRINCIPALS, _rotation_keys, apply_cyclic, canonical_word
from .class_graph import GRAPH_TYPES as GRAPH_TYPE_ORDER  # census column order, re-exported
from .class_graph import ClassGraph, TheoremViolation, _assemble
from .minimality import principal_deltas
from .word_core import inverse_letter, letter_tally, order_key, pair_counts, weight

_CODE = {"a": 0, "b": 1, "A": 2, "B": 3}
_LETTERS = "abAB"


def _necklace_scan(n: int, prefix: str, visit) -> None:
    """Call visit(w) for every cyclically reduced necklace of length n that
    starts with the given prefix, in ascending order.

    Duval's algorithm over codes a=0 < b=1 < A=2 < B=3 (inverse = code ^ 2),
    restricted on the fly: no adjacent inverse pair, and the wrap pair is
    checked at output.  Killing a prefix with an inverse pair removes only
    non-reduced completions, so the period bookkeeping is unaffected.
    """
    assert 1 <= len(prefix) <= n and prefix[0] == "a"
    pre = [_CODE[ch] for ch in prefix]
    forced = len(pre)
    a = [0] * (n + 1)
    a[1] = pre[0]

    def rec(t: int, p: int) -> None:
        if t > n:
            if n % p == 0 and a[n] != (a[1] ^ 2):
                visit("".join(_LETTERS[a[i]] for i in range(1, n + 1)))
            return
        prev_inv = a[t - 1] ^ 2
        lo = a[t - p]
        if t <= forced:
            v = pre[t - 1]
            if v >= lo and v != prev_inv:
                a[t] = v
                rec(t + 1, p if v == lo else t)
            return
        if lo != prev_inv:
            a[t] = lo
            rec(t + 1, p)
        for v in range(lo + 1, 4):
            if v != prev_inv:
                a[t] = v
                rec(t + 1, t)

    rec(2, 1)


def _shard_job(args) -> list:
    """One shard: (vertex word, [(principal index, canonical image), ...]) rows."""
    n, prefix = args
    rows = []

    def visit(w: str) -> None:
        # pair_counts stays a module-global call: perfbench/layertrace.py counts necklaces there
        deltas = principal_deltas(*letter_tally(w), pair_counts(w))
        if min(deltas) < 0:
            return  # not minimal
        tw = order_key(w)
        if not all(key >= tw for key in _rotation_keys(w)):
            return  # a rotation of a permutation image is smaller
        images = [
            (p, canonical_word(apply_cyclic(phi, w)))
            for p, (phi, delta) in enumerate(zip(PRINCIPALS, deltas), start=1)
            if delta == 0
        ]
        rows.append((w, images))

    _necklace_scan(n, prefix, visit)
    return rows


def _shard_prefixes(n: int) -> list:
    """Lexicographically ordered forced prefixes partitioning length-n output."""
    if n < 8:
        return ["a"]
    plen = 4 if n < 18 else 5
    prefixes = ["a"]
    for _ in range(plen - 1):
        prefixes = [
            p + ch for p in prefixes for ch in _LETTERS if ch != inverse_letter(p[-1])
        ]
    return prefixes


def _minimal_rows(n: int, workers: int = 1) -> list:
    """All vertex rows for length n, in ascending vertex order."""
    assert n >= 0 and workers >= 1
    if n == 0:
        return [("", [(p, "") for p in (1, 2, 3, 4)])]
    jobs = [(n, prefix) for prefix in _shard_prefixes(n)]
    if workers > 1 and len(jobs) > 1:
        with multiprocessing.Pool(workers) as pool:
            chunks = pool.map(_shard_job, jobs)
    else:
        chunks = [_shard_job(job) for job in jobs]
    return [row for chunk in chunks for row in chunk]


def enumerate_minimal(n: int, workers: int = 1) -> list:
    """Every minimal word of length n that is least in its class mod
    rotation and signed permutation, in ascending order."""
    return [w for w, _ in _minimal_rows(n, workers)]


@dataclass(frozen=True)
class ClassRecord:
    """One automorphic conjugacy class of cyclic words of a given length."""

    class_id: str
    length: int
    size: int
    weight: int
    gtype: str
    graph: ClassGraph

    @property
    def representatives(self) -> tuple:
        return self.graph.vertices


def enumerate_classes(n: int, workers: int = 1) -> list:
    """All classes at length n as ClassRecord values, numbered n.1, n.2, ...
    ascending by (size, least vertex)."""
    rows = _minimal_rows(n, workers)
    index = {w: i for i, (w, _) in enumerate(rows)}
    parent = list(range(len(rows)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (w, images) in enumerate(rows):
        for _, c in images:
            j = index.get(c)
            if j is None:
                raise TheoremViolation(
                    f"canonical image {c!r} of vertex {w!r} missing from enumeration"
                )
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj

    members = defaultdict(list)
    for i in range(len(rows)):
        members[find(i)].append(i)

    graphs = []
    for group in members.values():
        vertex_words = [rows[i][0] for i in group]
        edge_words = [(rows[i][0], c, p) for i in group for p, c in rows[i][1]]
        graphs.append(_assemble(vertex_words, edge_words))
    graphs.sort(key=lambda g: (len(g.vertices), order_key(g.vertices[0])))

    return [
        ClassRecord(f"{n}.{k}", n, len(g.vertices), weight(g.vertices[0]), g.gtype, g)
        for k, g in enumerate(graphs, start=1)
    ]


@dataclass
class CensusTables:
    """Aggregates over all enumerated lengths."""

    type_counts: dict  # n -> Counter{gtype: classes}
    size_counts: dict  # gtype -> n -> Counter{size: classes} for P1, P2, P3
    class_stats: dict  # n -> Counter{(gtype, weight, size, is_root): classes}
    class_totals: dict  # n -> classes
    vertex_totals: dict  # n -> minimal words mod rotation+permutation


def census(lengths, workers: int = 1, sink=None) -> CensusTables:
    """Enumerate every length in lengths, aggregating into CensusTables.

    sink, when given, is called as sink(n, records) after each length.
    """
    tables = CensusTables({}, {g: {} for g in ("P1", "P2", "P3")}, {}, {}, {})
    for n in sorted(lengths):
        records = enumerate_classes(n, workers)
        types = Counter()
        stats = Counter()
        vertices = 0
        for rec in records:
            types[rec.gtype] += 1
            stats[(rec.gtype, rec.weight, rec.size, rec.graph.is_root_class)] += 1
            vertices += rec.size
            if rec.gtype in tables.size_counts:
                tables.size_counts[rec.gtype].setdefault(n, Counter())[rec.size] += 1
        tables.type_counts[n] = types
        tables.class_stats[n] = stats
        tables.class_totals[n] = len(records)
        tables.vertex_totals[n] = vertices
        if sink is not None:
            sink(n, records)
    return tables


def expected_class_size(tables: CensusTables, n: int) -> Fraction:
    """Exact mean number of vertices per class at length n."""
    return Fraction(tables.vertex_totals[n], tables.class_totals[n])


def _count_classes(tables, n, size=None, gtype=None, wt=None, nonroot=False):
    total = 0
    for (g, w, s, root), c in tables.class_stats[n].items():
        if size is not None and s != size:
            continue
        if gtype is not None and g != gtype:
            continue
        if wt is not None and w != wt:
            continue
        if nonroot and root:
            continue
        total += c
    return total


# Apparent limit of the number of classes of size n - k, k = 0..11, as n grows.
LIMIT_SEQUENCE = (0, 0, 0, 0, 0, 5, 12, 17, 24, 67, 196, 437)


def _weight4_singleton_expected(n: int) -> Fraction:
    r = n % 4
    if r == 0:
        num = 2 * n**3 - 36 * n**2 + 244 * n - 540
    elif r == 1:
        num = 2 * n**3 - 36 * n**2 + 241 * n - 537
    elif r == 2:
        num = 2 * n**3 - 36 * n**2 + 244 * n - 546
    else:
        num = 2 * n**3 - 36 * n**2 + 241 * n - 537
    return Fraction(num, 6)


def conjecture_report(tables: CensusTables) -> dict:
    """Observed-versus-predicted report for the counting conjectures.

    Every item carries ok flags; nothing here raises on a mismatch.
    """
    ns = sorted(tables.type_counts)
    report = {"lengths": ns}

    # (a) classes of size n-k: counts along the diagonal stabilize as n grows
    tail = ns[-3:]
    diag = []
    for k in range(len(LIMIT_SEQUENCE)):
        all_counts = {n: _count_classes(tables, n, size=n - k) for n in tail if n - k >= 1}
        p1_counts = {
            n: tables.size_counts["P1"].get(n, Counter()).get(n - k, 0)
            for n in tail
            if n - k >= 1
        }
        full = len(all_counts) == len(tail) == 3
        all_stable = full and len(set(all_counts.values())) == 1
        p1_stable = full and len(set(p1_counts.values())) == 1
        newest = max(p1_counts) if p1_counts else None
        diag.append(
            {
                "k": k,
                "limit": LIMIT_SEQUENCE[k],
                "all_counts": all_counts,
                "p1_counts": p1_counts,
                "all_stable": all_stable,
                "p1_stable": p1_stable,
                "all_match": all_stable and set(all_counts.values()) == {LIMIT_SEQUENCE[k]},
                "p1_match": p1_stable and set(p1_counts.values()) == {LIMIT_SEQUENCE[k]},
                # the diagonal reaches its limit from above: the value at the
                # newest length is the one expected to equal the limit first
                "p1_newest": p1_counts.get(newest),
                "p1_newest_match": p1_counts.get(newest) == LIMIT_SEQUENCE[k],
            }
        )
    report["large_class_diagonal"] = diag

    # (b) weight-4 classes of the plain path type with size n-k
    rows = []
    for k in range(4, max(ns) // 2 + 3):
        expected = 6 * k - 24 if k % 2 == 0 else 6 * k - 25
        for n in ns:
            if n >= max(2 * k - 2, 9) and n - k >= 1:
                actual = _count_classes(tables, n, size=n - k, gtype="P1", wt=4)
                rows.append(
                    {"k": k, "n": n, "expected": expected, "actual": actual, "ok": actual == expected}
                )
    report["weight4_path_by_deficit"] = rows

    # (c)-(f) non-root singleton classes by weight
    singles = {}
    specs = (
        ("weight2", 2, 5, lambda n: Fraction(n - 2 if n % 2 == 0 else n - 3)),
        ("weight3", 3, 7, lambda n: Fraction(3 * n - 11)),
        ("weight4", 4, 9, _weight4_singleton_expected),
        ("weight5", 5, 11, lambda n: Fraction(35 * n**3 - 645 * n**2 + 3988 * n - 8262, 6)),
    )
    for name, wt, n_min, fn in specs:
        rows = []
        for n in ns:
            if n >= n_min:
                expected = fn(n)
                actual = _count_classes(tables, n, size=1, wt=wt, nonroot=True)
                rows.append(
                    {
                        "n": n,
                        "expected": str(expected),
                        "actual": actual,
                        "ok": expected == actual,
                    }
                )
        singles[name] = rows
    report["nonroot_singletons"] = singles

    # (g) weight-6 plain-path classes of size n-k settle at fixed counts
    settled = {9: 38, 10: 160, 11: 396, 12: 800}
    rows = []
    for k, expected in settled.items():
        for n in ns:
            if n >= 2 * k - 5 and n - k >= 1:
                actual = _count_classes(tables, n, size=n - k, gtype="P1", wt=6)
                rows.append(
                    {"k": k, "n": n, "expected": expected, "actual": actual, "ok": actual == expected}
                )
    report["weight6_path_by_deficit"] = rows

    # (h) mean class size stays within [1, 1.76)
    rows = []
    for n in ns:
        mean = expected_class_size(tables, n)
        rows.append(
            {
                "n": n,
                "mean": str(mean),
                "mean_float": float(mean),
                "ok": 1 <= mean < Fraction(176, 100),
            }
        )
    report["mean_class_size"] = rows
    return report


def render_conjecture_report(report: dict) -> str:
    lines = ["conjecture report", f"lengths: {report['lengths']}", ""]

    lines.append("classes of size n-k (counts at the three largest lengths):")
    for row in report["large_class_diagonal"]:
        if row["p1_match"]:
            mark = "MATCH"
        elif row["p1_newest_match"]:
            mark = "reached at newest n"
        else:
            mark = "open"
        fmt = lambda d: " ".join(f"n{n}={d[n]}" for n in sorted(d))
        lines.append(
            f"  k={row['k']:2d} limit={row['limit']:4d}"
            f"  all: {fmt(row['all_counts'])}"
            f"  plain-path: {fmt(row['p1_counts'])} [{mark}]"
        )

    lines.append("")
    lines.append("weight-4 plain-path classes of size n-k:")
    for row in report["weight4_path_by_deficit"]:
        mark = "ok" if row["ok"] else "MISMATCH"
        lines.append(
            f"  k={row['k']:2d} n={row['n']:2d} expected={row['expected']:4d}"
            f" actual={row['actual']:4d} [{mark}]"
        )

    lines.append("")
    lines.append("non-root singleton classes by weight:")
    for name, rows in report["nonroot_singletons"].items():
        for row in rows:
            mark = "ok" if row["ok"] else "MISMATCH"
            lines.append(
                f"  {name} n={row['n']:2d} expected={row['expected']:>8s}"
                f" actual={row['actual']:6d} [{mark}]"
            )

    lines.append("")
    lines.append("weight-6 plain-path classes of size n-k:")
    if report["weight6_path_by_deficit"]:
        for row in report["weight6_path_by_deficit"]:
            mark = "ok" if row["ok"] else "MISMATCH"
            lines.append(
                f"  k={row['k']:2d} n={row['n']:2d} expected={row['expected']:4d}"
                f" actual={row['actual']:4d} [{mark}]"
            )
    else:
        lines.append("  no computed length reaches the settled range")

    lines.append("")
    lines.append("mean class size per length:")
    for row in report["mean_class_size"]:
        mark = "ok" if row["ok"] else "OUT OF RANGE"
        lines.append(f"  n={row['n']:2d} mean={row['mean']:>12s} ~ {row['mean_float']:.4f} [{mark}]")
    return "\n".join(lines)


def principal_coincidence_scan(records) -> list:
    """Check, for every vertex of one length's records, the implications
    among coincidences of the four principal image classes; returns the
    counterexamples found, in ascending vertex order.

    With c_i the canonical form of the i-th principal image, the scanned
    implications are 1=2 <=> 3=4, 1=3 => 2=4, and 1=4 <=> 2=3.
    """
    failures = []
    vertices = sorted((w for rec in records for w in rec.representatives), key=order_key)
    for w in vertices:
        c = [canonical_word(apply_cyclic(phi, w)) for phi in PRINCIPALS]
        for rule, hyp, conc in (
            ("12=>34", c[0] == c[1], c[2] == c[3]),
            ("34=>12", c[2] == c[3], c[0] == c[1]),
            ("13=>24", c[0] == c[2], c[1] == c[3]),
            ("14=>23", c[0] == c[3], c[1] == c[2]),
            ("23=>14", c[1] == c[2], c[0] == c[3]),
        ):
            if hyp and not conc:
                failures.append({"word": w, "rule": rule, "images": list(c)})
    return failures
