"""Exhaustive enumeration of automorphic conjugacy classes by word length.

Pipeline, per length n:

1. scan the cyclically reduced necklaces (least rotations) containing the
   letter a with Duval's recursion over letter codes, carrying the a-type
   tally, the digraph counts ab, aB and the non-identity signed
   permutation images still tied with the prefix down the recursion, read
   each letter with its count increments off a table of the letters that
   may follow the previous one, and drop each subtree in which no
   completion can be minimal or least mod signed permutation.  The scan
   hands each word it keeps on and stores nothing (_shard_rows);
2. the last letter's table adds the wrap digraph, so there the minimality
   bound is exact and a necklace that passes it is minimal; with both
   tallies above it, every principal lengthens the word, which is
   edge-free.  Only these words are built as strings, with one
   translate, and an edge-free one goes out as chr(W) + w, W its weight;
3. keep the least representative mod rotation and signed permutation.  A
   rotation of an image below the word starts at a run as long as its
   leading a-run, so the scan compares each such image with the prefix,
   letter by letter, from the run's start (the b<->B image from rotation
   0), drops the subtree of any that falls below, and finishes the images
   still tied at letter n on the wrapped-around letters.  Each surviving
   word is one vertex of one class graph;
4. _shard_job's visitor, which gets only the words with a level
   principal, builds their rows with minimality.vertex_row into one
   store: each level edge is canonicalized at the end whose row comes
   first, which hands its reverse on unless the store holds the other's
   row.  No row is built for an edge-free word, nor for enumerate_minimal;
5. the job counts each edge-free word's class (P1, one vertex) from the
   entry it receives and keeps the entry as its line, counts a class whose
   level images are all its word as the visitor gets the word, and stores
   the other rows; it then closes the class of each row left in the
   store, once, with minimality.level_closure over that store and reverse
   table, drops its rows, owns it if its least vertex is the row, and
   counts it by (type, weight, size, root) from class_graph._assemble's
   fields and, if class output is wanted, renders its JSON line with
   class_graph._to_json, the one writer; under coincidences it scans
   each word as it is handed on;
6. census adds the shard counts into class_stats, its one table, checks
   that the class sizes add up to the words handed on, numbers the lines
   n.1, n.2, ... by size, then shard order: ascending (size, least word),
   putting each edge-free word into the line template of its weight.
   A ClassRecord, read back from a line, is that number and the graph.

Shards are forced word prefixes, so the output is the same for any worker
count.  With one worker each length is one job.  With more, one pool takes
every length: the largest is split into prefix shards, each smaller length
is one job, and the workers finish length n + 1 while the parent writes
length n.  A whole-length job repeats nothing, where shards canonicalize
an edge between them from both ends and close classes over each other's
rows, and the smaller lengths run beside the largest one's shards.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .automorphism import (
    ALL_PERMUTATIONS,
    PRINCIPALS,
    _align,
    _apply_cyclic,
    canonical_word,
)
from .class_graph import GRAPH_TYPES as GRAPH_TYPE_ORDER  # census column order, re-exported
from .class_graph import ClassGraph, TheoremViolation, _assemble, _to_json
from .minimality import _exponent_sums, _shrinking, level_closure, principal_deltas, vertex_row
from .word_core import LETTERS, _ab_counts, inverse_letter, weight

_CODE = {"a": 0, "b": 1, "A": 2, "B": 3}
_WORD = bytes.maketrans(bytes(range(4)), LETTERS.encode())  # letter codes -> the word's bytes


def _steps(x: str, lo: int, z: str = "") -> tuple:
    """(v, a-type letter, ab, aB) for each code v >= lo, ascending, that may
    follow the letter x (and precede z, the first letter, if v is the last):
    the count increments of placing v, with the digraphs of x v z."""
    allowed = [(v, y) for v, y in enumerate(LETTERS) if v >= lo and inverse_letter(y) not in (x, z)]
    return tuple((v, 1 - (v & 1), *_ab_counts(x + y + z)) for v, y in allowed)


_NEXT = tuple(tuple(_steps(x, lo) for lo in range(4)) for x in LETTERS)  # [prev][lo]
_LAST = tuple(tuple(_steps(x, lo, "a") for lo in range(4)) for x in LETTERS)  # [prev][lo]; every word starts with a

# code x -> the code maps (image code by code) of the signed permutations
# other than the identity that send x to a
_MAPS_TO_A = tuple(
    [m for pi in ALL_PERMUTATIONS[1:] if (m := tuple(_CODE[pi(c)] for c in LETTERS))[x] == 0]
    for x in range(4)
)


def _shard_rows(n: int, prefix: str, visit, edge_free) -> tuple:
    """Hand each vertex w of length n that starts with prefix on, ascending:
    an edge-free one, whose principal_deltas are all positive, to
    edge_free(chr(W) + w), W its weight, and any other to visit(w, pc,
    deltas), with its pair_counts fields as a plain tuple and its
    principal_deltas.  Return (kept, leaves): the words handed on, which
    census checks against the class sizes, and the necklaces that reached
    the last letter's test of the tied images.  Every prefix starts with
    a, as every necklace that contains a does.

    Duval's algorithm over codes a=0 < b=1 < A=2 < B=3 (inverse = code ^ 2)
    visits the cyclically reduced necklaces, reading each letter off
    _NEXT[prev][lo], lo = a[t - p], and the last off _LAST[prev][lo], whose
    steps also precede the first letter, a (see _steps).  Killing a prefix
    with an inverse pair removes only non-reduced completions, so the
    period bookkeeping is unaffected.  The recursion adds up the a-type
    tally and the digraph counts ab, aB of the letters placed, the wrap
    digraph with the last letter; aa and bb follow as in pair_counts.  The
    last letter v gives a necklace unless v == lo and p does not divide n.
    Two rules drop a subtree early:

    - tally + remaining < 2 max(ab, aB) for either generator: the counts
      only grow, so principal_deltas goes negative on every completion.
      At the last letter this is exactly a negative principal_deltas, and
      both tallies above 2 max(ab, aB) are exactly four positive ones;
    - a tied image falls below the prefix.  The b<->B image is tied at
      rotation 0, and once a run starting at s is as long as the leading
      a-run, each non-identity signed permutation m sending its letter to
      a is tied at s: m(a) rotated to s starts like a.  Each further
      letter a[t] compares m(a[t]) with a[t - s + 1]: smaller drops the
      subtree, larger drops m, equal keeps it tied.

    A rotation of a non-identity image below a necklace starts with as
    many a's as the necklace's leading a-run: at rotation 0 or at a run
    at least that long, which Duval's rule keeps from crossing the wrap.
    No run is longer: one letter past that length a run falls below its
    own tied images, and a B right after the leading a-run falls below
    the b<->B image.  So an image below the necklace was tied from the
    start of its run and, not having fallen below on the placed letters,
    is still tied after the last letter, whose branch finishes it on the
    wrapped-around letters: m(a[1..s-1]) against a[n-s+2..n].  That branch
    updates the run and the tied images first, since a run that ends at
    the last letter starts images that only the wrap finishes.
    """
    if n < 2:  # "" or "a": one vertex, of principal_deltas (n, n, 0, 0), whose level images are itself
        visit("a" * n, (0, 0, 0, 0), (n, n, 0, 0))
        return 1, 1
    pre = [_CODE[ch] for ch in prefix]
    forced = len(pre)
    a = [0] * (n + 1)  # a[1] is a, as every prefix starts with a
    kept = leaves = 0

    def rec(t, p, tally, ab, aB, run, cap, tied):
        # a[1..t-1] placed; run is the length of its last run, cap that of its
        # leading a-run, or n while every letter placed is an a; tied lists the
        # (s, m) whose image m(a) rotated to s equals a[1..t-s] so far
        nonlocal kept, leaves
        prev = a[t - 1]
        lo = a[t - p]
        rem = n - t
        steps = _NEXT[prev][lo] if rem else _LAST[prev][lo]
        for v, dt, dab, daB in steps if t > forced else [s for s in steps if s[0] == pre[t - 1]]:
            tally_v = tally + dt
            ab_v = ab + dab
            aB_v = aB + daB
            need = 2 * (ab_v if ab_v > aB_v else aB_v)
            if tally_v + rem < need or t - tally_v + rem < need:
                continue
            a[t] = v
            tied_v = []
            for s, m in tied:
                d = a[t - s + 1]
                if m[v] < d:
                    break  # m(a) rotated to s is smaller on every completion
                if m[v] == d:
                    tied_v.append((s, m))
            else:
                run_v = run + 1 if v == prev else 1
                cap_v = t - 1 if cap == n and v else cap
                if run_v == cap_v:  # a run as long as the leading one: its images to a start tied
                    tied_v += [(t - run_v + 1, m) for m in _MAPS_TO_A[v]]
                if rem:
                    rec(t + 1, p if v == lo else t, tally_v, ab_v, aB_v, run_v, cap_v, tied_v)
                elif v != lo or n % p == 0:  # a necklace; minimal, as the bound above is exact here
                    leaves += 1
                    if tied_v and any([m[c] for c in a[1:s]] < a[n - s + 2 :] for s, m in tied_v):
                        continue
                    w = bytes(a[1:]).translate(_WORD).decode()
                    kept += 1
                    if tally_v > need < n - tally_v:  # every principal_deltas entry is positive
                        edge_free(chr(n - tally_v if tally_v > n - tally_v else tally_v) + w)
                    else:
                        pc = (tally_v - ab_v - aB_v, n - tally_v - ab_v - aB_v, ab_v, aB_v)  # (aa, bb, ab, aB)
                        visit(w, pc, principal_deltas(tally_v, n - tally_v, pc))

    rec(2, 1, 1, 0, 0, 1, n, [(1, m) for m in _MAPS_TO_A[0]])
    return kept, leaves


def _shard_job(job) -> tuple:
    """One shard, finished: (class_stats Counter of the classes it owns,
    words the scan handed on, their to_json lines by size, coincidence failures).

    job is (n, prefix, out, weight, scan).  The scan hands each edge-free
    word to edge_free as chr(W) + w, W its weight, the entry in lines that
    _numbered renders: its class is a P1 singleton (a root or alternating
    minimal word has a level principal) with no row or graph, counted from
    the entries received, not from the scan's count of words kept, which
    census checks.  finish gets each other word, counts its class if its
    level images are all itself (level edges come in inverse pairs), and
    stores the other rows, handing edges over in one reverse table (see
    vertex_row).  Both kinds of size-1 line join lines[1] in scan order.
    Ascending, each row still in the store closes its class over it, owns
    it if it is its least vertex and drops the class's rows.  A class is
    counted and rendered from _assemble's fields, its weight read off its
    least vertex's a-type tally.  With out, lines[size] lists its classes
    by least vertex, None for one not of weight (if given).  With scan,
    each word is scanned as it is handed on, after its row if it has one.
    """
    n, prefix, out, wt, scan = job
    stats, lines, failures, reverse, rows = Counter(), {1: []} if out else {}, [], {}, {}
    free = [0] * (n // 2 + 1)  # edge-free classes by weight

    def count(gtype, vertices, edges, root, alternating):
        tally = vertices[0].count("a") + vertices[0].count("A")
        w_weight = n - tally if tally > n - tally else tally
        stats[gtype, w_weight, len(vertices), root] += 1
        if out:
            line = _to_json(gtype, w_weight, root, alternating, vertices, edges) if wt in (None, w_weight) else None
            lines.setdefault(len(vertices), []).append(line)

    def finish(w, pc, deltas):  # stores w's row, or counts w's class here if its level images are all w
        row = vertex_row(w, pc, deltas, reverse, rows)
        if scan:
            failures.extend(_coincidences(w, deltas, dict(row[1])))
        for _, c in row[1]:
            if c != w:
                rows[w] = row
                return
        count(*_assemble([row]))

    def edge_free(entry):  # chr(W) + w: an edge-free word w of weight W
        free[ord(entry[0])] += 1
        if scan:
            failures.extend(_coincidences(entry[1:], _shrinking(entry[1:])[2]))
        if out:
            lines[1].append(entry if wt is None or ord(entry[0]) == wt else None)

    kept = _shard_rows(n, prefix, finish, edge_free)[0]
    stats.update({("P1", w_weight, 1, False): k for w_weight, k in enumerate(free) if k})
    for w in list(rows):
        if w in rows:  # w is the least vertex of its class in the shard
            gtype, vertices, edges, root, alternating = _assemble(level_closure(w, rows, reverse))
            for u in vertices:
                del rows[u]
            if vertices[0] == w:  # its least vertex owns it
                count(gtype, vertices, edges, root, alternating)
    if reverse:
        raise TheoremViolation(f"length {n}, shard {prefix!r}: no row took the level edges handed to {sorted(reverse)}")
    return stats, kept, lines, failures


def _shard_words(job) -> list:
    """The vertices of one shard (n, prefix), in ascending order; no row is built."""
    words = []
    _shard_rows(*job, lambda w, pc, deltas: words.append(w), words.append)
    return [e if e[:1] == "a" else e[1:] for e in words]  # an edge-free entry is chr(W) + w, and w starts with a


def _shard_prefixes(n: int) -> list:
    """Lexicographically ordered forced prefixes partitioning length-n output."""
    if n < 8:
        return ["a"]
    plen = 4 if n < 18 else 5
    prefixes = ["a"]
    for _ in range(plen - 1):
        prefixes = [p + ch for p in prefixes for ch in LETTERS if ch != inverse_letter(p[-1])]
    # a B right after the leading a-run falls below the b<->B image tied at
    # rotation 0, so these shards are empty
    return [p for p in prefixes if not p.lstrip("a").startswith("B")]


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an int of at least least; a bool is not a count."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}")


def _exit_on_interrupt(job, args):
    """job(args) in a pool worker, which ends at once on Ctrl-C: a worker
    that returned the interrupt would run its next queued job to the end."""
    try:
        return job(args)
    except KeyboardInterrupt:
        os._exit(130)  # 128 + SIGINT, as a shell reports a process ended by Ctrl-C


def _shard_results(job, lengths, workers: int, *options):
    """Yield (n, [job((n, prefix, *options)) for each shard prefix]) for each
    distinct n in lengths, ascending; job is a module-level function.  With
    one worker each length is one job, run here.  Else only the largest
    length is split into _shard_prefixes shards, and each smaller one is
    one job, which repeats no work of another: it runs beside the shards.
    One process pool, of no more workers than jobs, takes them in
    (n, prefix) order; on exit it cancels the jobs not started and waits
    for the running ones, since a worker killed while it sends a result
    leaves the result lock held.  A worker hit by Ctrl-C exits in its job.
    """
    lengths = list(lengths)
    _check_count("workers", workers, 1)
    for n in lengths:
        _check_count("length", n, 0)
    lengths = sorted(set(lengths))  # each length once
    shards = {n: _shard_prefixes(n) if workers > 1 and n == lengths[-1] else ["a"] for n in lengths}
    jobs = [(n, prefix, *options) for n in lengths for prefix in shards[n]]
    pool = concurrent.futures.ProcessPoolExecutor(min(workers, len(jobs))) if len(jobs) > len(lengths) else None
    try:
        results = pool.map(functools.partial(_exit_on_interrupt, job), jobs) if pool else map(job, jobs)
        for n in lengths:
            yield n, [next(results) for _ in shards[n]]
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def enumerate_minimal(n: int, workers: int = 1) -> list:
    """Every minimal word of length n that is least in its class mod
    rotation and signed permutation, in ascending order."""
    return [w for _, parts in _shard_results(_shard_words, [n], workers) for part in parts for w in part]


@dataclass(frozen=True)
class ClassRecord:
    """One class of one length: its id and its graph, from which every other fact is read."""

    class_id: str
    graph: ClassGraph

    representatives = property(lambda self: self.graph.vertices)
    length = property(lambda self: len(self.graph.vertices[0]))
    size = property(lambda self: len(self.graph.vertices))
    weight = property(lambda self: weight(self.graph.vertices[0]))  # the module function; constant on a class
    gtype = property(lambda self: self.graph.gtype)


def _record(line: str) -> ClassRecord:
    """The ClassRecord of one classes_<n>.jsonl line."""
    d = json.loads(line)
    g = ClassGraph(tuple(d["vertices"]), tuple(map(tuple, d["edges"])), d["root"], d["alternating"], d["type"])
    return ClassRecord(d["id"], g)


def enumerate_classes(n: int, workers: int = 1) -> list:
    """All classes at length n as ClassRecord values, numbered n.1, n.2, ...
    ascending by (size, least vertex)."""
    records = []
    census([n], workers, lines=lambda _, lines: records.extend(map(_record, lines)))
    return records


def _numbered(n: int, parts: list):
    """Yield the classes_<n>.jsonl lines from each shard's lines by size: by
    size, then in shard order, which is ascending (size, least vertex).  The
    ids n.1, n.2, ... count every class, also one whose line is None.  An
    edge-free class, chr(W) + w, gets the line heads[W] + w + tail, cut once
    per weight from _to_json, so a job sends back only its weight and word."""
    heads, tail = [], ""  # cut around a stand-in word from _to_json, the one writer
    if n:  # no word is edge-free below n = 2, and "" would cut nothing
        blank = "\0" * n
        heads = [_to_json("P1", W, False, False, (blank,), ()).split(blank)[0][1:] for W in range(n // 2 + 1)]
        tail = _to_json("P1", 0, False, False, (blank,), ()).split(blank)[1]
    k = 0
    for size in sorted({s for part in parts for s in part}):
        for part in parts:
            for line in part.get(size, ()):
                k += 1
                if line is None:
                    continue
                if line[0] == "{":
                    yield f'{{"id": "{n}.{k}", {line[1:]}'
                else:
                    yield f'{{"id": "{n}.{k}", {heads[ord(line[0])]}{line[1:]}{tail}'


@dataclass
class CensusTables:
    """Class counts over all enumerated lengths: class_stats, the one stored
    table, and four read-only views of it, computed on each read."""

    class_stats: dict  # n -> Counter{(gtype, weight, size, is_root): classes}

    @property
    def type_counts(self) -> dict:  # n -> Counter{gtype: classes}
        return {n: _sum_by(stats, 0) for n, stats in self.class_stats.items()}

    @property
    def size_counts(self) -> dict:  # gtype -> n -> Counter{size: classes} for P1, P2, P3
        # a length is a key only if it has a class of that type
        return {
            g: {n: sizes for n, stats in self.class_stats.items() if (sizes := _sum_by(stats, 2, g))}
            for g in GRAPH_TYPE_ORDER[:3]
        }

    @property
    def class_totals(self) -> dict:  # n -> classes
        return {n: sum(stats.values()) for n, stats in self.class_stats.items()}

    @property
    def vertex_totals(self) -> dict:  # n -> minimal words mod rotation+permutation
        return {n: _vertex_total(stats) for n, stats in self.class_stats.items()}


def _sum_by(stats: Counter, field: int, gtype=None, size=None, wt=None, nonroot=False) -> Counter:
    """One length's class_stats summed by one field of its keys (0 gtype,
    2 size), over the classes of the given type, size and weight (any,
    where None), and only the non-root ones if nonroot."""
    sums = Counter()
    for key, c in stats.items():
        g, w, s, root = key
        if gtype in (None, g) and size in (None, s) and wt in (None, w) and not (nonroot and root):
            sums[key[field]] += c
    return sums


def _vertex_total(stats: Counter) -> int:
    """The vertices of one length's class_stats: the sum of its class sizes."""
    return sum(s * c for (_, _, s, _), c in stats.items())


def census(lengths, workers: int = 1, *, lines=None, weight=None, coincidences=None) -> CensusTables:
    """Enumerate every length in lengths once, counting its classes in class_stats.

    After each length n is counted, and only if given: lines(n, lines)
    gets an iterator over its classes_<n>.jsonl lines, of one weight if
    given (ids count all), and coincidences(n, failures) the coincidence
    failures of its vertices, in ascending order (see _coincidences).  Each
    distinct length is enumerated once, in ascending order.  Raises
    ValueError on a weight without lines, and TheoremViolation unless the
    class sizes add up to the vertices.
    """
    if weight is not None:
        _check_count("weight", weight, 0)
        if lines is None:
            raise ValueError("weight restricts the classes_<n>.jsonl lines, and no lines hook is given")
    tables = CensusTables({})
    stream = _shard_results(_shard_job, lengths, workers, lines is not None, weight, coincidences is not None)
    with contextlib.closing(stream):
        for n, results in stream:
            stats = sum((r[0] for r in results), Counter())
            kept = sum(r[1] for r in results)
            if _vertex_total(stats) != kept:
                raise TheoremViolation(f"length {n}: the classes hold {_vertex_total(stats)} vertices, the scan kept {kept}")
            tables.class_stats[n] = stats
            if lines is not None:
                lines(n, _numbered(n, [r[2] for r in results]))
            if coincidences is not None:
                coincidences(n, [f for r in results for f in r[3]])
    return tables


def expected_class_size(tables: CensusTables, n: int) -> Fraction:
    """Exact mean number of vertices per class at length n."""
    stats = tables.class_stats.get(n)
    if stats is None:
        raise ValueError(f"the census holds no length {n!r}")
    return Fraction(_vertex_total(stats), sum(stats.values()))


# Apparent limit of the number of classes of size n - k, k = 0..11, as n grows.
LIMIT_SEQUENCE = (0, 0, 0, 0, 0, 5, 12, 17, 24, 67, 196, 437)


def _weight4_singleton_expected(n: int) -> Fraction:
    r = n % 4
    if r == 0:
        num = 2 * n**3 - 36 * n**2 + 244 * n - 540
    elif r == 2:
        num = 2 * n**3 - 36 * n**2 + 244 * n - 546
    else:  # n odd
        num = 2 * n**3 - 36 * n**2 + 241 * n - 537
    return Fraction(num, 6)


def _deficit_rows(tables, ns, wt, expected, first_n) -> list:
    """Weight-wt plain-path classes of size n - k against expected[k], for
    each n in ns with n >= first_n(k)."""
    rows = []
    for k, exp in expected.items():
        for n in ns:
            if n >= first_n(k) and n - k >= 1:
                actual = _sum_by(tables.class_stats[n], 0, "P1", size=n - k, wt=wt).total()
                rows.append(
                    {"k": k, "n": n, "expected": exp, "actual": actual, "ok": actual == exp}
                )
    return rows


def conjecture_report(tables: CensusTables) -> dict:
    """Observed-versus-predicted report for the counting conjectures.

    Every item carries ok flags; nothing here raises on a mismatch.
    """
    ns = sorted(tables.class_stats)
    if not ns:
        raise ValueError("conjecture_report needs a census of at least one length; this census is empty")
    report = {"lengths": ns}

    # (a) classes of size n-k: counts along the diagonal stabilize as n grows
    tail = ns[-3:]
    diag = []
    for k in range(len(LIMIT_SEQUENCE)):
        all_counts, p1_counts = (
            {n: _sum_by(tables.class_stats[n], 0, g, size=n - k).total() for n in tail if n - k >= 1}
            for g in (None, "P1")
        )
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

    # (b) weight-4 classes of the plain path type with size n-k: 6k - 24, or 6k - 25 for odd k
    expected = {k: 6 * k - 24 - k % 2 for k in range(4, max(ns) // 2 + 3)}
    report["weight4_path_by_deficit"] = _deficit_rows(
        tables, ns, 4, expected, lambda k: max(2 * k - 2, 9)
    )

    # (c)-(f) non-root singleton classes by weight
    singles = {}
    specs = (
        ("weight2", 2, 5, lambda n: Fraction(n - 2 if n % 2 == 0 else n - 3)),
        ("weight3", 3, 7, lambda n: Fraction(3 * n - 11)),
        ("weight4", 4, 9, _weight4_singleton_expected),
        ("weight5", 5, 11, lambda n: Fraction(35 * n**3 - 645 * n**2 + 3988 * n - 8262, 6)),
    )
    for name, wt, n_min, fn in specs:
        counts = {n: _sum_by(tables.class_stats[n], 0, size=1, wt=wt, nonroot=True).total() for n in ns if n >= n_min}
        singles[name] = [
            {"n": n, "expected": str(fn(n)), "actual": actual, "ok": fn(n) == actual}
            for n, actual in counts.items()
        ]
    report["nonroot_singletons"] = singles

    # (g) weight-6 plain-path classes of size n-k settle at fixed counts
    report["weight6_path_by_deficit"] = _deficit_rows(
        tables, ns, 6, {9: 38, 10: 160, 11: 396, 12: 800}, lambda k: 2 * k - 5
    )

    # (h) mean class size stays within [1, 1.76)
    means = {n: expected_class_size(tables, n) for n in ns}
    report["mean_class_size"] = [
        {"n": n, "mean": str(mean), "mean_float": float(mean), "ok": 1 <= mean < Fraction(176, 100)}
        for n, mean in means.items()
    ]
    return report


def _deficit_lines(title: str, rows: list) -> list:
    """A blank line, title, and one line per _deficit_rows row."""
    return ["", title] + [
        f"  k={row['k']:2d} n={row['n']:2d} expected={row['expected']:4d}"
        f" actual={row['actual']:4d} [{'ok' if row['ok'] else 'MISMATCH'}]"
        for row in rows
    ]


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

    lines += _deficit_lines(
        "weight-4 plain-path classes of size n-k:", report["weight4_path_by_deficit"]
    )

    lines += ["", "non-root singleton classes by weight:"]
    for name, rows in report["nonroot_singletons"].items():
        for row in rows:
            mark = "ok" if row["ok"] else "MISMATCH"
            lines.append(
                f"  {name} n={row['n']:2d} expected={row['expected']:>8s}"
                f" actual={row['actual']:6d} [{mark}]"
            )

    lines += _deficit_lines(
        "weight-6 plain-path classes of size n-k:", report["weight6_path_by_deficit"]
    )
    if not report["weight6_path_by_deficit"]:
        lines.append("  no computed length reaches the settled range")

    lines += ["", "mean class size per length:"]
    for row in report["mean_class_size"]:
        mark = "ok" if row["ok"] else "OUT OF RANGE"
        lines.append(f"  n={row['n']:2d} mean={row['mean']:>12s} ~ {row['mean_float']:.4f} [{mark}]")
    return "\n".join(lines)


# (rule, h1, h2, c1, c2): a counterexample to rule has c_h1 == c_h2 but c_c1 != c_c2
_COINCIDENCE_RULES = (
    ("12=>34", 0, 1, 2, 3),
    ("34=>12", 2, 3, 0, 1),
    ("13=>24", 0, 2, 1, 3),
    ("14=>23", 0, 3, 1, 2),
    ("23=>14", 1, 2, 0, 3),
)


def _image_sums(w: str, deltas) -> tuple:
    """Per principal, in PRINCIPALS order, the (a-type tally, |exponent sum
    of a|) and (b-type tally, |exponent sum of b|) of its image of the
    cyclic word w with principal_deltas deltas, read off w alone: ({y}, x)
    cancels no y-type letter, so only the x-type tally moves, by the length
    change, and y -> yx adds the exponent sum of y to that of x."""
    n = len(w)
    ta = (n + deltas[0] - deltas[2]) // 2  # deltas[0] - deltas[2] is the tally difference
    tb, (ea, eb) = n - ta, _exponent_sums(w)
    return (
        ((ta, abs(ea)), (tb + deltas[0], abs(eb + ea))),
        ((ta, abs(ea)), (tb + deltas[1], abs(eb - ea))),
        ((ta + deltas[2], abs(ea + eb)), (tb, abs(eb))),
        ((ta + deltas[3], abs(ea - eb)), (tb, abs(eb))),
    )


def _coincidences(w: str, deltas, level=()) -> list:
    """The counterexamples at one cyclic word w with principal_deltas deltas,
    in _COINCIDENCE_RULES order.  Two level images compare by their forms in
    level (principal index -> canonical form, from w's row), any other two
    of equal length by their _image_sums as multisets (a signed permutation
    keeps or swaps the two pairs), then by one _align of the images, each
    built once; a counterexample's images are canonicalized."""
    images, sums = {}, _image_sums(w, deltas)

    def coincide(h, k):
        if deltas[h] != deltas[k]:
            return False
        if h + 1 in level:
            return level[h + 1] == level[k + 1]
        if sums[h] != sums[k] and sums[h] != sums[k][::-1]:
            return False
        for i in (h, k):
            if i not in images:
                images[i] = _apply_cyclic(PRINCIPALS[i], w)
        return _align(images[h], images[k]) is not None

    return [
        {"word": w, "rule": rule, "images": [canonical_word(_apply_cyclic(phi, w)) for phi in PRINCIPALS]}
        for rule, h1, h2, c1, c2 in _COINCIDENCE_RULES
        if coincide(h1, h2) and not coincide(c1, c2)
    ]
