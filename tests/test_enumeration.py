"""Exhaustive enumeration, census tables, and conjecture reporting."""

import concurrent.futures
import contextlib
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles as orc
from conftest import cyclic_reduced_words, run_heavy_words
from f2aut import canonical_word, class_graph, enumeration, minimality
from f2aut.automorphism import ALL_PERMUTATIONS
from f2aut.class_graph import GRAPH_TYPES, TheoremViolation, build_graph, to_dict
from f2aut.enumeration import (
    GRAPH_TYPE_ORDER,
    LIMIT_SEQUENCE,
    CensusTables,
    ClassRecord,
    _coincidences,
    _image_sums,
    _numbered,
    _record,
    _shard_job,
    _shard_prefixes,
    _shard_words,
    census,
    conjecture_report,
    enumerate_classes,
    enumerate_minimal,
    expected_class_size,
    render_conjecture_report,
)
from f2aut.minimality import principal_deltas
from f2aut.word_core import LETTERS, _ab_counts, least_rotation, letter_tally, order_key, pair_counts, weight

# classes per type at small lengths, hand-tallied once and frozen
SMALL_TYPE_COUNTS = {
    0: {"R4": 1},
    1: {"P3": 1},
    2: {"P3": 1},
    3: {"P3": 1},
    4: {"P3": 1, "R4": 1, "R5": 1},
    5: {"P2": 1, "P3": 3},
    6: {"P1": 4, "P3": 6},
    7: {"P1": 10, "P2": 1, "P3": 5},
    8: {"P1": 22, "P3": 8, "R1": 1, "R2": 2, "R3": 3, "R4": 1, "R5": 3, "R6": 1, "R7": 2},
}


def oracle_minimal(n: int) -> list:
    words = (
        w
        for w in orc.necklaces(n)
        if orc.o_is_minimal(w) and orc.o_canonical(w) == w
    )
    return sorted(words, key=lambda w: w.translate(orc._DIGITS))


@pytest.mark.parametrize("n", range(8))
def test_enumerate_minimal_matches_oracle(n):
    assert enumerate_minimal(n) == oracle_minimal(n)


def unpruned_rows(n: int, prefix: str) -> list:
    """The words of the shard of prefix, found without any prune of the
    scan: the oracle's necklaces that start with prefix, kept if minimal
    and canonical (the full mod-J filter), in ascending order."""
    words = (w for w in orc.necklaces(n, prefix) if orc.o_is_minimal(w) and canonical_word(w) == w)
    return sorted(words, key=order_key)


def check_shards_match_unpruned_scan(monkeypatch, n: int, prefixes) -> None:
    """Each shard's words, which enumerate_minimal reads, are the unpruned
    scan's, and every row its job builds with the shard's reverse table is
    the oracle's vertex_row; no row is built for an edge-free word.  The
    job receives each word with no level image, and only those, at the
    scan's leaf as chr(W) + w, in order, W the weight of the oracle's tally."""
    built, handed = {}, []

    def recorded(w, *args):
        built[w] = real(w, *args)
        return built[w]

    def scan_recorded(n, prefix, visit, edge_free):
        return real_scan(n, prefix, visit, lambda entry: handed.append(entry) or edge_free(entry))

    real, real_scan = enumeration.vertex_row, enumeration._shard_rows
    monkeypatch.setattr(enumeration, "vertex_row", recorded)
    monkeypatch.setattr(enumeration, "_shard_rows", scan_recorded)
    for p in prefixes:
        words = unpruned_rows(n, p)
        assert _shard_words((n, p)) == words, p
        built.clear()
        handed.clear()
        _shard_job((n, p, False, None, False))
        assert list(built) == [w for w in words if orc.o_vertex_row(w)[1]], p
        for w, row in built.items():
            assert row == orc.o_vertex_row(w)
        tallies = {w: orc.o_count(w, "a") for w in words if not orc.o_vertex_row(w)[1]}
        assert handed == [chr(min(t, n - t)) + w for w, t in tallies.items()], p


# the reduced prefixes of two to four letters whose first letter after the
# leading a-run is B: _shard_prefixes asks for none of them
B_FIRST_PREFIXES = [p for k in (2, 3, 4) for p in orc.reduced_words(k, "a") if p.lstrip("a").startswith("B")]


@pytest.mark.parametrize("n", range(1, 13))
def test_sharded_rows_match_oracle(monkeypatch, n):
    """Both prunes of the scan, the minimality bound and the tied images,
    drop only words the full filters drop: the one-job shard, from n = 8
    every forced-prefix shard and, up to n = 10, every B-first prefix give
    the unpruned rows in order."""
    b_first = [p for p in B_FIRST_PREFIXES if len(p) <= n <= 10]
    check_shards_match_unpruned_scan(monkeypatch, n, dict.fromkeys(["a", *_shard_prefixes(n), *b_first]))


@pytest.mark.skipif(
    os.environ.get("F2AUT_STRETCH") != "1",
    reason="stretch check: set F2AUT_STRETCH=1 to compare the shards of lengths 13..14 with the unpruned scan",
)
@pytest.mark.parametrize("n", (13, 14))
def test_stretch_sharded_rows_match_oracle(monkeypatch, n):
    check_shards_match_unpruned_scan(monkeypatch, n, _shard_prefixes(n))


def test_scan_builds_few_leaves_per_kept_row():
    """The scan returns the words it kept and the leaves it built, the
    necklaces that reach the last letter's tied-image test.  At n = 12 its
    shards build 4,071 leaves for 3,588 rows; without the tied-image prune
    they built 5,903 (1.645 per row).  The exact count also notices a lost
    tied start, such as the run at position 2 after a single leading a
    (4,072 leaves), which changes no row up to n = 16."""
    handed = []
    counts = [enumeration._shard_rows(12, p, lambda w, *_: handed.append(w), handed.append) for p in _shard_prefixes(12)]
    kept, leaves = map(sum, zip(*counts))
    assert kept == len(handed) == 3588
    assert leaves == 4071 <= 1.2 * kept


def check_burnside_count(n: int) -> None:
    """The scan keeps one word per orbit of minimal necklaces under the
    signed permutations, so the orbit sizes of its words of weight W add
    up to the minimal necklaces of weight W, which Burnside's lemma counts
    independently (see oracles.o_burnside_sums)."""
    orbits = Counter()
    for w in enumerate_minimal(n):
        orbits[weight(w)] += len({least_rotation(pi(w)) for pi in ALL_PERMUTATIONS})
    sums = orc.o_burnside_sums(n)
    for W in range(n // 2 + 1):
        assert sums[W] % n == 0, (n, W)
        assert orbits[W] == sums[W] // n, (n, W)


@pytest.mark.parametrize("n", range(1, 15))
def test_scan_matches_the_burnside_count_of_minimal_necklaces(n):
    check_burnside_count(n)


@pytest.mark.skipif(
    os.environ.get("F2AUT_STRETCH") != "1",
    reason="stretch check: set F2AUT_STRETCH=1 to check the scan of lengths 15..16 against the Burnside count",
)
@pytest.mark.parametrize("n", (15, 16))
def test_stretch_scan_matches_the_burnside_count_of_minimal_necklaces(n):
    check_burnside_count(n)


def test_step_tables_follow_the_digraph_rule():
    """_NEXT[u][lo] lists, in ascending order, each code v >= lo that may
    follow u with its a-type letter and the ab, aB of the digraph u v;
    _LAST[u][lo] drops v = A, the inverse of the first letter a, and adds
    the wrap digraph v a."""
    for u, x in enumerate(LETTERS):
        for lo in range(4):
            allowed = [v for v in range(lo, 4) if v != u ^ 2]
            assert enumeration._NEXT[u][lo] == tuple((v, 1 - v % 2, *_ab_counts(x + LETTERS[v])) for v in allowed)
            assert enumeration._LAST[u][lo] == tuple(
                (v, 1 - v % 2, *(i + j for i, j in zip(_ab_counts(x + LETTERS[v]), _ab_counts(LETTERS[v] + "a"))))
                for v in allowed
                if v != 2
            )


@pytest.mark.parametrize("n", range(2, 13))
def test_the_last_letter_prune_is_exact(monkeypatch, n):
    """The bound checked as the last letter is placed, with the wrap digraph
    in the counts, is the minimality test: every principal_deltas call of
    the one-job shard and of each prefix shard has no negative entry."""
    deltas = []

    def recorded(*args):
        deltas.append(real(*args))
        return deltas[-1]

    real = enumeration.principal_deltas
    monkeypatch.setattr(enumeration, "principal_deltas", recorded)
    for p in dict.fromkeys(["a", *_shard_prefixes(n)]):
        _shard_words((n, p))
    assert deltas and all(min(d) >= 0 for d in deltas)


def test_edge_free_minimal_words_are_p1_singletons():
    """A minimal word with no principal of length change 0 is a finished
    class: P1, size 1, neither root nor alternating (3,020 words up to 12)."""
    edge_free = [
        w for n in range(13) for w in enumerate_minimal(n) if 0 not in principal_deltas(*letter_tally(w), pair_counts(w))
    ]
    assert len(edge_free) == 3020
    for w in edge_free:
        g = build_graph(w)
        assert (g.gtype, g.vertices, g.edges, g.is_root_class, g.has_alternating) == ("P1", (w,), (), False, False)


def test_enumerate_minimal_is_sorted_and_canonical():
    words = enumerate_minimal(9)
    assert words == sorted(words, key=order_key)
    assert all(orc.o_canonical(w) == w for w in words)


@pytest.mark.parametrize("n", range(14))
def test_enumerate_minimal_is_the_vertex_set_of_the_classes(n):
    words = sorted((w for rec in enumerate_classes(n) for w in rec.representatives), key=order_key)
    assert enumerate_minimal(n, 1) == enumerate_minimal(n, 2) == words


def test_enumerate_minimal_assembles_and_renders_no_class(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_minimal reached the class path")

    monkeypatch.setattr(enumeration, "_assemble", refuse)
    monkeypatch.setattr(enumeration, "_record", refuse)
    assert enumerate_minimal(9) == oracle_minimal(9)


@pytest.mark.parametrize("n", (6, 8, 9))
def test_worker_count_does_not_change_output(n):
    assert enumerate_minimal(n, 1) == enumerate_minimal(n, 3)
    assert enumerate_classes(n, 1) == enumerate_classes(n, 3)


def test_class_ids_sizes_and_partition():
    records = enumerate_classes(8)
    assert [r.class_id for r in records] == [f"8.{k}" for k in range(1, len(records) + 1)]
    keys = [(r.size, order_key(r.representatives[0])) for r in records]
    assert keys == sorted(keys)
    seen = []
    for r in records:
        assert r.length == 8
        assert r.size == len(r.representatives)
        assert r.weight == weight(r.representatives[0])
        seen.extend(r.representatives)
    # the classes partition the minimal words
    assert sorted(seen, key=order_key) == enumerate_minimal(8)


@pytest.mark.parametrize("n", sorted(SMALL_TYPE_COUNTS))
def test_type_tallies_at_small_lengths(n):
    tally = {}
    for r in enumerate_classes(n):
        tally[r.gtype] = tally.get(r.gtype, 0) + 1
    assert tally == SMALL_TYPE_COUNTS[n]


def test_census_aggregation_and_sink():
    calls = []
    tables = census(range(10), lines=lambda n, lines: calls.append((n, len(list(lines)))))
    assert [n for n, _ in calls] == list(range(10))
    for n, expected in SMALL_TYPE_COUNTS.items():
        assert dict(tables.type_counts[n]) == expected
        assert tables.class_totals[n] == sum(expected.values())
    # size histograms only track the non-root path shapes
    assert set(tables.size_counts) == {"P1", "P2", "P3"}
    assert dict(tables.size_counts["P3"][4]) == {1: 1}
    assert dict(tables.size_counts["P2"][5]) == {2: 1}
    assert tables.vertex_totals[9] == 177
    assert tables.class_totals[9] == 101
    assert expected_class_size(tables, 9) == Fraction(177, 101)
    with pytest.raises(ValueError, match="no length 10"):
        expected_class_size(tables, 10)


@pytest.mark.parametrize("workers", (1, 2))
def test_census_stores_one_table_and_reads_four_views_from_it(workers):
    assert [f.name for f in dataclasses.fields(CensusTables)] == ["class_stats"]
    assert [f.name for f in dataclasses.fields(ClassRecord)] == ["class_id", "graph"]
    seen = {}
    tables = census(range(13), workers=workers, lines=lambda n, lines: seen.update({n: list(map(_record, lines))}))
    graphs = {n: [rec.graph for rec in records] for n, records in seen.items()}
    assert tables.class_stats == {
        n: Counter((g.gtype, weight(g.vertices[0]), len(g.vertices), g.is_root_class) for g in gs)
        for n, gs in graphs.items()
    }
    assert tables.type_counts == {n: Counter(g.gtype for g in gs) for n, gs in graphs.items()}
    assert tables.size_counts == {
        t: {
            n: Counter(len(g.vertices) for g in gs if g.gtype == t)
            for n, gs in graphs.items()
            if any(g.gtype == t for g in gs)
        }
        for t in ("P1", "P2", "P3")
    }
    assert 6 not in tables.size_counts["P2"]  # no P2 class has length 6
    assert tables.class_totals == {n: len(gs) for n, gs in graphs.items()}
    assert tables.vertex_totals == {n: sum(len(g.vertices) for g in gs) for n, gs in graphs.items()}
    for view in ("type_counts", "size_counts", "class_totals", "vertex_totals"):
        with pytest.raises(AttributeError):
            setattr(tables, view, {})
    for n, records in seen.items():
        for rec in records:
            g = rec.graph
            assert (rec.length, rec.size, rec.weight, rec.gtype) == (n, len(g.vertices), weight(g.vertices[0]), g.gtype)
            assert rec.representatives is g.vertices


def test_census_streams_every_length_through_one_pool(monkeypatch):
    pools = []
    make_pool = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *a: pools.append(a) or make_pool(*a))
    calls = []
    census(range(11), workers=2, lines=lambda n, lines: calls.append((n, list(map(_record, lines)))))
    assert pools == [(2,)]
    assert [n for n, _ in calls] == list(range(11))
    for n, records in calls:
        assert records == enumerate_classes(n, 1)
    assert multiprocessing.active_children() == []


_scan_shard = enumeration._shard_job


def _shard_job_failing_at_10(job):
    if job[:2] == (10, "abab"):
        raise TheoremViolation("injected in a worker")
    return _scan_shard(job)


def test_census_pool_is_torn_down_when_a_shard_fails(monkeypatch):
    monkeypatch.setattr(enumeration, "_shard_job", _shard_job_failing_at_10)
    seen = []
    with pytest.raises(TheoremViolation, match="injected in a worker"):
        census(range(11), workers=2, lines=lambda n, lines: seen.append(n))
    assert seen == list(range(10))
    assert multiprocessing.active_children() == []


def test_census_pool_is_torn_down_when_the_caller_stops():
    def stop(n, lines):
        if n == 8:
            raise TheoremViolation("injected in the parent")

    with pytest.raises(TheoremViolation) as caught:
        census(range(11), workers=2, lines=stop)
    # census's frame lives on in the traceback, so only an explicit close ends the pool
    assert multiprocessing.active_children() == []
    assert str(caught.value) == "injected in the parent"


def test_ctrl_c_ends_a_two_worker_run_at_once():
    """SIGINT to the process group of a two-worker enumerate, sent while
    its workers run the whole length 15, ends the run within 2 s and leaves
    no process in the group: a worker exits in its job instead of running
    the next queued one, the whole length 16 (about 5 s), to the end."""
    src = Path(enumeration.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "f2aut.cli", "enumerate", "--lengths", "15..17", "--workers", "2"]
    proc = subprocess.Popen(argv, env=env, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        time.sleep(1)
        os.killpg(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=2) == -signal.SIGINT
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_ctrl_c_in_a_one_worker_run_propagates(monkeypatch):
    def interrupted(job):
        raise KeyboardInterrupt

    monkeypatch.setattr(enumeration, "_shard_job", interrupted)
    with pytest.raises(KeyboardInterrupt):
        census(range(11))


class _SerialPool:
    """Stands in for concurrent.futures.ProcessPoolExecutor: records its
    size and the jobs it is given, starts no process."""

    sizes = []
    jobs = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.jobs.extend(jobs)
        return map(fn, jobs)

    def shutdown(self, cancel_futures=False):
        pass


def test_pool_has_no_more_workers_than_shards(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    records = enumerate_classes(8, workers=5000)
    assert _SerialPool.sizes == [len(enumeration._shard_prefixes(8))]
    assert records == enumerate_classes(8, 1)


def test_only_the_largest_length_is_split_into_shards(monkeypatch):
    """With two workers each length below the largest is one job, and the
    pool takes them in ascending (length, prefix) order, then the largest
    length's shards; the lines are the one-worker lines."""
    one, two = {}, {}
    census(range(11), lines=lambda n, lines: one.update({n: list(lines)}))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "jobs", [])
    census(range(11), workers=2, lines=lambda n, lines: two.update({n: list(lines)}))
    assert _SerialPool.sizes == [2]
    options = (True, None, False)
    assert _SerialPool.jobs == [(n, "a", *options) for n in range(10)] + [(10, p, *options) for p in _shard_prefixes(10)]
    assert two == one


@pytest.mark.parametrize("n, count", ((8, 14), (18, 41)))
def test_no_shard_starts_its_first_non_a_letter_with_B(n, count):
    # 13 of the 27 four-letter and 40 of the 81 five-letter prefixes would
    # only hold words whose b<->B image is smaller
    prefixes = enumeration._shard_prefixes(n)
    assert len(prefixes) == count
    assert not [p for p in prefixes if p.lstrip("a").startswith("B")]


def _census_of_rows(monkeypatch, rows):
    """census([6]) with the scan replaced by one shard of the words of the
    given rows, each handed to the job's visitor as the scan would, with a
    level principal; vertex_row returns the given row."""
    by_word = {row[0]: row for row in rows}

    def one_shard(n, prefix, visit, edge_free):
        for w in by_word:
            visit(w, None, (0, 0, 0, 0))
        return len(by_word), len(by_word)

    monkeypatch.setattr(enumeration, "vertex_row", lambda w, *_: by_word[w])
    monkeypatch.setattr(enumeration, "_shard_rows", one_shard)
    return census([6])


def test_classes_reject_a_missing_level_image(monkeypatch):
    # aaaabb is below aaabAb, so aaabAb's class is left to a row nobody kept
    rows = [("aaabAb", [(1, "aaaabb")], False, False)]
    with pytest.raises(TheoremViolation, match="the classes hold 0 vertices, the scan kept 1"):
        _census_of_rows(monkeypatch, rows)


def test_classes_reject_a_one_way_level_edge(monkeypatch):
    # aaaabb has no edge back to aaabAb, so only the singleton aaaabb is owned
    rows = [("aaaabb", [], False, False), ("aaabAb", [(1, "aaaabb")], False, False)]
    with pytest.raises(TheoremViolation, match="the classes hold 1 vertices, the scan kept 2"):
        _census_of_rows(monkeypatch, rows)


_rows_of_shard = enumeration._shard_rows


def _deltas(w: str) -> tuple:
    return principal_deltas(*letter_tally(w), pair_counts(w))


def _edge_free(w: str) -> bool:
    return 0 not in _deltas(w)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("dropped", ("aaaaaabbb", "aaaaaabaB"))
def test_a_one_vertex_class_dropped_at_the_leaf_breaks_the_vertex_total(monkeypatch, dropped, workers):
    """The leaf keeps a word that no class counts: an edge-free word,
    dropped at its hand-off, or a word whose every level image is itself,
    dropped on its way to the visitor."""
    assert _edge_free(dropped) == (dropped == "aaaaaabbb")
    assert {c for _, c in orc.o_vertex_row(dropped)[1]} <= {dropped}

    def drop_at_leaf(n, prefix, visit, edge_free):
        return _rows_of_shard(
            n,
            prefix,
            lambda w, *counts: None if w == dropped else visit(w, *counts),
            lambda entry: None if entry[1:] == dropped else edge_free(entry),
        )

    monkeypatch.setattr(enumeration, "_shard_rows", drop_at_leaf)
    with pytest.raises(TheoremViolation, match="length 9: the classes hold 176 vertices, the scan kept 177"):
        census([9], workers=workers)


@pytest.mark.parametrize("workers", (1, 2))
def test_edge_free_words_never_reach_the_class_path(monkeypatch, workers):
    """At n = 12 no edge-free word reaches the scan's visitor, a vertex_row,
    a level_closure or an _assemble, also in the workers, and the census
    makes no weight() call and builds no ClassGraph: calls are counted in
    shared memory, (all calls, calls on an edge-free word) per function."""
    counts = multiprocessing.Array("q", 12)

    def counted(k, fn, words_of):
        def call(*args):
            with counts.get_lock():
                counts[2 * k] += 1
                counts[2 * k + 1] += any(map(_edge_free, words_of(*args)))
            return fn(*args)

        return call

    def scan(n, prefix, visit, edge_free):
        return real_scan(n, prefix, counted(5, visit, lambda w, *_: [w]), edge_free)

    real_scan = enumeration._shard_rows
    monkeypatch.setattr(enumeration, "_shard_rows", scan)
    monkeypatch.setattr(enumeration, "vertex_row", counted(0, enumeration.vertex_row, lambda w, *_: [w]))
    monkeypatch.setattr(enumeration, "level_closure", counted(1, enumeration.level_closure, lambda w, *_: [w]))
    monkeypatch.setattr(enumeration, "_assemble", counted(2, enumeration._assemble, lambda rows: [r[0] for r in rows]))
    monkeypatch.setattr(enumeration, "weight", counted(3, enumeration.weight, lambda w: [w]))
    graph = counted(4, class_graph.ClassGraph, lambda vertices, *_: vertices)
    for module in (enumeration, class_graph):  # build_graph wraps _assemble's fields in one
        monkeypatch.setattr(module, "ClassGraph", graph)
    written = []
    tables = census([12], workers, lines=lambda n, lines: written.extend(lines))
    assert len(written) == tables.class_totals[12] == 2544
    calls, edge_free_calls = counts[0::2], counts[1::2]
    assert edge_free_calls == [0] * 6
    assert calls[3:5] == [0, 0]  # classes are counted and rendered from _assemble's fields
    assert min(calls[:3] + calls[5:]) > 0
    if workers == 1:
        # of the 3,588 words 1,984 are edge-free and 92 have only loops; the
        # visitor gets the other 1,604, and the 1,512 stored rows make 468
        # classes, each closed and assembled once
        assert calls == [92 + 1512, 468, 468 + 92, 0, 0, 3588 - 1984]


def test_edge_free_lines_are_cut_from_one_template_per_weight(monkeypatch):
    """At n = 12 on one worker the 1,984 edge-free lines make no _to_json
    call of their own: _to_json writes the 560 other classes, 7 heads (one
    per weight 0..6) and 1 tail."""
    calls = []

    def counted(*fields):
        calls.append(fields)
        return to_json_fields(*fields)

    to_json_fields = enumeration._to_json
    monkeypatch.setattr(enumeration, "_to_json", counted)
    written = []
    census([12], lines=lambda n, lines: written.extend(lines))
    assert len(written) == 2544
    assert len(calls) == 560 + 7 + 1


def test_a_job_passes_an_edge_free_class_on_as_its_weight_and_word():
    """A job's result holds chr(W) + w for each edge-free class, 1,984 of
    the 2,544 at n = 12, and a rendered line for every other class: the
    parent fills in the templates, so a worker sends back the word, not
    its line."""
    entries = _shard_job((12, "a", True, None, False))[2]
    words = [e for size in entries.values() for e in size if not e.startswith("{")]
    assert len(words) == 1984
    assert sum(map(len, entries.values())) == 2544
    for e in words:
        w = e[1:]
        assert _edge_free(w) and e == chr(weight(w)) + w


def test_class_lines_are_the_schema_of_their_first_vertex():
    """Each raw classes_<n>.jsonl line for n <= 12, the edge-free lines
    written from the scan's counts included, is json.dumps of the id and
    the to_dict of build_graph of its first vertex."""
    written = []
    census(range(13), lines=lambda n, lines: written.extend(lines))
    assert len(written) == 3976
    for line in written:
        d = json.loads(line)
        assert line == json.dumps({"id": d["id"], **to_dict(build_graph(d["vertices"][0]))})


@pytest.mark.parametrize("workers", (1, 2))
def test_enumerate_minimal_builds_no_rows(monkeypatch, workers):
    """enumerate_minimal reads only the scan's words: at n = 12 it calls no
    vertex_row, also in the workers, where census calls it (calls counted
    in shared memory)."""
    calls = multiprocessing.Value("q", 0)

    def counted(fn):
        def call(*args):
            with calls.get_lock():
                calls.value += 1
            return fn(*args)

        return call

    for module in (enumeration, minimality):
        monkeypatch.setattr(module, "vertex_row", counted(module.vertex_row))
    assert len(enumerate_minimal(12, workers)) == 3588
    assert calls.value == 0
    census([12], workers)
    assert calls.value >= 92 + 1512


def test_a_reverse_edge_left_after_the_scan_fails_the_shard(monkeypatch):
    """An entry of the shard's reverse table that no row takes, here one
    handed to a word in no class, raises once the job's closures are done."""

    def stale(w, pc, deltas, reverse, rows):
        reverse["bbbbbbbbb"] = {1: w}
        return real(w, pc, deltas, reverse, rows)

    real = enumeration.vertex_row
    monkeypatch.setattr(enumeration, "vertex_row", stale)
    with pytest.raises(TheoremViolation, match="length 9, shard 'a': no row took the level edges handed to"):
        _shard_job((9, "a", False, None, False))


def test_the_scan_canonicalizes_each_level_edge_once(monkeypatch):
    """census([12]) on one worker canonicalizes 1,511 level images, not one
    per end of an edge (2,969): a row hands the reverse of each edge to a
    larger word to that word's row."""
    calls = []
    real = minimality._canonical
    monkeypatch.setattr(minimality, "_canonical", lambda w: calls.append(w) or real(w))
    census([12])
    assert len(calls) == 1511


def test_shards_of_length_13_canonicalize_5674_images(monkeypatch):
    """The 14 shard jobs of length 13 make 5,674 canonicalizations, not the
    7,488 they made when each closure kept its own reverse table: a closure
    reads the shard's row store and hands edges over in its reverse table."""
    calls = []
    real = minimality._canonical
    monkeypatch.setattr(minimality, "_canonical", lambda w: calls.append(w) or real(w))
    for p in _shard_prefixes(13):
        _shard_job((13, p, False, None, False))
    assert len(calls) == 5674


@pytest.mark.parametrize("n", range(8, 14))
def test_shards_finish_the_classes_one_job_finds(n):
    """Each class is owned by the shard of its least vertex, also when it spans shards."""
    whole = _shard_job((n, "a", True, None, True))
    parts = [_shard_job((n, p, True, None, True)) for p in _shard_prefixes(n)]
    assert sum((part[0] for part in parts), Counter()) == whole[0]
    assert sum(part[1] for part in parts) == whole[1] == enumeration._vertex_total(whole[0])
    assert list(_numbered(n, [part[2] for part in parts])) == list(_numbered(n, [whole[2]]))
    assert [f for part in parts for f in part[3]] == whole[3] == []


@pytest.mark.parametrize("workers", (1, 2))
def test_class_output_does_not_change_the_tables(workers):
    counts = census(range(14), workers)
    written, scanned = {}, {}
    full = census(range(14), workers, lines=lambda n, text: written.update({n: list(text)}), coincidences=scanned.__setitem__)
    assert full.class_stats == counts.class_stats
    assert [len(written[n]) for n in range(14)] == [full.class_totals[n] for n in range(14)]
    assert scanned == {n: [] for n in range(14)}


def test_repeated_lengths_are_enumerated_once():
    calls = []
    tables = census([3, 3], lines=lambda n, lines: calls.append((n, len(list(lines)))))
    assert calls == [(3, 1)]
    assert list(tables.class_stats) == [3]


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("wt", range(6))
def test_weight_drops_lines_but_not_ids(wt, workers):
    """--weight keeps the lines of one weight, edge-free ones weighed from
    the scan's tally, and the ids of the unrestricted census."""
    every, some = {}, {}
    census([10], lines=lambda n, text: every.update({n: list(text)}))
    census([10], workers=workers, lines=lambda n, text: some.update({n: list(text)}), weight=wt)
    assert some[10] == [line for line in every[10] if f'"weight": {wt},' in line]
    assert bool(some[10]) == (wt != 1)  # length 10 has no class of weight 1


def test_record_json_shape():
    rec = enumerate_classes(4)[1]
    d = {"id": rec.class_id, **to_dict(rec.graph)}  # one classes_<n>.jsonl line
    assert list(d) == [
        "id",
        "length",
        "type",
        "size",
        "weight",
        "root",
        "alternating",
        "vertices",
        "edges",
    ]
    assert d["id"] == "4.2"
    assert (d["length"], d["size"], d["weight"]) == (rec.length, rec.size, rec.weight)
    assert d["vertices"] == ["abAB"]
    assert d["type"] == "R4"
    assert d["root"] is True and d["alternating"] is True


def test_graph_type_order():
    assert GRAPH_TYPE_ORDER is GRAPH_TYPES
    assert GRAPH_TYPES == ("P1", "P2", "P3", "R1", "R2", "R3", "R4", "R5", "R6", "R7")
    assert len(LIMIT_SEQUENCE) == 12


def test_conjecture_report_shape_and_small_range():
    tables = census(range(11))
    report = conjecture_report(tables)
    assert report["lengths"] == list(range(11))
    assert set(report) == {
        "lengths",
        "large_class_diagonal",
        "weight4_path_by_deficit",
        "nonroot_singletons",
        "weight6_path_by_deficit",
        "mean_class_size",
    }
    diag = report["large_class_diagonal"]
    assert [row["k"] for row in diag] == list(range(12))
    assert all(set(row["all_counts"]) <= {8, 9, 10} for row in diag)
    # the singleton predictions already hold on this range
    for name in ("weight2", "weight3"):
        rows = report["nonroot_singletons"][name]
        assert rows and all(row["ok"] for row in rows)
    assert report["nonroot_singletons"]["weight5"] == []
    assert all(row["ok"] for row in report["mean_class_size"])

    text = render_conjecture_report(report)
    assert "conjecture report" in text
    assert "mean class size per length:" in text
    assert "MISMATCH" not in text


@pytest.mark.parametrize("n", range(13))
def test_no_principal_coincidence_failures(n):
    assert [f for w in enumerate_minimal(n) for f in _coincidences(w, _deltas(w))] == []


def _level_forms(w: str) -> dict:
    """The oracle's canonical forms of the level images of w, by principal index."""
    deltas = _deltas(w)
    return {p: orc.o_canonical(orc.o_apply_cyclic(d, w)) for p, d in enumerate(orc.PRINCIPAL_MAPS, 1) if not deltas[p - 1]}


def _brute_force_scan(words):
    """The coincidence scan from the definitions: canonical forms of all four images."""
    failures = []
    for w in sorted(words, key=order_key):
        c = [orc.o_canonical(orc.o_apply_cyclic(d, w)) for d in orc.PRINCIPAL_MAPS]
        for rule in ("12=>34", "34=>12", "13=>24", "14=>23", "23=>14"):
            h1, h2, c1, c2 = (int(ch) - 1 for ch in rule.replace("=>", ""))
            if c[h1] == c[h2] and c[c1] != c[c2]:
                failures.append({"word": w, "rule": rule, "images": c})
    return failures


@given(st.lists(st.one_of(cyclic_reduced_words(max_size=60), run_heavy_words()), max_size=6))
@example(["aaBaBB", "aabAbABB", "abAB", ""])  # two counterexamples to 13=>24
@example(orc.necklaces(6))  # non-minimal words break the implications
def test_coincidence_scan_matches_brute_force(words):
    """Also when the canonical forms of the level images are given, as the
    shard job gives those of vertex_row."""
    words = sorted(words, key=order_key)
    assert [f for w in words for f in _coincidences(w, _deltas(w))] == _brute_force_scan(words)
    assert [f for w in words for f in _coincidences(w, _deltas(w), _level_forms(w))] == _brute_force_scan(words)


def _counted_sums(u: str) -> tuple:
    """((a-type tally, |exponent sum of a|), (b-type tally, |exponent sum of b|)) of u, counted."""
    return tuple((u.count(x) + u.count(X), abs(u.count(x) - u.count(X))) for x, X in ("aA", "bB"))


def check_image_sums(w: str) -> None:
    """_image_sums(w) are the counted sums of the oracle's four images, and
    two images with one canonical form have the same two sums, in some order."""
    sums = _image_sums(w, _deltas(w))
    images = [orc.o_apply_cyclic(d, w) for d in orc.PRINCIPAL_MAPS]
    assert list(sums) == [_counted_sums(u) for u in images]
    for h in range(4):
        for k in range(h + 1, 4):
            if len(images[h]) == len(images[k]) and orc.o_canonical(images[h]) == orc.o_canonical(images[k]):
                assert sorted(sums[h]) == sorted(sums[k])


def test_image_sums_match_the_oracle_on_every_short_word():
    """Every cyclic word of at most 9 letters."""
    for n in range(10):
        for w in orc.cyclic_words(n):
            check_image_sums(w)


@given(st.one_of(cyclic_reduced_words(max_size=60), run_heavy_words()))
def test_image_sums_match_the_oracle_on_long_words(w):
    check_image_sums(w)


def test_coincidence_scan_builds_few_images(monkeypatch):
    """census(range(13)) with the scan makes 1,846 _align calls and builds
    3,054 images in _coincidences; without the _image_sums test it made
    8,077 and 12,306.  Two images whose sums differ as multisets are never built."""
    calls = Counter()
    for name in ("_align", "_apply_cyclic"):
        real = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    failures = []
    census(range(13), 1, coincidences=lambda n, found: failures.extend(found))
    assert failures == []
    assert calls == {"_align": 1846, "_apply_cyclic": 3054}


def test_class_record_is_frozen():
    rec = enumerate_classes(4)[0]
    assert isinstance(rec, ClassRecord)
    with pytest.raises(AttributeError):
        rec.size = 99
