"""Exhaustive enumeration, census tables, and conjecture reporting."""

from fractions import Fraction

import pytest

import oracles as orc
from f2aut.class_graph import GRAPH_TYPES, ClassGraph, to_dict
from f2aut.enumeration import (
    GRAPH_TYPE_ORDER,
    LIMIT_SEQUENCE,
    ClassRecord,
    census,
    conjecture_report,
    enumerate_classes,
    enumerate_minimal,
    expected_class_size,
    principal_coincidence_scan,
    render_conjecture_report,
)
from f2aut.word_core import order_key, weight

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


def test_enumerate_minimal_is_sorted_and_canonical():
    words = enumerate_minimal(9)
    assert words == sorted(words, key=order_key)
    assert all(orc.o_canonical(w) == w for w in words)


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
    tables = census(range(10), sink=lambda n, recs: calls.append((n, len(recs))))
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


@pytest.mark.parametrize("n", range(9))
def test_no_principal_coincidence_failures(n):
    assert principal_coincidence_scan(enumerate_classes(n)) == []


def test_coincidence_scan_reads_records_in_vertex_order():
    # non-minimal words break the implications, and the scan accepts any records
    words = orc.necklaces(6)
    records = [
        ClassRecord(f"6.{i}", 6, 1, weight(w), "P1", ClassGraph((w,), (), False, False, "P1"))
        for i, w in enumerate(reversed(words))
    ]
    failures = principal_coincidence_scan(records)
    assert failures == principal_coincidence_scan(records[::-1])
    keys = [order_key(f["word"]) for f in failures]
    assert keys and keys == sorted(keys)
    for f in failures:
        images = [
            orc.o_canonical(orc.o_apply_cyclic(orc.one_letter_map(y, x), f["word"]))
            for y, x in ("ab", "aB", "ba", "bA")
        ]
        assert f["images"] == images


def test_class_record_is_frozen():
    rec = enumerate_classes(4)[0]
    assert isinstance(rec, ClassRecord)
    with pytest.raises(AttributeError):
        rec.size = 99
