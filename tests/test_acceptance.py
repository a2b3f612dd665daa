"""Acceptance gate: one test per contract criterion.

Each test appends a PASS/FAIL line to the shared acceptance log, printed
as a terminal section at the end of the run.
"""

import os
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles as orc
from f2aut.automorphism import (
    ALL_ONE_LETTER,
    ALL_PERMUTATIONS,
    PRINCIPALS,
    OneLetterAut,
    Permutation,
    WhiteheadII,
    apply_cyclic,
    apply_whitehead,
    canonical_word,
    conjugate_by_perm,
    triangle_decompose,
)
from f2aut.class_graph import build_graph, classify
from f2aut.enumeration import GRAPH_TYPE_ORDER, census, conjecture_report
from f2aut.minimality import are_conjugate, is_minimal
from f2aut.word_core import (
    cyclic_reduce,
    free_reduce,
    inverse_letter,
    least_rotation,
    subword_count,
    weight,
)


@contextmanager
def criterion(log, num, name):
    try:
        yield
    except BaseException:
        log.append(f"criterion {num} ({name}): FAIL")
        raise
    log.append(f"criterion {num} ({name}): PASS")


def _canon(word: str) -> str:
    return canonical_word(cyclic_reduce(free_reduce(word))[0])


def _apply_exact(aut, w: str) -> str:
    if isinstance(aut, Permutation):
        return aut(w)
    if isinstance(aut, OneLetterAut):
        return free_reduce(w.translate(aut.table))
    return apply_whitehead(aut, w)


def test_criterion_1_class_lists_to_length_9(acceptance_log, golden_classes, census14):
    with criterion(acceptance_log, 1, "class lists for lengths 0..9"):
        _, store = census14
        assert [len(golden_classes[str(n)]) for n in range(10)] == [
            1, 1, 1, 1, 3, 4, 10, 16, 43, 101,
        ]
        for n in range(10):
            ours = {frozenset(rec.representatives): rec.gtype for rec in store[n]}
            fixture = {
                frozenset(_canon(w) for w in entry["words"]): entry["type"]
                for entry in golden_classes[str(n)]
            }
            assert set(ours) == set(fixture)
            for key, gtype in fixture.items():
                if key == frozenset({"a"}):
                    # the golden list mislabels the one-letter class: a
                    # length-1 word cannot be a root word, and the golden
                    # per-type totals for n=1 agree with P3
                    assert gtype == "R1" and ours[key] == "P3"
                else:
                    assert ours[key] == gtype


def test_criterion_2_type_counts_to_length_14(acceptance_log, golden_type_counts, census14):
    with criterion(acceptance_log, 2, "type counts for lengths 0..14"):
        tables, _ = census14
        for n in range(15):
            ours = {g: tables.type_counts[n].get(g, 0) for g in GRAPH_TYPE_ORDER}
            fixture = {g: golden_type_counts[str(n)].get(g, 0) for g in GRAPH_TYPE_ORDER}
            assert ours == fixture, f"type counts differ at n={n}"
        row = tables.type_counts[12]
        assert tuple(row.get(g, 0) for g in GRAPH_TYPE_ORDER) == (
            2140, 4, 96, 4, 12, 244, 1, 7, 5, 31,
        )


@pytest.mark.skipif(
    os.environ.get("F2AUT_STRETCH") != "1",
    reason="stretch check: set F2AUT_STRETCH=1 to enumerate lengths 15..16",
)
def test_criterion_2_stretch_length_16(acceptance_log, golden_type_counts, worker_count):
    tables = census((15, 16), workers=worker_count)
    for n in (15, 16):
        ours = {g: tables.type_counts[n].get(g, 0) for g in GRAPH_TYPE_ORDER}
        fixture = {g: golden_type_counts[str(n)].get(g, 0) for g in GRAPH_TYPE_ORDER}
        assert ours == fixture
    assert tables.type_counts[16]["P1"] == 175209
    assert tables.type_counts[16]["R3"] == 10899
    acceptance_log.append("criterion 2 stretch (lengths 15..16): PASS")


@pytest.mark.skipif(
    os.environ.get("F2AUT_STRETCH_LARGE") != "1",
    reason="stretch check: set F2AUT_STRETCH_LARGE=1 to enumerate lengths 17..18 (about 30 s on 2 vCPU)",
)
def test_criteria_2_to_4_stretch_lengths_17_18(
    acceptance_log, golden_type_counts, golden_size_histograms, worker_count
):
    """Type counts, P1-P3 size histograms and the n - 5 size bound of
    lengths 17 and 18 against the committed fixtures."""
    tables = census((17, 18), workers=worker_count)
    for n in (17, 18):
        ours = {g: tables.type_counts[n].get(g, 0) for g in GRAPH_TYPE_ORDER}
        fixture = {g: golden_type_counts[str(n)].get(g, 0) for g in GRAPH_TYPE_ORDER}
        assert ours == fixture, f"type counts differ at n={n}"
        for gtype in ("P1", "P2", "P3"):
            ours = {str(size): count for size, count in tables.size_counts[gtype].get(n, {}).items()}
            assert ours == golden_size_histograms[gtype].get(str(n), {}), f"{gtype} histogram differs at n={n}"
        assert max(size for (_, _, size, _) in tables.class_stats[n]) <= n - 5
    acceptance_log.append("criteria 2-4 stretch (lengths 17..18): PASS")


def test_criterion_3_size_histograms_to_length_14(
    acceptance_log, golden_size_histograms, census14
):
    with criterion(acceptance_log, 3, "class size histograms for lengths 0..14"):
        tables, _ = census14
        for gtype in ("P1", "P2", "P3"):
            for n in range(15):
                ours = {
                    str(size): count
                    for size, count in tables.size_counts[gtype].get(n, {}).items()
                }
                fixture = golden_size_histograms[gtype].get(str(n), {})
                assert ours == fixture, f"{gtype} histogram differs at n={n}"
        assert dict(tables.size_counts["P1"][13]) == {
            1: 4538, 2: 1964, 3: 401, 4: 76, 5: 27, 6: 17, 7: 12, 8: 5,
        }


def test_criterion_4_size_bound_and_witness_family(acceptance_log, census14):
    with criterion(acceptance_log, 4, "class size bound n-5 with witness family"):
        tables, _ = census14
        for n in range(9, 15):
            biggest = max(size for (_, _, size, _) in tables.class_stats[n])
            assert biggest <= n - 5
            g = build_graph("a" * (n - 6) + "baBabb")
            assert g.gtype == "P1"
            assert len(g.vertices) == n - 5


def test_criterion_5_structural_theorems(acceptance_log, census14):
    with criterion(acceptance_log, 5, "structural theorems over lengths 0..12"):
        _, store = census14
        for n, records in store.items():
            by_type = Counter(rec.gtype for rec in records)
            assert by_type.get("R4", 0) == (1 if n % 4 == 0 else 0)
            for rec in records:
                g = rec.graph
                assert classify(g) == g.gtype
                assert g.gtype in GRAPH_TYPE_ORDER
                if g.is_root_class:
                    assert rec.size in (1, 2, 3, 5)
                    assert n % 4 == 0
                if n % 2 == 1 and g.gtype == "P3":
                    assert rec.size == 1
                assert len({weight(v) for v in g.vertices}) == 1
                assert sum(1 for v in g.vertices if orc.o_count(v, "aa") == 0 and orc.o_count(v, "bb") == 0 and len(v) != 1) <= 1
                outdeg = Counter(u for u, _, _ in g.edges)
                allowed = (2, 4) if g.is_root_class else (0, 1, 2)
                assert all(outdeg.get(i, 0) in allowed for i in range(rec.size))


def test_criterion_6_oracle_agreement(acceptance_log, census14):
    with criterion(acceptance_log, 6, "conjugacy and minimality versus brute force"):
        # component structure of the full automorphism orbit, length cap 8
        comp = orc.orbit_components(6, 8)
        words = [w for n in range(7) for w in orc.necklaces(n)]
        for i, u in enumerate(words):
            for v in words[i:]:
                flag, tokens = are_conjugate(u, v)
                assert flag == (comp[u] == comp[v])
                if flag:
                    assert orc.replay_tokens(u, tokens) == v
                else:
                    assert tokens is None
        # count criterion versus the definitional shortening test
        for n in range(13):
            for w in orc.necklaces(n):
                assert is_minimal(w) == orc.o_is_minimal(w)


def test_criterion_7_identity_suite(acceptance_log):
    with criterion(acceptance_log, 7, "identity suite on short words"):
        reduced = [w for n in range(7) for w in orc.reduced_words(n)]
        cyclic = [w for n in range(7) for w in orc.cyclic_words(n)]

        # permutations move one-letter automorphisms to one-letter automorphisms
        for phi in ALL_ONE_LETTER:
            for pi in ALL_PERMUTATIONS:
                psi = conjugate_by_perm(phi, pi)
                for w in reduced:
                    assert pi(_apply_exact(phi, w)) == _apply_exact(psi, pi(w))

        # ({y}, x) equals the inner multiplier automorphism after ({y^-1}, x^-1)
        for phi in ALL_ONE_LETTER:
            y, x = phi.y, phi.x
            inner = WhiteheadII(frozenset({y, inverse_letter(y)}), x)
            twin = OneLetterAut(inverse_letter(y), inverse_letter(x))
            for w in reduced:
                assert _apply_exact(phi, w) == apply_whitehead(inner, _apply_exact(twin, w))
            for w in cyclic:
                assert least_rotation(apply_cyclic(phi, w)) == least_rotation(
                    apply_cyclic(twin, w)
                )

        # two-step triangle relation and its permutation factorization
        for x in "abAB":
            for y in ("b", "B") if x in "aA" else ("a", "A"):
                pi, factors = triangle_decompose(x, y)
                assert pi(x) == inverse_letter(y) and pi(y) == x
                for w in reduced:
                    lhs = _apply_exact(
                        OneLetterAut(inverse_letter(x), y), _apply_exact(OneLetterAut(y, x), w)
                    )
                    rhs = w
                    for f in reversed(factors):
                        rhs = _apply_exact(f, rhs)
                    assert lhs == rhs

        # the four induced coincidences between principal double images
        pairings = ((2, 3, 1), (1, 4, 2), (4, 1, 3), (3, 2, 4))
        for w in cyclic:
            for i, j, k in pairings:
                double = apply_cyclic(PRINCIPALS[i - 1], apply_cyclic(PRINCIPALS[j - 1], w))
                assert canonical_word(double) == canonical_word(
                    apply_cyclic(PRINCIPALS[k - 1], w)
                )

        # pattern counts transport through a one-letter automorphism
        for n in range(3, 11):
            for w in orc.necklaces(n):
                for phi in ALL_ONE_LETTER:
                    y, x = phi.y, phi.x
                    img = apply_cyclic(phi, w)
                    assert subword_count(img, y + y) == subword_count(
                        w, y + inverse_letter(x) + y
                    )
                    assert subword_count(img, x + x) == (
                        subword_count(w, y + x + y)
                        + subword_count(w, y + x + x)
                        + subword_count(w, x + x + y)
                        + subword_count(w, x + x + x)
                    )


def test_criterion_8_census_statistics(acceptance_log, census14):
    with criterion(acceptance_log, 8, "census statistics and stabilized diagonals"):
        tables, _ = census14
        report = conjecture_report(tables)
        stabilized = (0, 0, 0, 0, 0, 5, 12, 17, 24)
        diag = report["large_class_diagonal"]
        for k, expected in enumerate(stabilized):
            row = diag[k]
            assert row["k"] == k and row["limit"] == expected
            assert row["p1_newest"] == expected
            assert row["p1_newest_match"]
        for n in range(15):
            stats = tables.class_stats[n]
            weight0 = sum(c for (_, wt, _, _), c in stats.items() if wt == 0)
            weight1 = sum(c for (_, wt, _, _), c in stats.items() if wt == 1)
            assert weight0 == 1 and weight1 == 0
        for row in report["mean_class_size"]:
            mean = Fraction(row["mean"])
            assert 1 <= mean < Fraction(176, 100)
            assert row["ok"]
