"""Letters, reduction, rotation, and cyclic subword counting."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from conftest import cyclic_reduced_words, raw_words, reduced_words
from f2aut.word_core import (
    LETTERS,
    SubwordCounts,
    all_rotations,
    check_word,
    cyclic_reduce,
    free_reduce,
    invert,
    inverse_letter,
    is_alternating,
    is_cyclic_word,
    is_reduced,
    least_rotation,
    letter_tally,
    m_value,
    order_key,
    pair_counts,
    rotate,
    subword_count,
    weight,
)


def test_alphabet_and_inverse_letters():
    assert LETTERS == "abAB"
    assert inverse_letter("a") == "A"
    assert inverse_letter("A") == "a"
    assert inverse_letter("b") == "B"
    assert inverse_letter("B") == "b"


def test_check_word_accepts_valid_and_rejects_invalid():
    assert check_word("") == ""
    assert check_word("abAB") == "abAB"
    for bad in ("x", "a b", "ab1", "a-b", "α"):
        with pytest.raises(ValueError):
            check_word(bad)


def test_invert_examples():
    assert invert("") == ""
    assert invert("a") == "A"
    assert invert("ab") == "BA"
    assert invert("aabB") == "bBAA"


@given(reduced_words())
def test_invert_is_an_involution(w):
    assert invert(invert(w)) == w
    assert invert(w) == orc.o_invert(w)


@given(reduced_words(), reduced_words())
def test_invert_is_an_antihomomorphism(u, v):
    assert invert(free_reduce(u + v)) == free_reduce(invert(v) + invert(u))


def test_order_key_orders_letters():
    assert sorted("BAba", key=order_key) == ["a", "b", "A", "B"]
    assert order_key("abAB") < order_key("abBA")


def test_free_reduce_examples():
    assert free_reduce("") == ""
    assert free_reduce("aA") == ""
    assert free_reduce("Aa") == ""
    assert free_reduce("abBA") == ""
    assert free_reduce("aabBAA") == ""
    assert free_reduce("abAB") == "abAB"
    assert free_reduce("baAb") == "bb"


@given(raw_words())
def test_free_reduce_matches_oracle_and_is_idempotent(w):
    r = free_reduce(w)
    assert r == orc.o_free_reduce(w)
    assert is_reduced(r)
    assert free_reduce(r) == r


@given(reduced_words())
def test_free_reduce_cancels_inverse(w):
    assert free_reduce(w + invert(w)) == ""


def test_is_cyclic_word_examples():
    assert is_cyclic_word("")
    assert is_cyclic_word("a")
    assert is_cyclic_word("ab")
    assert is_cyclic_word("aba")
    assert not is_cyclic_word("abA")
    assert not is_cyclic_word("aA")  # not even freely reduced


def test_cyclic_reduce_examples():
    assert cyclic_reduce("") == ("", "")
    assert cyclic_reduce("abAB") == ("abAB", "")
    assert cyclic_reduce("BaabAb") == ("ab", "Ba")


@given(raw_words())
def test_cyclic_reduce_decomposition(w):
    reduced = free_reduce(w)
    core, u = cyclic_reduce(reduced)
    assert is_cyclic_word(core)
    assert core == orc.o_cyclic_core(w)
    assert free_reduce(u + core + invert(u)) == reduced
    assert cyclic_reduce(core) == (core, "")


def test_rotate_and_all_rotations_examples():
    assert rotate("aab", 1) == "aba"
    assert rotate("ab", 0) == "ab"
    assert rotate("ab", 3) == "ba"
    assert rotate("ab", -1) == "ba"
    assert rotate("", 5) == ""
    assert all_rotations("") == [""]
    assert all_rotations("aab") == ["aab", "aba", "baa"]


@given(cyclic_reduced_words(min_size=1), st.integers(-10, 10))
def test_rotations_preserve_cyclic_words(w, k):
    r = rotate(w, k)
    assert is_cyclic_word(r)
    assert len(r) == len(w)
    assert r in all_rotations(w)
    assert rotate(r, -k) == w


@given(cyclic_reduced_words())
def test_least_rotation_matches_oracle(w):
    lr = least_rotation(w)
    assert lr == orc.o_least_rotation(w)
    assert all(order_key(lr) <= order_key(r) for r in all_rotations(w))


def test_subword_count_known_values():
    w = "aaBBAbaBa"
    assert subword_count(w, "aa") == 2
    assert subword_count(w, "bb") == 1  # via the BB occurrence
    assert subword_count(w, "ab") == 1
    assert subword_count(w, "ba") == 1
    assert subword_count(w, "aB") == 2
    assert subword_count(w, "Ba") == 2


def test_subword_count_edge_rules():
    assert subword_count("a", "aa") == 0  # pattern longer than the word
    assert subword_count("aa", "aa") == 2  # cyclic positions, overlapping
    assert subword_count("ab", "ab") == 1
    with pytest.raises(AssertionError):
        subword_count("ab", "")
    with pytest.raises(AssertionError):
        subword_count("ab", "aA")


@given(cyclic_reduced_words(min_size=1, max_size=10), reduced_words(min_size=1, max_size=3))
def test_subword_count_matches_naive_scan(w, u):
    assert subword_count(w, u) == orc.o_count(w, u)


@given(cyclic_reduced_words(min_size=1, max_size=10), reduced_words(min_size=1, max_size=3), st.integers(0, 9))
def test_subword_count_is_rotation_invariant(w, u, k):
    assert subword_count(rotate(w, k), u) == subword_count(w, u)


@given(cyclic_reduced_words(min_size=1, max_size=10), reduced_words(min_size=1, max_size=3))
def test_subword_count_of_inverse_pattern(w, u):
    assert subword_count(w, invert(u)) == subword_count(w, u)


@given(cyclic_reduced_words(max_size=10))
def test_mirror_digraph_counts_agree(w):
    # (xy)_w = (yx)_w for every letter pair
    for x, y in orc.mirror_digraph_identity_domain():
        assert subword_count(w, x + y) == subword_count(w, y + x)


def test_pair_counts_examples():
    assert pair_counts("") == SubwordCounts(0, 0, 0, 0)
    assert pair_counts("a") == SubwordCounts(0, 0, 0, 0)
    assert pair_counts("aaBBAbaBa") == SubwordCounts(2, 1, 1, 2)
    assert pair_counts("abAB") == SubwordCounts(0, 0, 1, 1)


@given(cyclic_reduced_words(min_size=2))
def test_pair_counts_match_subword_count(w):
    pc = pair_counts(w)
    assert pc.aa == subword_count(w, "aa")
    assert pc.bb == subword_count(w, "bb")
    assert pc.ab == subword_count(w, "ab")
    assert pc.ab_bar == subword_count(w, "aB")


@given(cyclic_reduced_words(min_size=2))
def test_pair_counts_sum_to_length(w):
    # every cyclic digraph is one of the four patterns or a mirror of ab/aB
    pc = pair_counts(w)
    assert pc.aa + pc.bb + 2 * pc.ab + 2 * pc.ab_bar == len(w)


def test_letter_tally_weight_examples():
    assert letter_tally("aabAB") == (3, 2)
    assert weight("aabAB") == 2
    assert weight("aaaa") == 0
    assert weight("") == 0


@given(cyclic_reduced_words())
def test_weight_is_min_tally(w):
    a_count, b_count = letter_tally(w)
    assert a_count == sum(1 for c in w if c in "aA")
    assert a_count + b_count == len(w)
    assert weight(w) == min(a_count, b_count)


def test_is_alternating_examples():
    assert is_alternating("")
    assert not is_alternating("a")  # a single letter cyclically repeats itself
    assert is_alternating("ab")
    assert is_alternating("abAB")
    assert not is_alternating("aabb")


def test_m_value_examples():
    assert m_value("aabb", "a", "b") == 0
    assert m_value("abab", "a", "b") == 1
    assert m_value("aabab", "a", "b") == 1
    assert m_value("aaba", "a", "b") == math.inf  # only one b-type letter
    assert m_value("aaaa", "a", "b") == math.inf
    with pytest.raises(AssertionError):
        m_value("ab", "a", "a")
    with pytest.raises(AssertionError):
        m_value("ab", "a", "A")


@given(cyclic_reduced_words(min_size=1, max_size=10))
def test_m_value_definition(w):
    # least i with (b a^i b)_w >= 1, scanning the definition directly
    expected = math.inf
    for i in range(len(w)):
        if orc.o_count(w, "b" + "a" * i + "b") >= 1:
            expected = i
            break
    assert m_value(w, "a", "b") == expected
