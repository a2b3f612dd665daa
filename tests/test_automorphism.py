"""Permutations, multiplier automorphisms, canonical forms, and their identities."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from conftest import cyclic_reduced_words, reduced_words
from f2aut.automorphism import (
    ALL_ONE_LETTER,
    ALL_PERMUTATIONS,
    IDENTITY_PERM,
    PRINCIPALS,
    OneLetterAut,
    Permutation,
    WhiteheadII,
    all_whitehead,
    apply_cyclic,
    apply_whitehead,
    canonical_witness,
    canonical_word,
    conjugate_by_perm,
    principal_index,
    principal_of,
    triangle_decompose,
)
from f2aut.word_core import (
    cyclic_reduce,
    free_reduce,
    invert,
    is_cyclic_word,
    least_rotation,
    rotate,
)

one_letter_auts = st.sampled_from(ALL_ONE_LETTER)
permutations = st.sampled_from(ALL_PERMUTATIONS)
whitehead_auts = st.sampled_from(tuple(all_whitehead()))


def test_permutation_basics():
    assert IDENTITY_PERM == Permutation("a", "b")
    assert IDENTITY_PERM("abAB") == "abAB"
    swap = Permutation("b", "a")
    assert swap("abAB") == "baBA"
    flip = Permutation("A", "b")
    assert flip("aA") == "Aa"
    with pytest.raises(ValueError):
        Permutation("a", "A")  # images must hit both generator pairs


def test_permutation_group_structure():
    assert len(set(ALL_PERMUTATIONS)) == 8
    assert ALL_PERMUTATIONS[0] == IDENTITY_PERM
    perms = set(ALL_PERMUTATIONS)
    for p, q in product(ALL_PERMUTATIONS, repeat=2):
        assert p.compose(q) in perms
    for p in ALL_PERMUTATIONS:
        assert p.inverse() in perms
        assert p.compose(p.inverse()) == IDENTITY_PERM
        assert p.inverse().compose(p) == IDENTITY_PERM


@given(permutations, permutations, reduced_words())
def test_permutation_compose_applies_right_factor_first(p, q, w):
    assert p.compose(q)(w) == p(q(w))


@given(permutations, reduced_words())
def test_permutations_respect_inversion_and_reduction(p, w):
    assert p(invert(w)) == invert(p(w))
    assert free_reduce(p(w)) == p(w)  # reduced stays reduced


def test_whitehead_letter_images():
    phi = WhiteheadII(frozenset({"a"}), "b")
    assert phi.letter_image("a") == "ab"
    assert phi.letter_image("A") == "BA"
    assert phi.letter_image("b") == "b"
    assert phi.letter_image("B") == "B"
    inner = WhiteheadII(frozenset({"a", "A"}), "b")
    assert inner.letter_image("a") == "Bab"
    assert inner.letter_image("A") == "BAb"
    assert inner.letter_image("b") == "b"
    with pytest.raises(ValueError):
        WhiteheadII(frozenset({"b"}), "b")  # member set may not contain the multiplier


def test_all_whitehead_counts():
    assert len(all_whitehead()) == 16
    assert len(all_whitehead("a")) == 4
    member_sets = {phi.members for phi in all_whitehead("a")}
    assert member_sets == {
        frozenset(),
        frozenset({"b"}),
        frozenset({"B"}),
        frozenset({"b", "B"}),
    }


def test_apply_whitehead_known_images():
    assert apply_whitehead(OneLetterAut("a", "b").as_whitehead(), "a") == "ab"
    assert apply_whitehead(OneLetterAut("a", "B").as_whitehead(), "abab") == "aa"
    assert apply_cyclic(OneLetterAut("b", "A"), "aabb") == "abAb"
    assert apply_cyclic(OneLetterAut("b", "a"), "abaB") == "abaB"
    identity = WhiteheadII(frozenset(), "b")
    assert apply_whitehead(identity, "abAB") == "abAB"


@given(whitehead_auts, reduced_words(), reduced_words())
def test_apply_whitehead_is_a_homomorphism(phi, u, v):
    image = free_reduce(apply_whitehead(phi, u) + apply_whitehead(phi, v))
    assert apply_whitehead(phi, free_reduce(u + v)) == image


@given(whitehead_auts, reduced_words())
def test_apply_whitehead_matches_oracle(phi, w):
    d = {c: phi.letter_image(c) for c in "abAB"}
    assert apply_whitehead(phi, w) == orc.o_apply(d, w)


def test_one_letter_vocabulary():
    assert len(set(ALL_ONE_LETTER)) == 8
    assert str(OneLetterAut("a", "b")) == "W[a,b]"
    assert OneLetterAut("a", "b").inverse() == OneLetterAut("a", "B")
    with pytest.raises(ValueError):
        OneLetterAut("a", "a")
    with pytest.raises(ValueError):
        OneLetterAut("a", "A")


@given(one_letter_auts, reduced_words())
def test_one_letter_inverse_undoes(phi, w):
    assert apply_whitehead(phi.inverse().as_whitehead(), apply_whitehead(phi.as_whitehead(), w)) == w


@given(one_letter_auts, cyclic_reduced_words())
def test_one_letter_fast_path_matches_whitehead_path(phi, w):
    assert apply_cyclic(phi, w) == apply_cyclic(phi.as_whitehead(), w)
    assert apply_cyclic(phi, w) == cyclic_reduce(apply_whitehead(phi.as_whitehead(), w))[0]


def test_principal_vocabulary():
    assert PRINCIPALS == (
        OneLetterAut("a", "b"),
        OneLetterAut("a", "B"),
        OneLetterAut("b", "a"),
        OneLetterAut("b", "A"),
    )
    for i, phi in enumerate(PRINCIPALS, start=1):
        assert principal_index(phi) == i
        assert principal_of(phi) == phi
    assert principal_of(OneLetterAut("A", "B")) == OneLetterAut("a", "b")
    assert principal_of(OneLetterAut("B", "a")) == OneLetterAut("b", "A")


@given(one_letter_auts, cyclic_reduced_words())
def test_every_one_letter_aut_matches_its_principal_on_cyclic_words(phi, w):
    # the two images are conjugate, hence equal as cyclic words
    psi = principal_of(phi)
    assert least_rotation(apply_cyclic(phi, w)) == least_rotation(apply_cyclic(psi, w))


@given(one_letter_auts, permutations, reduced_words())
def test_conjugate_by_perm_identity(phi, pi, w):
    # pi(phi(w)) == psi(pi(w)) with psi the permuted automorphism
    psi = conjugate_by_perm(phi, pi)
    assert psi == OneLetterAut(pi(phi.y), pi(phi.x))
    assert pi(apply_whitehead(phi.as_whitehead(), w)) == apply_whitehead(psi.as_whitehead(), pi(w))


def test_canonical_word_examples():
    assert canonical_word("") == ""
    assert canonical_word("b") == "a"
    assert canonical_word("BB") == "aa"
    assert canonical_word("bABa") == canonical_word("abAB")


@given(cyclic_reduced_words())
def test_canonical_word_matches_oracle(w):
    c = canonical_word(w)
    assert c == orc.o_canonical(w)
    assert canonical_word(c) == c
    if c:
        assert c[0] == "a"


@given(cyclic_reduced_words(min_size=1), permutations, st.integers(0, 11))
def test_canonical_word_is_class_invariant(w, pi, k):
    assert canonical_word(rotate(w, k)) == canonical_word(w)
    assert canonical_word(pi(w)) == canonical_word(w)


@given(cyclic_reduced_words())
def test_canonical_witness_equation(w):
    canonical, pi, k = canonical_witness(w)
    assert canonical == canonical_word(w)
    assert rotate(pi(w), k) == canonical


def brute_force_witness(w):
    """The first pi in ALL_PERMUTATIONS order reaching the canonical form, then the least k."""
    target = orc.o_canonical(w)
    for pi in ALL_PERMUTATIONS:
        for k in range(max(len(w), 1)):
            if rotate(pi(w), k) == target:
                return target, pi, k
    raise AssertionError(f"no rotation of a permutation image of {w!r} is canonical")


@given(cyclic_reduced_words(min_size=13, max_size=300))
def test_canonical_forms_on_long_words(w):
    assert canonical_word(w) == orc.o_canonical(w)
    assert canonical_witness(w) == brute_force_witness(w)


@pytest.mark.parametrize("w", ("abab", "aBaB", "abAB", "aaaa", "bbbb", "aabb" * 4, "aab" * 5))
def test_canonical_witness_tie_break_on_periodic_words(w):
    assert canonical_witness(w) == brute_force_witness(w)


def test_triangle_decompose_rejects_bad_letters():
    with pytest.raises(ValueError):
        triangle_decompose("a", "A")
    with pytest.raises(ValueError):
        triangle_decompose("a", "a")
    with pytest.raises(ValueError):
        triangle_decompose("c", "b")


@given(st.sampled_from([(x, y) for x in "abAB" for y in "abAB" if y not in (x, orc.INV[x])]), reduced_words())
def test_triangle_decompose_factors_the_product(pair, w):
    x, y = pair
    pi, factors = triangle_decompose(x, y)
    assert pi(x) == invert(y) and pi(y) == x
    lhs = apply_whitehead(
        OneLetterAut(invert(x), y).as_whitehead(),
        apply_whitehead(OneLetterAut(y, x).as_whitehead(), w),
    )
    rhs = w
    for factor in reversed(factors):
        if isinstance(factor, Permutation):
            rhs = factor(rhs)
        elif isinstance(factor, WhiteheadII):
            rhs = apply_whitehead(factor, rhs)
        else:
            rhs = apply_whitehead(factor.as_whitehead(), rhs)
    assert lhs == rhs
