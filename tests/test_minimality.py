"""Minimality, level structure, greedy reduction, and the conjugacy decision."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from conftest import cyclic_reduced_words, raw_words
from f2aut.automorphism import (
    ALL_ONE_LETTER,
    ALL_PERMUTATIONS,
    OneLetterAut,
    Permutation,
    PRINCIPALS,
    apply_cyclic,
    apply_whitehead,
)
from f2aut.minimality import (
    LevelProfile,
    _rotation_aligning,
    apply_token,
    are_conjugate,
    format_token,
    image_length,
    is_level,
    is_minimal,
    is_root,
    is_alternating_minimal,
    level_profile,
    minimize,
    parse_token,
    replay_witness,
)
from f2aut.word_core import (
    TheoremViolation,
    cyclic_reduce,
    free_reduce,
    invert,
    rotate,
    subword_count,
)

one_letter_auts = st.sampled_from(ALL_ONE_LETTER)
permutations = st.sampled_from(ALL_PERMUTATIONS)


def test_is_minimal_examples():
    assert is_minimal("")
    assert is_minimal("a")
    assert is_minimal("aa")
    assert is_minimal("abAB")
    assert is_minimal("aabb")
    assert not is_minimal("aab")
    assert not is_minimal("ab")


def test_is_minimal_matches_definition_exhaustively():
    # definition: no one-letter automophism shortens; lengths 0..8
    for n in range(9):
        for w in orc.necklaces(n):
            assert is_minimal(w) == orc.o_is_minimal(w), w


@given(cyclic_reduced_words(max_size=12))
def test_is_minimal_matches_definition(w):
    assert is_minimal(w) == orc.o_is_minimal(w)


def test_is_root_examples():
    assert is_root("abAB")
    assert is_root("aabb")
    assert not is_root("a")  # single letters are excluded
    assert not is_root("aaaa")
    assert not is_root("aabab")


def test_is_alternating_minimal_examples():
    assert is_alternating_minimal("abAB")
    assert not is_alternating_minimal("ab")  # alternating but not minimal
    assert not is_alternating_minimal("aabb")  # minimal but not alternating
    assert not is_alternating_minimal("a")


@given(one_letter_auts, cyclic_reduced_words())
def test_image_length_matches_actual_image(phi, w):
    assert image_length(phi, w) == len(apply_cyclic(phi, w))


@given(one_letter_auts, cyclic_reduced_words())
def test_is_level_means_length_preserved(phi, w):
    assert is_level(phi, w) == (len(apply_cyclic(phi, w)) == len(w))


@given(one_letter_auts, cyclic_reduced_words(min_size=2))
def test_is_level_count_identity(phi, w):
    # level <=> (y x^-1)_w = (yx)_w + (yy)_w
    y, x = phi.y, phi.x
    lhs = subword_count(w, y + orc.INV[x])
    rhs = subword_count(w, y + x) + subword_count(w, y + y)
    assert is_level(phi, w) == (lhs == rhs)


def test_level_known_examples():
    # ({b}, a^-1) is level on a b a b^-1 but not on abab
    assert is_level(OneLetterAut("b", "A"), "abaB")
    assert not is_level(OneLetterAut("b", "A"), "abab")


def test_minimize_examples():
    assert minimize("") == ("", ())
    assert minimize("a") == ("a", ())
    assert minimize("abAB") == ("abAB", ())
    word, trace = minimize("aab")
    assert word == "a"
    assert trace == (OneLetterAut("b", "A"), OneLetterAut("a", "B"))


@given(cyclic_reduced_words())
def test_minimize_reaches_a_minimal_word_with_replayable_trace(w):
    word, trace = minimize(w)
    assert is_minimal(word)
    cur = w
    for phi in trace:
        nxt = apply_cyclic(phi, cur)
        assert len(nxt) < len(cur)  # every recorded step strictly shrinks
        cur = nxt
    assert cur == word
    if is_minimal(w):
        assert (word, trace) == (w, ())


def test_level_profile_fields_and_rejection():
    prof = level_profile("abAB")
    assert isinstance(prof, LevelProfile)
    assert prof.is_minimal and prof.is_root and prof.is_alternating
    assert prof.level_flags == (True, True, True, True)
    prof = level_profile("aaaa")
    assert prof.level_flags == (False, False, True, True)
    assert not prof.is_root and not prof.is_alternating
    with pytest.raises(ValueError):
        level_profile("aab")


@given(cyclic_reduced_words(max_size=10))
def test_level_profile_matches_pointwise_predicates(w):
    if not is_minimal(w):
        return
    prof = level_profile(w)
    assert prof.level_flags == tuple(is_level(phi, w) for phi in PRINCIPALS)
    assert prof.is_root == is_root(w)


def test_token_round_trips():
    for phi in ALL_ONE_LETTER:
        assert parse_token(format_token(phi)) == phi
    for pi in ALL_PERMUTATIONS:
        assert parse_token(format_token(pi)) == pi
    for k in (0, 1, 7):
        assert parse_token(format_token(k)) == k
    assert format_token(OneLetterAut("a", "B")) == "W[a,B]"
    assert format_token(Permutation("b", "A")) == "P[b,A]"
    assert format_token(3) == "R[3]"


def test_parse_token_rejects_malformed():
    for bad in ("", "W[a]", "W[a,b,c]", "Q[a,b]", "R[1", "R[]", "noise"):
        with pytest.raises(ValueError):
            parse_token(bad)


def test_apply_token_semantics():
    assert apply_token(OneLetterAut("a", "b"), "aa") == "abab"
    assert apply_token(Permutation("b", "a"), "aab") == "bba"
    assert apply_token(2, "aab") == "baa"


def test_replay_witness_basics():
    assert replay_witness("Baab", []) == cyclic_reduce(free_reduce("Baab"))[0]
    assert replay_witness("aa", ["W[a,b]", "P[b,a]", "R[1]"]) == rotate(
        Permutation("b", "a")(apply_cyclic(OneLetterAut("a", "b"), "aa")), 1
    )


def test_are_conjugate_known_pairs():
    flag, tokens = are_conjugate("aaaa", "aaaa")
    assert flag and orc.replay_tokens("aaaa", tokens) == "aaaa"
    flag, tokens = are_conjugate("abab", "aa")  # ({a}, b^-1) carries one to the other
    assert flag and orc.replay_tokens("abab", tokens) == "aa"
    assert are_conjugate("aaaa", "aabb", witness=False) == (False, None)
    assert are_conjugate("a", "", witness=False) == (False, None)
    assert are_conjugate("aabb", "abAB", witness=False) == (False, None)
    assert are_conjugate("aabb", "abAB") == (False, None)  # witness request changes nothing


@given(cyclic_reduced_words(min_size=1, max_size=10), st.integers(0, 9), permutations)
def test_are_conjugate_accepts_rotations_and_permutations(w, k, pi):
    flag, tokens = are_conjugate(w, pi(rotate(w, k)))
    assert flag
    assert orc.replay_tokens(w, tokens) == pi(rotate(w, k))


@given(raw_words(max_size=10), raw_words(max_size=6))
def test_are_conjugate_accepts_free_conjugates(w, u):
    conjugated = u + w + invert(u)
    flag, tokens = are_conjugate(w, conjugated)
    assert flag
    # the witness replays onto the cyclic core of the other word, exactly,
    # checked here with oracle arithmetic only
    assert orc.replay_tokens(w, tokens) == orc.o_cyclic_core(conjugated)


@given(
    cyclic_reduced_words(max_size=8),
    st.lists(st.sampled_from(ALL_ONE_LETTER + ALL_PERMUTATIONS), max_size=4),
)
@settings(max_examples=60)
def test_are_conjugate_accepts_automorphic_images(w, chain):
    img = w
    for step in chain:
        if isinstance(step, OneLetterAut):
            img = apply_whitehead(step.as_whitehead(), img)
        else:
            img = step(img)
    flag, tokens = are_conjugate(w, img)
    assert flag
    assert orc.replay_tokens(w, tokens) == orc.o_cyclic_core(img)


@given(cyclic_reduced_words(max_size=8), cyclic_reduced_words(max_size=8))
@settings(max_examples=60)
def test_are_conjugate_is_symmetric(w, v):
    assert are_conjugate(w, v, witness=False)[0] == are_conjugate(v, w, witness=False)[0]


@given(cyclic_reduced_words(max_size=10))
def test_witness_flag_false_suppresses_tokens(w):
    flag, tokens = are_conjugate(w, rotate(w, 1), witness=False)
    assert flag and tokens is None


def test_rotation_aligning_finds_the_least_shift():
    assert _rotation_aligning("", "") == 0
    assert _rotation_aligning("abAB", "ABab") == 2
    assert _rotation_aligning("abab", "abab") == 0
    assert _rotation_aligning("abab", "baba") == 1


@pytest.mark.parametrize("cur, target", (("ab", "aa"), ("ab", "abab"), ("", "a"), ("a", "")))
def test_rotation_aligning_raises_theorem_violation(cur, target):
    with pytest.raises(TheoremViolation):
        _rotation_aligning(cur, target)


def test_theorem_violation_is_one_class():
    import f2aut
    from f2aut import class_graph

    assert f2aut.TheoremViolation is class_graph.TheoremViolation is TheoremViolation
