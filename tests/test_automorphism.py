"""Permutations, multiplier automorphisms, canonical forms, and their identities."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles as orc
from conftest import cyclic_reduced_words, raw_words, reduced_words, run_heavy_words
from f2aut import enumerate_minimal
from f2aut.automorphism import (
    ALL_ONE_LETTER,
    ALL_PERMUTATIONS,
    PRINCIPALS,
    OneLetterAut,
    Permutation,
    WhiteheadII,
    _REVERSE,
    _align,
    _canonical,
    _longest_run,
    _moving_gaps,
    all_whitehead,
    apply_cyclic,
    apply_whitehead,
    canonical_witness,
    canonical_word,
    conjugate_by_perm,
    triangle_decompose,
)
from f2aut.word_core import (
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
    assert ALL_PERMUTATIONS[0] == Permutation("a", "b")
    assert ALL_PERMUTATIONS[0]("abAB") == "abAB"
    swap = Permutation("b", "a")
    assert swap("abAB") == "baBA"
    flip = Permutation("A", "b")
    assert flip("aA") == "Aa"
    with pytest.raises(ValueError):
        Permutation("a", "A")  # images must hit both generator pairs


def test_permutation_group_structure():
    def compose(p, q):  # p after q, by the images of the generators
        return Permutation(p(q.image_of_a), p(q.image_of_b))

    assert len(set(ALL_PERMUTATIONS)) == 8
    perms = set(ALL_PERMUTATIONS)
    for p, q in product(ALL_PERMUTATIONS, repeat=2):
        assert compose(p, q) in perms
    for p in ALL_PERMUTATIONS:
        assert p.inverse() in perms
        assert compose(p, p.inverse()) == ALL_PERMUTATIONS[0]
        assert compose(p.inverse(), p) == ALL_PERMUTATIONS[0]


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


@given(st.one_of(cyclic_reduced_words(), reduced_words(), run_heavy_words(), raw_words()))
def test_one_letter_fast_path_matches_whitehead_path(w):
    """The str.replace image of every one-letter automorphism, on reduced,
    run-heavy and unreduced input, against the oracle and the letterwise path."""
    for phi in ALL_ONE_LETTER:
        expected = orc.o_apply_cyclic(orc.one_letter_map(phi.y, phi.x), w)
        assert apply_cyclic(phi, w) == expected
        assert apply_cyclic(phi.as_whitehead(), w) == expected


def test_power_step_matches_successive_steps_exhaustively():
    """apply_cyclic(phi, w, k) is the string k single calls give, for every
    cyclic word of length <= 7, one-letter automorphism and k <= 6."""
    for n in range(8):
        for w in orc.cyclic_words(n):
            for phi in ALL_ONE_LETTER:
                cur = w
                for k in range(1, 7):
                    cur = apply_cyclic(phi, cur)
                    assert apply_cyclic(phi, w, k) == cur, (w, phi, k)


@given(
    one_letter_auts,
    st.one_of(run_heavy_words(), cyclic_reduced_words(max_size=40), raw_words(max_size=30)),
    st.integers(1, 40),
)
def test_power_step_matches_successive_steps(phi, w, k):
    """On run-heavy, random cyclic and unreduced words, against k single
    calls and against the oracle map applied k times."""
    cur = expected = w
    for _ in range(k):
        cur = apply_cyclic(phi, cur)
        expected = orc.o_apply_cyclic(orc.one_letter_map(phi.y, phi.x), expected)
    assert apply_cyclic(phi, w, k) == cur == expected


def test_power_step_examples_and_rejections():
    assert apply_cyclic(OneLetterAut("a", "b"), "a", 5) == "abbbbb"
    assert apply_cyclic(OneLetterAut("b", "A"), "aaaab", 4) == "b"
    assert apply_cyclic(OneLetterAut("a", "B"), "ab" * 3, 2) == "aBaBaB"
    assert apply_cyclic(OneLetterAut("a", "b"), "bbb", 9) == "bbb"  # no y-type letter
    for bad in (0, -1, 2.0):
        with pytest.raises(ValueError):
            apply_cyclic(OneLetterAut("a", "b"), "ab", bad)
    with pytest.raises(ValueError):
        apply_cyclic(WhiteheadII(frozenset({"b"}), "a"), "ab", 2)


def _raised(table: Counter, k: int) -> Counter:
    """A gap table with every exponent m raised by k."""
    return Counter({(m + k, u, up): count for (m, u, up), count in table.items()})


def test_moving_gaps_examples():
    # aaBBBab: the cyclic gaps a.a, a.BBB.a and a.b.a; no A, so no gap A...A
    assert _moving_gaps(OneLetterAut("a", "b"), "aaBBBab") == Counter(
        {(0, "a", "b"): 1, (-3, "a", "b"): 1, (1, "a", "b"): 1}
    )
    # aBAAbb: the gap A..A is empty; the one a...a, BAAbb, holds A's and does not move
    assert _moving_gaps(OneLetterAut("a", "b"), "aBAAbb") == Counter({(0, "A", "B"): 1})
    # abab under ({b}, a^-1): both gaps b.a.b hold one inverse of the letter a step adds
    assert _moving_gaps(OneLetterAut("b", "A"), "abab") == Counter({(-1, "b", "A"): 2})
    assert _moving_gaps(OneLetterAut("b", "A"), "aBab") == Counter()  # only the gaps b...B and B...b
    assert _moving_gaps(OneLetterAut("a", "b"), "bb") == Counter()  # no y-type letter


def test_moving_gaps_follow_the_power_step_exhaustively():
    """k steps of a one-letter automorphism raise every exponent of its gap
    table by k and change no count, for every cyclic word of length <= 7,
    each of the 8 one-letter automorphisms and k <= 4."""
    for n in range(8):
        for w in orc.cyclic_words(n):
            for phi in ALL_ONE_LETTER:
                table = _moving_gaps(phi, w)
                for k in range(1, 5):
                    assert _moving_gaps(phi, apply_cyclic(phi, w, k)) == _raised(table, k), (w, phi, k)


@given(one_letter_auts, run_heavy_words(), st.integers(1, 40))
def test_moving_gaps_follow_the_power_step(phi, w, k):
    """The same on words with long runs, where the gaps are long."""
    assert _moving_gaps(phi, apply_cyclic(phi, w, k)) == _raised(_moving_gaps(phi, w), k)


def test_tables_are_cached_translations_of_the_letter_images():
    for pi in ALL_PERMUTATIONS:
        images = (pi.image_of_a, pi.image_of_b, pi.image_of_a.swapcase(), pi.image_of_b.swapcase())
        assert pi.table == str.maketrans("abAB", "".join(images))
        assert pi.table is pi.table
    for phi in ALL_ONE_LETTER:
        moved = {c: u for c in "abAB" if (u := phi.as_whitehead().letter_image(c)) != c}
        assert phi.table == str.maketrans(moved)
        assert phi.table is phi.table


def test_principal_vocabulary():
    assert PRINCIPALS == (
        OneLetterAut("a", "b"),
        OneLetterAut("a", "B"),
        OneLetterAut("b", "a"),
        OneLetterAut("b", "A"),
    )
    # the one-letter automorphisms that multiply by a generator
    assert PRINCIPALS == tuple(phi for phi in ALL_ONE_LETTER if phi.y in "ab")


@given(one_letter_auts, cyclic_reduced_words())
def test_every_one_letter_aut_matches_its_principal_on_cyclic_words(phi, w):
    # the two images are conjugate, hence equal as cyclic words
    psi = PRINCIPALS[orc.o_principal_index(phi.y, phi.x)]
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


def brute_force_align(u, v):
    """The first pi in ALL_PERMUTATIONS order with a rotation of pi(u) equal to v, at the least k."""
    for pi in ALL_PERMUTATIONS:
        for k in range(max(len(u), 1)):
            if rotate(pi(u), k) == v:
                return pi, k
    return None


def brute_force_witness(w):
    target = orc.o_canonical(w)
    return target, *brute_force_align(w, target)


def test_canonical_witness_on_every_short_word():
    """The search's witness is the brute-force one on every cyclic word of
    at most 8 letters: the least permutation index whose image reaches the
    form, even where several images tie on it, at its least rotation."""
    tied = 0
    for n in range(9):
        for w in orc.cyclic_words(n):
            form, pi, k = canonical_witness(w)
            assert (form, pi, k) == brute_force_witness(w), w
            i = ALL_PERMUTATIONS.index(pi)
            assert rotate(pi(w), k) == form
            assert all(form not in ALL_PERMUTATIONS[j](w) * 2 for j in range(i)), w
            tied += sum(form in image(w) * 2 for image in ALL_PERMUTATIONS) > 1
    assert tied == 665  # words two or more images carry onto the form


@given(cyclic_reduced_words(min_size=13, max_size=300))
def test_canonical_forms_on_long_words(w):
    assert canonical_word(w) == orc.o_canonical(w)
    assert canonical_witness(w) == brute_force_witness(w)


@given(run_heavy_words())
def test_canonical_forms_on_run_heavy_words(w):
    assert canonical_word(w) == orc.o_canonical(w)
    assert canonical_witness(w) == brute_force_witness(w)


def test_reverse_principal_matches_brute_force():
    """For each canonical minimal word u of length <= 9 and each level
    principal p: _canonical reaches the canonical form c of the image
    through the permutation it names, and principal _REVERSE[p - 1][i]
    carries c back onto u, by the oracle's maps and canonical form."""
    edges = 0
    for n in range(10):
        for u in enumerate_minimal(n):
            for p, d in enumerate(orc.PRINCIPAL_MAPS, start=1):
                image = orc.o_apply_cyclic(d, u)
                if len(image) == n:
                    c, i, _ = _canonical(image)
                    assert c == orc.o_canonical(image) and c in ALL_PERMUTATIONS[i](image) * 2
                    q = orc.PRINCIPAL_MAPS[_REVERSE[p - 1][i] - 1]
                    assert orc.o_canonical(orc.o_apply_cyclic(q, c)) == u, (u, p)
                    edges += 1
    assert edges == 351  # level (word, principal) pairs of lengths 0..9


@given(st.one_of(cyclic_reduced_words(min_size=13, max_size=120), run_heavy_words()), st.sampled_from(range(4)))
def test_reverse_principal_undoes_any_principal_image(w, p):
    """The rule behind _REVERSE needs no level edge: for any cyclic word w
    and principal p, the reverse principal of the canonical form of p's
    image carries it back onto a word with w's canonical form."""
    image = orc.o_apply_cyclic(orc.PRINCIPAL_MAPS[p], w)
    c, i, _ = _canonical(image)
    assert c == orc.o_canonical(image) and c in ALL_PERMUTATIONS[i](image) * 2
    q = orc.PRINCIPAL_MAPS[_REVERSE[p][i] - 1]
    assert orc.o_canonical(orc.o_apply_cyclic(q, c)) == orc.o_canonical(w)


def test_canonical_word_on_every_short_word():
    for n in range(9):
        for w in orc.cyclic_words(n):
            assert canonical_word(w) == orc.o_canonical(w), w


DIGITS = str.maketrans("abAB", "0123")  # the a < b < A < B order


def rotation_runs(w):
    """(order key, count of the a's that start r + r) of each rotation r of the 8 images of w."""
    rotations = [r for d in orc.PERM_DICTS for r in orc.o_rotations(orc.o_perm(d, w))]
    return [(r.translate(DIGITS), 2 * len(r) - len((r + r).lstrip("a"))) for r in rotations]


def keys_starting_with_run(rotations, run):
    return sorted(key for key, lead in rotations if lead >= run)


@given(st.one_of(cyclic_reduced_words(min_size=30, max_size=30), run_heavy_words()), st.data())
def test_rotation_keys_match_brute_force(w, data):
    """_canonical compares only the rotations starting with a^r, r the longest run: none is lost."""
    rotations = rotation_runs(w)
    longest = _longest_run(w)
    assert max(lead for _, lead in rotations) >= longest
    least = min(key for key, _ in rotations)
    run = data.draw(st.integers(0, longest))
    assert keys_starting_with_run(rotations, run)[0] == least
    assert canonical_word(w).translate(DIGITS) == least


def j_equal(u, v):
    """Whether u and v share a canonical form, as _align decides it."""
    return _align(u, v) is not None


@given(st.one_of(cyclic_reduced_words(max_size=30), run_heavy_words()), st.data())
def test_j_equal_matches_canonical_equality(u, data):
    kind = data.draw(st.sampled_from(["image", "same length", "any length"]))
    if kind == "image":  # a rotation of a permutation image: always equal
        v = rotate(data.draw(permutations)(u), data.draw(st.integers(0, len(u))))
    elif kind == "same length":  # mostly not equal
        v = data.draw(cyclic_reduced_words(min_size=len(u), max_size=len(u)))
    else:
        v = data.draw(cyclic_reduced_words(max_size=30))
    expected = orc.o_canonical(u) == orc.o_canonical(v)
    assert j_equal(u, v) == j_equal(v, u) == expected


def test_j_equal_examples():
    assert j_equal("", "")
    assert not j_equal("", "a") and not j_equal("a", "")
    assert j_equal("a", "B")
    assert j_equal("aabAb", "BABaa")  # rotated b <-> B image
    assert not j_equal("aabb", "abaB")  # one class graph, two vertices
    assert not j_equal("aabb", "aabbaabb")
    assert j_equal("aab", "abb")  # swapped tallies: a type-swapping image
    assert j_equal("aabABB", "bbaBAA")  # tally n/2, reached only by a type-swapping image
    assert j_equal("aabABB", "aabABB")  # tally n/2, reached only by type-keeping images
    assert not j_equal("aabb", "aaab")  # equal lengths, no tally matches


@st.composite
def word_pairs(draw):
    """(u, v): v a rotation of a permutation image of u, a word of u's length, or any word."""
    u = draw(st.one_of(cyclic_reduced_words(max_size=30), run_heavy_words()))
    kind = draw(st.sampled_from(["image", "same length", "any length"]))
    if kind == "image":  # always aligned
        return u, rotate(draw(permutations)(u), draw(st.integers(0, len(u))))
    if kind == "same length":  # mostly not aligned
        return u, draw(cyclic_reduced_words(min_size=len(u), max_size=len(u)))
    return u, draw(cyclic_reduced_words(max_size=30))


@given(word_pairs())
@example(("", ""))
@example(("", "a"))
@example(("a", "B"))
@example(("ab", ""))
@example(("aabAb", "BABaa"))  # rotated b <-> B image
@example(("baab", "aabb"))  # the identity at rotation 1
@example(("aabb", "abaB"))  # one class graph, two vertices
@example(("aabb", "aabbaabb"))
@example(("aab", "aabb"))
@example(("aab", "abb"))  # swapped tallies: a type-swapping image
@example(("aabABB", "bbaBAA"))  # tally n/2, reached only by a type-swapping image
@example(("aabABB", "aabABB"))  # tally n/2, reached only by type-keeping images
@example(("aabb", "aaab"))  # equal lengths, no tally matches
def test_align_matches_brute_force(pair):
    for u, v in (pair, pair[::-1]):
        found = _align(u, v)
        assert (found is None) == (orc.o_canonical(u) != orc.o_canonical(v))
        assert found == brute_force_align(u, v)


def test_align_rejects_a_canonical_form_of_another_class():
    assert _align("baab", "aabb") == (Permutation("a", "b"), 1)
    for w, other in (("aabb", "abaB"), ("aab", "aabb"), ("ab", ""), ("", "a")):
        assert _align(w, other) is None


@pytest.mark.parametrize("w", ("abab", "aBaB", "abAB", "aaaa", "bbbb", "aabb" * 4, "aab" * 5))
def test_canonical_witness_tie_break_on_periodic_words(w):
    assert canonical_witness(w) == brute_force_witness(w)


def test_longest_run_on_every_short_word():
    for n in range(9):
        for w in orc.cyclic_words(n):
            assert _longest_run(w) == orc.o_longest_run(w), w
    for c in "abAB":
        for n in (1, 2, 3, 7, 64, 401):
            assert _longest_run(c * n) == n


@given(
    st.one_of(
        run_heavy_words(),
        st.builds(
            lambda head, c, k, tail: orc.o_cyclic_core(head + c * k + tail),
            reduced_words(max_size=12),
            st.sampled_from("abAB"),
            st.integers(100, 400),
            reduced_words(max_size=12),
        ),
    )
)
def test_longest_run_matches_oracle(w):
    assert _longest_run(w) == orc.o_longest_run(w)


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
