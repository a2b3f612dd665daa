"""Minimality, level structure, greedy reduction, and the conjugacy decision."""

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as orc
from conftest import cyclic_reduced_words, raw_words, run_heavy_words
from f2aut import automorphism, enumerate_classes, minimality
from f2aut.automorphism import (
    ALL_ONE_LETTER,
    ALL_PERMUTATIONS,
    PRINCIPALS,
    OneLetterAut,
    Permutation,
    _align,
    apply_cyclic,
    apply_whitehead,
    canonical_word,
)
from f2aut.class_graph import build_graph, to_dict
from f2aut.minimality import (
    _exponent_sums,
    _power_path,
    _run_length,
    _shrinking,
    apply_token,
    are_conjugate,
    format_token,
    is_minimal,
    level_closure,
    minimize,
    parse_token,
    principal_deltas,
    replay_witness,
    vertex_row,
)
from f2aut.word_core import (
    TheoremViolation,
    cyclic_reduce,
    free_reduce,
    invert,
    letter_tally,
    pair_counts,
    rotate,
    subword_count,
    vertex_flags,
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
    # the root flag of vertex_flags; single letters are excluded
    for w, root in (("abAB", True), ("aabb", True), ("a", False), ("aaaa", False), ("aabab", False)):
        assert vertex_flags(len(w), pair_counts(w))[0] == root, w


def _delta(phi, w: str) -> int:
    """The principal_deltas entry of the principal acting like phi on w."""
    return principal_deltas(*letter_tally(w), pair_counts(w))[orc.o_principal_index(phi.y, phi.x)]


@given(one_letter_auts, cyclic_reduced_words())
def test_image_length_matches_actual_image(phi, w):
    assert len(w) + _delta(phi, w) == len(apply_cyclic(phi, w))


@given(one_letter_auts, cyclic_reduced_words())
def test_is_level_means_length_preserved(phi, w):
    assert (_delta(phi, w) == 0) == (len(apply_cyclic(phi, w)) == len(w))


@given(one_letter_auts, cyclic_reduced_words(min_size=2))
def test_is_level_count_identity(phi, w):
    # level <=> (y x^-1)_w = (yx)_w + (yy)_w
    y, x = phi.y, phi.x
    lhs = subword_count(w, y + orc.INV[x])
    rhs = subword_count(w, y + x) + subword_count(w, y + y)
    assert (_delta(phi, w) == 0) == (lhs == rhs)


def test_level_known_examples():
    # ({b}, a^-1) is level on a b a b^-1 but not on abab
    assert _delta(OneLetterAut("b", "A"), "abaB") == 0
    assert _delta(OneLetterAut("b", "A"), "abab") != 0


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


def test_run_length_matches_single_steps_exhaustively():
    """On every cyclic word of length <= 8 that is not minimal, the closed
    form counts the steps the greedy rule takes with its first principal."""
    for n in range(9):
        for w in orc.cyclic_words(n):
            p, pc, deltas = _shrinking(w)
            if p is None:
                continue
            steps, cur = 0, w
            while _shrinking(cur)[0] == p:
                cur = apply_cyclic(PRINCIPALS[p], cur)
                steps += 1
            assert _run_length(p, w, pc, deltas) == steps, w


def test_run_length_matches_single_steps_on_staircases():
    """Runs that cross many stops: a B a B^2 ... a B^m, m = 2..30, under each
    signed permutation, where a run crosses up to 14 steps at which a gap
    empties and as many at which one starts to fill, which _run_length reads
    past.  The words start runs of all four principals."""
    started = Counter()
    for m in range(2, 31):
        stair = "".join("a" + "B" * i for i in range(1, m + 1))
        for pi in ALL_PERMUTATIONS:
            w = pi(stair)
            p, pc, deltas = _shrinking(w)
            assert p is not None, w
            steps, cur = 0, w
            while _shrinking(cur)[0] == p:
                cur = apply_cyclic(PRINCIPALS[p], cur)
                steps += 1
            assert _run_length(p, w, pc, deltas) == steps, w
            started[p] += 1
    assert started == Counter({0: 60, 1: 60, 2: 56, 3: 56})


def test_a_gap_that_starts_to_fill_never_ends_a_run():
    """_run_length drops the digraphs a filling gap adds, which only the
    deltas d[p ^ 1] and d[p ^ 3] subtract.  Both stay positive while
    principal p shrinks the word, by two identities checked here on every
    cyclic word of length <= 10 and each p with d[p] < 0, with (aa) and
    (bb) counted from the definition."""
    pairs = 0
    for n in range(11):
        for w in orc.cyclic_words(n):
            d = principal_deltas(*letter_tally(w), pair_counts(w))
            for p in range(4):
                if d[p] < 0:
                    aa, bb = orc.o_count(w, "aa"), orc.o_count(w, "bb")
                    assert d[p] + d[p ^ 1] == 2 * (aa if p < 2 else bb), (w, p)
                    assert d[p] + d[p ^ 3] == aa + bb, (w, p)
                    pairs += 1
    assert pairs == 43184


def _same_as_single_steps(w):
    word, trace = minimize(w)
    assert (word, [format_token(phi) for phi in trace]) == orc.o_minimize(w)


@given(st.one_of(cyclic_reduced_words(), run_heavy_words()))
def test_minimize_matches_single_step_greedy(w):
    """Word and trace equal the one-step-at-a-time greedy oracle's."""
    _same_as_single_steps(w)


@given(st.integers(1, 60), st.sampled_from(PRINCIPALS), st.integers(0, 12))
def test_minimize_matches_single_step_greedy_on_pushed_primitives(k, phi, pushes):
    """a^k b pushed up by one principal reduces in long runs of one principal."""
    w = "a" * k + "b"
    for _ in range(pushes):
        w = orc.o_apply_cyclic(orc.one_letter_map(phi.y, phi.x), w)
    _same_as_single_steps(w)


@given(cyclic_reduced_words(max_size=10))
def test_level_closure_rows_match_oracle_in_discovery_order(w):
    start = canonical_word(minimize(w)[0])
    rows = level_closure(start)
    for row in rows:
        assert row == orc.o_vertex_row(row[0])
    # breadth-first: a vertex is listed where it is first met as an image
    order = [start]
    for _, images, _, _ in rows:
        for _, c in images:
            if c not in order:
                order.append(c)
    assert order == [row[0] for row in rows]


def test_vertex_row_rejects_a_wrong_length_change():
    # ({a}, b) lengthens aa by 2; a delta of 0 claimed for it must not pass
    with pytest.raises(TheoremViolation):
        vertex_row("aa", pair_counts("aa"), (0, 2, 0, 0), {}, {})


def test_vertex_row_rejects_a_handed_edge_of_a_non_level_principal():
    # ({a}, b) lengthens aabaB by 1, so no reverse edge can name it
    w = "aabaB"
    pc = pair_counts(w)
    deltas = principal_deltas(*letter_tally(w), pc)
    assert deltas == (1, 1, 0, 0)
    with pytest.raises(TheoremViolation, match="an edge handed to .aabaB. names a principal not level on it"):
        vertex_row(w, pc, deltas, {w: {1: "aabAb"}}, {})


def test_level_closure_canonicalizes_each_edge_once(monkeypatch):
    """The wide path class of length 306 has 301 vertices joined by 300
    pairs of inverse edges: its closure canonicalizes 300 images, one per
    pair, not one per edge."""
    calls = []
    real = minimality._canonical
    monkeypatch.setattr(minimality, "_canonical", lambda w: calls.append(w) or real(w))
    g = build_graph("a" * 300 + "baBabb")
    assert (len(g.vertices), len(g.edges), g.gtype) == (301, 600, "P1")
    assert len(calls) == 300


def test_level_closure_rejects_a_shortening_principal():
    with pytest.raises(TheoremViolation):
        level_closure("abab")


def test_token_round_trips():
    for phi in ALL_ONE_LETTER:
        assert parse_token(format_token(phi)) == phi
        for k in (2, 3, 4039):
            assert parse_token(format_token((phi, k))) == (phi, k)
        assert format_token((phi, 1)) == format_token(phi)  # a run of one is a plain step
    for pi in ALL_PERMUTATIONS:
        assert parse_token(format_token(pi)) == pi
    for k in (0, 1, 7, -3):
        assert parse_token(format_token(k)) == k
    assert format_token(OneLetterAut("a", "B")) == "W[a,B]"
    assert format_token((OneLetterAut("b", "A"), 12)) == "W[b,A]^12"
    assert format_token(Permutation("b", "A")) == "P[b,A]"
    assert format_token(3) == "R[3]"


def test_parse_token_rejects_malformed():
    for bad in (
        "", "W[a]", "W[a,b,c]", "Q[a,b]", "R[1", "R[]", "noise",
        "R[ 3]", "R[3 ]", "R[+2]", "R[1_0]", "R[\u0663]", "R[3]\n", "R[01]", "R[-0]",  # spellings format_token never writes
        "W[a,b]^1", "W[a,b]^0", "W[a,b]^x", "W[a,b]^", "W[a,b]^-2", "W[a,b]^\u0663", "W[a,b]^02", "P[a,b]^2", "R[2]^2",
    ):
        with pytest.raises(ValueError):
            parse_token(bad)


def test_apply_token_semantics():
    assert apply_token(OneLetterAut("a", "b"), "aa") == "abab"
    assert apply_token((OneLetterAut("a", "b"), 2), "aa") == "abbabb"
    assert apply_token((OneLetterAut("a", "b"), 1), "aa") == "abab"
    assert apply_token(Permutation("b", "a"), "aab") == "bba"
    assert apply_token(2, "aab") == "baa"
    assert apply_token(-1, "aab") == "baa"


@pytest.mark.parametrize(
    "item",
    [
        3.5,
        None,
        b"R[1]",
        [1],
        (),
        (OneLetterAut("a", "b"),),
        True,  # a bool is an int, but not a rotation
        False,
        (OneLetterAut("a", "b"), 2, 3),
        (OneLetterAut("a", "b"), True),
        (OneLetterAut("a", "b"), 2.0),
        (Permutation("b", "a"), 1),  # only a one-letter automorphism has a power
        ("W[a,b]", 2),
    ],
)
def test_apply_token_rejects_what_is_not_a_step(item):
    with pytest.raises(ValueError):
        apply_token(item, "aab")
    with pytest.raises(ValueError):
        replay_witness("aab", [item])


tokens = st.one_of(
    st.sampled_from(ALL_ONE_LETTER + ALL_PERMUTATIONS).map(format_token),
    st.tuples(st.sampled_from(ALL_ONE_LETTER), st.integers(2, 9)).map(format_token),
    st.integers(-5, 20).map(format_token),
)


@given(
    raw_words(max_size=12),
    st.lists(tokens, max_size=6),
    st.sampled_from(ALL_ONE_LETTER),
    st.integers(2, 9),
    st.data(),
)
def test_replay_witness_matches_oracle_on_tokens_with_powers(w, steps, phi, k, data):
    """Any token list, with at least one power W[y,x]^k in it, replays the
    same through the library and through the oracle, which applies the
    one-letter map k times."""
    steps.insert(data.draw(st.integers(0, len(steps))), format_token((phi, k)))
    assert replay_witness(w, steps) == orc.replay_tokens(w, steps)


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
    assert are_conjugate("aaaa", "aabb") == (False, None)
    assert are_conjugate("a", "") == (False, None)
    assert are_conjugate("aabb", "abAB") == (False, None)


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
    assert are_conjugate(w, v)[0] == are_conjugate(v, w)[0]


def test_rotation_aligning_finds_the_least_shift():
    # are_conjugate reads each rotation back up the second word's reduction
    # from _align, which tries the identity permutation first
    for cur, target, k in (("", "", 0), ("abAB", "ABab", 2), ("abab", "abab", 0), ("abab", "baba", 1)):
        assert _align(cur, target) == (ALL_PERMUTATIONS[0], k)


@pytest.mark.parametrize("cur, target", (("ab", "aa"), ("ab", "abab"), ("", "a"), ("a", "")))
def test_rotation_aligning_raises_theorem_violation(monkeypatch, cur, target):
    # no rotation of a permutation image of cur is target; a step of
    # are_conjugate that meets such a miss raises instead of unpacking None
    assert _align(cur, target) is None
    monkeypatch.setattr(minimality, "_align", lambda u, v: _align(cur, target))
    for w, v in (("aabb", "abaB"), ("a", "ab")):  # a path step; a step up the reduction of v
        with pytest.raises(TheoremViolation):
            are_conjugate(w, v)


def test_theorem_violation_is_one_class():
    import f2aut
    from f2aut import class_graph

    assert f2aut.TheoremViolation is class_graph.TheoremViolation is TheoremViolation


# Fixed inputs whose witnesses and class graphs are pinned: vertices of long
# path classes (a^(n-6) baBabb and a^(n-6) bbABAb lie in one class), both
# directions, plus three short pairs, one of them not conjugate.
PINNED_PAIRS = [
    pair
    for n in range(8, 40)
    for w, v in [("a" * (n - 6) + "baBabb", "a" * (n - 6) + "bbABAb")]
    for pair in ((w, v), (v, w))
] + [("abab", "aa"), ("aab", "a"), ("aabb", "abAB")]
PINNED_GRAPH_WORDS = [w for w, _ in PINNED_PAIRS[:64]] + ["aa", "a", "aabb", "abAB"]

# sha256 of the JSON lines of the are_conjugate results, and of the to_dict
# graphs, below; the witnesses write each level run as one power token
WITNESS_DIGEST = "d798205f93f594b117fb10b570b6a1f5493945b500cacfaab3a0ed73e84dc788"
GRAPH_DIGEST = "2101c6deae19902a608b146c5397cc323c03b96b731a6b82a8139b1b4d8fe7ef"


def test_pinned_witnesses_replay_unchanged():
    """The pinned witnesses land on the cyclic core of the other word,
    through the library and the oracle."""
    for w, v in PINNED_PAIRS:
        flag, tokens = are_conjugate(w, v)
        if flag:
            assert replay_witness(w, tokens) == orc.replay_tokens(w, tokens) == orc.o_cyclic_core(v)


def test_are_conjugate_writes_runs_as_powers():
    # ({b}, A) shortens a^k b one letter at a time down to ab, which ({a}, B) ends
    flag, tokens = are_conjugate("a" * 9 + "b", "a")
    assert flag and tokens[:2] == ("W[b,A]^8", "W[a,B]")
    assert orc.replay_tokens("a" * 9 + "b", tokens) == "a"
    flag, tokens = are_conjugate("a", "a" * 9 + "b")
    assert flag and tokens[-4:] == ("W[a,b]", "R[0]", "W[b,a]^8", "R[2]")
    assert orc.replay_tokens("a", tokens) == "a" * 9 + "b"


def test_long_pushed_primitive_has_a_short_witness():
    """a^999 b pushed up by ({a}, b) 40 times, about 41k letters, against a
    permuted rotation of itself: one power token per greedy run."""
    w = "a" * 999 + "b"
    for _ in range(40):
        w = apply_cyclic(PRINCIPALS[0], w)
    v = rotate(Permutation("B", "a")(w), len(w) // 3)
    flag, tokens = are_conjugate(w, v)
    assert flag and len(tokens) <= 200
    assert orc.replay_tokens(w, tokens) == v


def test_power_step_decides_as_the_bfs(monkeypatch):
    """Every ordered pair of vertices of every class of length <= 11, and the
    two ends of the wide class of a^(n-6) baBabb both ways for n <= 40: the
    decision is the one the breadth-first path alone gives, and the witness
    replays through the oracle.  One power of a principal joins 1,754 of the
    1,762 pairs of distinct vertices; a wide witness has at most 12 tokens."""
    pairs = [
        (u, v)
        for n in range(12)
        for record in enumerate_classes(n)
        for u in record.graph.vertices
        for v in record.graph.vertices
    ]
    wide = [
        pair
        for n in range(6, 41)
        for w, v in [("a" * (n - 6) + "baBabb", "a" * (n - 6) + "bbABAb")]
        for pair in ((w, v), (v, w))
    ]
    answers = [are_conjugate(w, v) for w, v in pairs + wide]
    assert sum(_power_path(u, v) is not None for u, v in pairs if u != v) == 1754
    assert len([1 for u, v in pairs if u != v]) == 1762
    assert max(len(tokens) for _, tokens in answers[len(pairs) :]) <= 12
    monkeypatch.setattr(minimality, "_power_path", lambda u, v: None)
    for (w, v), (flag, tokens) in zip(pairs + wide, answers):
        assert flag is are_conjugate(w, v)[0] is True
        assert orc.replay_tokens(w, tokens) == orc.o_cyclic_core(v)


def test_power_step_falls_back_or_refuses(monkeypatch):
    # every exponent sum of aabABBAb is 0; the gap table of ({a}, B) gives
    # one step onto abaBAbAB
    assert _exponent_sums("aabABBAb") == (0, 0)
    assert _power_path("aabABBAb", "abaBAbAB") == [((PRINCIPALS[1], 1), "abaBAbAB")]
    # no power of a principal joins these two vertices of an R7 class, so
    # the breadth-first path does
    w, v = "aabaBabb", "aabbaBAB"
    assert build_graph(w).gtype == "R7" and _power_path(w, v) is None
    flag, tokens = are_conjugate(w, v)
    assert flag and not any("^" in t for t in tokens)
    assert orc.replay_tokens(w, tokens) == v
    # two classes of length 6: the square of ({b}, A) keeps aaaabb's length
    # and carries its exponent sums to those of a permutation image of
    # aaabAB, but no image has aaaabb's gap table raised by 2, so none is built
    built = []
    kernel = minimality._apply_cyclic
    monkeypatch.setattr(minimality, "_apply_cyclic", lambda phi, u, k=1: built.append(k) or kernel(phi, u, k))
    assert _power_path("aaaabb", "aaabAB") is None and built == []
    assert are_conjugate("aaaabb", "aaabAB") == are_conjugate("aaabAB", "aaaabb") == (False, None)


def test_zero_exponent_sum_pair_crosses_its_class_in_one_power(monkeypatch):
    """a^(n-6) baBBAb and a^k baB a^k BAb, k = (n - 6) / 2, lie in one P1
    class of n - 5 vertices, and b's exponent sum is 0: the gap table of
    ({b}, A) gives the power, with no breadth-first path."""

    def no_bfs(u, v):
        raise AssertionError("the breadth-first path was taken")

    monkeypatch.setattr(minimality, "_bfs_path", no_bfs)
    n, k = 4000, 1997
    w, v = "a" * (n - 6) + "baBBAb", rotate("a" * k + "baB" + "a" * k + "BAb", n // 3)
    flag, tokens = are_conjugate(w, v)
    assert flag and len(tokens) <= 12
    assert orc.replay_tokens(w, tokens) == v


@pytest.mark.parametrize("n", (1006, 16000))
def test_power_step_builds_one_image_on_wide_pairs(monkeypatch, n):
    """The two ends of the wide class of a^(n-6) baBabb, and a^(n-6) baBBAb
    against its zero-exponent-sum twin a^h baB a^h BAb, h = (n - 6) / 2,
    both ways: _power_path builds one image, the power it returns."""
    h = (n - 6) // 2
    cases = [
        ("a" * (n - 6) + "baBabb", "a" * (n - 6) + "bbABAb", "W[b,A]", n - 6),
        ("a" * (n - 6) + "bbABAb", "a" * (n - 6) + "baBabb", "W[b,A]", n - 6),
        ("a" * (n - 6) + "baBBAb", "a" * h + "baB" + "a" * h + "BAb", "W[b,A]", h),
        ("a" * h + "baB" + "a" * h + "BAb", "a" * (n - 6) + "baBBAb", "W[b,a]", h),
    ]
    built = []
    kernel = minimality._apply_cyclic
    monkeypatch.setattr(minimality, "_apply_cyclic", lambda phi, u, k=1: built.append(k) or kernel(phi, u, k))
    for w, v, phi, q in cases:
        cw, cv = canonical_word(w), canonical_word(v)
        built.clear()
        [((found, power), c)] = _power_path(cw, cv)
        assert (str(found), power, c, built) == (phi, q, cv, [q])


# sha256 of the JSON lines [u, v, _power_path(u, v) as [[token, vertex]] or
# null] over every ordered pair of distinct vertices of one class, n <= 12
POWER_PATH_DIGEST = "12b5dd398f5aeb65706668a73ba8d11f256973817dc7aeb586603e8bae943b6a"


def test_power_path_is_pinned():
    """_power_path on the 5,608 ordered pairs of distinct vertices of one
    class of length <= 12: 5,476 found, the other 132, all in R7 classes, None."""
    h, found, pairs = hashlib.sha256(), 0, 0
    for n in range(13):
        for record in enumerate_classes(n):
            for u in record.graph.vertices:
                for v in record.graph.vertices:
                    if u != v:
                        path = _power_path(u, v)
                        steps = None if path is None else [[format_token(step), c] for step, c in path]
                        h.update((json.dumps([u, v, steps]) + "\n").encode())
                        found, pairs = found + (path is not None), pairs + 1
    assert (pairs, found) == (5608, 5476)
    assert h.hexdigest() == POWER_PATH_DIGEST


def test_conjugacy_makes_few_canonical_forms(monkeypatch):
    """On every ordered pair of vertices of every class of length <= 11,
    are_conjugate makes at most 8 canonical forms, and one power of a
    principal joins every pair of distinct vertices outside R7 classes."""
    calls = Counter()
    kernel = minimality._canonical

    def counted(w):
        calls["canonical"] += 1
        return kernel(w)

    monkeypatch.setattr(minimality, "_canonical", counted)
    monkeypatch.setattr(automorphism, "_canonical", counted)
    for n in range(12):
        for record in enumerate_classes(n):
            vertices = record.graph.vertices
            for u in vertices:
                for v in vertices:
                    calls.clear()
                    assert are_conjugate(u, v)[0]
                    assert calls["canonical"] <= 8, (u, v)
                    if u != v and record.graph.gtype != "R7":
                        assert _power_path(u, v) is not None, (u, v)


def test_witness_reuses_the_greedy_states(monkeypatch):
    """are_conjugate applies no step of the first word's reduction again: it
    makes the kernel calls of both reductions, and one per run back up the
    second word's, on the word of test_long_pushed_primitive_has_a_short_witness."""
    w = "a" * 999 + "b"
    for _ in range(40):
        w = apply_cyclic(PRINCIPALS[0], w)
    v = rotate(Permutation("B", "a")(w), len(w) // 3)
    calls = Counter()
    kernel = automorphism._apply_cyclic

    def counted(phi, u, k=1):
        calls["kernel"] += 1
        return kernel(phi, u, k)

    monkeypatch.setattr(minimality, "_apply_cyclic", counted)
    monkeypatch.setattr(automorphism, "_apply_cyclic", counted)
    minimality._minimize_states(w)
    v_runs = minimality._minimize_states(v)[1]
    reductions = calls["kernel"]
    calls.clear()
    flag, tokens = are_conjugate(w, v)
    assert flag and calls["kernel"] <= reductions + len(v_runs)


def test_shrinking_reads_the_tally_off_the_pair_counts():
    for n in range(11):
        for w in orc.cyclic_words(n):
            pc = pair_counts(w)
            deltas = principal_deltas(*letter_tally(w), pc)
            p = next((q for q, delta in enumerate(deltas) if delta < 0), None)
            assert _shrinking(w) == (p, pc, deltas), w


def test_witnesses_and_graphs_are_pinned():
    witnesses, graphs = hashlib.sha256(), hashlib.sha256()
    for w, v in PINNED_PAIRS:
        flag, tokens = are_conjugate(w, v)
        witnesses.update((json.dumps([flag, tokens]) + "\n").encode())
    for w in PINNED_GRAPH_WORDS:
        graphs.update((json.dumps(to_dict(build_graph(w))) + "\n").encode())
    assert witnesses.hexdigest() == WITNESS_DIGEST
    assert graphs.hexdigest() == GRAPH_DIGEST
