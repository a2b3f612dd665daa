"""Automorphisms of the rank-2 free group acting on words and cyclic words.

Two kinds matter here.  Signed permutations of the four letters (there are
exactly 8) and multiplier automorphisms (A, x) sending each letter u to
x^-1^[u^-1 in A] * u * x^[u in A] for a letter set A avoiding x and x^-1.
In rank 2 the non-inner multiplier automorphisms are exactly the
one-letter cases ({y}, x): y -> yx, y^-1 -> x^-1 y^-1.

Conjugation is factored out by working with cyclic words: rotations stand
in for inner automorphisms.  The canonical form modulo rotations and
signed permutations (canonical_word) picks the lexicographically least
rotation among all 8 permutation images, in the order a < b < A < B; it
compares only the rotations that start with the word's longest run of one
letter, sent to a.  The search that finds the form also keeps the first
permutation and the least rotation that reach it, so canonical_witness is
that one search.  _align is the one test of whether a word is a rotation
of a permutation image of another: it returns the first permutation and
the least rotation that carry one onto the other, or None.  It carries a
word onto a canonical form already known, such as a vertex of a class
graph, without searching for that form again.

apply_cyclic validates its input; _apply_cyclic is the same map on a
cyclic word the caller has built, without the checks, as _canonical is
for canonical_word.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .word_core import (
    LETTERS,
    _matched_ends,
    check_cyclic_word,
    cyclic_reduce,
    free_reduce,
    inverse_letter,
    is_cyclic_word,
    order_key,
)

_LETTER_SET = frozenset(LETTERS)  # membership; "x in LETTERS" would accept "", "ab", "AB"


@dataclass(frozen=True)
class Permutation:
    """A signed permutation of the letters, determined by the generator images."""

    image_of_a: str
    image_of_b: str

    def __post_init__(self):
        a, b = self.image_of_a, self.image_of_b
        if a not in _LETTER_SET or b not in _LETTER_SET or {a.lower(), b.lower()} != {"a", "b"}:
            raise ValueError(f"P[{a},{b}]: the images must be letters covering both generators")

    @cached_property  # a frozen dataclass still has a __dict__ to cache it in
    def table(self):
        a, b = self.image_of_a, self.image_of_b
        return str.maketrans("abAB", a + b + inverse_letter(a) + inverse_letter(b))

    def __call__(self, w: str) -> str:
        return w.translate(self.table)

    def inverse(self) -> "Permutation":
        inv_a = next(c for c in LETTERS if self(c) == "a")
        inv_b = next(c for c in LETTERS if self(c) == "b")
        return Permutation(inv_a, inv_b)


ALL_PERMUTATIONS = tuple(
    Permutation(img_a, img_b)
    for img_a in LETTERS
    for img_b in (("b", "B") if img_a in "aA" else ("a", "A"))
)


@dataclass(frozen=True)
class WhiteheadII:
    """Multiplier automorphism (A, x): u -> x^-1^[u^-1 in A] * u * x^[u in A]."""

    members: frozenset
    x: str

    def __post_init__(self):
        x = self.x
        if x not in _LETTER_SET or not self.members <= _LETTER_SET - {x, inverse_letter(x)}:
            raise ValueError("members must be letters other than the multiplier and its inverse")

    def letter_image(self, u: str) -> str:
        left = inverse_letter(self.x) if inverse_letter(u) in self.members else ""
        right = self.x if u in self.members else ""
        return left + u + right


def all_whitehead(x: str = None):
    """Every multiplier automorphism, or just those with multiplier x."""
    auts = []
    for mult in LETTERS if x is None else [x]:
        y = "b" if mult in "aA" else "a"
        pair = (y, inverse_letter(y))
        for members in (frozenset(), {pair[0]}, {pair[1]}, {pair[0], pair[1]}):
            auts.append(WhiteheadII(frozenset(members), mult))
    return auts


@dataclass(frozen=True)
class OneLetterAut:
    """The automorphism ({y}, x): y -> yx, y^-1 -> x^-1 y^-1, fixing x."""

    y: str
    x: str

    def __post_init__(self):
        y, x = self.y, self.x
        if y not in _LETTER_SET or x not in _LETTER_SET or y in (x, inverse_letter(x)):
            raise ValueError(f"W[{y},{x}]: y and x must be letters, y not x or its inverse")

    def as_whitehead(self) -> WhiteheadII:
        return WhiteheadII(frozenset({self.y}), self.x)

    def inverse(self) -> "OneLetterAut":
        return OneLetterAut(self.y, inverse_letter(self.x))

    @cached_property
    def table(self):
        y, x = self.y, self.x
        return str.maketrans({y: y + x, inverse_letter(y): inverse_letter(x) + inverse_letter(y)})

    def __str__(self):
        return f"W[{self.y},{self.x}]"


ALL_ONE_LETTER = tuple(
    OneLetterAut(y, x)
    for y in LETTERS
    for x in (("b", "B") if y in "aA" else ("a", "A"))
)

# The four principal automorphisms, indexed 1..4 in this order.
PRINCIPALS = (
    OneLetterAut("a", "b"),
    OneLetterAut("a", "B"),
    OneLetterAut("b", "a"),
    OneLetterAut("b", "A"),
)


def conjugate_by_perm(phi: OneLetterAut, pi: Permutation) -> OneLetterAut:
    """The unique psi with pi(phi(w)) = psi(pi(w)) for every word w."""
    return OneLetterAut(pi(phi.y), pi(phi.x))


# _REVERSE[p - 1][i]: the principal carrying c back onto a canonical u when _canonical reaches c
# from principal p's image of u through pi = ALL_PERMUTATIONS[i]: psi^-1 = ({y}, x) for psi =
# conjugate_by_perm(p, pi), or ({y^-1}, x^-1) if y is inverse, the same map up to rotation.
_REVERSE = tuple(
    tuple(PRINCIPALS.index(OneLetterAut(s.y.lower(), s.x if s.y in "ab" else inverse_letter(s.x))) + 1 for s in psis)
    for psis in ([conjugate_by_perm(phi.inverse(), pi) for pi in ALL_PERMUTATIONS] for phi in PRINCIPALS)
)


def apply_whitehead(phi: WhiteheadII, w: str) -> str:
    """Letterwise image, freely reduced."""
    return free_reduce("".join(phi.letter_image(c) for c in w))


def apply_cyclic(phi, w: str, k: int = 1) -> str:
    """Image of a cyclic word: letterwise map, then free and cyclic reduction.

    Accepts a OneLetterAut (fast path) or any WhiteheadII.  The length of
    the result is the quantity all level and minimality tests compare.  A
    OneLetterAut may be applied k >= 1 times at once: the result is the
    string k successive calls return, computed in one pass over w.
    """
    if type(k) is not int or k < 1:  # a bool or a float is not a power
        raise ValueError(f"{phi}^{k!r}: the power must be a positive integer")
    if isinstance(phi, OneLetterAut):
        if is_cyclic_word(w):
            return _apply_cyclic(phi, w, k)
        w = cyclic_reduce(w.translate(phi.table))[0]  # validates w; one step makes it a cyclic word
        return w if k == 1 else _apply_cyclic(phi, w, k - 1)
    if k != 1:
        raise ValueError("only a one-letter automorphism is applied as a power")
    return cyclic_reduce(apply_whitehead(phi, w))[0]


def _apply_cyclic(phi: OneLetterAut, w: str, k: int = 1) -> str:
    """apply_cyclic(phi, w, k) of a cyclic word w the caller has built, without the checks.

    On a reduced w the only pairs y -> yx, Y -> XY can cancel are the new
    xX, and deleting them leaves a reduced word, so only its ends are left
    to cancel.
    """
    if k != 1:
        return _power_image(phi, w, k)
    y, x = phi.y, phi.x
    Y, X = inverse_letter(y), inverse_letter(x)
    s = w.replace(y, y + x).replace(Y, X + Y).replace(x + X, "")
    i = _matched_ends(s)
    return s[i : len(s) - i]


def _power_image(phi: OneLetterAut, w: str, k: int) -> str:
    """The string k successive apply_cyclic(phi, .) calls return on the
    cyclic word w, in one pass.

    Write phi = ({y}, x).  On a cyclic word the y-type letters never cancel,
    so only the x-exponents of the gaps between them move, each by k times
    its one-step change: +k between two y's, -k between two Y's, 0 between
    a y and a Y.  At the ends of the string a step takes an x from the head
    when the first y-type letter is Y, gives one to the tail when the last
    is y, and cyclic_reduce then cancels x's against X's across the ends;
    k steps do the same with k letters at once.
    """
    y, x = phi.y, phi.x
    Y, X = inverse_letter(y), inverse_letter(x)
    first = [i for i in (w.find(y), w.find(Y)) if i != -1]
    if not first:
        return w
    i, j = min(first), max(w.rfind(y), w.rfind(Y)) + 1
    core = _shift_gaps(_shift_gaps(w[i:j], y, x, X, k), Y, X, x, k)
    h = -i if w[:1] == X else i  # exponents of the x-syllables before i and from j
    t = j - len(w) if w[-1] == X else len(w) - j
    h, t = _cancel_ends(h - k * (w[i] == Y), t + k * (w[j - 1] == y))
    return (x * h or X * -h) + core + (x * t or X * -t)


def _moving_gaps(phi: OneLetterAut, w: str) -> Counter:
    """Counter{(m, u, up): gaps}: the cyclic gaps between two consecutive
    letters u of the cyclic word w that a step of phi = ({y}, x) moves.

    (u, up) is (y, x) or (Y, X), and m is the exponent of up in the gap,
    negative for a power of its inverse.  A gap moves when it holds no
    y-type letter; by the rule of _power_image, k steps raise each m by k.
    """
    y, x = phi.y, phi.x
    Y, X = inverse_letter(y), inverse_letter(x)
    table = Counter()
    for u, up, down, other in ((y, x, X, Y), (Y, X, x, y)):
        i = w.find(u)
        if i != -1:
            for gap, count in Counter((w[i + 1 :] + w[:i]).split(u)).items():
                if other not in gap:  # the split leaves no u, so no y-type letter at all
                    table[-len(gap) if gap[:1] == down else len(gap), u, up] += count
    return table


def _shift_gaps(s: str, u: str, up: str, down: str, k: int) -> str:
    """Raise by k the exponent of up in every gap between two letters u of s."""
    pieces = s.split(u)
    if len(pieces) < 3:
        return s
    inner = pieces[1:-1]  # the pieces between two u's; only gaps of up's or down's move
    other, shifted = inverse_letter(u), {}
    for gap in set(inner):
        if other not in gap:  # no y-type letter, as in _moving_gaps
            e = k - len(gap) if gap[:1] == down else k + len(gap)
            shifted[gap] = up * e or down * -e
    return u.join([pieces[0], *map(shifted.get, inner, inner), pieces[-1]])


def _cancel_ends(h: int, t: int) -> tuple[int, int]:
    """Exponents of x^h ... x^t once x's and X's cancel across the ends."""
    if h * t >= 0:
        return h, t
    c = min(h, -t) if h > 0 else max(h, -t)
    return h - c, t + c


# letter -> order digit of its image, one table per ALL_PERMUTATIONS entry
_ORDER_TABLES = tuple(
    str.maketrans({c: order_key(pi(c)) for c in LETTERS}) for pi in ALL_PERMUTATIONS
)
_FROM_ORDER = str.maketrans("0123", LETTERS)
# letter c -> (index into ALL_PERMUTATIONS, table) of the two images sending c to a
_TABLES_TO_A = {c: [(i, t) for i, t in enumerate(_ORDER_TABLES) if c.translate(t) == "0"] for c in LETTERS}


def _longest_run(w: str) -> int:
    """Length of the longest cyclic run of one letter in w, at most len(w).

    Per letter c: find the first run of c longer than the best so far, in
    the doubled word, measure it, and look on from its end; every run
    measured is longer than the last.
    """
    n = len(w)
    ww = w + w
    best = min(n, 1)
    for c in LETTERS:
        i = ww.find(c * (best + 1))
        while i != -1:  # the leftmost match starts a run
            head = ww[i : i + n]
            best = len(head) - len(head.lstrip(c))
            if best == n:
                return n
            i = ww.find(c * (best + 1), i + best)
    return best


def canonical_word(w: str) -> str:
    """Minimum over all rotations of all 8 permutation images, in a < b < A < B order.

    Two cyclic words get the same canonical form exactly when one is a
    rotation of a permutation image of the other.
    """
    check_cyclic_word(w)
    return _canonical(w)[0]


def _canonical(w: str) -> tuple[str, int, int]:
    """(canonical_word(w), i, k) of a cyclic word w the caller has built,
    without the check: rotate(ALL_PERMUTATIONS[i](w), k) is the form, i is
    the least index whose image has the form as a rotation, and k that
    image's least such rotation.

    The least rotation of all the images starts with a^r, where r is the
    longest run of one letter in w, since some permutation sends that letter
    to a.  So only the images sending a letter with a run of r to a are
    translated, and only their rotations starting with a^r are compared;
    every image that reaches the form is among them.
    """
    n, run = len(w), _longest_run(w)
    z = "0" * run
    end = n + run - 1  # matches of z in the doubled image start below n
    ww = w + w
    best, index, shift = None, 0, 0
    for c, to_a in _TABLES_TO_A.items():
        if c * run in ww:
            for j, table in to_a:
                tt = ww.translate(table)
                i = tt.find(z, 0, end)
                while i != -1:
                    cand = tt[i : i + n]
                    if best is None or cand < best or cand == best and j < index:
                        best, index, shift = cand, j, i
                    i = tt.find(z, i + 1, end)
    return (best or "").translate(_FROM_ORDER), index, shift


def canonical_witness(w: str) -> tuple[str, Permutation, int]:
    """(canonical, pi, k) with rotate(pi(w), k) == canonical.

    pi is the first permutation, in ALL_PERMUTATIONS order, whose image
    reaches the canonical form, and k the least rotation that does; the
    search that finds the form finds both.
    """
    check_cyclic_word(w)
    canonical, i, k = _canonical(w)
    return canonical, ALL_PERMUTATIONS[i], k


def _align(u: str, v: str):
    """(pi, k) with rotate(pi(u), k) == v: the first such pi in
    ALL_PERMUTATIONS order, at its least k; None when v is not a rotation of
    a permutation image of u, that is, when their canonical forms differ.
    Callers validate u and v.
    """
    if len(u) != len(v):
        return None
    key = order_key(v)
    for pi, table in zip(ALL_PERMUTATIONS, _ORDER_TABLES):
        k = (u.translate(table) * 2).find(key)
        if k != -1:
            return pi, k
    return None


def triangle_decompose(x: str, y: str):
    """Factor ({x^-1}, y) * ({y}, x) as pi * (inner by y) * ({x^-1}, y^-1).

    Returns (pi, factors) where pi maps x -> y^-1, y -> x and factors is the
    right-hand side as applicable automorphism values, outermost first.
    Both sides agree as maps on every word, which the tests verify.
    """
    if x not in _LETTER_SET or y not in _LETTER_SET:
        raise ValueError("letters must be one of 'a', 'b', 'A', 'B'")
    if y in (x, inverse_letter(x)):
        raise ValueError("y must not be x or its inverse")
    x_bar, y_bar = inverse_letter(x), inverse_letter(y)
    # x, y, x_bar, y_bar cover all four letters, so pi is fully determined
    img = {x: y_bar, y: x, x_bar: y, y_bar: x_bar}
    pi = Permutation(img["a"], img["b"])
    inner = WhiteheadII(frozenset({x, x_bar}), y)
    last = OneLetterAut(x_bar, y_bar)
    return pi, (pi, inner, last)
