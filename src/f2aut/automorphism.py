"""Automorphisms of the rank-2 free group acting on words and cyclic words.

Two kinds matter here.  Signed permutations of the four letters (there are
exactly 8) and multiplier automorphisms (A, x) sending each letter u to
x^-1^[u^-1 in A] * u * x^[u in A] for a letter set A avoiding x and x^-1.
In rank 2 the non-inner multiplier automorphisms are exactly the
one-letter cases ({y}, x): y -> yx, y^-1 -> x^-1 y^-1.

Conjugation is factored out by working with cyclic words: rotations stand
in for inner automorphisms.  The canonical form modulo rotations and
signed permutations (canonical_word) picks the lexicographically least
rotation among all 8 permutation images, in the order a < b < A < B.
canonical_word, canonical_witness and the enumeration's mod-J filter all
read the candidates from one generator, _rotation_keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .word_core import (
    LETTERS,
    check_cyclic_word,
    cyclic_reduce,
    free_reduce,
    inverse_letter,
    order_key,
)


@dataclass(frozen=True)
class Permutation:
    """A signed permutation of the letters, determined by the generator images."""

    image_of_a: str
    image_of_b: str

    def __post_init__(self):
        a, b = self.image_of_a, self.image_of_b
        if a not in LETTERS or b not in LETTERS or {a.lower(), b.lower()} != {"a", "b"}:
            raise ValueError(f"P[{a},{b}]: the images must be letters covering both generators")

    @property
    def table(self):
        return _perm_table(self.image_of_a, self.image_of_b)

    def __call__(self, w: str) -> str:
        return w.translate(self.table)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(w) = self(other(w))."""
        return Permutation(self(other.image_of_a), self(other.image_of_b))

    def inverse(self) -> "Permutation":
        inv_a = next(c for c in LETTERS if self(c) == "a")
        inv_b = next(c for c in LETTERS if self(c) == "b")
        return Permutation(inv_a, inv_b)


@lru_cache(maxsize=None)
def _perm_table(image_of_a: str, image_of_b: str):
    return str.maketrans(
        "abAB",
        image_of_a + image_of_b + inverse_letter(image_of_a) + inverse_letter(image_of_b),
    )


ALL_PERMUTATIONS = tuple(
    Permutation(img_a, img_b)
    for img_a in LETTERS
    for img_b in (("b", "B") if img_a in "aA" else ("a", "A"))
)

IDENTITY_PERM = ALL_PERMUTATIONS[0]


@dataclass(frozen=True)
class WhiteheadII:
    """Multiplier automorphism (A, x): u -> x^-1^[u^-1 in A] * u * x^[u in A]."""

    members: frozenset
    x: str

    def __post_init__(self):
        x = self.x
        if x not in LETTERS or not self.members <= set(LETTERS) - {x, inverse_letter(x)}:
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
        if y not in LETTERS or x not in LETTERS or y in (x, inverse_letter(x)):
            raise ValueError(f"W[{y},{x}]: y and x must be letters, y not x or its inverse")

    def as_whitehead(self) -> WhiteheadII:
        return WhiteheadII(frozenset({self.y}), self.x)

    def inverse(self) -> "OneLetterAut":
        return OneLetterAut(self.y, inverse_letter(self.x))

    @property
    def table(self):
        return _one_letter_table(self.y, self.x)

    def __str__(self):
        return f"W[{self.y},{self.x}]"


@lru_cache(maxsize=None)
def _one_letter_table(y: str, x: str):
    mapping = {y: y + x, inverse_letter(y): inverse_letter(x) + inverse_letter(y)}
    return str.maketrans(mapping)


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


def principal_index(phi: OneLetterAut) -> int:
    """1-based index of a principal automorphism."""
    return PRINCIPALS.index(phi) + 1


def principal_of(phi: OneLetterAut) -> OneLetterAut:
    """The principal automorphism acting like phi on every cyclic word.

    ({y}, x) and ({y^-1}, x^-1) differ by an inner automorphism, so exactly
    one representative per pair has y a generator.
    """
    if phi.y in "ab":
        return phi
    return OneLetterAut(inverse_letter(phi.y), inverse_letter(phi.x))


def conjugate_by_perm(phi: OneLetterAut, pi: Permutation) -> OneLetterAut:
    """The unique psi with pi(phi(w)) = psi(pi(w)) for every word w."""
    return OneLetterAut(pi(phi.y), pi(phi.x))


def apply_whitehead(phi: WhiteheadII, w: str) -> str:
    """Letterwise image, freely reduced."""
    return free_reduce("".join(phi.letter_image(c) for c in w))


def apply_cyclic(phi, w: str) -> str:
    """Image of a cyclic word: letterwise map, then free and cyclic reduction.

    Accepts a OneLetterAut (fast path) or any WhiteheadII.  The length of
    the result is the quantity all level and minimality tests compare.
    """
    if isinstance(phi, OneLetterAut):
        return cyclic_reduce(w.translate(phi.table))[0]
    return cyclic_reduce(apply_whitehead(phi, w))[0]


# letter -> order digit of its image, one table per ALL_PERMUTATIONS entry
_ORDER_TABLES = tuple(
    str.maketrans({c: order_key(pi(c)) for c in LETTERS}) for pi in ALL_PERMUTATIONS
)
_FROM_ORDER = str.maketrans("0123", LETTERS)


def _rotation_keys(w: str):
    """Order keys of the rotations of the permutation images of w that start with a.

    Some image of a nonempty word contains a, so the least rotation of all
    the images starts with a and is the least of these keys.  The identity
    image comes last, so a filter testing a necklace, which no rotation of
    its own undercuts, meets a smaller key sooner.  Callers validate w.
    """
    n = len(w)
    for table in _ORDER_TABLES[1:] + _ORDER_TABLES[:1]:
        t = w.translate(table)
        tt = t + t
        i = t.find("0")
        while i != -1:
            yield tt[i : i + n]
            i = t.find("0", i + 1)


def canonical_word(w: str) -> str:
    """Minimum over all rotations of all 8 permutation images, in a < b < A < B order.

    Two cyclic words get the same canonical form exactly when one is a
    rotation of a permutation image of the other.
    """
    check_cyclic_word(w)
    return min(_rotation_keys(w), default="").translate(_FROM_ORDER)


def canonical_witness(w: str) -> tuple[str, Permutation, int]:
    """(canonical, pi, k) with rotate(pi(w), k) == canonical.

    pi is the first permutation, in ALL_PERMUTATIONS order, whose image
    reaches the canonical form, and k the least rotation that does.
    """
    check_cyclic_word(w)
    key = min(_rotation_keys(w), default="")
    for pi, table in zip(ALL_PERMUTATIONS, _ORDER_TABLES):
        t = w.translate(table)
        k = (t + t).find(key)
        if k != -1:
            return key.translate(_FROM_ORDER), pi, k


def triangle_decompose(x: str, y: str):
    """Factor ({x^-1}, y) * ({y}, x) as pi * (inner by y) * ({x^-1}, y^-1).

    Returns (pi, factors) where pi maps x -> y^-1, y -> x and factors is the
    right-hand side as applicable automorphism values, outermost first.
    Both sides agree as maps on every word, which the tests verify.
    """
    if x not in LETTERS or y not in LETTERS:
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
