"""Words and cyclic words over the four-letter alphabet of a rank-2 free group.

Letters are the ASCII characters 'a', 'b', 'A', 'B', where 'A' and 'B'
denote the inverses of 'a' and 'b'.  Lexicographic comparisons throughout
the package use the order a < b < A < B, which is not ASCII order, so
sorting always goes through order_key() rather than comparing raw strings.

A Word is a freely reduced string (no letter adjacent to its inverse).
A CyclicWord is a Word whose last letter is also not the inverse of its
first letter; it represents the whole rotation class but keeps whichever
rotation it was built with.  All statistics defined here (subword counts,
pair counts, weight) are rotation invariant.
"""

from __future__ import annotations

import re
from typing import NamedTuple

LETTERS = "abAB"

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
_INVERT_TABLE = str.maketrans("abAB", "ABab")
# a < b < A < B as '0' < '1' < '2' < '3'
_ORDER_TABLE = str.maketrans("abAB", "0123")


class TheoremViolation(Exception):
    """An enumerated structure contradicts a proved statement; must never fire."""


class SubwordCounts(NamedTuple):
    """Cyclic 2-letter pattern counts: each field counts the pattern and its inverse."""

    aa: int
    bb: int
    ab: int
    ab_bar: int  # the pattern a b^-1 and its inverse; see _ab_counts


def check_word(s: str) -> str:
    """Validate the letter alphabet; returns s unchanged."""
    if not isinstance(s, str):
        raise ValueError(f"{s!r} is not a word: words are strings of 'a', 'b', 'A', 'B'")
    # what is left once the letters are deleted ('?' for a non-ASCII character);
    # on long words bytes.translate is about three times as fast as str.translate
    if s.encode("ascii", "replace").translate(None, b"abAB"):
        bad = next(c for c in s if c not in _INV)
        raise ValueError(f"invalid letter {bad!r}: words use only 'a', 'b', 'A', 'B'")
    return s


def check_cyclic_word(w: str) -> str:
    """Validate that w is a cyclic word (see is_cyclic_word); returns w unchanged."""
    if not isinstance(w, str) or not is_cyclic_word(w):
        check_word(w)
        raise ValueError(f"{w!r} is not cyclically reduced")
    return w


def inverse_letter(c: str) -> str:
    try:
        return _INV[c]
    except KeyError:
        raise ValueError(f"invalid letter {c!r}: words use only 'a', 'b', 'A', 'B'") from None


def invert(w: str) -> str:
    """The group inverse: reverse the word and invert each letter."""
    return check_word(w).translate(_INVERT_TABLE)[::-1]


def order_key(w: str) -> str:
    """Map to a string whose ASCII order realizes a < b < A < B."""
    return w.translate(_ORDER_TABLE)


def free_reduce(s: str) -> str:
    """Cancel adjacent inverse pairs until none remain.  Idempotent.  Raises
    ValueError on a non-letter, as do cyclic_reduce and apply_cyclic through it."""
    if is_reduced(check_word(s)):
        return s
    out: list[str] = []
    for c in s:
        if out and out[-1] == _INV[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def is_reduced(w: str) -> bool:
    return not ("aA" in w or "Aa" in w or "bB" in w or "Bb" in w)


def is_cyclic_word(w: str) -> bool:
    """Membership in C2: letters only, freely reduced and last letter != inverse of first."""
    if w.encode("ascii", "replace").translate(None, b"abAB") or not is_reduced(w):
        return False
    return len(w) < 2 or w[-1] != _INV[w[0]]


def cyclic_reduce(w: str) -> tuple[str, str]:
    """Strip matched ends: returns (core, u) with w = u * core * u^-1.

    The input is freely reduced first, so the identity holds after free
    reduction of w.  The core is in C2 and u is freely reduced.
    """
    w = free_reduce(w)
    i = _matched_ends(w)
    return w[i : len(w) - i], w[:i]


def _matched_ends(w: str) -> int:
    """How many letters at each end of a freely reduced w cancel cyclically."""
    i, n = 0, len(w)
    while 2 * (i + 1) <= n and w[i] == _INV[w[n - 1 - i]]:
        i += 1
    return i


def rotate(w: str, k: int) -> str:
    """The rotation w[k:] + w[:k]; a conjugate representative of the same cyclic word."""
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def least_rotation(w: str) -> str:
    """Lexicographically least rotation in the order a < b < A < B."""
    n = len(check_word(w))
    if n <= 1:
        return w
    doubled = order_key(w) * 2
    best = min(range(n), key=lambda i: doubled[i : i + n])
    return w[best:] + w[:best]


def subword_count(w: str, u: str) -> int:
    """Occurrences of u and u^-1 in the cyclic extension of w, overlaps allowed.

    The extension is w followed by its first len(u)-1 letters, and starting
    positions range over the len(w) cyclic positions.  By convention the
    count is 0 whenever len(u) > len(w).
    """
    if not u or not is_reduced(check_word(u)):
        raise ValueError(f"pattern {u!r} must be a nonempty reduced word")
    if len(u) > len(check_cyclic_word(w)):
        return 0
    # u and u^-1 differ and have one length, so at most one starts at each position
    return len(re.findall(f"(?={u}|{invert(u)})", w + w[: len(u) - 1]))


def pair_counts(w: str) -> SubwordCounts:
    """The four 2-letter pattern counts of a cyclic word.

    The digraphs of a cyclic word are those of w + w[0] (see _ab_counts).
    A run of a-type letters in a cyclic word is one letter repeated: an
    a-run ends in ab or aB, an A-run starts with bA or BA.  So the a-type
    runs number r = (ab) + (a b^-1), and (aa) = tally - r; the b-type runs
    alternate with them, so (bb) = b tally - r.
    """
    n = len(w)
    if n < 2:
        return SubwordCounts(0, 0, 0, 0)
    ab, ab_bar = _ab_counts(w + w[0])
    a_count, b_count = letter_tally(w)
    runs = ab + ab_bar
    return SubwordCounts(a_count - runs, b_count - runs, ab, ab_bar)


def _ab_counts(s: str) -> tuple[int, int]:
    """((ab), (a b^-1)) over the digraphs of s: ab and BA, aB and bA.  Digraphs
    of distinct letters cannot overlap, so str.count finds each one."""
    return s.count("ab") + s.count("BA"), s.count("aB") + s.count("bA")


def letter_tally(w: str) -> tuple[int, int]:
    """(number of a-type letters, number of b-type letters)."""
    a_count = w.count("a") + w.count("A")
    return a_count, len(w) - a_count


def weight(w: str) -> int:
    """min over the two generators of (occurrences of the generator plus its inverse)."""
    a_count, b_count = letter_tally(check_word(w))
    return min(a_count, b_count)


def vertex_flags(n: int, pc) -> tuple[bool, bool]:
    """(is_root, is_alternating) of a cyclic word of length n with pair_counts
    pc, or any 4-tuple of the same fields in the same order.

    A root is the boundary case of minimality, |(ab) - (a b^-1)| = (aa) = (bb);
    an alternating word has no generator square.  A single letter is
    cyclically adjacent to itself, so length-1 words are neither, even
    though their literal pattern counts vanish: treating them as roots would
    break the divisibility facts that hold for every other root class.
    """
    if n == 1:
        return False, False
    aa, bb, ab, ab_bar = pc
    return abs(ab - ab_bar) == aa == bb, aa == bb == 0

