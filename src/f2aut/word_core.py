"""Words and cyclic words over the four-letter alphabet of a rank-2 free group.

Letters are the ASCII characters 'a', 'b', 'A', 'B', where 'A' and 'B'
denote the inverses of 'a' and 'b'.  Lexicographic comparisons throughout
the package use the order a < b < A < B, which is not ASCII order, so
sorting always goes through order_key() rather than comparing raw strings.

A Word is a freely reduced string (no letter adjacent to its inverse).
A CyclicWord is a Word whose last letter is also not the inverse of its
first letter; it represents the whole rotation class but keeps whichever
rotation it was built with.  All statistics defined here (subword counts,
weight, m values) are rotation invariant.
"""

from __future__ import annotations

import math
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
    ab_bar: int  # the pattern a b^-1, i.e. occurrences of "aB" and "bA"


def check_word(s: str) -> str:
    """Validate the letter alphabet; returns s unchanged."""
    for c in s:
        if c not in _INV:
            raise ValueError(f"invalid letter {c!r}: words use only 'a', 'b', 'A', 'B'")
    return s


def check_cyclic_word(w: str) -> str:
    """Validate that w is a cyclic word (see is_cyclic_word); returns w unchanged."""
    if not is_cyclic_word(check_word(w)):
        raise ValueError(f"{w!r} is not cyclically reduced")
    return w


def inverse_letter(c: str) -> str:
    return _INV[c]


def invert(w: str) -> str:
    """The group inverse: reverse the word and invert each letter."""
    return w.translate(_INVERT_TABLE)[::-1]


def order_key(w: str) -> str:
    """Map to a string whose ASCII order realizes a < b < A < B."""
    return w.translate(_ORDER_TABLE)


def free_reduce(s: str) -> str:
    """Cancel adjacent inverse pairs until none remain.  Idempotent."""
    out: list[str] = []
    for c in s:
        if out and out[-1] == _INV[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def is_reduced(w: str) -> bool:
    return all(w[i + 1] != _INV[w[i]] for i in range(len(w) - 1))


def is_cyclic_word(w: str) -> bool:
    """Membership in C2: freely reduced and last letter != inverse of first."""
    if not is_reduced(w):
        return False
    return len(w) < 2 or w[-1] != _INV[w[0]]


def cyclic_reduce(w: str) -> tuple[str, str]:
    """Strip matched ends: returns (core, u) with w = u * core * u^-1.

    The input is freely reduced first, so the identity holds after free
    reduction of w.  The core is in C2 and u is freely reduced.
    """
    w = free_reduce(w)
    i, n = 0, len(w)
    while 2 * (i + 1) <= n and w[i] == _INV[w[n - 1 - i]]:
        i += 1
    return w[i : n - i], w[:i]


def rotate(w: str, k: int) -> str:
    """The rotation w[k:] + w[:k]; a conjugate representative of the same cyclic word."""
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def all_rotations(w: str) -> list[str]:
    return [rotate(w, k) for k in range(max(len(w), 1))]


def least_rotation(w: str) -> str:
    """Lexicographically least rotation in the order a < b < A < B."""
    n = len(w)
    if n <= 1:
        return w
    doubled = order_key(w) * 2
    best = min(range(n), key=lambda i: doubled[i : i + n])
    return w[best:] + w[:best]


def _count_occurrences(ext: str, u: str, limit: int) -> int:
    """Occurrences of u starting at positions 0..limit-1 of ext, overlaps allowed."""
    count = 0
    start = 0
    while True:
        i = ext.find(u, start)
        if i < 0 or i >= limit:
            return count
        count += 1
        start = i + 1


def subword_count(w: str, u: str) -> int:
    """Occurrences of u and u^-1 in the cyclic extension of w, overlaps allowed.

    The extension is w followed by its first len(u)-1 letters, and starting
    positions range over the len(w) cyclic positions.  By convention the
    count is 0 whenever len(u) > len(w).
    """
    k, n = len(u), len(w)
    assert k >= 1 and is_reduced(u), "pattern must be a nonempty reduced word"
    if k > n:
        return 0
    ext = w + w[: k - 1]
    total = _count_occurrences(ext, u, n)
    ui = invert(u)
    if ui != u:  # reduced words are never their own inverse; kept as a guard
        total += _count_occurrences(ext, ui, n)
    return total


# Which of the four tracked patterns each reduced 2-letter factor belongs to.
# The four unlisted reduced digraphs (ba, AB, Ba, Ab) belong to the mirror
# patterns (ba) and (b a^-1), which equal (ab) and (a b^-1) as cyclic counts
# but are not occurrences of them, so a digraph pass ignores them.
_DIGRAPH_SLOT = {
    "aa": 0, "AA": 0,
    "bb": 1, "BB": 1,
    "ab": 2, "BA": 2,
    "aB": 3, "bA": 3,
}


def pair_counts(w: str) -> SubwordCounts:
    """The four 2-letter pattern counts of a cyclic word in one pass."""
    n = len(w)
    if n < 2:
        return SubwordCounts(0, 0, 0, 0)
    counts = [0, 0, 0, 0]
    ext = w + w[0]
    for i in range(n):
        slot = _DIGRAPH_SLOT.get(ext[i : i + 2])
        if slot is not None:
            counts[slot] += 1
    return SubwordCounts(*counts)


def letter_tally(w: str) -> tuple[int, int]:
    """(number of a-type letters, number of b-type letters)."""
    a_count = w.count("a") + w.count("A")
    return a_count, len(w) - a_count


def weight(w: str) -> int:
    """min over the two generators of (occurrences of the generator plus its inverse)."""
    a_count, b_count = letter_tally(w)
    return min(a_count, b_count)


def is_alternating(w: str) -> bool:
    """True when no generator square occurs cyclically.

    A single letter is cyclically adjacent to itself, so length-1 words are
    not alternating even though their literal pattern counts vanish.
    """
    if len(w) == 1:
        return False
    pc = pair_counts(w)
    return pc.aa == 0 and pc.bb == 0


def m_value(w: str, x: str, y: str):
    """Least i >= 0 such that the pattern y x^i y occurs cyclically in w.

    Returns math.inf when no such i exists; the scan stops at i = len(w)
    since longer patterns cannot occur.
    """
    assert x in _INV and y in _INV
    assert y not in (x, _INV[x]), "y must not commute with x"
    n = len(w)
    for i in range(n + 1):
        u = y + x * i + y
        if len(u) > n:
            break
        if subword_count(w, u) >= 1:
            return i
    return math.inf
