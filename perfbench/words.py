"""Seeded long-word inputs and an independent word oracle.

Nothing here imports f2aut: the inputs the benchmark feeds to the program,
and the minimality test its outputs are checked with, come from this file
alone, so a defect in the program cannot hide itself in its own inputs.

Letters are a, b, A, B with capitals the inverses, as in the package.
"""

from __future__ import annotations

import random
import re

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
_CANCEL = re.compile("aA|Aa|bB|Bb")

# The eight one-letter automorphisms y -> yx (y^-1 -> x^-1 y^-1), as (y, x).
ONE_LETTER = tuple(
    (y, x) for y in "abAB" for x in ("bB" if y in "aA" else "aA")
)
# The four principal ones; testing them decides minimality in rank 2.
PRINCIPALS = (("a", "b"), ("a", "B"), ("b", "a"), ("b", "A"))
# Signed permutations as (image of a, image of b).
PERMUTATIONS = tuple(
    (pa, pb) for pa in "abAB" for pb in ("bB" if pa in "aA" else "aA")
)


def free_reduce(w: str) -> str:
    while True:
        reduced = _CANCEL.sub("", w)
        if reduced == w:
            return w
        w = reduced


def cyclic_core(w: str) -> str:
    """Free and cyclic reduction."""
    w = free_reduce(w)
    i, n = 0, len(w)
    while 2 * (i + 1) <= n and w[i] == _INV[w[n - 1 - i]]:
        i += 1
    return w[i : n - i]


def apply_one_letter(aut, w: str) -> str:
    """Cyclically reduced image of w under y -> yx."""
    y, x = aut
    table = str.maketrans({y: y + x, _INV[y]: _INV[x] + _INV[y]})
    return cyclic_core(w.translate(table))


def permute(perm, w: str) -> str:
    pa, pb = perm
    return w.translate(str.maketrans("abAB", pa + pb + _INV[pa] + _INV[pb]))


def rotate(w: str, k: int) -> str:
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def is_minimal(w: str) -> bool:
    """No principal automorphism shortens the cyclic word w."""
    w = cyclic_core(w)
    return all(len(apply_one_letter(aut, w)) >= len(w) for aut in PRINCIPALS)


def random_cyclic_word(rng: random.Random, n: int) -> str:
    """A uniformly built cyclically reduced word of length n >= 2."""
    while True:
        letters = [rng.choice("abAB")]
        for _ in range(n - 1):
            letters.append(rng.choice([c for c in "abAB" if c != _INV[letters[-1]]]))
        if letters[-1] != _INV[letters[0]]:
            return "".join(letters)


def push_up(rng: random.Random, w: str, steps: int) -> str:
    """Apply `steps` randomly chosen one-letter automorphisms that lengthen w."""
    for _ in range(steps):
        choices = list(ONE_LETTER)
        rng.shuffle(choices)
        for aut in choices:
            image = apply_one_letter(aut, w)
            if len(image) > len(w):
                w = image
                break
    return w


def disguise(rng: random.Random, w: str) -> str:
    """A random signed permutation followed by a random rotation."""
    return rotate(permute(rng.choice(PERMUTATIONS), w), rng.randrange(max(len(w), 1)))


def _random_minimal(rng: random.Random, n: int) -> str:
    while True:
        w = random_cyclic_word(rng, n)
        if is_minimal(w):
            return w


def make_pairs(seed: int, small: bool = False) -> list:
    """The long_words inputs for one seed, as JSON-ready dicts.

    Each pair carries the minimal word it was built from (`base`), so the
    checks know the minimal length; `equivalent` is the expected answer.
    The kinds and their sizes are fixed; the seed picks letters, lengths
    within narrow ranges, automorphisms, permutations and rotations.
    """
    rng = random.Random(seed)
    pairs = []

    def add(kind, base, w, v, equivalent, vertices=None):
        pairs.append(
            {"kind": kind, "base": base, "w": w, "v": v,
             "equivalent": equivalent, "vertices": vertices}
        )

    if small:
        base = _random_minimal(rng, 40)
        add("mixed", base, disguise(rng, push_up(rng, base, 3)),
            disguise(rng, push_up(rng, base, 3)), True)
        other = _random_minimal(rng, 41)
        add("negative", base, disguise(rng, push_up(rng, base, 3)),
            disguise(rng, push_up(rng, other, 3)), False)
        return pairs

    # deep: a^k b is primitive, so its minimal form is one letter; pushed
    # up by 30 applications of one principal automorphism on a, it has
    # about 16k letters and reduces in about k + 30 greedy steps
    for _ in range(2):
        ends = []
        for _ in range(2):
            w = "a" * rng.randrange(500, 511) + "b"
            aut = rng.choice(PRINCIPALS[:2])
            for _ in range(30):
                w = apply_one_letter(aut, w)
            ends.append(disguise(rng, w))
        add("deep", "a", ends[0], ends[1], True)

    # wide: the two ends of the path-shaped class of a^(n-6) baBabb, which
    # has n-5 minimal words of length n
    n = rng.randrange(300, 307)
    head = "a" * (n - 6)
    add("wide", head + "baBabb", rotate(head + "baBabb", rng.randrange(n)),
        disguise(rng, head + "bbABAb"), True, vertices=n - 5)

    # mixed: random minimal words pushed up, then disguised; lengths and
    # push counts are spread over their ranges the same way for every seed
    steps = [6, 7, 8, 9]
    rng.shuffle(steps)
    for i in range(4):
        base = _random_minimal(rng, 600 + 450 * i + rng.randrange(150))
        add("mixed", base, disguise(rng, push_up(rng, base, steps[i])),
            disguise(rng, push_up(rng, base, 15 - steps[i])), True)

    # negative: minimal lengths differ, so the words cannot be equivalent
    for i in range(2):
        m = 600 + 300 * i + rng.randrange(100)
        base = _random_minimal(rng, m)
        other = _random_minimal(rng, m + rng.randrange(1, 5))
        add("negative", base, disguise(rng, push_up(rng, base, 8)),
            disguise(rng, push_up(rng, other, 8)), False)
    return pairs
