"""Independent reference implementations used as test oracles.

Everything here is written directly from the definitions, favoring the
dumbest correct approach, and nothing imports the package under test.
Agreement between these functions and the library is what the tests check,
so keep the two code bases strictly separate.
"""

from collections import Counter
from itertools import groupby, permutations, product
from math import gcd

ALPHABET = "abAB"
INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
ORDER = {c: i for i, c in enumerate(ALPHABET)}
_DIGITS = str.maketrans(ALPHABET, "0123")  # encode the a < b < A < B order


def o_invert(w: str) -> str:
    return "".join(INV[c] for c in reversed(w))


def o_free_reduce(w: str) -> str:
    out = []
    for c in w:
        if out and out[-1] == INV[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def o_cyclic_core(w: str) -> str:
    """Freely reduce, then strip inverse first/last pairs until none remain."""
    w = o_free_reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == INV[w[j - 1]]:
        i, j = i + 1, j - 1
    return w[i:j]


def o_rotations(w: str) -> list:
    if not w:
        return [""]
    return [w[i:] + w[:i] for i in range(len(w))]


def o_least_rotation(w: str) -> str:
    if not w:
        return ""
    doubled = w.translate(_DIGITS) * 2
    n = len(w)
    best = min(range(n), key=lambda i: doubled[i : i + n])
    return w[best:] + w[:best]


def o_count(w: str, u: str) -> int:
    """Cyclic occurrences of u and u^-1 in w, overlaps allowed, 0 if u is longer."""
    if not w or len(u) > len(w):
        return 0
    ext = w + w[: len(u) - 1]
    total = 0
    for pat in (u, o_invert(u)):
        total += sum(1 for i in range(len(w)) if ext[i : i + len(u)] == pat)
    return total


def _perm_dicts() -> list:
    out = []
    for ia in ALPHABET:
        for ib in ALPHABET:
            if ib in (ia, INV[ia]):
                continue
            out.append({"a": ia, "b": ib, "A": INV[ia], "B": INV[ib]})
    return out


PERM_DICTS = _perm_dicts()  # the 8 signed permutations of the alphabet
assert len(PERM_DICTS) == 8


def o_perm(d: dict, w: str) -> str:
    return "".join(d[c] for c in w)


def o_canonical(w: str) -> str:
    """Least rotation over all 8 permutation images, by alphabet order."""
    return min(
        (o_least_rotation(o_perm(d, w)) for d in PERM_DICTS),
        key=lambda r: r.translate(_DIGITS),
    )


def o_longest_run(w: str) -> int:
    """Longest run of one letter in w + w, capped at len(w): the longest cyclic run."""
    return min(len(w), max((len(list(run)) for _, run in groupby(w + w)), default=0))


def one_letter_map(y: str, x: str) -> dict:
    """Letter images of the map fixing x and sending y -> yx."""
    assert y not in (x, INV[x])
    d = {c: c for c in ALPHABET}
    d[y] = y + x
    d[INV[y]] = INV[x] + INV[y]
    return d


def whitehead_maps() -> list:
    """Letter images of all 16 multiplier automorphisms (u -> x^-1^[u^-1 in S] u x^[u in S])."""
    maps = []
    for x in ALPHABET:
        y = "b" if x in "aA" else "a"
        for bits in range(4):
            members = set()
            if bits & 1:
                members.add(y)
            if bits & 2:
                members.add(INV[y])
            d = {}
            for u in ALPHABET:
                left = INV[x] if INV[u] in members else ""
                right = x if u in members else ""
                d[u] = left + u + right
            maps.append(d)
    return maps


def o_apply(d: dict, w: str) -> str:
    """Letterwise image under a letter map, freely reduced."""
    return o_free_reduce("".join(d[c] for c in w))


def o_apply_cyclic(d: dict, w: str) -> str:
    return o_cyclic_core("".join(d[c] for c in w))


ONE_LETTER_PAIRS = tuple(
    (y, x) for y in ALPHABET for x in ALPHABET if y not in (x, INV[x])
)
assert len(ONE_LETTER_PAIRS) == 8

_ONE_LETTER_TABLES = tuple(
    str.maketrans(one_letter_map(y, x)) for y, x in ONE_LETTER_PAIRS
)


# the principal automorphisms ({y}, x), in principal index order 1..4
PRINCIPAL_PAIRS = (("a", "b"), ("a", "B"), ("b", "a"), ("b", "A"))
PRINCIPAL_MAPS = tuple(one_letter_map(y, x) for y, x in PRINCIPAL_PAIRS)


def o_principal_index(y: str, x: str) -> int:
    """0-based index in PRINCIPAL_PAIRS of the principal acting like ({y}, x)
    on cyclic words: ({y^-1}, x^-1) differs from ({y}, x) by an inner
    automorphism, and one of the two has y a generator."""
    return PRINCIPAL_PAIRS.index((y, x) if y in "ab" else (INV[y], INV[x]))


def o_minimize(w: str):
    """Greedy reduction one step at a time, from the definition: while some
    principal shortens the cyclic word, apply the first one in index order.
    (minimal word, trace as W[y,x] strings)."""
    trace = []
    while True:
        for (y, x), d in zip(PRINCIPAL_PAIRS, PRINCIPAL_MAPS):
            image = o_apply_cyclic(d, w)
            if len(image) < len(w):
                w = image
                trace.append(f"W[{y},{x}]")
                break
        else:
            return w, trace


def o_vertex_row(w: str) -> tuple:
    """(w, [(principal index, canonical image) for each level principal],
    is_root, is_alternating), from the definitions; a single letter is
    neither a root nor alternating."""
    images = []
    for p, d in enumerate(PRINCIPAL_MAPS, start=1):
        image = o_apply_cyclic(d, w)
        if len(image) == len(w):
            images.append((p, o_canonical(image)))
    aa, bb, ab, ab_bar = (o_count(w, u) for u in ("aa", "bb", "ab", "aB"))
    single = len(w) == 1
    return w, images, not single and abs(ab - ab_bar) == aa == bb, not single and aa == bb == 0


def o_is_minimal(w: str) -> bool:
    """No one-letter automorphism shortens the cyclic word; the definition."""
    n = len(w)
    return all(len(o_cyclic_core(w.translate(t))) >= n for t in _ONE_LETTER_TABLES)


def reduced_words(n: int, prefix: str = "") -> list:
    """Every freely reduced word of length n that starts with prefix, a
    reduced word of at most n letters."""
    level = [prefix]
    for _ in range(n - len(prefix)):
        level = [w + c for w in level for c in ALPHABET if not w or c != INV[w[-1]]]
    return level


def cyclic_words(n: int, prefix: str = "") -> list:
    """Every cyclically reduced word of length n that starts with prefix."""
    return [w for w in reduced_words(n, prefix) if len(w) < 2 or w[-1] != INV[w[0]]]


def necklaces(n: int, prefix: str = "") -> list:
    """Cyclically reduced words of length n that start with prefix and are
    their own least rotation; with no prefix, one per cyclic word.

    A word whose first letter is not least in the word is not its own least
    rotation, so its rotations are not compared.
    """
    out = []
    for w in cyclic_words(n, prefix):
        t = w.translate(_DIGITS)
        if t and t[0] != min(t):
            continue
        if o_least_rotation(w) == w:
            out.append(w)
    return sorted(out)


def o_minimal_strings(d: int) -> dict:
    """{t: M(d, t)}: the cyclically reduced words of length d >= 1 with t
    a-type letters that are minimal, counted as strings (each rotation on
    its own).  A transfer-matrix count over (first letter, last letter,
    tally, (ab), (aB)), each count taken over the pattern and its inverse;
    the wrap digraph is added at the end.  ({y}, x) changes the cyclic
    length by (y) - 2 (y x^-1), so the word is minimal when neither
    generator's tally is below 2 max((ab), (aB))."""
    def digraph(u, v):  # increments of ((ab), (aB)) for the digraph u v
        return int(u + v in ("ab", "BA")), int(u + v in ("aB", "bA"))

    states = Counter({(c, c, int(c in "aA"), 0, 0): 1 for c in ALPHABET})
    for _ in range(d - 1):
        grown = Counter()
        for (first, last, t, ab, ab_bar), count in states.items():
            for c in ALPHABET:
                if c != INV[last]:
                    dab, dab_bar = digraph(last, c)
                    grown[first, c, t + (c in "aA"), ab + dab, ab_bar + dab_bar] += count
        states = grown
    minimal = Counter()
    for (first, last, t, ab, ab_bar), count in states.items():
        dab, dab_bar = digraph(last, first)
        if last != INV[first] and 2 * max(ab + dab, ab_bar + dab_bar) <= min(t, d - t):
            minimal[t] += count
    return minimal


def o_burnside_sums(n: int) -> Counter:
    """{W: n times the number of minimal necklaces of length n >= 1 and
    weight W}, by Burnside's lemma over the n rotations.  A word fixed by
    rotation r is its prefix of length g = gcd(n, r) repeated n/g times,
    and the repeat is cyclically reduced and minimal exactly when the
    prefix is, with its tally scaled by n/g."""
    by_period = {g: o_minimal_strings(g) for g in {gcd(n, r) for r in range(n)}}
    sums = Counter()
    for r in range(n):
        g = gcd(n, r)
        for t, count in by_period[g].items():
            tally = t * n // g
            sums[min(tally, n - tally)] += count
    return sums


def orbit_components(max_len: int, cap: int) -> dict:
    """Union-find components of all necklaces of length <= cap under the
    16 multiplier automorphisms and 8 permutations, truncated at cap.

    Two cyclic words of length <= max_len are automorphically conjugate
    exactly when they share a component, provided cap >= max_len: by peak
    reduction a connecting chain never exceeds the longer endpoint.
    """
    assert cap >= max_len
    universe = [w for n in range(cap + 1) for w in necklaces(n)]
    index = {w: i for i, w in enumerate(universe)}
    parent = list(range(len(universe)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    moves = whitehead_maps()
    for w, i in index.items():
        for d in moves:
            img = o_least_rotation(o_apply_cyclic(d, w))
            if len(img) <= cap:
                union(i, index[img])
        for d in PERM_DICTS:
            union(i, index[o_least_rotation(o_perm(d, w))])
    return {w: find(i) for w, i in index.items()}


def parse_witness_token(text: str):
    """(kind, payload, power) for a W[y,x] / W[y,x]^k / P[p,q] / R[k] step;
    power is k for W[y,x]^k and 1 otherwise."""
    head, caret, power = text.partition("^")
    kind, body = head[0], head[2:-1]
    assert head[1] == "[" and head[-1] == "]"
    assert not caret or (kind == "W" and power.isascii() and power.isdigit() and int(power) >= 2)
    power = int(power) if caret else 1
    if kind == "W":
        y, x = body.split(",")
        return "W", one_letter_map(y, x), power
    if kind == "P":
        p, q = body.split(",")
        return "P", {"a": p, "b": q, "A": INV[p], "B": INV[q]}, power
    if kind == "R":
        return "R", int(body), power
    raise AssertionError(f"unknown witness token {text!r}")


def replay_tokens(w: str, tokens) -> str:
    """Apply a token witness to the cyclic core of w with oracle arithmetic;
    W[y,x]^k applies the one-letter map k times."""
    cur = o_cyclic_core(w)
    for text in tokens:
        kind, payload, power = parse_witness_token(text)
        if kind == "W":
            for _ in range(power):
                cur = o_apply_cyclic(payload, cur)
        elif kind == "P":
            cur = o_perm(payload, cur)
        else:
            k = payload % len(cur) if cur else 0
            cur = cur[k:] + cur[:k]
    return cur


def o_two_way_path(k):
    """Arcs i -> i + 1 and i + 1 -> i along the path 0 - 1 - ... - (k-1)."""
    return [(i, i + 1) for i in range(k - 1)] + [(i + 1, i) for i in range(k - 1)]


def _o_shapes() -> list:
    """(name, is_root, has_alternating or None for either, k, arcs) for the ten
    shapes, paths up to 6 vertices.  P2 and P3 hang their decoration on the
    last vertex; the root shapes keep the labels build_graph gives their
    smallest members."""
    shapes = []
    for k in range(1, 7):
        end = [(k - 1, k - 2)] if k > 1 else [(0, 0), (0, 0)]
        for name, extra in (("P1", []), ("P2", [(k - 1, k - 1)]), ("P3", end)):
            shapes.append((name, False, None, k, o_two_way_path(k) + extra))
    spokes = [(4, c) for c in range(4)] + [(c, 4) for c in range(4)]
    return shapes + [
        ("R1", True, False, 1, [(0, 0)] * 2),
        ("R2", True, False, 2, [(0, 0), (0, 1), (1, 0), (1, 0)]),
        ("R3", True, False, 3, [(u, v) for u in range(3) for v in range(3) if u != v]),
        ("R4", True, True, 1, [(0, 0)] * 4),
        ("R5", True, True, 2, [(0, 1), (0, 1), (1, 0), (1, 0), (1, 1), (1, 1)]),
        ("R6", True, True, 3, [(2, 0), (2, 0), (2, 1), (2, 1), (0, 1), (1, 0), (0, 2), (1, 2)]),
        ("R7", True, True, 5, spokes + [(0, 1), (1, 0), (2, 3), (3, 2)]),
    ]


O_SHAPES = _o_shapes()


def o_shape(k: int, arcs, is_root: bool, has_alternating: bool):
    """The shape of a class graph on k <= 6 vertices with these (u, v) arcs:
    the one whose arcs some relabelling of the vertices reproduces.  None if
    no shape fits or an arc leaves range(k)."""
    assert k <= 6
    if any(not 0 <= x < k for arc in arcs for x in arc):
        return None
    target = sorted(arcs)
    for name, root, alt, size, shape in O_SHAPES:
        if (root, size, len(shape)) != (is_root, k, len(arcs)) or alt not in (None, has_alternating):
            continue
        for perm in permutations(range(k)):
            if sorted((perm[u], perm[v]) for u, v in shape) == target:
                return name
    return None


def mirror_digraph_identity_domain():
    """All (x, y) letter pairs for the (xy)_w = (yx)_w identity."""
    return [(x, y) for x, y in product(ALPHABET, repeat=2) if y != INV[x]]
