"""Level tests, minimality, greedy reduction, and the conjugacy decision.

A cyclic word is minimal when no automorphism shortens it; in rank 2 it is
enough to test the four principal one-letter automorphisms.  ({y}, x)
changes the cyclic length by (y)_w - 2 (y x^-1)_w; principal_deltas is the
one place this is computed.  Minimality has a closed form in the 2-letter
pattern counts:

    |(ab)_w - (a b^-1)_w| <= min((aa)_w, (bb)_w)

and ({y}, x) preserves the cyclic length of w (is "level" on w) exactly
when (y x^-1)_w = (yx)_w + (yy)_w, for len(w) >= 2.

The greedy reduction (minimize) applies the lowest-indexed principal that
shrinks the word, and works one run of a principal at a time.  On a^k b
pushed up by one principal the same principal repeats thousands of times.
Two helpers state the rule of a run.  automorphism._moving_gaps tables
the gaps x^m between two y's and X^m between two Y's, whose m each step
of ({y}, x) raises by one; word_core._ab_counts says which digraphs count
as (ab) and (a b^-1).  Between two steps at which a gap empties, every
delta that decides a run's end is affine in the number of steps, so
_run_length finds where a run ends by division, and apply_cyclic takes
the rest of the run as one power step in one pass over the word.  Only
the words at run boundaries are kept.

vertex_row is the one map from a vertex of a class graph to its level
edges, and level_closure is the one way a class is found: it collects the
rows of one class breadth-first.  A closure or a census job keeps one row
store and one reverse table: each level edge is canonicalized at the end
whose row comes first, and the table hands its inverse (_REVERSE) on.

are_conjugate decides whether two words lie in the same automorphic
conjugacy class and produces a replayable witness: a token sequence
(one-letter automorphisms and their powers, signed permutations,
rotations) that transforms the cyclically reduced first word, step by
step, into the cyclically reduced second word exactly.  Each greedy run
of k >= 2 steps is one token W[y,x]^k on either reduction leg.  So is a
level run between the two minimal words: a path class can have n - 5
vertices of length n, and q steps of one principal cross it.
_power_path reads q off the gap tables of the one word and of a
permutation image of the other, builds the run's image only where that
image's table and exponent sums are the ones q steps give, and confirms
it with one _align.  The pairs it misses, all in R7 classes for
n <= 14, take the breadth-first path through the rows of level_closure.
Each step's image is aligned to the canonical vertex the path already
holds, so only the two minimal words are canonicalized.  The first
word's leg reuses its greedy states; back up the second word's, the same
alignment, identity permutation first, gives the rotation after each
inverse run.

The internal callers apply a principal through automorphism._apply_cyclic,
which skips apply_cyclic's checks on the cyclic words they have built.
"""

from __future__ import annotations

import re

from .automorphism import (
    ALL_PERMUTATIONS,
    OneLetterAut,
    PRINCIPALS,
    Permutation,
    _REVERSE,
    _align,
    _apply_cyclic,
    _canonical,
    _moving_gaps,
    apply_cyclic,
    canonical_witness,
)
from .word_core import (
    TheoremViolation,
    _ab_counts,
    check_cyclic_word,
    cyclic_reduce,
    inverse_letter,
    letter_tally,
    pair_counts,
    rotate,
    vertex_flags,
)


def principal_deltas(a_count: int, b_count: int, pc) -> tuple:
    """Cyclic length change of a word under each principal, in PRINCIPALS order.

    Takes the word's letter_tally and pair_counts, or any tuple of the same
    fields.  As cyclic counts, (y x^-1)_w is (aB) for ({a},b) and ({b},a),
    and (ab) for ({a},B) and ({b},A).
    """
    _, _, ab, ab_bar = pc
    return (
        a_count - 2 * ab_bar,
        a_count - 2 * ab,
        b_count - 2 * ab_bar,
        b_count - 2 * ab,
    )


def is_minimal(w: str) -> bool:
    """No automorphism shortens w: no principal has a negative length change."""
    check_cyclic_word(w)
    return _shrinking(w)[0] is None


def _run_length(p: int, w: str, pc, d) -> int:
    """How many greedy steps in a row apply PRINCIPALS[p] to w, without applying it.

    w has pair_counts pc and principal_deltas d, and the greedy rule picks
    p on w, so d[p] < 0.  j steps of phi = PRINCIPALS[p] = ({y}, x) raise
    the exponent m of each moving gap u up^m u by j (see _moving_gaps).  A
    gap with m < 0 empties at step -m and loses the digraphs of u up^-1 u,
    which count in (y x^-1), the count d[p] and d[p ^ 2] subtract; these
    are the events.  At the step after (step 1 for an empty gap) it starts
    to fill and gains those of u up u, which count only in (yx), the count
    d[p ^ 1] and d[p ^ 3] subtract.  As (yy) is the y-type tally less
    (ab) + (a b^-1) (see pair_counts), d[p] + d[p ^ 1] = 2 (yy) and
    d[p] + d[p ^ 3] = (aa) + (bb), so both stay positive while phi shrinks
    the word; read too high without the gains, they still decide nothing.
    Between two events phi's delta is constant and is the slope of the
    x-type tally, the one phi changes, so every delta read here is affine
    in j.  One such stretch at a time, the first j at which phi stops
    shrinking or a lower-indexed principal starts to is found by division.
    """
    phi = PRINCIPALS[p]
    events = {}  # step -> [(u + g + u, n)]: n gaps lose the digraphs of u g u
    for (m, u, up), count in _moving_gaps(phi, w).items():
        if m < 0:
            events.setdefault(-m, []).append((u + inverse_letter(up) + u, count))
    ab, ab_bar, lo = pc.ab, pc.ab_bar, 0
    tallies = [pc.aa + ab + ab_bar, pc.bb + ab + ab_bar]  # letter_tally(w) (see pair_counts)
    for hi in [*sorted(events), None]:
        if d[p] >= 0 or min(d[:p], default=0) < 0:
            return lo
        # deltas over the x-type tally fall with it, the others hold
        end = min((lo + d[q] // -d[p] + 1 for q in range(p) if q // 2 != p // 2), default=None)
        if end is not None and (hi is None or end < hi):
            return end
        if hi is None:
            raise TheoremViolation(f"{phi} shortens {w!r} without end")
        tallies[1 - p // 2] += d[p] * (hi - lo)  # the x-type tally
        for digraphs, n in events[hi]:
            dab, dab_bar = _ab_counts(digraphs)
            ab, ab_bar = ab - n * dab, ab_bar - n * dab_bar
        d, lo = principal_deltas(*tallies, (0, 0, ab, ab_bar)), hi


def _shrinking(w: str) -> tuple:
    """(p, pc, deltas): the pair_counts and principal_deltas of w, and the
    index p of the principal the greedy rule applies to w, or None.  is_minimal,
    f2aut profile, level_closure, _power_path and the greedy reduction read
    them here."""
    pc = pair_counts(w)
    runs = pc.ab + pc.ab_bar  # (aa) = a tally - runs, (bb) = b tally - runs (see pair_counts)
    tally = (pc.aa + runs, pc.bb + runs) if len(w) > 1 else letter_tally(w)
    deltas = principal_deltas(*tally, pc)
    return next((q for q, delta in enumerate(deltas) if delta < 0), None), pc, deltas


def _minimize_states(w: str):
    """Greedy reduction by runs of one principal: the words at run
    boundaries, start included, and the runs (phi, k) taken.

    A run's first two steps are taken singly.  When the rule picks the same
    principal a third time, _run_length gives the rest of the run, which is
    taken as one power step.  Most runs on random words are one or two
    steps long, and finding a run length costs about one step.
    """
    states, runs = [w], []
    p = _shrinking(w)[0]
    while p is not None:
        phi, cur, k, q = PRINCIPALS[p], states[-1], 0, p
        while q == p and k < 2:
            cur = _apply_cyclic(phi, cur)
            q, pc, deltas = _shrinking(cur)
            k += 1
        if q == p:
            j = _run_length(p, cur, pc, deltas)
            cur = _apply_cyclic(phi, cur, j)
            q, k = _shrinking(cur)[0], k + j
        states.append(cur)
        runs.append((phi, k))
        p = q
    return states, runs


def minimize(w: str) -> tuple[str, tuple]:
    """Greedy reduction to a minimal word.

    Repeatedly applies the lowest-indexed principal automorphism that
    strictly shrinks the cyclic length.  Returns the minimal word reached
    and the trace of automorphisms applied, in application order.
    """
    check_cyclic_word(w)
    states, runs = _minimize_states(w)
    return states[-1], tuple(phi for phi, k in runs for _ in range(k))


# --- class graph rows ----------------------------------------------------

def vertex_row(w: str, pc, deltas, reverse: dict, rows) -> tuple:
    """(w, [(principal index, canonical image), ...], is_root, alternating)
    for a canonical minimal word w with pair_counts pc and principal_deltas
    deltas: an entry per principal of length change 0, in PRINCIPALS order,
    and vertex_flags(len(w), pc).  reverse.pop(w) holds the edges handed
    over; each other level image is canonicalized to c, and its reverse edge
    (see _REVERSE) goes to this row if c is w, else to reverse[c] unless rows,
    the row store, holds c: c's row, built while w had none, canonicalized
    all of its images and handed their reverses to w."""
    n, images = len(w), reverse.pop(w, {})
    for p in 1, 2, 3, 4:
        if deltas[p - 1] == 0 and p not in images:
            img = _apply_cyclic(PRINCIPALS[p - 1], w)
            if len(img) != n:
                raise TheoremViolation(f"principal {p} is not level on {w!r}: {img!r}")
            c, i, _ = _canonical(img)  # img is reduced by construction
            images[p] = c
            if c == w or c not in rows:
                (images if c == w else reverse.setdefault(c, {})).setdefault(_REVERSE[p - 1][i], w)
    for q in images:
        if deltas[q - 1]:
            raise TheoremViolation(f"an edge handed to {w!r} names a principal not level on it: {sorted(images.items())}")
    return (w, sorted(images.items()), *vertex_flags(n, pc))


def level_closure(start: str, rows=None, reverse=None) -> list:
    """The vertex_row of every vertex of the class graph of start, a
    canonical minimal word, in breadth-first discovery order: rows[u] if
    the row store rows holds it, else computed and added to it, handing
    edges over in reverse (see vertex_row), so each is canonicalized once."""
    rows, reverse = {} if rows is None else rows, {} if reverse is None else reverse
    seen, queue = {start}, [start]
    for u in queue:
        if u not in rows:  # u must be minimal
            p, pc, deltas = _shrinking(u)
            if p is not None:
                raise TheoremViolation(f"a principal shortens the minimal word {u!r}")
            rows[u] = vertex_row(u, pc, deltas, reverse, rows)
        for _, c in rows[u][1]:
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return [rows[u] for u in queue]


# --- conjugacy decision with replayable witness -------------------------

def format_token(item) -> str:
    """Render a witness step: W[y,x], W[y,x]^k (k >= 2), P[img_a,img_b], or R[k].

    A run (phi, k) of one-letter automorphism phi is written W[y,x]^k, or
    W[y,x] when k == 1.
    """
    if isinstance(item, tuple):
        phi, k = item
        return str(phi) if k == 1 else f"{phi}^{k}"
    if isinstance(item, OneLetterAut):
        return str(item)
    if isinstance(item, Permutation):
        return f"P[{item.image_of_a},{item.image_of_b}]"
    return f"R[{int(item)}]"


# the spellings format_token writes: ASCII digits, no sign but '-', no leading 0
_TOKEN = re.compile(r"W\[([^,\]]*),([^,\]]*)\](?:\^([1-9][0-9]*))?|P\[([^,\]]*),([^,\]]*)\]|R\[(0|-?[1-9][0-9]*)\]")


def parse_token(text: str):
    """The step a witness token names: a OneLetterAut, a run (OneLetterAut, k)
    for W[y,x]^k, a Permutation, or an int rotation."""
    m = _TOKEN.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed witness token {text!r}")
    y, x, power, img_a, img_b, shift = m.groups()
    if shift is not None:
        return int(shift)
    if img_a is not None:
        return Permutation(img_a, img_b)
    if power is None:
        return OneLetterAut(y, x)
    if int(power) < 2:
        raise ValueError(f"malformed witness token {text!r}: a power must be at least 2")
    return OneLetterAut(y, x), int(power)


def apply_token(item, w: str) -> str:
    """Apply one witness step to w: a run (OneLetterAut, k), a OneLetterAut,
    a Permutation or an int rotation; ValueError on anything else."""
    if isinstance(item, OneLetterAut):
        item = item, 1
    if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], OneLetterAut):
        return apply_cyclic(item[0], w, item[1])
    if isinstance(item, Permutation):
        return item(w)
    if type(item) is not int:  # a bool is an int, but not a rotation
        raise ValueError(f"{item!r} is not a witness step")
    return rotate(w, item)


def replay_witness(w: str, tokens) -> str:
    """Apply a witness, a sequence of tokens, to cyclic_reduce(w); each step preserves the class."""
    if isinstance(tokens, str):
        raise ValueError(f"a witness is a sequence of tokens, not the string {tokens!r}")
    cur = cyclic_reduce(w)[0]
    for tok in tokens:
        cur = apply_token(parse_token(tok) if isinstance(tok, str) else tok, cur)
    return cur


def _exponent_sums(w: str) -> tuple[int, int]:
    """(exponent sum of a, exponent sum of b): the image of w in Z^2."""
    return w.count("a") - w.count("A"), w.count("b") - w.count("B")


def _power_path(canon_w: str, canon_v: str):
    """[((phi, q), canon_v)] when q steps of one principal phi, level on
    canon_w, carry it onto a rotation of a permutation image of canon_v;
    None when no single power of a principal is found to do so.

    Write phi = ({y}, x) with y a generator.  q steps raise the exponent m
    of each moving gap by q and change no other gap (see _moving_gaps); they
    keep the y-tally and the y-exponent sum e_y, and add q e_y to the
    x-exponent sum, -q e_y when x is an inverse.  So a permutation image of
    canon_v that phi^q(canon_w) rotates onto has canon_w's y-tally and
    e_y, and q is its least gap exponent less canon_w's.  It is kept only
    if its gap table is canon_w's raised by q and its x-exponent sum moved
    by q e_y; only then is phi^q(canon_w) built, and confirmed by one _align.
    """
    n, e = len(canon_w), _exponent_sums(canon_w)
    for phi, delta in zip(PRINCIPALS, _shrinking(canon_w)[2]):
        table = None if delta else _moving_gaps(phi, canon_w)
        if not table:  # not level, or phi fixes canon_w
            continue
        iy, tally = "ab".index(phi.y), canon_w.count(phi.y)
        step = e[iy] if phi.x in "ab" else -e[iy]  # what a step adds to the x-exponent sum
        for pi in ALL_PERMUTATIONS:
            img = pi(canon_v)
            f = _exponent_sums(img)
            if img.count(phi.y) != tally or f[iy] != e[iy]:
                continue
            moved = _moving_gaps(phi, img)
            q = min(moved)[0] - min(table)[0] if moved else 0
            raised = {(m + q, u, up): count for (m, u, up), count in table.items()}
            if 0 < q < n and f[1 - iy] == e[1 - iy] + q * step and moved == raised:
                if _align(_apply_cyclic(phi, canon_w, q), canon_v) is not None:
                    return [((phi, q), canon_v)]
    return None


def _bfs_path(canon_w: str, canon_v: str):
    """[((principal, 1), vertex), ...]: the level path from canon_w to
    canon_v through the BFS parents of level_closure, one step per edge;
    None when canon_v is not in the class of canon_w."""
    # BFS parents: the first row, in discovery order, with an edge to a vertex
    parents = {canon_w: None}
    for u, images, _, _ in level_closure(canon_w):
        for p, c in images:
            parents.setdefault(c, (u, p))
    if canon_v not in parents:
        return None
    path = []  # from canon_v back
    c = canon_v
    while parents[c] is not None:
        u, p = parents[c]
        path.append(((PRINCIPALS[p - 1], 1), c))
        c = u
    return path[::-1]


def are_conjugate(w: str, v: str):
    """Decide whether w and v lie in the same automorphic conjugacy class.

    Inputs need not be reduced.  Returns (flag, tokens) where tokens is a
    replayable witness (see replay_witness) carrying cyclic_reduce(w) onto
    cyclic_reduce(v) exactly, or None when the words are not conjugate.

    Between two distinct canonical minimal words a level run of one
    principal is tried first (_power_path), and written as one token
    W[y,x]^q; a pair it misses, in an R7 class, takes the breadth-first
    level path, one principal per edge.
    """
    cw = cyclic_reduce(w)[0]
    cv = cyclic_reduce(v)[0]
    w_states, w_runs = _minimize_states(cw)
    v_states, v_runs = _minimize_states(cv)
    mw, mv = w_states[-1], v_states[-1]
    if len(mw) != len(mv):
        return False, None

    canon_w, pi_w, k_w = canonical_witness(mw)
    canon_v, pi_v, k_v = canonical_witness(mv)
    path = []  # (step, canonical vertex it reaches)
    if canon_w != canon_v:
        path = _power_path(canon_w, canon_v) or _bfs_path(canon_w, canon_v)
        if path is None:
            return False, None

    tokens = list(w_runs)  # _minimize_states built their images, ending at mw
    cur = mw

    def emit(item):  # a run (phi, k) goes through the kernel: cur is a cyclic word built here
        nonlocal cur
        tokens.append(item)
        cur = _apply_cyclic(item[0], cur, item[1]) if isinstance(item, tuple) else apply_token(item, cur)

    def align(target):
        if (found := _align(cur, target)) is None:
            raise TheoremViolation(f"no rotation of a permutation image of {cur!r} is {target!r}")
        return found

    emit(pi_w)
    emit(k_w)
    for step, c in path:  # from a canonical vertex: a run, then permutation and rotation
        emit(step)
        pi, k = align(c)
        emit(pi)
        emit(k)
    # invert the canonicalization of mv, then walk its reduction backwards
    emit(pi_v.inverse())
    emit((len(mv) - k_v) % len(mv) if mv else 0)
    if cur != mv:
        raise TheoremViolation(f"witness reaches {cur!r}, not the minimal word {mv!r}")
    for (phi, k), start in zip(reversed(v_runs), reversed(v_states[:-1])):
        emit((phi.inverse(), k))
        emit(align(start)[1])  # a rotation: the identity comes first in ALL_PERMUTATIONS
    if cur != cv:
        raise TheoremViolation(f"witness reaches {cur!r}, not {cv!r}")
    return True, tuple(format_token(t) for t in tokens)
