"""Level tests, minimality, greedy reduction, and the conjugacy decision.

A cyclic word is minimal when no automorphism shortens it; in rank 2 it is
enough to test the four principal one-letter automorphisms.  ({y}, x)
changes the cyclic length by (y)_w - 2 (y x^-1)_w; principal_deltas is the
one place this is computed.  Minimality has a closed form in the 2-letter
pattern counts:

    |(ab)_w - (a b^-1)_w| <= min((aa)_w, (bb)_w)

and ({y}, x) preserves the cyclic length of w (is "level" on w) exactly
when (y x^-1)_w = (yx)_w + (yy)_w, for len(w) >= 2.

are_conjugate decides whether two words lie in the same automorphic
conjugacy class and can produce a replayable witness: a token sequence
(one-letter automorphisms, signed permutations, rotations) that transforms
the cyclically reduced first word, step by step, into the cyclically
reduced second word exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automorphism import (
    OneLetterAut,
    PRINCIPALS,
    Permutation,
    apply_cyclic,
    canonical_witness,
    principal_index,
    principal_of,
)
from .word_core import (
    TheoremViolation,
    check_cyclic_word,
    cyclic_reduce,
    free_reduce,
    is_alternating,
    letter_tally,
    pair_counts,
    rotate,
)


@dataclass(frozen=True)
class LevelProfile:
    """Per-principal level flags plus the three word predicates."""

    level_flags: tuple
    is_minimal: bool
    is_root: bool
    is_alternating: bool


def principal_deltas(a_count: int, b_count: int, pc) -> tuple:
    """Cyclic length change of a word under each principal, in PRINCIPALS order.

    Takes the word's letter_tally and pair_counts.  As cyclic counts,
    (y x^-1)_w is (aB) for ({a},b) and ({b},a), and (ab) for ({a},B) and ({b},A).
    """
    return (
        a_count - 2 * pc.ab_bar,
        a_count - 2 * pc.ab,
        b_count - 2 * pc.ab_bar,
        b_count - 2 * pc.ab,
    )


def is_minimal(w: str) -> bool:
    """No automorphism shortens w: no principal has a negative length change."""
    check_cyclic_word(w)
    return min(principal_deltas(*letter_tally(w), pair_counts(w))) >= 0


def is_root(w: str) -> bool:
    """The boundary case of minimality: |(ab) - (a b^-1)| = (aa) = (bb).

    Length-1 words are excluded: a single letter is cyclically adjacent to
    itself, and treating it as a root would break the divisibility facts
    that hold for every other root class.
    """
    check_cyclic_word(w)
    if len(w) == 1:
        return False
    pc = pair_counts(w)
    return abs(pc.ab - pc.ab_bar) == pc.aa == pc.bb


def is_alternating_minimal(w: str) -> bool:
    return is_alternating(w) and is_minimal(w)


def image_length(phi: OneLetterAut, w: str) -> int:
    """Cyclic length of phi(w) without building the image.

    phi acts on cyclic words like its principal, principal_of(phi).
    """
    deltas = principal_deltas(*letter_tally(w), pair_counts(w))
    return len(w) + deltas[principal_index(principal_of(phi)) - 1]


def is_level(phi: OneLetterAut, w: str) -> bool:
    """Does phi preserve the cyclic length of w?"""
    check_cyclic_word(w)
    return image_length(phi, w) == len(w)


def _minimize_states(w: str):
    """Greedy reduction recording every intermediate word, start included."""
    states, trace = [w], []
    while True:
        deltas = principal_deltas(*letter_tally(states[-1]), pair_counts(states[-1]))
        for phi, delta in zip(PRINCIPALS, deltas):
            if delta < 0:
                states.append(apply_cyclic(phi, states[-1]))
                trace.append(phi)
                break
        else:
            return states, tuple(trace)


def minimize(w: str) -> tuple[str, tuple]:
    """Greedy reduction to a minimal word.

    Repeatedly applies the lowest-indexed principal automorphism that
    strictly shrinks the cyclic length.  Returns the minimal word reached
    and the trace of automorphisms applied, in application order.
    """
    check_cyclic_word(w)
    states, trace = _minimize_states(w)
    return states[-1], trace


def level_profile(w: str) -> LevelProfile:
    """Level flags for the four principals plus the word predicates."""
    if not is_minimal(w):
        raise ValueError(f"level_profile requires a minimal word, got {w!r}")
    flags = tuple(is_level(phi, w) for phi in PRINCIPALS)
    return LevelProfile(flags, True, is_root(w), is_alternating(w))


# --- conjugacy decision with replayable witness -------------------------

def format_token(item) -> str:
    """Render a witness step: W[y,x], P[img_a,img_b], or R[k]."""
    if isinstance(item, OneLetterAut):
        return f"W[{item.y},{item.x}]"
    if isinstance(item, Permutation):
        return f"P[{item.image_of_a},{item.image_of_b}]"
    return f"R[{int(item)}]"


def parse_token(text: str):
    kind, _, rest = text.partition("[")
    if not rest.endswith("]"):
        raise ValueError(f"malformed witness token {text!r}")
    args = rest[:-1].split(",")
    if kind == "W" and len(args) == 2:
        return OneLetterAut(args[0], args[1])
    if kind == "P" and len(args) == 2:
        return Permutation(args[0], args[1])
    if kind == "R" and len(args) == 1:
        return int(args[0])
    raise ValueError(f"malformed witness token {text!r}")


def apply_token(item, w: str) -> str:
    if isinstance(item, OneLetterAut):
        return apply_cyclic(item, w)
    if isinstance(item, Permutation):
        return item(w)
    return rotate(w, item)


def replay_witness(w: str, tokens) -> str:
    """Apply a witness to cyclic_reduce(w); each step preserves the class."""
    cur = cyclic_reduce(free_reduce(w))[0]
    for tok in tokens:
        cur = apply_token(parse_token(tok) if isinstance(tok, str) else tok, cur)
    return cur


def _rotation_aligning(cur: str, target: str) -> int:
    """k with rotate(cur, k) == target; the words must be rotations of each other."""
    k = (cur + cur).find(target) if len(cur) == len(target) else -1
    if not 0 <= k < max(len(cur), 1):
        raise TheoremViolation(f"{cur!r} is not a rotation of {target!r}")
    return k


def _bfs_path(start: str, target: str):
    """Level-edge path between canonical minimal words, as replay instructions.

    Returns a list of (phi, pi, k) steps or None when the classes differ:
    from a canonical vertex, apply phi, then pi, then rotate by k to land
    on the next canonical vertex.
    """
    if start == target:
        return []
    parents = {start: None}
    queue = [start]
    while queue:
        next_queue = []
        for u in queue:
            n = len(u)
            for phi in PRINCIPALS:
                img = apply_cyclic(phi, u)
                if len(img) != n:
                    continue
                canon, pi, k = canonical_witness(img)
                if canon in parents:
                    continue
                parents[canon] = (u, phi, pi, k)
                if canon == target:
                    steps = []
                    cur = canon
                    while parents[cur] is not None:
                        prev, phi, pi, k = parents[cur]
                        steps.append((phi, pi, k))
                        cur = prev
                    steps.reverse()
                    return steps
                next_queue.append(canon)
        queue = next_queue
    return None


def are_conjugate(w: str, v: str, witness: bool = True):
    """Decide whether w and v lie in the same automorphic conjugacy class.

    Inputs need not be reduced.  Returns (flag, tokens) where tokens is a
    replayable witness (see replay_witness) carrying cyclic_reduce(w) onto
    cyclic_reduce(v) exactly, or None when witness=False or the words are
    not conjugate.
    """
    cw = cyclic_reduce(free_reduce(w))[0]
    cv = cyclic_reduce(free_reduce(v))[0]
    w_states, w_trace = _minimize_states(cw)
    v_states, v_trace = _minimize_states(cv)
    mw, mv = w_states[-1], v_states[-1]
    if len(mw) != len(mv):
        return False, None

    canon_w, pi_w, k_w = canonical_witness(mw)
    canon_v, pi_v, k_v = canonical_witness(mv)
    path = _bfs_path(canon_w, canon_v)
    if path is None:
        return False, None
    if not witness:
        return True, None

    tokens = []
    cur = cw

    def emit(item):
        nonlocal cur
        tokens.append(item)
        cur = apply_token(item, cur)

    for phi in w_trace:
        emit(phi)
    emit(pi_w)
    emit(k_w)
    for phi, pi, k in path:
        emit(phi)
        emit(pi)
        emit(k)
    # invert the canonicalization of mv, then walk its reduction backwards
    emit(pi_v.inverse())
    emit((len(mv) - k_v) % len(mv) if mv else 0)
    if cur != mv:
        raise TheoremViolation(f"witness reaches {cur!r}, not the minimal word {mv!r}")
    for i in reversed(range(len(v_trace))):
        emit(v_trace[i].inverse())
        emit(_rotation_aligning(cur, v_states[i]))
    if cur != cv:
        raise TheoremViolation(f"witness reaches {cur!r}, not {cv!r}")
    return True, tuple(format_token(t) for t in tokens)
