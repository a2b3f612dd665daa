"""The class graph of an automorphic conjugacy class and its ten shapes.

Vertices are canonical forms (mod rotation and signed permutation) of the
minimal words in one automorphic conjugacy class.  From each vertex there
is one directed edge per principal automorphism that preserves its length,
pointing at the canonical form of the image.  The resulting multigraphs
fall into exactly ten shapes: three path-like families P1, P2, P3 for
non-root classes and seven bounded shapes R1..R7 for root classes.

classify matches those shapes structurally; anything else raises
TheoremViolation, which no reachable input should trigger.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass

from .automorphism import PRINCIPALS, apply_cyclic, canonical_word
from .minimality import is_minimal, is_root
from .word_core import (
    TheoremViolation,
    cyclic_reduce,
    free_reduce,
    is_alternating,
    order_key,
    weight,
)

GRAPH_TYPES = ("P1", "P2", "P3", "R1", "R2", "R3", "R4", "R5", "R6", "R7")


@dataclass(frozen=True)
class ClassGraph:
    """Immutable class graph; vertices ascend in a < b < A < B order."""

    vertices: tuple
    edges: tuple  # (from_index, to_index, principal_index 1..4)
    is_root_class: bool
    has_alternating: bool
    gtype: str


def _assemble(vertex_words, edge_words) -> ClassGraph:
    """Build the graph value from canonical words and word-level edges."""
    vertices = tuple(sorted(vertex_words, key=order_key))
    index = {w: i for i, w in enumerate(vertices)}
    edges = tuple(sorted((index[u], index[v], p) for u, v, p in edge_words))
    is_root_class = any(is_root(w) for w in vertices)
    has_alternating = any(is_alternating(w) for w in vertices)
    gtype = _classify(len(vertices), edges, is_root_class, has_alternating)
    return ClassGraph(vertices, edges, is_root_class, has_alternating, gtype)


def build_graph(w: str) -> ClassGraph:
    """Exhaustive closure from the canonical form of a minimal word."""
    w = cyclic_reduce(free_reduce(w))[0]
    if not is_minimal(w):
        raise ValueError(f"build_graph requires a minimal word, got {w!r}")
    start = canonical_word(w)
    seen = {start}
    queue = [start]
    edge_words = []
    while queue:
        u = queue.pop()
        n = len(u)
        for p, phi in enumerate(PRINCIPALS, start=1):
            img = apply_cyclic(phi, u)
            if len(img) < n:
                raise TheoremViolation(f"principal {p} shortens the minimal word {u!r}")
            if len(img) > n:
                continue
            c = canonical_word(img)
            edge_words.append((u, c, p))
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return _assemble(seen, edge_words)


def _path_order(k, mult):
    """Vertex order of a path on k vertices given its adjacency, else None."""
    adj = defaultdict(set)
    for u, v in mult:
        adj[u].add(v)
        adj[v].add(u)
    if len(adj) != k:
        return None
    ends = [u for u in adj if len(adj[u]) == 1]
    if any(len(adj[u]) > 2 for u in adj) or len(ends) != 2:
        return None
    order = [min(ends)]
    while len(order) < k:
        nxt = adj[order[-1]] - set(order[-2:])
        if len(nxt) != 1:
            return None
        order.append(nxt.pop())
    return order if len(set(order)) == k else None


def _classify(k, edges, is_root_class, has_alternating):
    loops = Counter(u for u, v, _ in edges if u == v)
    mult = Counter((u, v) for u, v, _ in edges if u != v)
    nloops = sum(loops.values())

    if not is_root_class:
        # non-root classes are paths, possibly decorated at one end
        if k == 1:
            shape = {0: "P1", 1: "P2", 2: "P3"}.get(nloops)
            if shape:
                return shape
            return _unrecognized(edges)
        order = _path_order(k, mult)
        if order is None:
            return _unrecognized(edges)
        pairs = list(zip(order, order[1:]))
        if any(mult[(u, v)] < 1 or mult[(v, u)] < 1 for u, v in pairs):
            return _unrecognized(edges)
        if sum(mult.values()) - 2 * len(pairs) not in (0, 1):
            return _unrecognized(edges)
        doubled = [(u, v) for (u, v), m in mult.items() if m == 2]
        if all(m == 1 for m in mult.values()):
            if nloops == 0:
                return "P1"
            if nloops == 1 and next(iter(loops)) in (order[0], order[-1]):
                return "P2"
        elif nloops == 0 and len(doubled) == 1:
            u, v = doubled[0]
            if (u, v) in (tuple(order[:2]), tuple(order[:-3:-1])) and mult[(v, u)] == 1:
                return "P3"
        return _unrecognized(edges)

    if not has_alternating:
        if k == 1 and nloops == 2:
            return "R1"
        if k == 2 and nloops == 1 and sorted(mult.values()) == [1, 2]:
            lv = next(iter(loops))
            if mult[(1 - lv, lv)] == 2 and mult[(lv, 1 - lv)] == 1:
                return "R2"  # doubled edge into the loop vertex, single back
        if k == 3 and nloops == 0 and len(mult) == 6 and set(mult.values()) == {1}:
            return "R3"
        return _unrecognized(edges)

    if k == 1 and nloops == 4:
        return "R4"
    if k == 2 and nloops == 2 and len(loops) == 1:
        w0 = next(iter(loops))
        other = 1 - w0
        if mult[(w0, other)] == 2 and mult[(other, w0)] == 2:
            return "R5"
    if k == 3 and nloops == 0:
        out2 = [u for u in range(k) if sorted(mult[(u, v)] for v in range(k) if v != u) == [2, 2]]
        if len(out2) == 1:
            w0 = out2[0]
            r1, r2 = (v for v in range(k) if v != w0)
            if (
                mult[(r1, w0)] == mult[(r2, w0)] == 1
                and mult[(r1, r2)] == mult[(r2, r1)] == 1
            ):
                return "R6"
    if k == 5 and nloops == 0:
        degs = {u: sum(m for (s, _), m in mult.items() if s == u) for u in range(k)}
        centers = [u for u in degs if degs[u] == 4]
        if len(centers) == 1 and set(mult.values()) == {1}:
            c = centers[0]
            corners = [u for u in range(k) if u != c]
            if all(mult[(c, u)] == 1 and mult[(u, c)] == 1 for u in corners):
                partners = {}
                for u in corners:
                    links = [v for v in corners if v != u and mult[(u, v)] == 1]
                    if len(links) != 1 or mult[(links[0], u)] != 1:
                        break
                    partners[u] = links[0]
                else:
                    if all(partners[partners[u]] == u for u in corners):
                        return "R7"
    return _unrecognized(edges)


def _unrecognized(edges):
    raise TheoremViolation(f"UNRECOGNIZED class graph shape; edges: {sorted(edges)}")


def classify(g: ClassGraph) -> str:
    """Recompute the shape from the stored structure."""
    return _classify(len(g.vertices), g.edges, g.is_root_class, g.has_alternating)


def alternating_vertex(g: ClassGraph):
    """Index of the unique alternating vertex, or None."""
    hits = [i for i, w in enumerate(g.vertices) if is_alternating(w)]
    if len(hits) > 1:
        raise TheoremViolation(
            f"two alternating vertices in one class: {[g.vertices[i] for i in hits]}"
        )
    return hits[0] if hits else None


def to_dict(g: ClassGraph) -> dict:
    """The JSON schema of a class graph; enumerate --out prefixes it with the class id."""
    return {
        "length": len(g.vertices[0]),
        "type": g.gtype,
        "size": len(g.vertices),
        "weight": weight(g.vertices[0]),
        "root": g.is_root_class,
        "alternating": g.has_alternating,
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
    }


def to_json(g: ClassGraph) -> str:
    return json.dumps(to_dict(g))


def from_json(text: str) -> ClassGraph:
    data = json.loads(text)
    return ClassGraph(
        vertices=tuple(data["vertices"]),
        edges=tuple(tuple(e) for e in data["edges"]),
        is_root_class=data["root"],
        has_alternating=data["alternating"],
        gtype=data["type"],
    )


def to_dot(g: ClassGraph) -> str:
    """One digraph; node labels are the canonical words, edge labels the principal index."""
    lines = [f'digraph "{g.gtype}" {{']
    for i, w in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{w}"];')
    for u, v, p in g.edges:
        lines.append(f'  v{u} -> v{v} [label="{p}"];')
    lines.append("}")
    return "\n".join(lines)
