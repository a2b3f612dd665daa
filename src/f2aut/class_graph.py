"""The class graph of an automorphic conjugacy class and its ten shapes.

Vertices are canonical forms (mod rotation and signed permutation) of the
minimal words in one automorphic conjugacy class.  From each vertex there
is one directed edge per principal automorphism that preserves its length,
pointing at the canonical form of the image.  The resulting multigraphs
have one of ten shapes, each stated once as an edge-list template:
_ROOT_SHAPES for R1..R7 and _path_shapes for P1..P3.  classify names the
template that some vertex order maps a graph onto; anything else raises
TheoremViolation, which no reachable input should trigger.

A graph is assembled from the vertex rows (minimality.vertex_row) of one
class, which minimality.level_closure collects for build_graph and for the
enumeration alike.  build_graph is also the only test of a stored graph:
from_json accepts exactly the to_dict fields of build_graph(first vertex).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .automorphism import canonical_word
from .minimality import is_minimal, level_closure
from .word_core import (
    TheoremViolation,
    cyclic_reduce,
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


def _assemble(rows) -> tuple:
    """(gtype, vertices, edges, is_root_class, has_alternating) of the graph
    of one class, from its vertex rows: the ClassGraph fields, which the
    census counts and renders without building the value."""
    vertices = tuple(sorted([row[0] for row in rows], key=order_key))
    index = {w: i for i, w in enumerate(vertices)}
    edges = tuple(sorted([(index[w], index[c], p) for w, images, _, _ in rows for p, c in images]))
    is_root_class = has_alternating = False
    for row in rows:
        is_root_class |= row[2]
        has_alternating |= row[3]
    gtype = _classify(len(vertices), edges, is_root_class, has_alternating)
    return gtype, vertices, edges, is_root_class, has_alternating


def build_graph(w: str) -> ClassGraph:
    """The class graph of a minimal word: the level closure of its canonical
    form, assembled by _assemble and wrapped in a ClassGraph."""
    w = cyclic_reduce(w)[0]
    if not is_minimal(w):
        raise ValueError(f"build_graph requires a minimal word, got {w!r}")
    gtype, vertices, edges, is_root_class, has_alternating = _assemble(level_closure(canonical_word(w)))
    return ClassGraph(vertices, edges, is_root_class, has_alternating, gtype)


# Root shapes by (has_alternating, k): the sorted (u, v) pairs of the edges, labels dropped
_ROOT_SHAPES = {
    (False, 1): {((0, 0), (0, 0)): "R1"},
    (False, 2): {((0, 0), (0, 1), (1, 0), (1, 0)): "R2"},  # doubled arc into the loop vertex
    (False, 3): {((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)): "R3"},
    (True, 1): {((0, 0), (0, 0), (0, 0), (0, 0)): "R4"},
    (True, 2): {((0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 0)): "R5"},
    # w0 = 0 sends doubled arcs to both others, which reply once and join each other
    (True, 3): {((0, 1), (0, 1), (0, 2), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)): "R6"},
    # bow-tie: centre 0 joined both ways to each corner, corners paired as 1 - 2 and 3 - 4
    (True, 5): {
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 2),
         (2, 0), (2, 1), (3, 0), (3, 4), (4, 0), (4, 3)): "R7",
    },
}


def _path_shapes(k):
    """P1..P3 on the two-way path 0 - 1 - ... - (k-1), decorated at end 0:
    P2 adds a loop at 0, P3 a second arc 0 -> 1 (on one vertex, a second loop)."""
    path = [(i + d, i + 1 - d) for i in range(k - 1) for d in (0, 1)]
    p3 = [(0, 1)] if k > 1 else [(0, 0), (0, 0)]
    shapes = {"P1": path, "P2": path + [(0, 0)], "P3": path + p3}
    return {tuple(sorted(pairs)): name for name, pairs in shapes.items()}


def _path_order(k, pairs):
    """Position of each vertex along the path that the non-loop pairs trace, else None."""
    adj = [set() for _ in range(k)]
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    ends = [u for u in range(k) if len(adj[u]) < 2]
    if not ends:
        return None
    order = [ends[0]]
    while len(order) < k:  # a branch or a chord leaves two ways on; a gap, none
        nxt = adj[order[-1]] - set(order[-2:])
        if len(nxt) != 1:
            return None
        order.append(nxt.pop())
    position = [0] * k
    for i, u in enumerate(order):
        position[u] = i
    return position


def _classify(k, edges, is_root_class, has_alternating):
    """The shape whose template some vertex order maps the (u, v) pairs of edges onto."""
    if shape := _shape(k, tuple((u, v) for u, v, _ in edges), is_root_class, has_alternating):
        return shape
    raise TheoremViolation(f"UNRECOGNIZED class graph shape; edges: {sorted(edges)}")


@lru_cache(maxsize=1024)  # a census meets a few dozen edge patterns
def _shape(k, pairs, is_root_class, has_alternating):
    """_classify of one edge pattern, worked out once; None when no template fits."""
    if all(0 <= u < k and 0 <= v < k for u, v in pairs):
        if is_root_class:
            shapes = _ROOT_SHAPES.get((has_alternating, k), {})
            orders = permutations(range(k)) if shapes else ()
        else:
            shapes = _path_shapes(k)
            position = _path_order(k, pairs)
            orders = (position, [k - 1 - i for i in position]) if position else ()
        for order in orders:
            shape = shapes.get(tuple(sorted((order[u], order[v]) for u, v in pairs)))
            if shape:
                return shape


def classify(g: ClassGraph) -> str:
    """Recompute the shape from the stored structure."""
    return _classify(len(g.vertices), g.edges, g.is_root_class, g.has_alternating)


def to_dict(g: ClassGraph) -> dict:
    """The JSON schema of a class graph, as to_json writes it: length, type,
    size, weight, root, alternating, vertices and edges, in that order;
    enumerate --out prefixes it with the class id."""
    return json.loads(to_json(g))


def to_json(g: ClassGraph) -> str:
    """The one writer of a class graph's JSON, which to_dict reads back."""
    return _to_json(g.gtype, weight(g.vertices[0]), g.is_root_class, g.has_alternating, g.vertices, g.edges)


def _to_json(gtype: str, wt: int, root: bool, alternating: bool, vertices: tuple, edges: tuple) -> str:
    """to_json of the graph with these fields and weight wt: the census
    renders every class line with it, an edge-free word's with no ClassGraph."""
    r, alt = "true" if root else "false", "true" if alternating else "false"
    words, arcs = '", "'.join(vertices), ", ".join([f"[{i}, {j}, {p}]" for i, j, p in edges])
    head = f'{{"length": {len(vertices[0])}, "type": "{gtype}", "size": {len(vertices)}, "weight": {wt}, "root": {r}'
    return f'{head}, "alternating": {alt}, "vertices": ["{words}"], "edges": [{arcs}]}}'


def from_json(text: str) -> ClassGraph:
    """The graph that to_json wrote: build_graph of its first vertex, provided
    every to_dict field of that graph is stored as JSON-equal; else ValueError."""
    data = json.loads(text)
    vertices = data.get("vertices") if isinstance(data, dict) else None
    if not isinstance(vertices, list) or not vertices or type(vertices[0]) is not str:
        raise ValueError("not a class graph object: no first vertex")
    g = build_graph(vertices[0])
    for key, value in to_dict(g).items():
        if json.dumps(data.get(key)) != json.dumps(value):
            raise ValueError(f"stored {key} is not the class graph's {value!r}")
    return g


def to_dot(g: ClassGraph) -> str:
    """One digraph; node labels are the canonical words, edge labels the principal index."""
    lines = [f'digraph "{g.gtype}" {{']
    for i, w in enumerate(g.vertices):
        lines.append(f'  v{i} [label="{w}"];')
    for u, v, p in g.edges:
        lines.append(f'  v{u} -> v{v} [label="{p}"];')
    lines.append("}")
    return "\n".join(lines)
