"""Class graph construction, ten-shape classification, and serialization."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles as orc
from f2aut.automorphism import PRINCIPALS, apply_cyclic, canonical_word
from f2aut.class_graph import (
    GRAPH_TYPES,
    ClassGraph,
    TheoremViolation,
    build_graph,
    classify,
    from_json,
    to_dict,
    to_dot,
    to_json,
)
from f2aut.enumeration import enumerate_classes
from f2aut.word_core import order_key, pair_counts, vertex_flags, weight

# one frozen example per shape, with the full expected vertex set
KNOWN_CLASSES = [
    ("aaabbb", "P1", {"aaabbb"}),
    ("aaabb", "P2", {"aaabb", "aabAb"}),
    ("aaaabb", "P3", {"aaaabb", "aaabAb", "aabAAb"}),
    ("aabbABAB", "R1", {"aabbABAB"}),
    ("aababAbb", "R2", {"aababAbb", "aabAbbaB"}),
    ("aaababbb", "R3", {"aaababbb", "aababaBB", "aabbaBaB"}),
    ("", "R4", {""}),
    ("abAB", "R4", {"abAB"}),
    ("aabb", "R5", {"aabb", "abaB"}),
    ("aaabbabb", "R6", {"aaabbabb", "aabaBBab", "ababaBaB"}),
    (
        "aabaBabb",
        "R7",
        {"aabaBabb", "aabbaBab", "aabbaBAB", "aabbABAb", "ababAbaB"},
    ),
]

ROOT_TYPES = {"R1", "R2", "R3", "R4", "R5", "R6", "R7"}
ALTERNATING_TYPES = {"R4", "R5", "R6", "R7"}


@pytest.mark.parametrize("word,gtype,vertices", KNOWN_CLASSES)
def test_build_graph_known_shapes(word, gtype, vertices):
    g = build_graph(word)
    assert g.gtype == gtype
    assert set(g.vertices) == vertices
    assert g.is_root_class == (gtype in ROOT_TYPES)
    assert g.has_alternating == (gtype in ALTERNATING_TYPES)


def test_single_letter_class_is_a_plain_double_loop():
    # length-1 words are excluded from roots, so [a] classifies as P3
    g = build_graph("a")
    assert g.gtype == "P3"
    assert g.vertices == ("a",)
    assert len(g.edges) == 2


def test_build_graph_rejects_non_minimal_words():
    with pytest.raises(ValueError):
        build_graph("aab")


def test_build_graph_accepts_unreduced_spelling_of_minimal_words():
    assert build_graph("Aaabba").gtype == build_graph("aabb").gtype == "R5"


@pytest.mark.parametrize("word,gtype,vertices", KNOWN_CLASSES)
def test_graph_well_formedness(word, gtype, vertices):
    g = build_graph(word)
    assert list(g.vertices) == sorted(g.vertices, key=order_key)
    assert all(canonical_word(v) == v for v in g.vertices)
    assert list(g.edges) == sorted(g.edges)
    for u, v, p in g.edges:
        assert 1 <= p <= 4
        image = apply_cyclic(PRINCIPALS[p - 1], g.vertices[u])
        assert canonical_word(image) == g.vertices[v]
    # one out-edge per level principal at each vertex
    for i, v in enumerate(g.vertices):
        outdeg = sum(1 for e in g.edges if e[0] == i)
        assert outdeg == len(orc.o_vertex_row(v)[1])
    # every edge has a reply edge in the opposite direction
    arcs = {(u, v) for u, v, _ in g.edges}
    assert all((v, u) in arcs for u, v in arcs)


def test_classify_recomputes_stored_type():
    for word, gtype, _ in KNOWN_CLASSES:
        g = build_graph(word)
        assert classify(g) == gtype


def test_classify_rejects_malformed_graphs():
    bogus = ClassGraph(
        vertices=("a",),
        edges=((0, 0, 1), (0, 0, 2), (0, 0, 3)),
        is_root_class=False,
        has_alternating=False,
        gtype="P1",
    )
    for _ in range(2):  # the lookup of a shape caches no failure
        with pytest.raises(TheoremViolation, match=re.escape(f"edges: {list(bogus.edges)}")):
            classify(bogus)
    assert classify(build_graph("aaabb")) == "P2"


def _graph(k, arcs, root=False, alt=False):
    """A hand-made class graph on k dummy vertices; every arc gets principal 1."""
    vertices = tuple(str(i) for i in range(k))
    return ClassGraph(vertices, tuple(sorted((u, v, 1) for u, v in arcs)), root, alt, "P1")


BOW_TIE_SPOKES = [(0, c) for c in range(1, 5)] + [(c, 0) for c in range(1, 5)]

NEAR_MISS_SHAPES = {
    "P2 loop on the middle vertex": _graph(3, orc.o_two_way_path(3) + [(1, 1)]),
    "P3 extra arc between middle vertices": _graph(4, orc.o_two_way_path(4) + [(1, 2)]),
    "P3 extra arc into the end": _graph(3, orc.o_two_way_path(3) + [(1, 0)]),
    "path arc without its reply": _graph(3, [(0, 1), (1, 0), (1, 2)]),
    "R2 doubled arc leaving the loop vertex": _graph(
        2, [(0, 0), (0, 1), (0, 1), (1, 0)], root=True
    ),
    "R6 doubled arcs into w0": _graph(
        3, [(1, 0), (1, 0), (2, 0), (2, 0), (0, 1), (0, 2), (1, 2), (2, 1)], root=True, alt=True
    ),
    "R7 corners in a 4-cycle": _graph(
        5, BOW_TIE_SPOKES + [(1, 2), (2, 3), (3, 4), (4, 1)], root=True, alt=True
    ),
    "R1 loops on two vertices": _graph(2, [(0, 0), (0, 0)], root=True),
    "R3 arcs with an alternating vertex": _graph(
        3, [(u, v) for u in range(3) for v in range(3) if u != v], root=True, alt=True
    ),
    "six-vertex root graph": _graph(6, orc.o_two_way_path(6), root=True),
    "one vertex, edge to vertex 5": _graph(1, [(0, 5)]),
    "two vertices, arcs to and from vertex 5": _graph(2, [(0, 5), (5, 0)]),
}


@pytest.mark.parametrize("g", NEAR_MISS_SHAPES.values(), ids=NEAR_MISS_SHAPES.keys())
def test_classify_rejects_near_miss_shapes(g):
    with pytest.raises(TheoremViolation):
        classify(g)


# the known classes plus paths of every shape up to 6 vertices
SHAPE_GRAPHS = [
    build_graph(word)
    for word in [w for w, _, _ in KNOWN_CLASSES]
    + ["aaabaBabb", "aaaaabaBabb", "aababaaBB", "aaaaaaaaabb", "aaaaaaaaaabb"]
]


@st.composite
def random_multigraphs(draw):
    """(k, arcs, root, alternating) on k <= 6 vertices; now and then an arc leaves them."""
    k = draw(st.integers(1, 6))
    vertex = st.integers(0, k - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=12))
    if draw(st.integers(0, 9)) == 0:
        arcs.append((draw(vertex), k))
    return k, arcs, draw(st.booleans()), draw(st.booleans())


@st.composite
def perturbed_shape_graphs(draw):
    """A known graph with one arc removed, added or moved, or one flag flipped, relabelled."""
    g = draw(st.sampled_from(SHAPE_GRAPHS))
    k, arcs = len(g.vertices), [(u, v) for u, v, _ in g.edges]
    root, alt = g.is_root_class, g.has_alternating
    change = draw(st.sampled_from(["none", "remove", "add", "move", "root", "alternating"]))
    vertex = st.integers(0, k - 1)
    if change in ("remove", "move") and arcs:
        arcs.pop(draw(st.integers(0, len(arcs) - 1)))
    if change in ("add", "move"):
        arcs.append((draw(vertex), draw(vertex)))
    root ^= change == "root"
    alt ^= change == "alternating"
    perm = draw(st.permutations(range(k)))
    return k, [(perm[u], perm[v]) for u, v in arcs], root, alt


@given(st.one_of(random_multigraphs(), perturbed_shape_graphs()))
def test_classify_agrees_with_shape_oracle(case):
    k, arcs, root, alt = case
    g = _graph(k, arcs, root, alt)
    expected = orc.o_shape(k, arcs, root, alt)
    if expected is None:
        with pytest.raises(TheoremViolation):
            classify(g)
    else:
        assert classify(g) == expected


def test_json_round_trip():
    for word, _, _ in KNOWN_CLASSES:
        g = build_graph(word)
        assert from_json(to_json(g)) == g


def test_to_json_is_json_dumps_of_to_dict(census14):
    """to_json writes the to_dict schema without json.dumps; every class of
    lengths 0..12 (all ten types), the known classes and the 25-vertex wide
    path give the same text both ways."""
    _, records_by_length = census14
    graphs = [rec.graph for records in records_by_length.values() for rec in records]
    graphs += [build_graph(word) for word, _, _ in KNOWN_CLASSES] + [build_graph("a" * 24 + "baBabb")]
    assert {g.gtype for g in graphs} == set(GRAPH_TYPES)
    for g in graphs:
        assert to_json(g) == json.dumps(to_dict(g))


def test_census_lines_read_back_as_their_graphs(census14):
    """Every enumerate --out line of lengths 0..12 reads back as its class graph."""
    _, records_by_length = census14
    for records in records_by_length.values():
        for rec in records:
            line = json.dumps({"id": rec.class_id, **to_dict(rec.graph)})
            assert from_json(line) == rec.graph


def test_dot_output_shape():
    g = build_graph("aabb")
    dot = to_dot(g)
    lines = dot.splitlines()
    assert lines[0].startswith("digraph")
    assert lines[-1] == "}"
    assert sum(1 for line in lines if "label=" in line and "->" not in line) == 2
    assert sum(1 for line in lines if "->" in line) == len(g.edges)
    assert '"aabb"' in dot and '"abaB"' in dot


def test_enumerated_graphs_are_consistent():
    for n in (7, 8, 9):
        for rec in enumerate_classes(n):
            g = rec.graph
            assert classify(g) == g.gtype == rec.gtype
            # weight is constant across the class
            assert {weight(v) for v in g.vertices} == {rec.weight}
            # at most one alternating vertex
            assert sum(1 for v in g.vertices if orc.o_vertex_row(v)[3]) <= 1
            # vertex profiles agree with the stored flags
            assert g.is_root_class == any(vertex_flags(len(v), pair_counts(v))[0] for v in g.vertices)
            arcs = {(u, v) for u, v, _ in g.edges}
            assert all((v, u) in arcs for u, v in arcs)
