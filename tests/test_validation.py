"""Input validation under python -O, where assert statements are stripped."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from f2aut.class_graph import build_graph, from_json, to_json
from f2aut.enumeration import census
from f2aut.word_core import check_word, is_cyclic_word

SRC = Path(__file__).resolve().parent.parent / "src"

# to_json(build_graph("aaabb")), a P2 class; BAD_CALLS spoils it one way at a time
GRAPH_JSON = (
    '{"length": 5, "type": "P2", "size": 2, "weight": 2, "root": false, "alternating": false, '
    '"vertices": ["aaabb", "aabAb"], "edges": [[0, 1, 4], [1, 0, 3], [1, 1, 4]]}'
)

# library calls that must raise ValueError; each is evaluated in a `python -O` process
BAD_CALLS = (
    'parse_token("P[a,a]")',
    'parse_token("P[a,x]")',
    'parse_token("W[a,A]")',
    'parse_token("W[a,a]")',
    'parse_token("W[x,b]")',
    'replay_witness("ab", ["P[a,a]"])',
    'replay_witness("ab", ["W[a,A]"])',
    'replay_witness("ac", [])',
    'are_conjugate("ac", "ab")',
    'are_conjugate(None, "a")',  # not a string
    'are_conjugate(b"a", "a")',
    'replay_witness("ab", "R[1]")',  # one token is not a sequence of tokens
    'is_minimal(None)',
    'canonical_word(b"ab")',
    'build_graph("ac")',
    'Permutation("a", "A")',
    'Permutation("b", "b")',
    'Permutation("a", "c")',
    'OneLetterAut("a", "a")',
    'OneLetterAut("a", "A")',
    'OneLetterAut("c", "b")',
    'WhiteheadII(frozenset({"b"}), "b")',
    'WhiteheadII(frozenset({"c"}), "b")',
    'WhiteheadII(frozenset(), "c")',
    'OneLetterAut("ab", "B")',  # a substring of "abAB" is not a letter
    'OneLetterAut("", "b")',
    'parse_token("W[ab,B]")',
    'replay_witness("ab", ["W[,b]"])',
    'parse_token("R[ 3]")',  # integer spellings format_token never writes
    'parse_token("R[3 ]")',
    'parse_token("R[+2]")',
    'parse_token("R[1_0]")',
    'parse_token("R[\\u0663]")',  # an Arabic-Indic digit three
    'replay_witness("ab", ["R[\\u0661]"])',
    'replay_witness("ab", ["R[01]"])',
    'replay_witness("ab", [True])',  # a bool is not a rotation
    'replay_witness("ab", [3.5])',
    'replay_witness("ab", [(PRINCIPALS[0],)])',
    'parse_token("W[a,b]^1")',  # a power is written only from 2 on
    'parse_token("W[a,b]^0")',
    'parse_token("W[a,b]^x")',
    'parse_token("P[a,b]^2")',  # only a one-letter automorphism has a power
    'apply_cyclic(PRINCIPALS[0], "ab", 0)',
    'apply_cyclic(PRINCIPALS[0], "aab", True)',  # a bool or a float is not a power, not even 1
    'apply_cyclic(PRINCIPALS[0], "aab", 1.0)',
    'apply_cyclic(WhiteheadII(frozenset({"b"}), "a"), "ab", True)',
    'apply_cyclic(WhiteheadII(frozenset({"b"}), "a"), "ab", 2)',
    'WhiteheadII(frozenset(), "ab")',
    'triangle_decompose("ab", "B")',
    'is_minimal("aA")',
    'minimize("Aa")',
    'canonical_word("abA")',
    'canonical_witness("abx")',
    'canonical_word("ab" * 8000 + "c" + "ab")',
    'enumerate_classes(-1)',
    'enumerate_classes(2, workers=0)',
    'enumerate_minimal(3, workers=0)',
    'enumerate_minimal(-2)',
    'census([2, -1])',
    'census([3], workers=0)',
    'enumerate_classes(True)',  # bool is an int subclass, but not a length
    'enumerate_minimal(False)',
    'census([3], workers=True)',
    'census([], workers=0)',  # workers is checked even with no length to run
    'census([], workers=True)',
    'census([6], lines=lambda n, text: None, weight=-1)',  # a weight no class has
    'census([6], lines=lambda n, text: None, weight="3")',
    'census([6], lines=lambda n, text: None, weight=True)',
    'census([6], weight=2)',  # a weight filters the lines, and none are asked for
    'expected_class_size(census([3]), 5)',  # a length the census does not hold
    'conjecture_report(census([]))',  # a census of no length
    'subword_count("abab", "")',
    'subword_count("abab", "aA")',
    'subword_count("abab", "ax")',
    'subword_count("xyz", "a")',  # the word, not the pattern, is bad
    'subword_count("aAb", "ab")',
    'cyclic_reduce("ax")',  # a non-letter at either end, or left inside an image
    'cyclic_reduce("xa")',
    'cyclic_reduce("ab\\u00e9")',  # a non-ASCII character
    'free_reduce("aAx")',
    'least_rotation("xzy")',  # a word of non-letters has no rotation, inverse or weight
    'invert("xy")',
    'weight("xyz")',
    'inverse_letter("x")',
    'inverse_letter("ab")',
    'apply_cyclic(PRINCIPALS[0], "ax")',
    'apply_cyclic(PRINCIPALS[0], "xa")',
    'apply_cyclic(PRINCIPALS[0], "xa", 3)',
    'apply_cyclic(WhiteheadII(frozenset({"b"}), "a"), "xb")',
    'from_json("{}")',
    'from_json("[]")',
    'from_json("not json")',
) + tuple(
    f"from_json({GRAPH_JSON.replace(old, new)!r})"
    for old, new in (
        ('"root"', '"rooted"'),  # a missing key
        ('"alternating": false', '"alternating": []'),
        ("[0, 1, 4]", "[0, 1]"),
        ("[0, 1, 4]", "[0, 1, true]"),
        ("[0, 1, 4]", "[0, 5, 4]"),  # an index outside the vertices
        ("[0, 1, 4]", "[0, -1, 4]"),
        ("[0, 1, 4]", "[0, 1, 5]"),  # a principal outside 1..4
        ('"type": "P2"', '"type": "P1"'),  # a type classify disagrees with
        ("[1, 0, 3], ", ""),  # an arc without its reply: no shape at all
        ('["aaabb", "aabAb"]', '["aaxbb", "aabAb"]'),  # a vertex with a bad letter
        ('["aaabb", "aabAb"]', '["aaabA", "aabAb"]'),  # not cyclically reduced
        ('["aaabb", "aabAb"]', '["aaabb", "abAba"]'),  # a rotation of the canonical aabAb
        ('["aaabb", "aabAb"]', '["aaaab", "aabAb"]'),  # not minimal
        ('["aaabb", "aabAb"]', '["aaabb", "aabAbb"]'),  # two lengths
        ('["aaabb", "aabAb"]', '["aabAb", "aaabb"]'),  # descending
        ('["aaabb", "aabAb"]', '["aaabb", "aaabb"]'),  # a repeated vertex
        ('["aaabb", "aabAb"]', '[5, "aabAb"]'),  # not a string
        ('"size": 2', '"size": 7'),  # a stored field that the graph does not have
        ('"weight": 2', '"weight": 0'),
        ('"length": 5', '"length": 6'),
        ('"size": 2', '"size": 2.0'),  # equal as a number, not as JSON
        ('"length": 5, ', ""),  # a missing field
        ("[0, 1, 4]", "[0, 1, 1]"),  # an edge labelled with the wrong principal
        ("[1, 1, 4]", "[1, 1, 2]"),
    )
)

SCRIPT = """
import sys
from f2aut import *

for call in sys.argv[1:]:
    try:
        eval(call)
    except ValueError:
        continue
    except Exception as exc:
        print(f"{call} raised {type(exc).__name__}")
    else:
        print(f"{call} returned normally")
"""


def run_optimized(*args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_graph_json_fixture_is_a_valid_graph():
    assert to_json(build_graph("aaabb")) == GRAPH_JSON
    assert from_json(GRAPH_JSON) == build_graph("aaabb")


def test_census_weight_filters_the_lines():
    """census([6], lines=..., weight=2) writes the weight-2 lines alone, with
    the ids of the whole table, and counts every class."""
    every, some = {}, {}
    tables = census([6], lines=lambda n, lines: every.update({n: list(lines)}))
    assert census([6], lines=lambda n, lines: some.update({n: list(lines)}), weight=2) == tables
    assert some[6] and some[6] == [line for line in every[6] if '"weight": 2,' in line]


def test_bad_library_input_raises_value_error_under_O():
    proc = run_optimized("-c", SCRIPT, *BAD_CALLS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    (
        ["equiv", "abx", "ab"],
        ["minimize", "aq"],
        ["graph", "a-b"],
        ["profile", "ab c"],
        ["enumerate", "--lengths", "0", "--weight", "-1"],
        ["enumerate", "--lengths", "0..6", "--weight", "2"],  # --weight filters --out files, and there is none
    ),
)
def test_cli_input_errors_exit_2_without_traceback_under_O(argv):
    proc = run_optimized("-m", "f2aut.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("w", (None, b"ab", ["a", "b"]))
def test_is_cyclic_word_answers_false_on_a_non_string(w):
    assert is_cyclic_word(w) is False


def test_bad_letter_deep_in_a_long_word_is_named():
    with pytest.raises(ValueError, match="invalid letter 'c'"):
        check_word("ab" * 8000 + "cx" + "ab")
