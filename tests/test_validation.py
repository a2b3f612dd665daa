"""Input validation under python -O, where assert statements are stripped."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# library calls that must raise ValueError; each is evaluated in a `python -O` process
BAD_CALLS = (
    'parse_token("P[a,a]")',
    'parse_token("P[a,x]")',
    'parse_token("W[a,A]")',
    'parse_token("W[a,a]")',
    'parse_token("W[x,b]")',
    'replay_witness("ab", ["P[a,a]"])',
    'replay_witness("ab", ["W[a,A]"])',
    'Permutation("a", "A")',
    'Permutation("b", "b")',
    'Permutation("a", "c")',
    'OneLetterAut("a", "a")',
    'OneLetterAut("a", "A")',
    'OneLetterAut("c", "b")',
    'WhiteheadII(frozenset({"b"}), "b")',
    'WhiteheadII(frozenset({"c"}), "b")',
    'WhiteheadII(frozenset(), "c")',
    'is_minimal("aA")',
    'is_root("abB")',
    'minimize("Aa")',
    'canonical_word("abA")',
    'canonical_witness("abx")',
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
    ),
)
def test_cli_input_errors_exit_2_without_traceback_under_O(argv):
    proc = run_optimized("-m", "f2aut.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
