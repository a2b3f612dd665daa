"""Command line interface, exercised through main(argv)."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import multiprocessing
import os

import pytest
from hypothesis import given

import oracles as orc
from conftest import cyclic_reduced_words
from f2aut import cli, enumeration
from f2aut.class_graph import TheoremViolation, build_graph, from_json
from f2aut.cli import PRINCIPAL_NAMES, _resolve_workers, main
from f2aut.minimality import is_minimal


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# a non-minimal word with conjugating junk, a root word, an alternating word,
# a one-letter class, the empty word, an unreduced word and a bad letter
DIGEST_WORDS = ("BaabAb", "aabb", "abAB", "aab", "", "aA", "abx")
DIGEST_PAIRS = (("abab", "aa"), ("aabb", "aaaa"), ("", ""), ("abc", "a"))
# sha256 of json.dumps([argv, exit code, stdout, stderr]) over the argvs below
CLI_OUTPUT_DIGEST = "63d6d7dd2a6983913a3a5ce175eeb06d6f3d5839e225838ad888415183cf25a7"


def test_single_word_verbs_output_is_pinned(capsys):
    argvs = [
        [*case, "--format", fmt]
        for fmt in ("text", "json")
        for case in [
            *((verb, w) for verb in ("minimize", "profile", "graph") for w in DIGEST_WORDS),
            *(("equiv", u, v) for u, v in DIGEST_PAIRS),
        ]
    ]
    digest = hashlib.sha256()
    for argv in argvs:
        digest.update(json.dumps([argv, *run(capsys, *argv)]).encode())
    assert digest.hexdigest() == CLI_OUTPUT_DIGEST


def test_minimize_text(capsys):
    rc, out, _ = run(capsys, "minimize", "aab")
    assert rc == 0
    lines = out.splitlines()
    assert "minimal: a" in lines
    assert "canonical: a" in lines
    assert "length: 1" in lines
    assert "steps: W[b,A] W[a,B]" in lines


def test_minimize_json_and_fixed_point(capsys):
    rc, out, _ = run(capsys, "minimize", "aabb", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "input": "aabb",
        "cyclic": "aabb",
        "minimal": "aabb",
        "canonical": "aabb",
        "length": 4,
        "steps": [],
    }


def test_minimize_strips_conjugating_junk(capsys):
    rc, out, _ = run(capsys, "minimize", "BaabAb", "--format", "json")
    assert rc == 0
    assert json.loads(out)["cyclic"] == "ab"


def test_equiv_equivalent_with_witness(capsys):
    rc, out, _ = run(capsys, "equiv", "abab", "aa")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "equivalent"
    assert lines[1].startswith("witness: ")
    tokens = lines[1].split(" ", 1)[1].split()
    assert orc.replay_tokens("abab", tokens) == orc.o_cyclic_core("aa")


def test_equiv_not_equivalent(capsys):
    rc, out, _ = run(capsys, "equiv", "aabb", "aaaa", "--format", "json")
    assert rc == 1
    assert json.loads(out) == {"equivalent": False, "witness": None}


def test_equiv_rejects_bad_letters(capsys):
    rc, _, err = run(capsys, "equiv", "abc", "a")
    assert rc == 2
    assert err.startswith("error:")


def test_profile_non_minimal_word(capsys):
    rc, out, _ = run(capsys, "profile", "abab", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["counts"] == {"aa": 0, "bb": 0, "ab": 2, "ab_bar": 0}
    assert payload["letters"] == {"a_type": 2, "b_type": 2}
    assert payload["weight"] == 2
    assert payload["minimal"] is False
    assert "root" not in payload and "level" not in payload


def test_profile_minimal_word(capsys):
    rc, out, _ = run(capsys, "profile", "aabb", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["minimal"] is True
    assert payload["root"] is True
    assert payload["alternating"] is False
    assert set(payload["level"]) == set(PRINCIPAL_NAMES)


@given(cyclic_reduced_words(max_size=10))
def test_profile_level_flags_match_pointwise_predicates(w):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["profile", w, "--format", "json"]) == 0
    payload = json.loads(out.getvalue())
    assert payload["minimal"] == is_minimal(w)
    if not payload["minimal"]:
        assert "level" not in payload
        return
    _, images, root, alternating = orc.o_vertex_row(w)
    level = {p for p, _ in images}
    assert payload["level"] == {name: p in level for p, name in enumerate(PRINCIPAL_NAMES, start=1)}
    assert (payload["root"], payload["alternating"]) == (root, alternating)


def test_graph_text(capsys):
    rc, out, _ = run(capsys, "graph", "aabb")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "type: R5"
    assert lines[1] == "size: 2"
    assert "vertex v0: aabb" in lines
    assert "vertex v1: abaB" in lines
    g = build_graph("aabb")
    assert sum(1 for line in lines if line.startswith("edge:")) == len(g.edges)


def test_graph_minimizes_first(capsys):
    # "aab" reduces to the one-letter class, reported as a plain path
    rc, out, _ = run(capsys, "graph", "aab")
    assert rc == 0
    assert out.splitlines()[0] == "type: P3"


def test_graph_json_round_trip(capsys):
    rc, out, _ = run(capsys, "graph", "aabb", "--format", "json")
    assert rc == 0
    assert from_json(out) == build_graph("aabb")


def test_graph_dot(capsys):
    rc, out, _ = run(capsys, "graph", "abAB", "--format", "dot")
    assert rc == 0
    assert out.startswith("digraph")
    assert '"abAB"' in out


def test_enumerate_csv(capsys):
    rc, out, _ = run(capsys, "enumerate", "--lengths", "0..6", "--format", "csv", "--workers", "1")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    assert header[:4] == ["n", "P1", "P2", "P3"]
    assert header[-2:] == ["classes", "vertices"]
    by_n = {row[0]: row for row in rows[1:]}
    row6 = by_n["6"]
    assert row6[header.index("P1")] == "4"
    assert row6[header.index("P3")] == "6"
    assert row6[header.index("classes")] == "10"


def test_enumerate_json(capsys):
    rc, out, _ = run(capsys, "enumerate", "--lengths", "4", "--format", "json", "--workers", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["type_counts"]["4"]["P3"] == 1
    assert payload["type_counts"]["4"]["R4"] == 1
    assert payload["type_counts"]["4"]["R5"] == 1
    assert payload["class_totals"]["4"] == 3
    assert payload["vertex_totals"]["4"] == 4
    assert payload["mean_class_size"]["4"] == "4/3"


def test_enumerate_out_directory(capsys, tmp_path):
    rc, _, _ = run(
        capsys,
        "enumerate",
        "--lengths",
        "0..5",
        "--out",
        str(tmp_path),
        "--check-conjectures",
        "--scan-coincidences",
        "--workers",
        "1",
    )
    assert rc == 0
    names = {p.name for p in tmp_path.iterdir()}
    expected = {f"classes_{n}.jsonl" for n in range(6)} | {
        "type_counts.csv",
        "sizes_P1.csv",
        "sizes_P2.csv",
        "sizes_P3.csv",
        "conjectures.txt",
        "coincidence_scan.txt",
    }
    assert names == expected
    records = [
        json.loads(line)
        for line in (tmp_path / "classes_4.jsonl").read_text().splitlines()
    ]
    assert [r["id"] for r in records] == ["4.1", "4.2", "4.3"]
    assert records[2]["vertices"] == ["aabb", "abaB"]
    scan_text = (tmp_path / "coincidence_scan.txt").read_text()
    assert all(line.endswith("0 counterexamples") for line in scan_text.splitlines())
    assert "conjecture report" in (tmp_path / "conjectures.txt").read_text()


def test_enumerate_reports_a_coincidence_counterexample(capsys, tmp_path, monkeypatch):
    """No real counterexample exists, so one is injected at aabb; with one
    worker the shard runs in this process and reports it."""
    failure = {"word": "aabb", "rule": "12=>34", "images": ["aabb", "aabb", "aabb", "abaB"]}
    monkeypatch.setattr(enumeration, "_coincidences", lambda w, *_: [failure] if w == "aabb" else [])
    argv = ("enumerate", "--lengths", "3..4", "--scan-coincidences", "--workers", "1")
    rc, out, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert rc == 0
    assert (tmp_path / "coincidence_scan.txt").read_text().splitlines() == [
        "n=3: 0 counterexamples",
        "n=4: 1 counterexamples",
        "  12=>34 at aabb: images ['aabb', 'aabb', 'aabb', 'abaB']",
    ]
    assert out.splitlines()[-2:] == [
        "coincidence scan: 1 counterexamples",
        "  n=4 12=>34 at aabb: images ['aabb', 'aabb', 'aabb', 'abaB']",
    ]
    rc, out, _ = run(capsys, *argv, "--format", "json")
    assert rc == 0
    assert json.loads(out)["coincidence_scan"] == {"3": [], "4": [failure]}


def test_broken_invariant_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TheoremViolation("injected")

    monkeypatch.setattr(cli, "census", broken)
    rc, out, err = run(capsys, "enumerate", "--lengths", "3", "--workers", "1")
    assert rc == 3 and out == ""
    assert err.startswith("internal invariant violated:") and "injected" in err


def test_enumerate_weight_filter(capsys, tmp_path):
    rc, _, _ = run(
        capsys, "enumerate", "--lengths", "4", "--out", str(tmp_path), "--weight", "0", "--workers", "1"
    )
    assert rc == 0
    lines = (tmp_path / "classes_4.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["vertices"] == ["aaaa"]


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--lengths", "5..3"),
        ("enumerate", "--lengths", "0..21"),
        ("enumerate", "--lengths", "x"),
        # int() reads 1_0 as 10, strips spaces, takes a sign and reads Arabic-Indic digits
        ("enumerate", "--lengths", "1_0"),
        ("enumerate", "--lengths", " 5"),
        ("enumerate", "--lengths", "+3"),
        ("enumerate", "--lengths", "\u0661\u0662"),
        ("enumerate", "--lengths", "3", "--workers", "0"),
        ("enumerate", "--lengths", "0..6", "--weight", "2"),  # --weight filters --out files, and there is none
        ("minimize", "abc"),
        ("profile", "aXb"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("lengths, expected", (("0", [0]), ("3..5", [3, 4, 5]), ("20", [20])))
def test_enumerate_lengths_in_ascii_digits_run(capsys, monkeypatch, lengths, expected):
    """Each accepted --lengths reaches the census as its range; length 20
    runs for minutes, so the census records the lengths and runs none."""
    asked = []

    def recorded(lengths, *args, **kwargs):
        asked.extend(lengths)
        return real([], *args, **kwargs)

    real = cli.census
    monkeypatch.setattr(cli, "census", recorded)
    rc, stdout, _ = run(capsys, "enumerate", "--lengths", lengths, "--workers", "1", "--format", "csv")
    assert rc == 0 and asked == expected
    assert stdout.splitlines()[0].startswith("n,")


def test_enumerate_negative_weight_writes_nothing(capsys, tmp_path):
    out = tmp_path / "census"
    rc, stdout, err = run(capsys, "enumerate", "--lengths", "0", "--weight", "-1", "--out", str(out))
    assert rc == 2 and stdout == ""
    assert err.startswith("error:") and "weight" in err
    assert not out.exists()


@pytest.mark.parametrize("workers", ("1", "2"))
def test_enumerate_out_at_a_file_exits_2(capsys, tmp_path, workers):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    for out in (taken, taken / "census"):  # the path is a file, or lies under one
        rc, stdout, err = run(capsys, "enumerate", "--lengths", "0..3", "--workers", workers, "--out", str(out))
        assert rc == 2 and stdout == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
    assert taken.read_text() == "kept\n"
    assert multiprocessing.active_children() == []


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert _resolve_workers(argparse.Namespace(workers=None)) == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _resolve_workers(argparse.Namespace(workers=None)) == 64
