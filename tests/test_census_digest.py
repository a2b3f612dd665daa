"""Pinned census output: byte-identical across worker counts and refactors."""

import hashlib
import json

import pytest

from f2aut.class_graph import to_dict
from f2aut.cli import main
from f2aut.enumeration import conjecture_report, enumerate_classes, render_conjecture_report

# sha256 of the sorted --out files followed by stdout, for the command below
CENSUS_0_11_DIGEST = "79e1757ddac7ee8cafe1829384c6af4cf44f03b5f2bc3ff861c79349d61178de"

# the same recipe for lengths 0..14 on two workers with text stdout
CENSUS_0_14_TREE_DIGEST = "caa19d747707260881e2332593082089c0b35bd7badbcacc8d4a6f1a5c997852"

# sha256 of the classes_13.jsonl lines, {"id", **to_dict}, of enumerate_classes(13, workers=2)
CLASSES_13_DIGEST = "9a808a67a7b28f33da541e031547c111bcafdf00b7fd87e2a6c31f62190769bc"

# the same recipe for enumerate_classes(14, workers=2)
CLASSES_14_DIGEST = "9e800a2a6af9e2ba48b8725f09b2ebac2088e1f997082d88dc4acdb9f9af580b"

# sha256 of json.dumps(report) followed by render_conjecture_report(report), for the
# conjecture_report of the census of lengths 0..14: section (g) has rows only from n = 13
CONJECTURES_0_14_DIGEST = "b0a7c25de414624dd5e07c18c32b60ed920ab8a5d1524c0bd2879923a8c4d293"


def census_digest(tmp_path, capsys, workers: int, lengths="0..11", fmt="json") -> str:
    out = tmp_path / f"out{workers}"
    rc = main(
        [
            "enumerate",
            "--lengths",
            lengths,
            "--workers",
            str(workers),
            "--check-conjectures",
            "--scan-coincidences",
            "--format",
            fmt,
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.read_bytes())
    h.update(capsys.readouterr().out.encode())
    return h.hexdigest()


@pytest.mark.parametrize("workers", (1, 2))
def test_census_digest_is_pinned(tmp_path, capsys, workers):
    assert census_digest(tmp_path, capsys, workers) == CENSUS_0_11_DIGEST


def test_census_0_14_tree_is_pinned(tmp_path, capsys):
    assert census_digest(tmp_path, capsys, 2, "0..14", "text") == CENSUS_0_14_TREE_DIGEST


def classes_digest(n: int) -> str:
    h = hashlib.sha256()
    for rec in enumerate_classes(n, workers=2):
        h.update((json.dumps({"id": rec.class_id, **to_dict(rec.graph)}) + "\n").encode())
    return h.hexdigest()


def test_length_13_classes_are_pinned():
    assert classes_digest(13) == CLASSES_13_DIGEST


def test_length_14_classes_are_pinned():
    assert classes_digest(14) == CLASSES_14_DIGEST


def test_conjecture_report_0_14_is_pinned(census14):
    tables, _ = census14
    report = conjecture_report(tables)
    text = json.dumps(report) + render_conjecture_report(report)
    assert hashlib.sha256(text.encode()).hexdigest() == CONJECTURES_0_14_DIGEST
