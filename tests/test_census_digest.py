"""Pinned census output: byte-identical across worker counts and refactors."""

import hashlib

import pytest

from f2aut.cli import main

# sha256 of the sorted --out files followed by stdout, for the command below
CENSUS_0_11_DIGEST = "79e1757ddac7ee8cafe1829384c6af4cf44f03b5f2bc3ff861c79349d61178de"


def census_digest(tmp_path, capsys, workers: int) -> str:
    out = tmp_path / f"out{workers}"
    rc = main(
        [
            "enumerate",
            "--lengths",
            "0..11",
            "--workers",
            str(workers),
            "--check-conjectures",
            "--scan-coincidences",
            "--format",
            "json",
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
