"""`cfdyn heatmap` output files pinned byte for byte.

`tests/golden/heatmap_digests.json` holds the sha256 of the PGM and the
CSV that `cfdyn heatmap` writes at the default 256 grid for k = 1 and
k = 3 (minus variant) and at grid 64, k = 2 in the plus variant, where
boundary hits make the two digit conventions differ.  Any change to the
heatmap engine, the pixel scaling or the CSV text that moves a single
byte fails here.

Regenerate (only when a change is meant to move these bytes) with

    PYTHONPATH=src python3 tests/test_heatmap_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from cfdyn import cli

FIXTURE = os.path.join(os.path.dirname(__file__), "golden",
                       "heatmap_digests.json")

CASES = {
    "grid256-iter1-minus": ("256", "1", "minus"),
    "grid256-iter3-minus": ("256", "3", "minus"),
    "grid64-iter2-plus": ("64", "2", "plus"),
}


def file_digests(directory, grid, k, variant):
    """sha256 of the PGM and the CSV that one `cfdyn heatmap` call writes."""
    base = os.path.join(directory, f"heatmap-{grid}-{k}-{variant}")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["heatmap", "--grid", grid, "--iter", k,
                         "--variant", variant, "--out", base + ".pgm"])
    assert code == 0
    digests = {}
    for ext in ("pgm", "csv"):
        with open(f"{base}.{ext}", "rb") as fh:
            digests[ext] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_files_match_pinned_digests(case, tmp_path):
    with open(FIXTURE) as fh:
        pinned = json.load(fh)[case]
    assert file_digests(str(tmp_path), *CASES[case]) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = {case: file_digests(tmp, *args) for case, args in CASES.items()}
    with open(FIXTURE, "w") as fh:
        json.dump(fresh, fh, indent=1, sort_keys=True)
        fh.write("\n")
