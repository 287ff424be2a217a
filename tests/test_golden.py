"""Golden trajectories: `vtopt run` must reproduce the committed artifacts byte for byte.

The default run pins its history.csv and metrics.txt, and six 40x20 mode
configs pin their history.csv. A change that moves a trajectory on purpose
rewrites the files and their version stamp with

    python3 tests/golden/regenerate.py
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from vtopt.config import parse_config_text
from vtopt.runner import run_single

GOLDEN = Path(__file__).parent / "golden"
VERSIONS = GOLDEN / "versions.json"
SMALL = "nx = 40\nny = 20\n"
CONFIGS = {   # golden directory -> config text
    "default": "",
    "40x20": SMALL,
    "40x20_penalized_reference": SMALL + "penalized_reference = on\n",
    "40x20_dgi_off": SMALL + "dgi = off\n",
    "40x20_lt_projection_off": SMALL + "lt_projection = off\n",
    "40x20_lt_simp_off_simultaneous": SMALL + "lt_simp = off\ncontinuation_mode = simultaneous\n",
    "40x20_all_off": SMALL + "lt_simp = off\nlt_projection = off\ndgi = off\n",
}


def versions() -> dict[str, str]:
    """numpy, scipy and the BLAS each links: the libraries that set a trajectory's last bits."""
    def blas(build: dict) -> str:
        info = build["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {"numpy": np.__version__, "numpy_blas": blas(np.show_config(mode="dicts")),
            "scipy": scipy.__version__, "scipy_blas": blas(scipy.show_config(mode="dicts"))}


def run(name: str, outdir: Path) -> dict[str, bytes]:
    """The pinned artifacts of `vtopt run` on a golden config."""
    run_single(parse_config_text(CONFIGS[name]).replace(output_dir=str(outdir)))
    pinned = ("history.csv", "metrics.txt") if name == "default" else ("history.csv",)
    return {artifact: (outdir / artifact).read_bytes() for artifact in pinned}


def first_difference(artifact: str, golden: bytes, now: bytes) -> str:
    """Where an artifact first departs from its golden copy: row (the header is row 0) and column."""
    old, new = golden.decode().splitlines(), now.decode().splitlines()
    row = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), None)
    if row is None:
        return f"{artifact}: golden has {len(old)} rows, now {len(new)}"
    if not artifact.endswith(".csv"):
        return f"{artifact} row {row}: golden {old[row]!r}, now {new[row]!r}"
    cells = itertools.zip_longest(old[0].split(","), old[row].split(","), new[row].split(","))
    column, a, b = next(cell for cell in cells if cell[1] != cell[2])
    return f"{artifact} row {row}, column {column!r}: golden {a!r}, now {b!r}"


def test_versions_match_the_stamp():
    stamp = json.loads(VERSIONS.read_text())
    assert stamp == versions(), f"golden files were made with {stamp}; this run has {versions()}"


@pytest.mark.parametrize("name", CONFIGS)
def test_trajectory_is_byte_identical(tmp_path, name):
    for artifact, data in run(name, tmp_path).items():
        golden = (GOLDEN / name / artifact).read_bytes()
        assert data == golden, first_difference(artifact, golden, data)


def test_a_mismatch_names_its_first_row_and_column():
    golden = b"iter,compliance,vol_frac\n1,2.5,0.3\n2,2.25,0.3\n"
    now = b"iter,compliance,vol_frac\n1,2.5,0.3\n2,2.25,0.31\n"
    assert first_difference("history.csv", golden, now) == \
        "history.csv row 2, column 'vol_frac': golden '0.3', now '0.31'"
    assert first_difference("history.csv", golden, golden + b"3,2,0.3\n") == \
        "history.csv: golden has 3 rows, now 4"
    assert first_difference("metrics.txt", b"compliance = 1\n", b"compliance = 2\n") == \
        "metrics.txt row 0: golden 'compliance = 1', now 'compliance = 2'"
