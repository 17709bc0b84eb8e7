"""Golden crash-site censuses.

``python -m repro.sweep crash --list-sites`` prints every fault site a
builder's run reaches and how often.  The simulator is deterministic, so
the census is a byte-exact fingerprint of the run: a change that only
repacks state (the WAL's columns, a leaf's entries) must leave it alone,
and a moved ``wal.append`` count means a record was written or lost.

To refresh a census after an *intentional* behaviour change::

    PYTHONPATH=src python -m repro.sweep crash --builder psf \\
        --partitions 2 --list-sites --records 150 --operations 10 \\
        > tests/golden/sites-psf.txt
"""

import contextlib
import io
import pathlib

import pytest

from repro.sweep.harness import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: golden name -> the builder flags of its census
CENSUSES = {
    "sf": ["--builder", "sf"],
    "nsf": ["--builder", "nsf"],
    "psf": ["--builder", "psf", "--partitions", "2"],
    "multi": ["--builder", "multi"],
    "rebuild": ["--builder", "rebuild"],
    "multi-p2": ["--builder", "multi", "--partitions", "2"],
    # 8 frames, 4 disk channels: the buffer pool's write-behind runs
    "sf-write-behind": ["--builder", "sf", "--buffer-frames", "8",
                        "--disk-channels", "4"],
}


@pytest.mark.parametrize("name", sorted(CENSUSES))
def test_site_census_matches_its_golden(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["crash", *CENSUSES[name], "--list-sites",
                       "--records", "150", "--operations", "10"])
    assert status == 0
    golden = (GOLDEN_DIR / f"sites-{name}.txt").read_text()
    assert out.getvalue() == golden, \
        f"the {name} crash-site census moved; diff it against the golden"
