"""Golden records of the analytic-model sweeps.

``tests/golden/sweep_fig1_tiny.jsonl`` and ``sweep_fig2_tiny.jsonl``
hold the ``--jsonl`` output of ::

    repro sweep --spec fig1-tiny --no-cache --jsonl FILE
    repro sweep --spec fig2-tiny --no-cache --jsonl FILE

fig1-tiny runs Helman–JáJá at s = 8 and 16 sublists and the MTA model
at 25 and 102 walks, so both of its sublist traversals take the
per-walk chase; fig2-tiny covers the connected-components models.  The
records (and so every cache key and stored row) must not move when
the host code that computes them changes.  CI also compares the cold
run of its sweep smoke step against the fig1-tiny file.

To regenerate after an *intended* change to the models::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_sweep_goldens.py

then review the diff like any other code change.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


@pytest.mark.parametrize("spec", ["fig1-tiny", "fig2-tiny"])
def test_sweep_records_match_golden(spec, tmp_path, capsys):
    out = tmp_path / f"{spec}.jsonl"
    assert main(["sweep", "--spec", spec, "--no-cache", "--jsonl", str(out)]) == 0
    capsys.readouterr()
    golden = GOLDEN / f"sweep_{spec.replace('-', '_')}.jsonl"
    if REGEN:
        golden.write_bytes(out.read_bytes())
    assert out.read_bytes() == golden.read_bytes(), (
        f"{spec} sweep records deviate from {golden.name}; if the model change"
        " is intended, regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
    )
