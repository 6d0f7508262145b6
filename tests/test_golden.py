"""Golden machine output: `--format machine` stdout must match recorded bytes.

Each case runs one CLI command on a small input file under `tests/golden/`
and compares its stdout byte for byte with `tests/golden/<case>.json`.  The
recorded files are the reference for refactors that must not change output;
re-record one only together with a deliberate, documented output change.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from symrees.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "accept": ["accept"],
    "fixtures_run_all": ["fixtures", "run", "--all"],
    "ideal_intersect": ["ideal", "intersect", "ij.txt"],
    "ideal_quotient": ["ideal", "quotient", "colon.txt"],
    "ideal_saturate": ["ideal", "saturate", "colon.txt"],
    "ideal_eliminate": ["ideal", "eliminate", "elim.txt", "--block", "geom"],
    "aluffi_present": ["aluffi", "present", "pair.txt"],
    "aluffi_spread": ["aluffi", "spread", "pair.txt"],
    "aluffi_verify_components": ["aluffi", "verify-components", "components.txt"],
    "aluffi_torsion": ["aluffi", "torsion", "four_points.txt", "--bound", "3"],
    "aluffi_ar_number": ["aluffi", "ar-number", "four_points.txt", "--bound", "3"],
    "aluffi_standard_base": ["aluffi", "standard-base", "four_points.txt",
                             "--bound", "3"],
    "family_analyze": ["family", "analyze", "family.txt", "--seed", "2"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_machine_output_matches_golden(case):
    args = [str(GOLDEN / a) if a.endswith(".txt") else a for a in CASES[case]]
    res = CliRunner().invoke(main, ["--format", "machine"] + args)
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == (GOLDEN / f"{case}.json").read_bytes()
