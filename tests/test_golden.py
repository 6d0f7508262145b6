"""Golden machine output: `--format machine` stdout must match recorded bytes.

Each case runs one CLI command on a small input file under `tests/golden/`
and compares its stdout byte for byte with `tests/golden/<case>.json`.  The
recorded files are the reference for refactors that must not change output;
re-record one only together with a deliberate, documented output change.
Every leaf command has a case, and the same table checks that every command
reports `elapsed:` in human format and maps an internal crash to exit code 4.
"""

from __future__ import annotations

from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import symrees.cli as cli
from symrees.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "accept": ["accept"],
    "fixtures_run_all": ["fixtures", "run", "--all"],
    "fixtures_list": ["fixtures", "list"],
    "gb": ["gb", "ij.txt"],
    "ideal_sum": ["ideal", "sum", "ij.txt"],
    "ideal_product": ["ideal", "product", "ij.txt"],
    "ideal_power": ["ideal", "power", "pair.txt", "-t", "2"],
    "ideal_intersect": ["ideal", "intersect", "ij.txt"],
    "ideal_quotient": ["ideal", "quotient", "colon.txt"],
    "ideal_saturate": ["ideal", "saturate", "colon.txt"],
    "ideal_eliminate": ["ideal", "eliminate", "elim.txt", "--block", "geom"],
    "ideal_equal": ["ideal", "equal", "colon.txt"],
    "ideal_dim": ["ideal", "dim", "ij.txt"],
    "ideal_mingens": ["ideal", "mingens", "pair.txt"],
    "syz": ["syz", "ij.txt"],
    "minors": ["minors", "ij.txt", "-r", "1", "--of", "syzygy"],
    "aluffi_present": ["aluffi", "present", "pair.txt"],
    "aluffi_spread": ["aluffi", "spread", "pair.txt"],
    "aluffi_linear_type": ["aluffi", "linear-type", "pair.txt"],
    "aluffi_reltype": ["aluffi", "reltype", "pair.txt"],
    "aluffi_dim": ["aluffi", "dim", "pair.txt"],
    "aluffi_verify_components": ["aluffi", "verify-components", "components.txt"],
    "aluffi_torsion": ["aluffi", "torsion", "four_points.txt", "--bound", "3"],
    "aluffi_ar_number": ["aluffi", "ar-number", "four_points.txt", "--bound", "3"],
    "aluffi_standard_base": ["aluffi", "standard-base", "four_points.txt",
                             "--bound", "3"],
    # monomial pairs and meets: coordinate points (I and J monomial) and
    # equigenerated forms (I = J + m^2, whose reduced basis is m^2)
    "aluffi_torsion_coordinate_points": ["aluffi", "torsion", "coordinate_points.txt",
                                         "--bound", "3"],
    "aluffi_ar_number_coordinate_points": ["aluffi", "ar-number",
                                           "coordinate_points.txt", "--bound", "3"],
    "aluffi_standard_base_coordinate_points": ["aluffi", "standard-base",
                                               "coordinate_points.txt", "--bound", "3"],
    "aluffi_torsion_forms": ["aluffi", "torsion", "forms.txt", "--bound", "3"],
    "aluffi_ar_number_forms": ["aluffi", "ar-number", "forms.txt", "--bound", "3"],
    "aluffi_standard_base_forms": ["aluffi", "standard-base", "forms.txt",
                                   "--bound", "3"],
    "ideal_intersect_lex_monomials": ["ideal", "intersect", "lex_monomials.txt"],
    "curve_cert": ["curve", "cert", "curve.txt"],
    "family_analyze": ["family", "analyze", "family.txt", "--seed", "2"],
    "family_member": ["family", "member", "family.txt", "--alpha", "1"],
}


def _invoke(case, fmt):
    args = [str(GOLDEN / a) if a.endswith(".txt") else a for a in CASES[case]]
    return CliRunner().invoke(main, ["--format", fmt] + args)


@pytest.mark.parametrize("case", sorted(CASES))
def test_machine_output_matches_golden(case):
    res = _invoke(case, "machine")
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == (GOLDEN / f"{case}.json").read_bytes()


def _leaf_paths(cmd, path=()):
    if not isinstance(cmd, click.Group):
        return [path]
    return [p for name, sub in cmd.commands.items()
            for p in _leaf_paths(sub, path + (name,))]


def test_every_leaf_command_has_a_golden_case():
    missing = [" ".join(p) for p in _leaf_paths(main)
               if not any(tuple(args[:len(p)]) == p for args in CASES.values())]
    assert not missing


@pytest.mark.parametrize("case", sorted(CASES))
def test_human_report_ends_with_elapsed(case):
    res = _invoke(case, "human")
    assert res.exit_code == 0, res.output
    assert res.stdout.splitlines()[-1].startswith("elapsed: ")


@pytest.mark.parametrize("case", sorted(CASES))
def test_internal_error_exits_4(case, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("broken")
    monkeypatch.setattr(cli, "emit", broken)
    res = _invoke(case, "machine")
    assert res.exit_code == 4
    assert "internal error" in res.output and "KeyError" in res.output
