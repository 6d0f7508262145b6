"""CLI: input parsing, command dispatch, determinism, exit codes."""

from __future__ import annotations

import json
import time

import pytest
from click.testing import CliRunner

from symrees.cli import main, parse_input
from symrees.rings import RingError

FOUR_POINTS = """\
ring: x,y,z
ideal I: x^2 - x*z; y^2 - y*z; x*(2*y - z); y*(2*x - z); (2*x - z)*(2*y - z)
ideal J: x^2 - x*z; y^2 - y*z
"""

QUARTIC = """\
ring: x,y,z | order: grevlex
curve: x^2*y^2 + x^2*z^2 + y^2*z^2
"""

FAMILY = """\
ring: x,y,z | params: u
family: y^4*z + x^5 + u*x^3*y^2
"""

GB = """\
ring: x,y,z
ideal I: x + y; x - y
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_input_curve_job():
    job = parse_input(QUARTIC)
    assert job.payloads == {"curve": [("x^2*y^2 + x^2*z^2 + y^2*z^2", (2, 8))]}
    assert job.ring.names == ("x", "y", "z")


def test_parse_input_family_job():
    job = parse_input(FAMILY)
    assert job.texts("family") == ["y^4*z + x^5 + u*x^3*y^2"]
    assert job.ring.block_indices("param") == (3,)


def test_parse_input_requires_header():
    with pytest.raises(RingError):
        parse_input("ideal I: x")


@pytest.mark.parametrize("first, second", [
    ("ideal I: x^2; x*y", "ideal I: y^3"),
    ("ideal J: x", "ideal j: y"),
    ("candidate P1: x", "candidate P1: y"),
    ("curve: x*y*z", "curve: x^3"),
    ("family: x*y*z", "family: x^3"),
    ("constraints: x", "constraints: y"),
    ("ring: x,y,z", "ring: x,y"),
])
def test_parse_input_rejects_a_second_declaration(first, second):
    # line 1 is the ring header, or a comment when the pair is two headers
    head = "# two ring headers" if first.startswith("ring") else "ring: x,y,z"
    with pytest.raises(RingError, match="line 4:.*already declared on line 2"):
        parse_input(f"{head}\n{first}\n\n{second}\n")


def test_redeclared_ideal_is_input_error(tmp_path):
    path = write(tmp_path, "dup.txt", "ring: x,y,z\nideal I: x^2; x*y\nideal I: y^3\n")
    res = CliRunner().invoke(main, ["ideal", "dim", path])
    assert res.exit_code == 2
    assert "input error: line 3" in res.output


def test_candidate_names_keep_their_case():
    job = parse_input("ring: x,y\ncandidate P1: x\ncandidate q2: y\ncandidate: x; y\n")
    assert list(job.payloads) == ["candidate P1", "candidate q2", "candidate P3"]
    assert job.payloads["candidate P3"] == [("x", (4, 12)), ("y", (4, 15))]


def test_gb_command(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["gb", write(tmp_path, "gb.txt", GB)])
    assert res.exit_code == 0
    assert "basis: [x, y]" in res.output


def test_malformed_polynomial_is_input_error(tmp_path):
    runner = CliRunner()
    path = write(tmp_path, "bad.txt", "ring: x,y,z\nideal I: x^^2\n")
    res = runner.invoke(main, ["gb", path])
    assert res.exit_code == 2
    assert "column" in res.output


@pytest.mark.parametrize("command, text, where", [
    (["gb"], "ring: x,y,z\n\n  ideal I:  x + y;   x^^2\n", "at line 3, column 24"),
    (["ideal", "intersect"], "ring: x,y,z\nideal J: x; y +* z\nideal I: x\n",
     "at line 2, column 16"),
    (["curve", "cert"], "ring: x,y,z\n# a comment\ncurve:   x*y +* z\n",
     "at line 3, column 15"),
    (["family", "analyze"],
     "ring: x,y,z | params: u\nfamily: x^5 + u*y^4*z\nconstraints: u - 1; u^^2\n",
     "at line 3, column 23"),
    (["aluffi", "verify-components"],
     "ring: x,y,z\nideal I: x; y\nideal J: x\ncandidate P1: x; T1 +) y\n",
     "at line 4, column 22"),
])
def test_parse_error_reports_its_position_in_the_file(tmp_path, command, text, where):
    res = CliRunner().invoke(main, command + [write(tmp_path, "bad.txt", text)])
    assert res.exit_code == 2
    assert where in res.output


@pytest.mark.parametrize("line, message", [
    ("ideal I: x^²", "expected integer exponent at line 2, column 12"),
    ("ideal I: ²*y", "unknown variable '²' at line 2, column 10"),
    ("ideal I: 3٣*x", "unexpected character '٣' at line 2, column 11"),
    ("ideal I: x + " + "1" * 5000 + "*y",
     "integer of 5000 digits is too long at line 2, column 14"),
    ("ideal I: x^" + "1" * 5000, "integer of 5000 digits is too long at line 2, column 12"),
    ("ideal I: y; x + 1/" + "2" * 5000,
     "integer of 5000 digits is too long at line 2, column 19"),
    ("idealism I: x", "line 2: unknown payload 'idealism I'"),
    ("ideal I J: x", "line 2: unknown payload 'ideal I J'"),
    ("candidates: x", "line 2: unknown payload 'candidates'"),
], ids=["superscript-exponent", "superscript-factor", "arabic-indic-digit",
        "long-coefficient", "long-exponent", "long-denominator",
        "idealism", "ideal-two-names", "candidates"])
def test_malformed_input_is_an_input_error_not_a_crash(tmp_path, line, message):
    res = CliRunner().invoke(main, ["gb", write(tmp_path, "bad.txt", f"ring: x,y\n{line}\n")])
    assert res.exit_code == 2
    assert f"input error: {message}" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("header, clause", [
    ("ring: x,y | ring: z", "ring"),
    ("ring: x,y | order: lex | order: grevlex", "order"),
    ("ring: x,y | params: u | params: v", "params"),
    ("RING: x,y | params: u | Ring: x,y", "ring"),
], ids=["ring", "order", "params", "ring-case"])
def test_a_repeated_ring_header_clause_is_an_input_error(tmp_path, header, clause):
    # each clause used to replace the earlier one: k[z], grevlex, or a lost u
    path = write(tmp_path, "bad.txt", f"{header}\nfamily: x^2 + u*y^2\n")
    res = CliRunner().invoke(main, ["family", "analyze", path])
    assert res.exit_code == 2
    assert f"input error: ring header declares `{clause}:` more than once" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_reltype_bound_below_one_is_an_input_error(tmp_path, bound):
    path = write(tmp_path, "pair.txt", "ring: x,y\nideal I: x^2; y^2\n")
    res = CliRunner().invoke(main, ["aluffi", "reltype", path, "--bound", bound])
    assert res.exit_code == 2
    assert "input error: bound must be at least 1" in res.output
    assert "exceeds bound" not in res.output


def test_non_utf8_input_is_an_input_error_not_a_crash(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ring: x,y\nideal I: x\xff + y\n")
    res = CliRunner().invoke(main, ["gb", str(path)])
    assert res.exit_code == 2
    assert "input error: line 2: byte 0xff is not UTF-8 text" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("line, expected", [
    ("x + 1" + "0" * 3000 + "*y",
     "x^2 + 2" + "0" * 3000 + "*x*y + 1" + "0" * 6000 + "*y^2"),
    ("x + 1/1" + "0" * 3000 + "*y",
     "x^2 + 1/5" + "0" * 2999 + "*x*y + 1/1" + "0" * 6000 + "*y^2"),
], ids=["long-numerator", "long-denominator"])
def test_coefficients_past_the_int_string_limit_print(tmp_path, line, expected):
    # the square has a coefficient of 6001 digits, past Python's default
    # 4300-digit limit on int-to-str conversion
    path = write(tmp_path, "big.txt", f"ring: x,y\nideal I: {line}\n")
    res = CliRunner().invoke(main, ["--format", "machine", "ideal", "power", path,
                                    "-t", "2"])
    assert res.exit_code == 0
    assert json.loads(res.output)["results"]["power"] == [expected]


@pytest.mark.parametrize("text, message", [
    ("curve: x^3; y^3", "`curve:` needs one polynomial, the input file gives 2"),
    ("curve:", "`curve:` needs one polynomial, the input file gives 0"),
    ("ideal I: x", "`curve:` needs one polynomial, the input file gives 0"),
])
def test_curve_payload_holds_one_polynomial(tmp_path, text, message):
    path = write(tmp_path, "c.txt", f"ring: x,y,z\n{text}\n")
    res = CliRunner().invoke(main, ["curve", "cert", path])
    assert res.exit_code == 2
    assert f"input error: {message}" in res.output


def test_deep_nesting_is_input_error(tmp_path):
    path = write(tmp_path, "deep.txt",
                 "ring: x,y,z\nideal I: " + "(" * 3000 + "x" + ")" * 3000 + "\n")
    res = CliRunner().invoke(main, ["gb", path])
    assert res.exit_code == 2
    assert "input error:" in res.output and "nested too deeply" in res.output
    assert "Traceback" not in res.output


def test_unknown_variable_is_input_error(tmp_path):
    runner = CliRunner()
    path = write(tmp_path, "bad.txt", "ring: x,y\ncurve: x^2*q\n")
    res = runner.invoke(main, ["curve", "cert", path])
    assert res.exit_code == 2


def test_curve_cert_command(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["curve", "cert", write(tmp_path, "c.txt", QUARTIC)])
    assert res.exit_code == 0
    assert "verdict: linear-type" in res.output


def test_machine_reports_are_deterministic(tmp_path):
    runner = CliRunner()
    path = write(tmp_path, "fp.txt", FOUR_POINTS)
    args = ["--format", "machine", "aluffi", "torsion", path, "--bound", "2"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
    report = json.loads(out1)
    assert report["command"] == "aluffi torsion"
    piece = report["results"]["pieces"][0]
    assert piece["degree"] == 2 and piece["nonzero"] is True
    assert piece["internal_dims"] == [[4, 2]]


def test_torsion_dims_reach_a_witness_above_the_cap(tmp_path):
    # the witness has degree 5, above twice I's generator degree
    text = "ring: x,y,z\nideal I: x*y; y^2\nideal J: x*y^2 + y^2*z\n"
    path = write(tmp_path, "pair.txt", text)
    args = ["--format", "machine", "aluffi", "torsion", path, "--bound", "2"]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0
    (piece,) = json.loads(res.output)["results"]["pieces"]
    assert piece["witnesses"] == ["x^3*y^2 + x^2*y^2*z"]
    assert piece["internal_dims"] == [[5, 1]]


def test_family_analyze_command(tmp_path):
    runner = CliRunner()
    path = write(tmp_path, "fam.txt", FAMILY)
    res = runner.invoke(main, ["--format", "machine", "family", "analyze",
                               path, "--seed", "2"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["results"]["codim_entry_ideal"] == 2
    assert report["results"]["generic_linear_type"] is False
    assert report["results"]["consistent"] is True
    assert report["seed"] == 2


def test_family_member_command(tmp_path):
    runner = CliRunner()
    path = write(tmp_path, "fam.txt", FAMILY)
    res = runner.invoke(main, ["family", "member", path, "--alpha", "0"])
    assert res.exit_code == 0
    assert "verdict: linear-type" in res.output


def test_fixtures_list(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["--format", "machine", "fixtures", "list"])
    assert res.exit_code == 0
    rows = json.loads(res.output)["results"]["fixtures"]
    kinds = [r["kind"] for r in rows]
    assert kinds.count("family") == 13
    assert kinds.count("curve") == 4
    assert kinds.count("pair") == 4


def test_fixtures_run_single(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["--format", "machine", "fixtures", "run",
                               "higher-cusp"])
    assert res.exit_code == 0
    rep = json.loads(res.output)["results"]["reports"][0]
    assert rep["passed"] is True
    assert rep["columns_verified"] is True


def test_fixtures_run_pair(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["--format", "machine", "fixtures", "run",
                               "four-points", "--bound", "2"])
    assert res.exit_code == 0
    rep = json.loads(res.output)["results"]["reports"][0]
    assert rep["passed"] is True
    assert rep["nonzero_degrees"] == [2]


def test_fixture_verification_catches_injected_sign_error():
    # corrupting one sign in a stored regression column must fail the check
    from symrees.fixtures import family_by_name
    from symrees.syzygy import apply_row
    fam = family_by_name("m")
    F = fam.family()
    col = fam.columns[0]
    f = F.evaluate_block("param", [col.at[p] for p in fam.params])
    parts = [f.derivative(v) for v in ["x", "y", "z"]]
    good = [f.ring.parse(e) for e in col.entries]
    assert apply_row(parts, good).is_zero
    bad = list(good)
    bad[2] = -bad[2]
    assert not apply_row(parts, bad).is_zero


def test_work_limit_exit_code(tmp_path):
    runner = CliRunner()
    path = write(tmp_path, "hard.txt",
                 "ring: x,y,z\nideal I: x^5*y^2 - z^4; x*y^4 - y*z^3 - x; x^3*z - y^5 + 1\n")
    res = runner.invoke(main, ["--work-limit", "5", "gb", path])
    assert res.exit_code == 3


# torsion at bound 3 spends 247 work units on S-pairs and reduction steps;
# its polynomial products spend 371 more, 350 in ideal products and powers
# (I^1 is I itself, so no product forms it), 17 parsing the input and 4
# checking certificates
TORSION_PAIR = """\
ring: x,y,z
ideal I: x^2 - x*z; y^2 - y*z; x*y - x*z - y*z + z^2
ideal J: x^2 - x*z; y^2 - y*z
"""


def _torsion_exit(tmp_path, limit: int) -> int:
    path = write(tmp_path, "pair.txt", TORSION_PAIR)
    args = ["--work-limit", str(limit), "aluffi", "torsion", path, "--bound", "3"]
    return CliRunner().invoke(main, args).exit_code


def test_work_limit_caps_the_whole_command(tmp_path):
    # every single call fits in 200 units; the command as a whole does not
    assert _torsion_exit(tmp_path, 200) == 3


def test_an_exhausted_limit_names_the_flag(tmp_path):
    # the library's message names no flag; the CLI adds the hint on stderr
    path = write(tmp_path, "pair.txt", TORSION_PAIR)
    res = CliRunner().invoke(main, ["--work-limit", "5", "aluffi", "torsion", path])
    assert res.exit_code == 3 and not res.stdout
    assert res.stderr == "resource limit: work limit exceeded; raise --work-limit\n"


def test_command_work_is_pinned(tmp_path):
    assert _torsion_exit(tmp_path, 618) == 0
    assert _torsion_exit(tmp_path, 617) == 3


def _family_a_exit(tmp_path, limit: int) -> int:
    from symrees.fixtures import family_by_name
    fam = family_by_name("a")
    text = (f"ring: x,y,z | params: {','.join(fam.params)}\nfamily: {fam.poly}\n"
            f"constraints: {'; '.join(fam.constraints)}\n")
    path = write(tmp_path, "family.txt", text)
    args = ["--work-limit", str(limit), "family", "analyze", path]
    return CliRunner().invoke(main, args).exit_code


# the parse, analyze_family and the first read of the saturation, which the
# report prints (test_curves.test_family_work_is_pinned)
FAMILY_COMMAND_LEAST = 65447


def test_family_command_work_is_pinned(tmp_path):
    assert _family_a_exit(tmp_path, FAMILY_COMMAND_LEAST) == 0
    assert _family_a_exit(tmp_path, FAMILY_COMMAND_LEAST - 1) == 3


def test_a_power_in_the_input_spends_the_work_limit(tmp_path):
    # the power is expanded while the file is parsed, before any engine run
    path = write(tmp_path, "power.txt", "ring: x,y,z\nideal I: (x+y+1)^400\n")
    for args in (["--work-limit", "1"], []):
        res = CliRunner().invoke(main, args + ["gb", path])
        assert res.exit_code == 3
        assert "resource limit: work limit exceeded" in res.output
        assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [["power", "-t", "40"], ["product"]])
def test_ideal_products_spend_the_work_limit(tmp_path, args):
    # I^40 has 41 generators of up to 12341 terms each; uncapped it ran for
    # many seconds and printed megabytes
    path = write(tmp_path, "pw.txt", "ring: x,y,z\nideal I: x+y+z+1; x*y - z^2 + 3\n"
                 "ideal J: x+y+z+1; x*y - z^2 + 3\n")
    start = time.monotonic()
    res = CliRunner().invoke(main, ["--work-limit", "1", "ideal"] + args + [path])
    assert time.monotonic() - start < 10
    assert res.exit_code == 3
    assert "resource limit: work limit exceeded" in res.output
    assert "Traceback" not in res.output


# (x0 + ... + x7 + 1)^6 written as six factors: parsing it spends 18009 units
# on its products, and its 3 x 3 Hessian minors are 3136 cofactor determinants
# of 495-term entries; uncapped they ran for minutes
SIX_FACTORS = ("ring: x0,x1,x2,x3,x4,x5,x6,x7\ncurve: "
               + "*".join(["(x0+x1+x2+x3+x4+x5+x6+x7+1)"] * 6) + "\n")


@pytest.mark.parametrize("limit, size", [(1, 1), (20000, 3)], ids=["parse", "minors"])
def test_polynomial_products_spend_the_work_limit(tmp_path, limit, size):
    path = write(tmp_path, "six.txt", SIX_FACTORS)
    args = ["--work-limit", str(limit), "minors", "-r", str(size), "--of", "hessian", path]
    start = time.monotonic()
    res = CliRunner().invoke(main, args)
    assert time.monotonic() - start < 10
    assert res.exit_code == 3
    assert "resource limit: work limit exceeded" in res.output
    assert "Traceback" not in res.output


def test_work_limit_does_not_outlive_the_command(tmp_path):
    from symrees import Ideal, buchberger, make_ring
    path = write(tmp_path, "hard.txt",
                 "ring: x,y,z\nideal I: x^5*y^2 - z^4; x*y^4 - y*z^3 - x; x^3*z - y^5 + 1\n")
    assert CliRunner().invoke(main, ["--work-limit", "5", "gb", path]).exit_code == 3
    R = make_ring(["x", "y", "z"])
    hard = [R.parse(g) for g in ("x^5*y^2 - z^4", "x*y^4 - y*z^3 - x", "x^3*z - y^5 + 1")]
    assert buchberger(Ideal(R, hard)).elements


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_nonpositive_work_limit_is_bad_input(tmp_path, limit):
    path = write(tmp_path, "gb.txt", GB)
    res = CliRunner().invoke(main, ["--work-limit", limit, "gb", path])
    assert res.exit_code == 2


def test_ideal_subcommands(tmp_path):
    runner = CliRunner()
    path = write(tmp_path, "ij.txt",
                 "ring: x,y,z\nideal I: x^2*y\nideal J: x\n")
    res = runner.invoke(main, ["ideal", "saturate", path])
    assert res.exit_code == 0
    assert "exponent: 2" in res.output
    res2 = runner.invoke(main, ["ideal", "dim",
                                write(tmp_path, "d.txt", "ring: x,y,z\nideal I: x\n")])
    assert "dim: 2" in res2.output and "codim: 1" in res2.output


def test_syz_and_minors_commands(tmp_path):
    runner = CliRunner()
    path = write(tmp_path, "syz.txt", "ring: x,y,z\nideal I: x; y\n")
    res = runner.invoke(main, ["--format", "machine", "syz", path])
    assert res.exit_code == 0
    rep = json.loads(res.output)["results"]
    assert rep["rows"] == 2 and rep["cols"] == 1

    path2 = write(tmp_path, "hess.txt", "ring: x,y,z\ncurve: x*y*z\n")
    res2 = runner.invoke(main, ["minors", path2, "-r", "2", "--of", "hessian"])
    assert res2.exit_code == 0


def test_verify_components_command(tmp_path):
    runner = CliRunner()
    text = ("ring: x,y\n"
            "ideal I: x; y\n"
            "ideal J: x\n"
            "candidate P1: x; T1\n"
            "candidate P2: x\n")
    res = runner.invoke(main, ["--format", "machine", "aluffi",
                               "verify-components", write(tmp_path, "v.txt", text)])
    assert res.exit_code == 0
    rows = json.loads(res.output)["results"]["rows"]
    assert rows[0]["contains_presentation"] is True
    assert rows[0]["dim"] == 2
    assert rows[1]["contains_presentation"] is False


def test_accept_filter_runs_subset():
    runner = CliRunner()
    res = runner.invoke(main, ["--format", "machine", "accept", "--only", "vv"])
    assert res.exit_code == 0
    payload = json.loads(res.output[res.output.index("{"):])
    numbers = [c["number"] for c in payload["results"]["criteria"]]
    assert numbers == [1, 7]
    assert payload["results"]["all_passed"] is True


def test_accept_filter_matching_nothing_is_an_input_error():
    res = CliRunner().invoke(main, ["accept", "--only", "curves"])
    assert res.exit_code == 2
    assert ("input error: 'curves' matches no criterion number, slug or tag; "
            "the tags are vv, curve, family, catalog, property, dimension") in res.output


# ---------------------------------------------------------------------------
# exit codes (0 and 3 are covered above): 1 failed verdict, 2 input error,
# 4 internal error


def test_exit_code_failed_verdict(monkeypatch):
    import symrees.cli as cli
    monkeypatch.setattr(cli, "_run_fixture",
                        lambda slug, seed, bound: {"fixture": slug, "passed": False})
    res = CliRunner().invoke(main, ["fixtures", "run", "four-points"])
    assert res.exit_code == 1


def test_family_fixture_fails_when_not_of_linear_type(monkeypatch):
    # a consistent analysis that contradicts the claim "linear type" fails
    import dataclasses

    import symrees.cli as cli
    real = cli.analyze_family

    def not_linear_type(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), generic_linear_type=False,
                                   legs=(False, False, False), consistent=True)

    monkeypatch.setattr(cli, "analyze_family", not_linear_type)
    res = CliRunner().invoke(main, ["--format", "machine", "fixtures", "run",
                                    "higher-cusp"])
    assert res.exit_code == 1
    rep = json.loads(res.output)["results"]["reports"][0]
    assert rep["columns_verified"] is True and rep["consistent"] is True
    assert rep["passed"] is False


def test_exit_code_input_error_on_unknown_fixture():
    res = CliRunner().invoke(main, ["fixtures", "run", "no-such-fixture"])
    assert res.exit_code == 2
    assert "input error" in res.output


@pytest.mark.parametrize("args", [[], ["four-points", "--all"]])
def test_fixtures_run_needs_exactly_one_of_name_and_all(args):
    res = CliRunner().invoke(main, ["fixtures", "run"] + args)
    assert res.exit_code == 2
    assert "input error" in res.output


def test_exit_code_input_error_on_bad_rational(tmp_path):
    path = write(tmp_path, "fam.txt", FAMILY)
    res = CliRunner().invoke(main, ["family", "member", path, "--alpha", "1/x"])
    assert res.exit_code == 2


@pytest.mark.parametrize("exc", [KeyError("k"), ValueError("v"), ZeroDivisionError(),
                                 OSError("o")])
def test_exit_code_internal_error(tmp_path, monkeypatch, exc):
    import symrees.cli as cli

    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "buchberger", broken)
    res = CliRunner().invoke(main, ["gb", write(tmp_path, "gb.txt", GB)])
    assert res.exit_code == 4
    assert "internal error" in res.output and type(exc).__name__ in res.output


def test_exit_code_input_error_on_unreadable_file(tmp_path):
    # an OSError from reading the input file is an input error
    res = CliRunner().invoke(main, ["gb", str(tmp_path)])
    assert res.exit_code == 2
    assert "input error" in res.output


def test_closed_stdout_exits_quietly(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import symrees

    # about 480 KB of report, far past a pipe's buffer, so the command is
    # still writing when its reader closes the pipe after one byte
    path = write(tmp_path, "lin.txt", "ring: x,y,z\n"
                 "ideal I: x + y + z; x - y; y - z; x + 2*z; x - z; 3*x + y\n")
    src = str(Path(symrees.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-m", "symrees.cli", "ideal", "power",
                             "-t", "8", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert os.read(proc.stdout.fileno(), 1) == b"c"     # "command: ..."
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    # 128 + SIGPIPE, the status a shell reports; README lists it
    assert (proc.wait(timeout=120), err) == (141, b"")
