"""Command-line front end.

Input files are line-based: a ring header followed by named payloads.

    ring: x,y,z | params: u | order: grevlex
    curve: x^2*y^2 + x^2*z^2 + y^2*z^2
    family: y^4*z + x^5 + u*x^3*y^2
    ideal I: x^2 - x*z; y^2 - y*z
    ideal J: x^2 - x*z
    candidate P1: x; y; T3
    constraints: u^2 - 1

Blank lines and lines starting with '#' are ignored.  Reports print as
human-readable text or as machine-readable JSON with a stable field order
(`--format machine`); machine reports are byte-identical for identical
inputs and seed.

Exit codes: 0 success, 1 failed mathematical verdict in acceptance mode,
2 input error, 3 resource limit exceeded, 4 internal error.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import click

from .blowup import (
    CertificateError,
    aluffi_dimension,
    aluffi_presentation,
    analytic_spread,
    artin_rees_number,
    is_linear_type,
    make_pair,
    relation_type,
    standard_base_check,
    vv_pieces,
)
from .curves import analyze_family, evaluate_member, gradient_pair, linear_type_certificate
from .groebner import DEFAULT_WORK_LIMIT, WorkLimitExceeded, buchberger, work_limit
from .ideal_ops import (
    dimension,
    eliminate,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    minimal_homogeneous_generators,
    quotient,
    saturate,
)
from .fixtures import CURVES, FAMILIES, PAIR_FIXTURES, pair_by_name
from .rings import Ideal, ParseError, RingContext, RingError, parse_ring_header, poly_str
from .syzygy import PolyMatrix, entry_ideal, hessian, jacobian, minors, syzygies


@dataclass
class JobSpec:
    ring: RingContext
    curve: str | None
    family: str | None
    ideals: dict
    candidates: dict
    constraints: list


def parse_input(text: str) -> JobSpec:
    ring = None
    curve = None
    family = None
    ideals: dict = {}
    candidates: dict = {}
    constraints: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key == "ring" or key.startswith("ring"):
            ring = parse_ring_header(line)
            continue
        if ring is None:
            raise RingError(f"line {lineno}: the ring header must come first")
        if key == "curve":
            curve = rest.strip()
        elif key == "family":
            family = rest.strip()
        elif key.startswith("ideal"):
            name = key.split()[1] if len(key.split()) > 1 else "I"
            ideals[name.upper()] = [s.strip() for s in rest.split(";") if s.strip()]
        elif key.startswith("candidate"):
            name = key.split()[1] if len(key.split()) > 1 else f"P{len(candidates)+1}"
            candidates[name] = [s.strip() for s in rest.split(";") if s.strip()]
        elif key == "constraints":
            constraints = [s.strip() for s in rest.split(";") if s.strip()]
        else:
            raise RingError(f"line {lineno}: unknown payload {key!r}")
    if ring is None:
        raise RingError("no ring header found")
    return JobSpec(ring, curve, family, ideals, candidates, constraints)


def load_job(path: str) -> JobSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_input(fh.read())


def job_ideal(job: JobSpec, name: str = "I") -> Ideal:
    if name not in job.ideals:
        raise RingError(f"input file does not declare `ideal {name}:`")
    return Ideal(job.ring, [job.ring.parse(t) for t in job.ideals[name]])


def job_constraints(job: JobSpec):
    if not job.constraints:
        return []
    pnames = [job.ring.names[i] for i in job.ring.block_indices("param")] \
        if job.ring.has_block("param") else []
    from .rings import make_ring
    pring = make_ring([], pnames) if pnames else None
    if pring is None:
        raise RingError("constraints need a params block")
    return [pring.parse(t) for t in job.constraints]


# ---------------------------------------------------------------------------
# reporting


def emit(ctx, command: str, inputs: dict, results: dict, seed=None,
         claim: str | None = None, elapsed: float | None = None):
    fmt = ctx.obj["format"]
    if fmt == "machine":
        report = {"command": command, "inputs": inputs, "results": results,
                  "claim": claim, "seed": seed, "timing": None}
        click.echo(json.dumps(report, indent=2, default=str))
    else:
        click.echo(f"command: {command}")
        for k, v in inputs.items():
            click.echo(f"  {k}: {v}")
        if claim:
            click.echo(f"claim: {claim}")
        _human(results, indent=0)
        if seed is not None:
            click.echo(f"seed: {seed}")
        if elapsed is not None:
            click.echo(f"elapsed: {elapsed:.2f}s")


def _human(obj, indent=0, label="results"):
    pad = "  " * indent
    if isinstance(obj, dict):
        if indent == 0:
            click.echo(f"{label}:")
            _human(obj, indent + 1, label)
            return
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _short(v):
                click.echo(f"{pad}{k}:")
                _human(v, indent + 1)
            else:
                click.echo(f"{pad}{k}: {_fmt(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                click.echo(f"{pad}-")
                _human(v, indent + 1)
            else:
                click.echo(f"{pad}- {_fmt(v)}")
    else:
        click.echo(f"{pad}{_fmt(obj)}")


def _short(v):
    return isinstance(v, list) and all(not isinstance(x, (list, dict)) for x in v) \
        and len(str(v)) < 70


def _fmt(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def ideal_strs(I: Ideal) -> list:
    return [poly_str(g) for g in I.gens]


def matrix_rows(M: PolyMatrix) -> list:
    return [[poly_str(e) for e in row] for row in M.entries]


def _wrap_errors(fn):
    import functools

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except WorkLimitExceeded as exc:
            click.echo(f"resource limit: {exc}", err=True)
            sys.exit(3)
        except (ParseError, RingError, CertificateError, OSError) as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)
        except Exception:
            # a bug, not a verdict or bad input: report it with its traceback
            click.echo(f"internal error:\n{traceback.format_exc()}", err=True)
            sys.exit(4)
    return inner


# ---------------------------------------------------------------------------
# command groups


@click.group()
@click.option("--format", "fmt", type=click.Choice(["human", "machine"]),
              default="human", help="report format")
@click.option("--work-limit", "limit", type=click.IntRange(min=1),
              default=DEFAULT_WORK_LIMIT, show_default=True,
              help="cap on the command's total reduction work")
@click.pass_context
def main(ctx, fmt, limit):
    """Exact blowup-algebra calculator: Groebner bases, ideal calculus,
    symmetric/Rees/embedded-algebra presentations, torsion, linear-type
    certificates and plane-curve family analysis."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt
    ctx.with_resource(work_limit(limit))


@main.command("gb")
@click.argument("file", type=click.Path(exists=True))
@click.option("--order", type=click.Choice(["grevlex", "lex"]), default=None)
@click.pass_context
@_wrap_errors
def gb_cmd(ctx, file, order):
    """Reduced Groebner basis of `ideal I` from FILE."""
    job = load_job(file)
    I = job_ideal(job)
    from .rings import GREVLEX, LEX
    ordv = {"grevlex": GREVLEX, "lex": LEX}.get(order) if order else None
    t0 = time.time()
    basis = buchberger(I, ordv)
    emit(ctx, "gb", {"ideal": job.ideals["I"]},
         {"basis": [poly_str(g) for g in basis.elements],
          "size": len(basis.elements)},
         elapsed=time.time() - t0)


@main.group("ideal")
def ideal_group():
    """Ideal calculus on `ideal I` (and `ideal J`) from an input file."""


def _binary(ctx, file, op, opname):
    job = load_job(file)
    I, J = job_ideal(job, "I"), job_ideal(job, "J")
    t0 = time.time()
    out = op(I, J)
    emit(ctx, f"ideal {opname}",
         {"I": job.ideals["I"], "J": job.ideals["J"]},
         {opname: ideal_strs(out)}, elapsed=time.time() - t0)


@ideal_group.command("sum")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def ideal_sum_cmd(ctx, file):
    _binary(ctx, file, ideal_sum, "sum")


@ideal_group.command("product")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def ideal_product_cmd(ctx, file):
    _binary(ctx, file, ideal_product, "product")


@ideal_group.command("power")
@click.argument("file", type=click.Path(exists=True))
@click.option("-t", "exponent", type=int, required=True)
@click.pass_context
@_wrap_errors
def ideal_power_cmd(ctx, file, exponent):
    job = load_job(file)
    I = job_ideal(job)
    out = ideal_power(I, exponent)
    emit(ctx, "ideal power", {"I": job.ideals["I"], "t": exponent},
         {"power": ideal_strs(out)})


@ideal_group.command("intersect")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def ideal_intersect_cmd(ctx, file):
    _binary(ctx, file, intersect, "intersection")


@ideal_group.command("quotient")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def ideal_quotient_cmd(ctx, file):
    _binary(ctx, file, quotient, "quotient")


@ideal_group.command("saturate")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def ideal_saturate_cmd(ctx, file):
    job = load_job(file)
    I, J = job_ideal(job, "I"), job_ideal(job, "J")
    t0 = time.time()
    sat, k = saturate(I, J)
    emit(ctx, "ideal saturate", {"I": job.ideals["I"], "J": job.ideals["J"]},
         {"saturation": ideal_strs(sat), "exponent": k},
         elapsed=time.time() - t0)


@ideal_group.command("eliminate")
@click.argument("file", type=click.Path(exists=True))
@click.option("--block", default="geom", show_default=True)
@click.pass_context
@_wrap_errors
def ideal_eliminate_cmd(ctx, file, block):
    job = load_job(file)
    I = job_ideal(job)
    out = eliminate(I, block)
    emit(ctx, "ideal eliminate", {"I": job.ideals["I"], "block": block},
         {"elimination": ideal_strs(out),
          "ring": ",".join(out.ring.names)})


@ideal_group.command("equal")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def ideal_equal_cmd(ctx, file):
    job = load_job(file)
    I, J = job_ideal(job, "I"), job_ideal(job, "J")
    emit(ctx, "ideal equal", {"I": job.ideals["I"], "J": job.ideals["J"]},
         {"equal": ideal_equal(I, J)})


@ideal_group.command("dim")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def ideal_dim_cmd(ctx, file):
    job = load_job(file)
    I = job_ideal(job)
    rep = dimension(I)
    emit(ctx, "ideal dim", {"I": job.ideals["I"]},
         {"dim": rep.dim, "codim": rep.codim, "empty": rep.empty,
          "witness": list(rep.witness)})


@ideal_group.command("mingens")
@click.argument("file", type=click.Path(exists=True))
@click.option("--grading", default=None, help="block name for the grading, default standard")
@click.pass_context
@_wrap_errors
def ideal_mingens_cmd(ctx, file, grading):
    job = load_job(file)
    I = job_ideal(job)
    out = minimal_homogeneous_generators(I, grading)
    emit(ctx, "ideal mingens", {"I": job.ideals["I"], "grading": grading or "standard"},
         {"generators": [{"poly": poly_str(g), "degree": d} for g, d in out]})


@main.command("syz")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def syz_cmd(ctx, file):
    """First syzygy matrix of the generators of `ideal I`."""
    job = load_job(file)
    I = job_ideal(job)
    t0 = time.time()
    phi = syzygies(list(I.gens))
    emit(ctx, "syz", {"I": job.ideals["I"]},
         {"rows": phi.rows, "cols": phi.cols, "matrix": matrix_rows(phi)},
         elapsed=time.time() - t0)


@main.command("minors")
@click.argument("file", type=click.Path(exists=True))
@click.option("-r", "size", type=int, required=True, help="minor size")
@click.option("--of", "source", type=click.Choice(["jacobian", "syzygy", "hessian"]),
              default="jacobian", show_default=True)
@click.pass_context
@_wrap_errors
def minors_cmd(ctx, file, size, source):
    """Ideal of r x r minors of a derived matrix of the input."""
    job = load_job(file)
    if source == "hessian":
        if not job.curve:
            raise RingError("hessian minors need a `curve:` payload")
        M = hessian(job.ring.parse(job.curve))
    else:
        I = job_ideal(job)
        M = jacobian(list(I.gens)) if source == "jacobian" \
            else syzygies(list(I.gens))
    out = minors(M, size)
    emit(ctx, "minors", {"of": source, "r": size},
         {"matrix": matrix_rows(M), "minors": ideal_strs(out)})


# ---------------------------------------------------------------------------
# blowup-algebra commands


def _job_pair(job: JobSpec):
    I = job_ideal(job, "I")
    J = job_ideal(job, "J") if "J" in job.ideals else Ideal(job.ring, [])
    return make_pair(job.ring, list(I.gens), list(J.gens))


@main.group("aluffi")
def aluffi_group():
    """Presentations and invariants of the pair `ideal J` inside `ideal I`."""


@aluffi_group.command("present")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def aluffi_present_cmd(ctx, file):
    job = load_job(file)
    pair = _job_pair(job)
    t0 = time.time()
    pres = aluffi_presentation(pair)
    emit(ctx, "aluffi present",
         {"I": job.ideals["I"], "J": job.ideals.get("J", [])},
         {"fiber_variables": list(pres.fiber_names),
          "sym_ideal": ideal_strs(pres.sym_ideal),
          "rees_ideal": ideal_strs(pres.rees_ideal),
          "aluffi_ideal": ideal_strs(pres.aluffi_ideal),
          "tilde_j": [poly_str(t) for t in pres.tilde_j]},
         elapsed=time.time() - t0)


@aluffi_group.command("torsion")
@click.argument("file", type=click.Path(exists=True))
@click.option("--bound", type=int, default=4, show_default=True)
@click.pass_context
@_wrap_errors
def aluffi_torsion_cmd(ctx, file, bound):
    job = load_job(file)
    pair = _job_pair(job)
    t0 = time.time()
    report = vv_pieces(pair, bound)
    pieces = []
    for p in report.pieces:
        pieces.append({
            "degree": p.degree,
            "nonzero": p.nonzero,
            "witnesses": [poly_str(w) for w in p.witnesses],
            "internal_dims": [list(x) for x in p.internal_dims],
            "annihilator_exponents": list(p.annihilator_exponents),
        })
    emit(ctx, "aluffi torsion",
         {"I": job.ideals["I"], "J": job.ideals.get("J", []), "bound": bound},
         {"pieces": pieces, "all_zero": report.all_zero},
         elapsed=time.time() - t0)


@aluffi_group.command("linear-type")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def aluffi_lt_cmd(ctx, file):
    job = load_job(file)
    pair = _job_pair(job)
    emit(ctx, "aluffi linear-type", {"I": job.ideals["I"]},
         {"linear_type": is_linear_type(pair)})


@aluffi_group.command("ar-number")
@click.argument("file", type=click.Path(exists=True))
@click.option("--bound", type=int, default=4, show_default=True)
@click.pass_context
@_wrap_errors
def aluffi_ar_cmd(ctx, file, bound):
    job = load_job(file)
    pair = _job_pair(job)
    k = artin_rees_number(pair, bound)
    emit(ctx, "aluffi ar-number",
         {"I": job.ideals["I"], "J": job.ideals.get("J", []), "bound": bound},
         {"artin_rees_number": k if k is not None else "exceeds bound"})


@aluffi_group.command("standard-base")
@click.argument("file", type=click.Path(exists=True))
@click.option("--bound", type=int, default=4, show_default=True)
@click.pass_context
@_wrap_errors
def aluffi_sb_cmd(ctx, file, bound):
    job = load_job(file)
    pair = _job_pair(job)
    rep = standard_base_check(pair, bound)
    emit(ctx, "aluffi standard-base",
         {"I": job.ideals["I"], "J": job.ideals.get("J", []), "bound": bound},
         {"orders": list(rep.orders),
          "per_degree": [{"degree": t, "holds": ok} for t, ok in rep.per_degree],
          "passed": rep.passed})


@aluffi_group.command("reltype")
@click.argument("file", type=click.Path(exists=True))
@click.option("--bound", type=int, default=10, show_default=True)
@click.pass_context
@_wrap_errors
def aluffi_reltype_cmd(ctx, file, bound):
    job = load_job(file)
    pair = _job_pair(job)
    rt = relation_type(pair, bound)
    emit(ctx, "aluffi reltype", {"I": job.ideals["I"], "bound": bound},
         {"relation_type": rt if rt is not None else "exceeds bound"})


@aluffi_group.command("spread")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def aluffi_spread_cmd(ctx, file):
    job = load_job(file)
    I = job_ideal(job)
    emit(ctx, "aluffi spread", {"I": job.ideals["I"]},
         {"analytic_spread": analytic_spread(I)})


@aluffi_group.command("dim")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def aluffi_dim_cmd(ctx, file):
    job = load_job(file)
    pair = _job_pair(job)
    pres = aluffi_presentation(pair)
    rep = aluffi_dimension(pres)
    emit(ctx, "aluffi dim",
         {"I": job.ideals["I"], "J": job.ideals.get("J", [])},
         {"dim": rep.dim, "codim": rep.codim})


@aluffi_group.command("verify-components")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def aluffi_verify_cmd(ctx, file):
    from .blowup import verify_component_list
    job = load_job(file)
    pair = _job_pair(job)
    pres = aluffi_presentation(pair)
    cands = []
    names = []
    for name, texts in job.candidates.items():
        cands.append(Ideal(pres.ring, [pres.ring.parse(t) for t in texts]))
        names.append(name)
    rep = verify_component_list(pres, cands)
    rows = []
    for name, row in zip(names, rep.rows):
        rows.append({"candidate": name,
                     "contains_presentation": row.contains_presentation,
                     "dim": row.dim.dim})
    emit(ctx, "aluffi verify-components",
         {"I": job.ideals["I"], "J": job.ideals.get("J", []),
          "candidates": names},
         {"rows": rows, "radical_forward": rep.radical_forward,
          "radical_backward": rep.radical_backward, "covers": rep.covers})


# ---------------------------------------------------------------------------
# curves and families


@main.group("curve")
def curve_group():
    """Plane-curve gradient-ideal certificates."""


@curve_group.command("cert")
@click.argument("file", type=click.Path(exists=True))
@click.pass_context
@_wrap_errors
def curve_cert_cmd(ctx, file):
    job = load_job(file)
    if not job.curve:
        raise RingError("curve cert needs a `curve:` payload")
    f = job.ring.parse(job.curve)
    t0 = time.time()
    gp = gradient_pair(f)
    cert = linear_type_certificate(gp)
    emit(ctx, "curve cert", {"curve": job.curve},
         {"verdict": cert.verdict.value, "reason": cert.reason,
          "codim_gradient": cert.codim_gradient,
          "singular_dim": cert.singular_dim,
          "codim_entry_ideal": cert.codim_entry_ideal,
          "threshold": cert.threshold,
          "gradient": [poly_str(g) for g in gp.pair.i_gens]},
         elapsed=time.time() - t0)


@main.group("family")
def family_group():
    """Degeneration analysis for parameterized plane-curve families."""


def _family_results(report):
    return {
        "codim_gradient": report.codim_gradient,
        "codim_entry_ideal": report.codim_entry,
        "saturation": ideal_strs(report.saturation),
        "contraction": ideal_strs(report.contraction),
        "contraction_codim": (None if report.contraction_dim.empty
                              else report.contraction_dim.codim),
        "member_alpha": [str(a) for a in report.member.alpha],
        "member_verdict": report.member.certificate.verdict.value,
        "legs": {"entry_codim_3": report.legs[0],
                 "contraction_codim_ge_1": report.legs[1],
                 "member_linear_type": report.legs[2]},
        "consistent": report.consistent,
        "generic_linear_type": report.generic_linear_type,
        "warnings": list(report.warnings),
    }


@family_group.command("analyze")
@click.argument("file", type=click.Path(exists=True))
@click.option("--seed", type=int, default=0, show_default=True)
@click.pass_context
@_wrap_errors
def family_analyze_cmd(ctx, file, seed):
    job = load_job(file)
    if not job.family:
        raise RingError("family analyze needs a `family:` payload")
    F = job.ring.parse(job.family)
    t0 = time.time()
    report = analyze_family(F, seed=seed, avoid=job_constraints(job))
    emit(ctx, "family analyze", {"family": job.family},
         _family_results(report), seed=seed, elapsed=time.time() - t0)


@family_group.command("member")
@click.argument("file", type=click.Path(exists=True))
@click.option("--alpha", required=True,
              help="comma-separated rationals for the parameters")
@click.pass_context
@_wrap_errors
def family_member_cmd(ctx, file, alpha):
    job = load_job(file)
    if not job.family:
        raise RingError("family member needs a `family:` payload")
    F = job.ring.parse(job.family)
    try:
        values = [Fraction(a) for a in alpha.split(",")] if alpha else []
    except (ValueError, ZeroDivisionError):
        raise RingError(f"--alpha needs comma-separated rationals, got {alpha!r}") from None
    t0 = time.time()
    member = evaluate_member(F, values)
    cert = member.certificate
    emit(ctx, "family member", {"family": job.family, "alpha": alpha},
         {"verdict": cert.verdict.value, "reason": cert.reason,
          "codim_gradient": cert.codim_gradient,
          "codim_entry_ideal": cert.codim_entry_ideal},
         elapsed=time.time() - t0)


# ---------------------------------------------------------------------------
# fixtures and acceptance


@main.group("fixtures")
def fixtures_group():
    """Built-in worked examples with their expected verdicts."""


@fixtures_group.command("list")
@click.pass_context
@_wrap_errors
def fixtures_list_cmd(ctx):
    rows = []
    for fam in FAMILIES:
        rows.append({"kind": "family", "key": fam.key, "slug": fam.slug,
                     "claim": fam.claim})
    for c in CURVES:
        rows.append({"kind": "curve", "key": c.slug, "slug": c.slug,
                     "claim": c.claim})
    for name, (_, claim) in PAIR_FIXTURES.items():
        rows.append({"kind": "pair", "key": name, "slug": name, "claim": claim})
    emit(ctx, "fixtures list", {}, {"fixtures": rows})


@fixtures_group.command("run")
@click.argument("name", required=False)
@click.option("--all", "run_all", is_flag=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bound", type=int, default=4, show_default=True)
@click.pass_context
@_wrap_errors
def fixtures_run_cmd(ctx, name, run_all, seed, bound):
    if not name and not run_all:
        raise RingError("give a fixture name or --all")
    targets = []
    if run_all:
        targets = [f.slug for f in FAMILIES] + [c.slug for c in CURVES] \
            + list(PAIR_FIXTURES)
    else:
        targets = [name]
    out = []
    failed = False
    for slug in targets:
        res = _run_fixture(slug, seed, bound)
        out.append(res)
        failed = failed or not res.get("passed", True)
    emit(ctx, "fixtures run", {"targets": targets},
         {"reports": out}, seed=seed)
    if failed:
        sys.exit(1)


def _run_fixture(slug: str, seed: int, bound: int) -> dict:
    for fam in FAMILIES:
        if slug in (fam.slug, fam.key):
            ok_cols = all(fam.column_checks())
            report = analyze_family(fam.family(), seed=seed,
                                    avoid=fam.constraint_polys())
            return {"fixture": fam.slug, "kind": "family", "claim": fam.claim,
                    "columns_verified": ok_cols,
                    "consistent": report.consistent,
                    "generic_linear_type": report.generic_linear_type,
                    "member_verdict": report.member.certificate.verdict.value,
                    "passed": ok_cols and report.consistent}
    for c in CURVES:
        if slug == c.slug:
            gp = gradient_pair(c.curve())
            cert = linear_type_certificate(gp)
            return {"fixture": c.slug, "kind": "curve", "claim": c.claim,
                    "verdict": cert.verdict.value,
                    "expected": c.expected,
                    "passed": cert.verdict.value == c.expected}
    if slug in PAIR_FIXTURES:
        pair = pair_by_name(slug)
        report = vv_pieces(pair, bound)
        expected_zero = slug != "four-points"
        passed = report.all_zero == expected_zero
        return {"fixture": slug, "kind": "pair",
                "claim": PAIR_FIXTURES[slug][1],
                "all_pieces_zero": report.all_zero,
                "nonzero_degrees": [p.degree for p in report.pieces if p.nonzero],
                "passed": passed}
    raise RingError(f"unknown fixture {slug!r}")


@main.command("accept")
@click.option("--only", default=None,
              help="run only criteria whose number, slug or tag matches")
@click.pass_context
@_wrap_errors
def accept_cmd(ctx, only):
    """Run the acceptance suite; exits 1 if any criterion fails."""
    from .acceptance import run_acceptance
    results = run_acceptance(only)
    rows = []
    for r in results:
        rows.append({"number": r.number, "criterion": r.slug,
                     "passed": r.passed, "details": r.details})
        click.echo(r.line(), err=True)
    emit(ctx, "accept", {"only": only},
         {"criteria": rows, "all_passed": all(r.passed for r in results)})
    if not all(r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
