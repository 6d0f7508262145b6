"""Command-line front end.

Input files are line-based: a ring header followed by named payloads.

    ring: x,y,z | params: u | order: grevlex
    curve: x^2*y^2 + x^2*z^2 + y^2*z^2
    family: y^4*z + x^5 + u*x^3*y^2
    ideal I: x^2 - x*z; y^2 - y*z
    ideal J: x^2 - x*z
    candidate P1: x; y; T3
    constraints: u^2 - 1

Blank lines and lines starting with '#' are ignored.  A payload head is one
of the kinds above; `ideal` may add a name (upper-cased, default `I`) and
`candidate` one (as written, default `P<n>`).  `parse_input` reads the file
into one table, `JobSpec.payloads`: label (`ideal I`, `curve`, ...) -> the
payload's `;`-separated texts, each with its line and column, which
`job_polys` parses in a given ring so that a syntax error names its place in
the file.  Each payload may be declared once.

Reports print as human-readable text or as machine-readable JSON with a stable
field order (`--format machine`); machine reports are byte-identical for
identical inputs and seed.

Every leaf command is registered through one runner, `_command`, which loads
FILE, times the command body, emits the report and maps errors to exit
codes, so these are uniform across commands: every human report ends with
`elapsed:`, and the exit codes are 0 success, 1 failed mathematical verdict
(`accept`, `fixtures run`), 2 input error, 3 resource limit exceeded,
4 internal error, and 141 (128 + SIGPIPE, as a shell reports) when the
reader of stdout closes it before the report is written.
"""

from __future__ import annotations

import json
import os
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
    verify_component_list,
    vv_pieces,
)
from .budget import DEFAULT_WORK_LIMIT, WorkLimitExceeded, work_limit
from .curves import analyze_family, evaluate_member, gradient_pair, linear_type_certificate
from .groebner import buchberger
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
from .rings import (
    Ideal,
    ParseError,
    Polynomial,
    RingError,
    RingContext,
    make_ring,
    parse_ring_header,
    poly_str,
)
from .syzygy import PolyMatrix, hessian, jacobian, minors, syzygies


@dataclass
class JobSpec:
    ring: RingContext
    # payload label ("ideal I", "curve", "candidate P1", ...) -> its texts,
    # each with the (line, column) in the file where it starts
    payloads: dict

    def texts(self, label: str) -> list:
        return [text for text, _ in self.payloads.get(label, ())]


def parse_input(text: str) -> JobSpec:
    ring = None
    payloads: dict = {}
    declared: dict = {}  # payload label -> line number
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(":")
        kind, *name = head.split() or [""]
        kind = kind.lower()
        if kind in ("ring", "curve", "family", "constraints") and not name:
            label = kind
        elif kind == "ideal" and len(name) < 2:
            label = f"ideal {name[0].upper() if name else 'I'}"
        elif kind == "candidate" and len(name) < 2:
            count = sum(key.startswith("candidate ") for key in payloads)
            label = f"candidate {name[0] if name else f'P{count + 1}'}"
        else:
            raise RingError(f"line {lineno}: unknown payload {head.strip()!r}")
        if ring is None and label != "ring":
            raise RingError(f"line {lineno}: the ring header must come first")
        if label in declared:
            raise RingError(f"line {lineno}: `{label}:` is already declared "
                            f"on line {declared[label]}")
        declared[label] = lineno
        if label == "ring":
            ring = parse_ring_header(line)
            continue
        col = len(raw) - len(raw.lstrip()) + len(head) + 2
        payloads[label] = []
        for piece in rest.split(";"):
            if piece.strip():
                origin = (lineno, col + len(piece) - len(piece.lstrip()))
                payloads[label].append((piece.strip(), origin))
            col += len(piece) + 1
    if ring is None:
        raise RingError("no ring header found")
    return JobSpec(ring, payloads)


def load_job(path: str) -> JobSpec:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        # an unreadable input file is an input error; any other OSError,
        # such as a closed stdout, is not
        raise RingError(str(exc)) from None
    try:
        return parse_input(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise RingError(f"line {line}: byte 0x{data[exc.start]:02x} "
                        "is not UTF-8 text") from None


def job_polys(job: JobSpec, label: str, ring: RingContext | None = None) -> list:
    """The texts of payload `label` parsed in `ring`, by default the job's;
    a ParseError reports its position in the input file."""
    if label not in job.payloads:
        raise RingError(f"input file does not declare `{label}:`")
    out = []
    for text, origin in job.payloads[label]:
        try:
            out.append((ring or job.ring).parse(text))
        except ParseError as exc:
            raise ParseError(exc.msg, exc.pos, text, origin) from None
    return out


def job_ideal(job: JobSpec, name: str = "I") -> Ideal:
    return Ideal(job.ring, job_polys(job, f"ideal {name}"))


def job_form(job: JobSpec, key: str) -> Polynomial:
    """The one polynomial of the `curve:` or `family:` payload."""
    count = len(job.payloads.get(key, ()))
    if count != 1:
        raise RingError(f"`{key}:` needs one polynomial, the input file gives {count}")
    return job_polys(job, key)[0]


def job_constraints(job: JobSpec):
    if not job.payloads.get("constraints"):
        return []
    ring = job.ring
    pnames = [ring.names[i] for i in ring.block_indices("param")] \
        if ring.has_block("param") else []
    if not pnames:
        raise RingError("constraints need a params block")
    return job_polys(job, "constraints", make_ring([], pnames))


def _job_pair(job: JobSpec):
    I = job_ideal(job, "I")
    J = job_ideal(job, "J") if "ideal J" in job.payloads else Ideal(job.ring, [])
    return make_pair(job.ring, list(I.gens), list(J.gens))


def _ideals(job: JobSpec, *names: str, **extra) -> dict:
    """Report inputs: the named ideals' generator texts, then `extra`."""
    return {**{n: job.texts(f"ideal {n}") for n in names}, **extra}


# ---------------------------------------------------------------------------
# reporting


def emit(ctx, command: str, inputs: dict, results: dict, seed=None, *,
         elapsed: float):
    fmt = ctx.obj["format"]
    if fmt == "machine":
        report = {"command": command, "inputs": inputs, "results": results,
                  "claim": None, "seed": seed, "timing": None}
        click.echo(json.dumps(report, indent=2, default=str))
    else:
        click.echo(f"command: {command}")
        for k, v in inputs.items():
            click.echo(f"  {k}: {v}")
        _human(results, indent=0)
        if seed is not None:
            click.echo(f"seed: {seed}")
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


# ---------------------------------------------------------------------------
# the command runner


@click.group()
@click.option("--format", "fmt", type=click.Choice(["human", "machine"]),
              default="human", help="report format")
@click.option("--work-limit", "limit", type=click.IntRange(min=1),
              default=DEFAULT_WORK_LIMIT, show_default=True,
              help="cap on the command's total work: one unit per S-pair, "
                   "reduction step and pair of terms multiplied")
@click.pass_context
def main(ctx, fmt, limit):
    """Exact blowup-algebra calculator: Groebner bases, ideal calculus,
    symmetric/Rees/embedded-algebra presentations, torsion, linear-type
    certificates and plane-curve family analysis."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt
    ctx.with_resource(work_limit(limit))


PIPE_CLOSED = 141    # the exit status of a report whose reader closed stdout


def _command(group, name: str, *params, file: bool = True, passed=None,
             label: str | None = None):
    """Register the decorated body as the leaf command `name` of `group`.

    The body is called as `body(job, **options)`, or `body(**options)` when
    `file` is false, and returns `(inputs, results)` or
    `(inputs, results, seed)`.  The runner adds the FILE argument and loads
    it, times the body, emits the report, maps exceptions to exit codes and
    exits 1 when `passed(results)` is false.  The report's `command` field is
    `label`, by default the command's path below `main`.
    """
    if label is None:
        label = name if group is main else f"{group.name} {name}"
    if file:
        params = (click.Argument(["file"], type=click.Path(exists=True)),) + params

    def register(body):
        def run(**options):
            try:
                job = (load_job(options.pop("file")),) if file else ()
                t0 = time.perf_counter()
                inputs, results, *seed = body(*job, **options)
                elapsed = time.perf_counter() - t0
                emit(click.get_current_context(), label, inputs, results, *seed,
                     elapsed=elapsed)
            except BrokenPipeError:
                # the reader closed stdout; point it at devnull so the flush
                # at exit does not raise again, and exit as SIGPIPE would
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                sys.exit(PIPE_CLOSED)
            except WorkLimitExceeded as exc:
                click.echo(f"resource limit: {exc}; raise --work-limit", err=True)
                sys.exit(3)
            except (ParseError, RingError, CertificateError) as exc:
                click.echo(f"input error: {exc}", err=True)
                sys.exit(2)
            except Exception:
                # a bug, not a verdict or bad input: report it with its traceback
                click.echo(f"internal error:\n{traceback.format_exc()}", err=True)
                sys.exit(4)
            if passed is not None and not passed(results):
                sys.exit(1)

        group.command(name, params=list(params), help=body.__doc__)(run)
        return body
    return register


def _bound(default: int):
    return click.Option(["--bound"], type=int, default=default, show_default=True)


def _seed():
    return click.Option(["--seed"], type=int, default=0, show_default=True)


# ---------------------------------------------------------------------------
# Groebner bases, ideal calculus, syzygies


@_command(main, "gb")
def gb_cmd(job):
    """Reduced Groebner basis of `ideal I` from FILE under its header's order."""
    basis = buchberger(job_ideal(job))
    return ({"ideal": job.texts("ideal I")},
            {"basis": [poly_str(g) for g in basis.elements],
             "size": len(basis.elements)})


@main.group("ideal")
def ideal_group():
    """Ideal calculus on `ideal I` (and `ideal J`) from an input file."""


def _binary(op, key):
    def body(job):
        out = op(job_ideal(job, "I"), job_ideal(job, "J"))
        return _ideals(job, "I", "J"), {key: ideal_strs(out)}
    return body


for _name, _op, _key in (("sum", ideal_sum, "sum"),
                         ("product", ideal_product, "product"),
                         ("intersect", intersect, "intersection"),
                         ("quotient", quotient, "quotient")):
    _command(ideal_group, _name, label=f"ideal {_key}")(_binary(_op, _key))


@_command(ideal_group, "power", click.Option(["-t", "exponent"], type=int, required=True))
def ideal_power_cmd(job, exponent):
    out = ideal_power(job_ideal(job), exponent)
    return _ideals(job, "I", t=exponent), {"power": ideal_strs(out)}


@_command(ideal_group, "saturate")
def ideal_saturate_cmd(job):
    sat, k = saturate(job_ideal(job, "I"), job_ideal(job, "J"))
    return _ideals(job, "I", "J"), {"saturation": ideal_strs(sat), "exponent": k}


@_command(ideal_group, "eliminate",
          click.Option(["--block"], default="geom", show_default=True))
def ideal_eliminate_cmd(job, block):
    out = eliminate(job_ideal(job), block)
    return (_ideals(job, "I", block=block),
            {"elimination": ideal_strs(out), "ring": ",".join(out.ring.names)})


@_command(ideal_group, "equal")
def ideal_equal_cmd(job):
    equal = ideal_equal(job_ideal(job, "I"), job_ideal(job, "J"))
    return _ideals(job, "I", "J"), {"equal": equal}


@_command(ideal_group, "dim")
def ideal_dim_cmd(job):
    rep = dimension(job_ideal(job))
    return (_ideals(job, "I"),
            {"dim": rep.dim, "codim": rep.codim, "empty": rep.empty,
             "witness": list(rep.witness)})


@_command(ideal_group, "mingens",
          click.Option(["--grading"], default=None,
                       help="block name for the grading, default standard"))
def ideal_mingens_cmd(job, grading):
    out = minimal_homogeneous_generators(job_ideal(job), grading)
    return (_ideals(job, "I", grading=grading or "standard"),
            {"generators": [{"poly": poly_str(g), "degree": d} for g, d in out]})


@_command(main, "syz")
def syz_cmd(job):
    """First syzygy matrix of the generators of `ideal I`."""
    phi = syzygies(list(job_ideal(job).gens))
    return (_ideals(job, "I"),
            {"rows": phi.rows, "cols": phi.cols, "matrix": matrix_rows(phi)})


@_command(main, "minors",
          click.Option(["-r", "size"], type=int, required=True, help="minor size"),
          click.Option(["--of", "source"],
                       type=click.Choice(["jacobian", "syzygy", "hessian"]),
                       default="jacobian", show_default=True))
def minors_cmd(job, size, source):
    """Ideal of r x r minors of a derived matrix of the input."""
    if source == "hessian":
        M = hessian(job_form(job, "curve"))
    else:
        gens = list(job_ideal(job).gens)
        M = jacobian(gens) if source == "jacobian" else syzygies(gens)
    out = minors(M, size)
    return {"of": source, "r": size}, {"matrix": matrix_rows(M), "minors": ideal_strs(out)}


# ---------------------------------------------------------------------------
# blowup-algebra commands


@main.group("aluffi")
def aluffi_group():
    """Presentations and invariants of the pair `ideal J` inside `ideal I`."""


@_command(aluffi_group, "present")
def aluffi_present_cmd(job):
    pres = aluffi_presentation(_job_pair(job))
    return (_ideals(job, "I", "J"),
            {"fiber_variables": list(pres.fiber_names),
             "sym_ideal": ideal_strs(pres.sym_ideal),
             "rees_ideal": ideal_strs(pres.rees_ideal),
             "aluffi_ideal": ideal_strs(pres.aluffi_ideal),
             "tilde_j": [poly_str(t) for t in pres.tilde_j]})


@_command(aluffi_group, "torsion", _bound(4))
def aluffi_torsion_cmd(job, bound):
    report = vv_pieces(_job_pair(job), bound)
    pieces = [{"degree": p.degree,
               "nonzero": p.nonzero,
               "witnesses": [poly_str(w) for w in p.witnesses],
               "internal_dims": [list(x) for x in p.internal_dims],
               "annihilator_exponents": list(p.annihilator_exponents)}
              for p in report.pieces]
    return (_ideals(job, "I", "J", bound=bound),
            {"pieces": pieces, "all_zero": report.all_zero})


@_command(aluffi_group, "linear-type")
def aluffi_lt_cmd(job):
    return _ideals(job, "I"), {"linear_type": is_linear_type(_job_pair(job))}


@_command(aluffi_group, "ar-number", _bound(4))
def aluffi_ar_cmd(job, bound):
    k = artin_rees_number(_job_pair(job), bound)
    return (_ideals(job, "I", "J", bound=bound),
            {"artin_rees_number": k if k is not None else "exceeds bound"})


@_command(aluffi_group, "standard-base", _bound(4))
def aluffi_sb_cmd(job, bound):
    rep = standard_base_check(_job_pair(job), bound)
    return (_ideals(job, "I", "J", bound=bound),
            {"orders": list(rep.orders),
             "per_degree": [{"degree": t, "holds": ok} for t, ok in rep.per_degree],
             "passed": rep.passed})


@_command(aluffi_group, "reltype", _bound(10))
def aluffi_reltype_cmd(job, bound):
    rt = relation_type(_job_pair(job), bound)
    return (_ideals(job, "I", bound=bound),
            {"relation_type": rt if rt is not None else "exceeds bound"})


@_command(aluffi_group, "spread")
def aluffi_spread_cmd(job):
    return _ideals(job, "I"), {"analytic_spread": analytic_spread(job_ideal(job))}


@_command(aluffi_group, "dim")
def aluffi_dim_cmd(job):
    rep = aluffi_dimension(aluffi_presentation(_job_pair(job)))
    return _ideals(job, "I", "J"), {"dim": rep.dim, "codim": rep.codim}


@_command(aluffi_group, "verify-components")
def aluffi_verify_cmd(job):
    pres = aluffi_presentation(_job_pair(job))
    labels = [label for label in job.payloads if label.startswith("candidate ")]
    names = [label.split()[1] for label in labels]
    cands = [Ideal(pres.ring, job_polys(job, label, pres.ring)) for label in labels]
    rep = verify_component_list(pres, cands)
    rows = [{"candidate": name,
             "contains_presentation": row.contains_presentation,
             "dim": row.dim.dim}
            for name, row in zip(names, rep.rows)]
    return (_ideals(job, "I", "J", candidates=names),
            {"rows": rows, "radical_forward": rep.radical_forward,
             "radical_backward": rep.radical_backward, "covers": rep.covers})


# ---------------------------------------------------------------------------
# curves and families


@main.group("curve")
def curve_group():
    """Plane-curve gradient-ideal certificates."""


@_command(curve_group, "cert")
def curve_cert_cmd(job):
    gp = gradient_pair(job_form(job, "curve"))
    cert = linear_type_certificate(gp)
    return ({"curve": job.texts("curve")[0]},
            {"verdict": cert.verdict.value, "reason": cert.reason,
             "codim_gradient": cert.codim_gradient,
             "singular_dim": cert.singular_dim,
             "codim_entry_ideal": cert.codim_entry_ideal,
             "threshold": cert.threshold,
             "gradient": [poly_str(g) for g in gp.pair.i_gens]})


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


@_command(family_group, "analyze", _seed())
def family_analyze_cmd(job, seed):
    report = analyze_family(job_form(job, "family"), seed=seed,
                            avoid=job_constraints(job))
    return {"family": job.texts("family")[0]}, _family_results(report), seed


@_command(family_group, "member",
          click.Option(["--alpha"], required=True,
                       help="comma-separated rationals for the parameters"))
def family_member_cmd(job, alpha):
    F = job_form(job, "family")
    try:
        values = [Fraction(a) for a in alpha.split(",")] if alpha else []
    except (ValueError, ZeroDivisionError):
        raise RingError(f"--alpha needs comma-separated rationals, got {alpha!r}") from None
    cert = evaluate_member(F, values).certificate
    return ({"family": job.texts("family")[0], "alpha": alpha},
            {"verdict": cert.verdict.value, "reason": cert.reason,
             "codim_gradient": cert.codim_gradient,
             "codim_entry_ideal": cert.codim_entry_ideal})


# ---------------------------------------------------------------------------
# fixtures and acceptance


@main.group("fixtures")
def fixtures_group():
    """Built-in worked examples with their expected verdicts."""


@_command(fixtures_group, "list", file=False)
def fixtures_list_cmd():
    rows = [{"kind": "family", "key": fam.key, "slug": fam.slug, "claim": fam.claim}
            for fam in FAMILIES]
    rows += [{"kind": "curve", "key": c.slug, "slug": c.slug, "claim": c.claim}
             for c in CURVES]
    rows += [{"kind": "pair", "key": name, "slug": name, "claim": claim}
             for name, (_, claim) in PAIR_FIXTURES.items()]
    return {}, {"fixtures": rows}


@_command(fixtures_group, "run",
          click.Argument(["name"], required=False),
          click.Option(["--all", "run_all"], is_flag=True),
          _seed(), _bound(4), file=False,
          passed=lambda results: all(r.get("passed", True) for r in results["reports"]))
def fixtures_run_cmd(name, run_all, seed, bound):
    if bool(name) == run_all:
        raise RingError("give either a fixture name or --all")
    targets = [name] if name else \
        [f.slug for f in FAMILIES] + [c.slug for c in CURVES] + list(PAIR_FIXTURES)
    return ({"targets": targets},
            {"reports": [_run_fixture(slug, seed, bound) for slug in targets]}, seed)


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
                    "passed": (ok_cols and report.consistent
                               and report.generic_linear_type)}
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


@_command(main, "accept",
          click.Option(["--only"], default=None,
                       help="run only criteria whose number, slug or tag matches"),
          file=False, passed=lambda results: results["all_passed"])
def accept_cmd(only):
    """Run the acceptance suite; exits 1 if any criterion fails."""
    from .acceptance import run_acceptance
    results = run_acceptance(only)
    for r in results:
        click.echo(r.line(), err=True)
    rows = [{"number": r.number, "criterion": r.slug,
             "passed": r.passed, "details": r.details} for r in results]
    return {"only": only}, {"criteria": rows,
                            "all_passed": all(r.passed for r in results)}


if __name__ == "__main__":
    main()
