"""Command-line driver.

    mcflow verify <system|path>     run the full structural suite + oracle
    mcflow derive <system|path>     print M, the one-forms and the potential
    mcflow integrate <system|path>  RK4 trajectory + conservation drift
    mcflow sample <system|path>     numeric sampling of check residuals
    mcflow check-file <path>        parse and verify a user .sys file

Exit codes: 0 all attempted checks hold, 1 a mathematical check failed,
2 parse/usage error, 3 singular or degenerate input.  Reports are plain
text by default; --json emits a single deterministic JSON document.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .algebra import (
    AlgebraError,
    Point3,
    RationalFunction,
    SingularPointError,
    ZeroDenominatorError,
)
from .calculus import VectorField3, ZeroLogArgumentError, div
from .mcframe import (
    Check,
    DegenerateFrameError,
    FrameError,
    HOLDS,
    InconsistencyError,
    NONZERO,
    NOT_APPLICABLE,
    VerificationReport,
    ZERO,
    bihamiltonian_verify,
    conformal_transform,
    frobenius_residual,
    heisenberg_verify,
    sigma_residual,
    sigma_residual_factored,
    verify_duality,
    verify_maurer_cartan,
)
from .numeric import (
    NumericError,
    InconclusiveSample,
    SingularEvaluation,
    SingularityAbort,
    conservation_drift,
    rk4_integrate,
    sample_identity,
)
from .parser import ParseError, SystemSpec, parse_rational, parse_system
from .systems import (
    BUILTIN_NAMES,
    System,
    UnknownSystemError,
    builtin,
    concordance,
    dh_reduction_check,
    grading_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_SINGULAR = 3


def _resolve(target: str) -> System:
    if target in BUILTIN_NAMES:
        return builtin(target)
    if not os.path.exists(target):
        raise ParseError(f"{target!r} is not a built-in system or an existing file")
    with open(target, encoding="utf-8") as handle:
        return System(parse_system(handle.read()))


def _eps_integrals(spec: SystemSpec, eps: int):
    """Declared integrals, with the _plus/_minus pair restricted by eps."""
    skip = "_minus" if eps > 0 else "_plus"
    return tuple((name, h) for name, h in spec.integrals if skip not in name)


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


def _framed(r: System, args) -> bool:
    return r.frame is not None


def _frameless(r: System, args) -> bool:
    return r.frame is None and r.heisenberg is None


def _frobenius_checks(r: System, args):
    for form, expect in (("gamma", ZERO), ("beta", ZERO), ("alpha", NONZERO)):
        relation = "=" if expect == ZERO else "!="
        yield Check.from_residual(
            f"frobenius.{form}", f"{form} ^ d({form}) {relation} 0",
            frobenius_residual(getattr(r.frame, form)), expect,
        )


def _bihamiltonian_checks(r: System, args):
    (_, h1), *pairs = _eps_integrals(r.spec, args.eps)
    div_mv = r.curl_report().find("divergence.mv").residual_obj
    for label, h2 in pairs:
        yield from bihamiltonian_verify(
            r.frame.v, r.frame.M, h1, h2, r.name, label, div_mv).checks


def _sigma_checks(r: System, args):
    frame = r.frame
    chart = frame.M.chart
    rho = parse_rational(args.rho, chart) if args.rho else RationalFunction.const(1, chart)
    f = parse_rational(args.f, chart) if args.f else RationalFunction.const(0, chart)
    sigma = sigma_residual(frame.alpha, frame.gamma, frame.beta, rho, f)
    factored = sigma_residual_factored(frame.alpha, frame.gamma, frame.beta, rho, f)
    t_alpha, t_beta, t_gamma = conformal_transform(frame, rho)
    transformed = verify_maurer_cartan(t_alpha, t_beta, t_gamma, r.name)
    return (
        Check.from_residual(
            "sigma.integrability", "sigma ^ d(sigma) = 0 for candidate (rho, f)", sigma
        ),
        Check.from_residual(
            "sigma.factored_agreement",
            "sigma ^ d(sigma) matches its factored shape",
            sigma - factored,
        ),
        *(Check(f"conformal.{c.name}", c.anchor, c.status, c.residual_obj, c.residual, c.expect)
          for c in transformed.checks),
    )


# Every check of a report, in report order: rows of (applies, checks), both
# called with the resolved System and the parsed arguments.  Rows call the
# mcframe and systems functions through module global names (the System's
# curl report and potential through those of systems), so a wrapper
# installed in every namespace that holds a function (a tracing span) sees
# each call.
_CHECKS = (
    (lambda r, args: r.heisenberg is not None,
     lambda r, args: heisenberg_verify(r.heisenberg).checks),
    (lambda r, args: r.bracket_report is not None,
     lambda r, args: r.bracket_report.checks),
    (lambda r, args: _framed(r, args) and r.spec.multiplier_hint is not None,
     lambda r, args: (Check.from_residual(
         "multiplier.matches_hint", "M = declared multiplier",
         r.frame.M - r.spec.multiplier_hint),)),
    (_framed, lambda r, args: verify_duality(r.frame).checks),
    (_framed, lambda r, args: verify_maurer_cartan(
        r.frame.alpha, r.frame.beta, r.frame.gamma, r.name).checks),
    (_framed, lambda r, args: r.curl_report().checks),
    (_framed, _frobenius_checks),
    (_framed, lambda r, args: (Check.from_residual(
        "potential.curl_scale", f"curl(A) = s M v, s = {r.potential().scale}",
        VectorField3.zero(r.frame.M.chart)),)),
    (lambda r, args: _framed(r, args) and len(_eps_integrals(r.spec, args.eps)) >= 2,
     _bihamiltonian_checks),
    # with a frame, a single integral has no partner for the decomposition
    (lambda r, args: _frameless(r, args)
     or (_framed(r, args) and len(_eps_integrals(r.spec, args.eps)) == 1),
     lambda r, args: (
         Check.from_residual(
             f"integral.{label}", f"iota_v d{label} = 0",
             h.differential().interior(r.v).coeffs[0])
         for label, h in _eps_integrals(r.spec, args.eps))),
    (lambda r, args: _frameless(r, args) and r.spec.multiplier_hint is not None,
     lambda r, args: (Check.from_residual(
         "multiplier.invariance", "div(M v) = 0 for declared M",
         div(r.v.scale(r.spec.multiplier_hint))),)),
    (lambda r, args: _framed(r, args) and (args.rho is not None or args.f is not None),
     _sigma_checks),
    (lambda r, args: r.is_builtin and r.name in ("dh_classic", "dh_symmetric"),
     lambda r, args: dh_reduction_check().checks),
    (lambda r, args: r.is_builtin and r.name == "dh_symmetric",
     lambda r, args: grading_check(r).checks),
)


def _run_checks(resolved: System, args) -> VerificationReport:
    checks = []
    for applies, row in _CHECKS:
        if applies(resolved, args):
            checks.extend(row(resolved, args))
    return VerificationReport(resolved.name, tuple(checks))


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------


def _check_rows(report: VerificationReport):
    return [
        {
            "system": report.system,
            "check": c.name,
            "anchor": c.anchor,
            "status": c.status,
            "residual": c.residual,
        }
        for c in report.checks
    ]


def _frame_section(resolved: System):
    spec = resolved.spec
    section = {
        "variables": list(spec.variables),
        "v": [str(c) for c in spec.v],
    }
    if spec.u is not None:
        section["u"] = [str(c) for c in spec.u]
    if spec.w is not None:
        section["w"] = [str(c) for c in spec.w]
    if spec.integrals:
        section["integrals"] = {name: str(h) for name, h in spec.integrals}
    return section


def _forms_section(resolved: System):
    if resolved.heisenberg is not None:
        hf = resolved.heisenberg
        return {
            "omega1": [str(c) for c in hf.omega1.coeffs],
            "omega2": [str(c) for c in hf.omega2.coeffs],
            "omega3": [str(c) for c in hf.omega3.coeffs],
        }
    if resolved.frame is None:
        return None
    frame = resolved.frame
    section = {
        "alpha": [str(c) for c in frame.alpha.coeffs],
        "beta": [str(c) for c in frame.beta.coeffs],
        "gamma": [str(c) for c in frame.gamma.coeffs],
    }
    try:
        potential = resolved.potential()
        section["potential"] = {
            "A": [str(c) for c in potential.A.components],
            "scale": str(potential.scale),
        }
    except FrameError:
        section["potential"] = None
    return section


def _multiplier_section(resolved: System):
    if resolved.frame is None:
        hint = resolved.spec.multiplier_hint
        return {"M": str(hint)} if hint is not None else None
    m = resolved.frame.M
    return {"M": str(m), "inverse": str(m.reciprocal())}


def _concordance_section(resolved: System):
    return [
        {
            "form": e.form,
            "component": e.component,
            "status": e.status,
            "computed": e.computed,
            "printed": e.printed,
            "difference": e.difference,
        }
        for e in concordance(resolved)
    ]


def _sample_checks(report: VerificationReport, args, names=None):
    rows = []
    all_pass = True
    for check in report.checks:
        if names is not None and check.name not in names:
            continue
        if check.residual_obj is None:
            continue
        if check.status == NOT_APPLICABLE or check.expect != ZERO:
            continue
        try:
            verdict = sample_identity(
                check.residual_obj,
                n=args.points,
                box=args.box,
                seed=args.seed,
                name=check.name,
                tolerance=args.tol,
            )
        except InconclusiveSample:
            rows.append({"check": check.name, "points": 0, "max_residual": None,
                         "verdict": "inconclusive"})
            all_pass = False
            continue
        symbolically_zero = check.status == HOLDS
        agrees = verdict.passed == symbolically_zero
        rows.append(
            {
                "check": check.name,
                "points": verdict.points_tried,
                "max_residual": verdict.max_abs_residual,
                "verdict": "pass" if verdict.passed else "fail",
                "agrees_with_symbolic": agrees,
            }
        )
        if not agrees:
            all_pass = False
    return rows, all_pass


def _integration_section(resolved: System, args):
    start = Point3.real(*args.start)
    trajectory = rk4_integrate(resolved.v, start, args.t, args.h)
    drifts = {}
    for label, h in _eps_integrals(resolved.spec, args.eps):
        drifts[label] = conservation_drift(h, trajectory)
    return {
        "from": list(args.start),
        "t_end": args.t,
        "h": args.h,
        "steps": len(trajectory.times) - 1,
        "final_state": list(trajectory.states[-1]),
        "drift": drifts,
    }


def _document(resolved, command, sections, exit_status):
    return {
        "tool": {"name": "mcflow", "version": __version__},
        "command": command,
        "system": resolved.name,
        "sections": sections,
        "exit_status": exit_status,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_verify(resolved: System, args):
    report = _run_checks(resolved, args)
    samples, oracle_ok = _sample_checks(report, args)
    status = EXIT_OK if report.ok and oracle_ok else EXIT_CHECK_FAILED
    sections = {
        "frame": _frame_section(resolved),
        "multiplier": _multiplier_section(resolved),
        "forms": _forms_section(resolved),
        "checks": _check_rows(report),
        "concordance": _concordance_section(resolved),
        "numeric": {"samples": samples},
    }
    return _document(resolved, "verify", sections, status), status


def _cmd_derive(resolved: System, args):
    sections = {
        "frame": _frame_section(resolved),
        "multiplier": _multiplier_section(resolved),
        "forms": _forms_section(resolved),
        "checks": [],
        "concordance": _concordance_section(resolved),
        "numeric": {},
    }
    if resolved.bracket_report is not None and not resolved.bracket_report.ok:
        sections["checks"] = _check_rows(resolved.bracket_report)
        return _document(resolved, "derive", sections, EXIT_CHECK_FAILED), EXIT_CHECK_FAILED
    return _document(resolved, "derive", sections, EXIT_OK), EXIT_OK


def _cmd_integrate(resolved: System, args):
    sections = {
        "frame": _frame_section(resolved),
        "multiplier": _multiplier_section(resolved),
        "forms": None,
        "checks": [],
        "concordance": [],
        "numeric": {"integration": _integration_section(resolved, args)},
    }
    return _document(resolved, "integrate", sections, EXIT_OK), EXIT_OK


def _cmd_sample(resolved: System, args):
    report = _run_checks(resolved, args)
    names = {args.check} if args.check else None
    if names is not None:
        known = {c.name for c in report.checks}
        if args.check not in known:
            raise ParseError(
                f"unknown check {args.check!r}; available: {', '.join(sorted(known))}"
            )
    samples, oracle_ok = _sample_checks(report, args, names)
    status = EXIT_OK if oracle_ok and all(r["verdict"] != "inconclusive" for r in samples) else EXIT_CHECK_FAILED
    sections = {
        "frame": _frame_section(resolved),
        "multiplier": None,
        "forms": None,
        "checks": _check_rows(report),
        "concordance": [],
        "numeric": {"samples": samples},
    }
    return _document(resolved, "sample", sections, status), status


_COMMANDS = {
    "verify": _cmd_verify,
    "derive": _cmd_derive,
    "integrate": _cmd_integrate,
    "sample": _cmd_sample,
    "check-file": _cmd_verify,
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_text(doc) -> str:
    lines = [f"mcflow {doc['command']} {doc['system']}"]
    sections = doc["sections"]
    multiplier = sections.get("multiplier")
    if multiplier:
        lines.append(f"M = {multiplier['M']}")
        if "inverse" in multiplier:
            lines.append(f"1/M = {multiplier['inverse']}")
    forms = sections.get("forms")
    if forms:
        for name in ("alpha", "beta", "gamma", "omega1", "omega2", "omega3"):
            if name in forms:
                lines.append(f"{name} = ({', '.join(forms[name])})")
        potential = forms.get("potential")
        if potential:
            lines.append(f"A = ({', '.join(potential['A'])})   scale s = {potential['scale']}")
    for row in sections.get("checks", []):
        status = {HOLDS: "PASS", "fails": "FAIL", NOT_APPLICABLE: "N/A "}[row["status"]]
        line = f"{status} {row['check']:34s} {row['anchor']}"
        if row["residual"]:
            line += f"   residual: {row['residual']}"
        lines.append(line)
    for row in sections.get("concordance", []):
        if row["status"] == "match":
            lines.append(f"concordance {row['form']}[{row['component']}]: match")
        else:
            lines.append(
                f"concordance {row['form']}[{row['component']}]: MISMATCH "
                f"computed {row['computed']} vs printed {row['printed']}"
            )
    numeric = sections.get("numeric") or {}
    for row in numeric.get("samples", []):
        lines.append(
            f"oracle {row['check']:34s} {row['verdict']}"
            f" ({row['points']} points, max |residual| = {row['max_residual']})"
        )
    integration = numeric.get("integration")
    if integration:
        lines.append(
            f"trajectory from {tuple(integration['from'])} for t = {integration['t_end']}"
            f" (h = {integration['h']}, {integration['steps']} steps)"
        )
        for name, drift in integration["drift"].items():
            lines.append(f"drift {name}: {drift:.3e}")
    lines.append(f"exit {doc['exit_status']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return tuple(float(Fraction(part.strip())) for part in parts)


def _parse_box(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO,HI")
    lo, hi = (float(part) for part in parts)
    if hi < lo:
        raise argparse.ArgumentTypeError("box upper bound below lower bound")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_real(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


@lru_cache(maxsize=None)
def _build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: run() and main() both
    parse argv with it."""
    parser = argparse.ArgumentParser(
        prog="mcflow",
        description="exact structural verification of 3D flows with companion frames",
    )
    parser.add_argument("--version", action="version", version=f"mcflow {__version__}")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("system", help="built-in system name or path to a .sys file")
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    parser.add_argument("--eps", choices=["+1", "-1"], default="+1",
                        help="select the +1 or -1 branch of paired integrals")
    parser.add_argument("--rho", help="conformal factor candidate (expression)")
    parser.add_argument("--f", help="perturbation candidate for the potential (expression)")
    parser.add_argument("--points", type=_positive_int, default=25,
                        help="oracle sample points per check")
    parser.add_argument("--h", type=_positive_real, default=1e-3, help="integration step size")
    parser.add_argument("--t", type=_positive_real, default=0.2, help="integration horizon")
    parser.add_argument("--from", dest="start", type=_parse_triple, default=(1.0, 1.0, 1.0),
                        help="initial point x,y,z")
    parser.add_argument("--seed", type=int, default=0, help="oracle sampling seed")
    parser.add_argument("--box", type=_parse_box, default=(-3.0, 3.0),
                        help="sampling box LO,HI (applied to each axis)")
    parser.add_argument("--tol", type=float, default=1e-12, help="oracle zero tolerance")
    parser.add_argument("--check", help="restrict `sample` to one named check")
    return parser


def run(argv) -> tuple[dict | None, int, str | None]:
    """Execute a request; returns (document, exit code, diagnostic)."""
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
        return None, (EXIT_OK if code == 0 else EXIT_PARSE_ERROR), None
    args.eps = int(args.eps)
    try:
        resolved = _resolve(args.system)
        if args.command == "check-file" and resolved.is_builtin:
            raise ParseError("check-file expects a path to a .sys file")
        document, status = _COMMANDS[args.command](resolved, args)
        return document, status, None
    except ParseError as exc:
        return None, EXIT_PARSE_ERROR, f"parse error: {exc}"
    except (ZeroDenominatorError, ZeroLogArgumentError) as exc:
        return None, EXIT_PARSE_ERROR, f"parse error: {exc}"
    except (
        DegenerateFrameError,
        InconsistencyError,
        SingularPointError,
        SingularityAbort,
        SingularEvaluation,
        InconclusiveSample,
        NumericError,
        UnknownSystemError,
    ) as exc:
        return None, EXIT_SINGULAR, f"degenerate or singular input: {exc}"
    except (FrameError, AlgebraError) as exc:
        return None, EXIT_CHECK_FAILED, f"check failed: {exc}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    document, status, diagnostic = run(argv)
    if diagnostic is not None:
        print(diagnostic, file=sys.stderr)
        return status
    if document is None:
        return status
    # run() accepted argv, so parsing it again cannot fail; argparse also
    # accepts abbreviations such as --jso, which a string test would miss
    if _build_arg_parser().parse_args(argv).json:
        import json

        print(json.dumps(document, indent=2))
    else:
        print(_render_text(document))
    return status


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
