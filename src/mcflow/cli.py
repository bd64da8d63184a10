"""Command-line driver.

    mcflow verify <system|path>     run the full structural suite + oracle
    mcflow derive <system|path>     print M, the one-forms and the potential
    mcflow integrate <system|path>  RK4 trajectory + conservation drift
    mcflow sample <system|path>     numeric sampling of check residuals
    mcflow check-file <path>        parse and verify a user .sys file

Exit codes: 0 all attempted checks hold, 1 a mathematical check failed or
the report could not be written, 2 parse/usage error, 3 singular or
degenerate input.  Reports are plain text by default; --json emits a single
deterministic JSON document.
"""

import argparse
import gc
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
    GRID_DENOMINATOR,
    NumericError,
    InconclusiveSample,
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

# integrate takes at most this many RK4 steps, --t over --h: about a minute
# of work, where the default request takes 200
MAX_STEPS = 10**6


def _resolve(target: str) -> System:
    if target in BUILTIN_NAMES:
        return builtin(target)
    if not os.path.exists(target):
        raise ParseError(f"{target!r} is not a built-in system or an existing file")
    try:
        with open(target, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {target!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{target!r} is not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from None
    return System(parse_system(source))


def _eps_integrals(spec: SystemSpec, eps: int):
    """Declared integrals, with the _plus/_minus pair restricted by eps."""
    skip = "_minus" if eps > 0 else "_plus"
    return tuple((name, h) for name, h in spec.integrals if skip not in name)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _candidate(text: str, option: str, default: int, chart) -> RationalFunction:
    """The value of a --rho or --f option.  Every parse error names the
    option; a zero divisor, found while evaluating the parsed text, reports
    the column of its first character."""
    if not text:
        return RationalFunction.const(default, chart)
    try:
        return parse_rational(text, chart)
    except ParseError as exc:
        raise ParseError(f"{option}: {exc.message}", exc.line, exc.column) from None
    except ZeroDenominatorError as exc:
        raise ParseError(f"{option}: {exc}", 1, 1 + len(text) - len(text.lstrip())) from None


def _sigma_checks(r: System, args):
    """The candidate (rho, f) checked on the conformally transformed frame,
    where sigma = alpha - (1/2) dlog(rho) + f gamma is alpha' + (f rho) gamma'."""
    chart = r.frame.M.chart
    rho = _candidate(args.rho, "--rho", 1, chart)
    f = _candidate(args.f, "--f", 0, chart)
    alpha, beta, gamma = conformal_transform(r.frame, rho)
    g = f * rho
    sigma = sigma_residual(alpha, gamma, g)
    yield Check.from_residual(
        "sigma.integrability", "sigma ^ d(sigma) = 0 for candidate (rho, f)", sigma)
    yield Check.from_residual(
        "sigma.factored_agreement", "sigma ^ d(sigma) matches its factored shape",
        sigma - sigma_residual_factored(alpha, beta, gamma, g))
    for c in verify_maurer_cartan(alpha, beta, gamma, r.name).checks:
        yield Check(f"conformal.{c.name}", c.anchor, c.status, c.residual_obj, c.residual,
                    c.expect)


def _checks(r: System, args):
    """Every check of a report, in report order.  The mcframe and systems
    functions are called through module global names (the System's curl
    report and potential through those of systems), so a wrapper installed
    in every namespace that holds a function (a tracing span) sees each
    call."""
    frame, hint = r.frame, r.spec.multiplier_hint
    frameless = frame is None and r.heisenberg is None
    integrals = _eps_integrals(r.spec, args.eps)
    if r.heisenberg is not None:
        yield from heisenberg_verify(r.heisenberg).checks
    if r.bracket_report is not None:
        yield from r.bracket_report.checks
    if frame is not None:
        if hint is not None:
            yield Check.from_residual(
                "multiplier.matches_hint", "M = declared multiplier", frame.M - hint)
        yield from verify_duality(frame).checks
        yield from verify_maurer_cartan(frame.alpha, frame.beta, frame.gamma, r.name).checks
        yield from r.curl_report().checks
        for form, expect in (("gamma", ZERO), ("beta", ZERO), ("alpha", NONZERO)):
            relation = "=" if expect == ZERO else "!="
            yield Check.from_residual(
                f"frobenius.{form}", f"{form} ^ d({form}) {relation} 0",
                frobenius_residual(getattr(frame, form)), expect)
        yield Check.from_residual(
            "potential.curl_scale", f"curl(A) = s M v, s = {r.potential().scale}",
            VectorField3.zero(frame.M.chart))
        if len(integrals) >= 2:
            (_, h1), *pairs = integrals
            div_mv = r.curl_report().find("divergence.mv").residual_obj
            for label, h2 in pairs:
                yield from bihamiltonian_verify(
                    frame.v, frame.M, h1, h2, r.name, label, div_mv).checks
    # with a frame, a single integral has no partner for the decomposition
    if frameless or (frame is not None and len(integrals) == 1):
        for label, h in integrals:
            yield Check.from_residual(
                f"integral.{label}", f"iota_v d{label} = 0",
                h.differential().interior(r.v).coeffs[0])
    if frameless and hint is not None:
        yield Check.from_residual(
            "multiplier.invariance", "div(M v) = 0 for declared M", div(r.v.scale(hint)))
    if frame is not None and (args.rho is not None or args.f is not None):
        yield from _sigma_checks(r, args)
    if r.is_builtin and r.name in ("dh_classic", "dh_symmetric"):
        yield from dh_reduction_check().checks
    if r.is_builtin and r.name == "dh_symmetric":
        yield from grading_check(r).checks


def _run_checks(resolved: System, args) -> VerificationReport:
    return VerificationReport(resolved.name, tuple(_checks(resolved, args)))


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
    try:
        if len(parts) == 3:
            return tuple(float(Fraction(part.strip())) for part in parts)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"expected three comma-separated finite numbers, got {text!r}")


def _parse_box(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO,HI")
    lo, hi = (float(part) for part in parts)
    # the sampler draws grid indices between bound * GRID_DENOMINATOR
    if not all(math.isfinite(bound * GRID_DENOMINATOR) for bound in (lo, hi)):
        raise argparse.ArgumentTypeError("box bounds must be finite on the sampling grid")
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
    parser.add_argument("--tol", type=_positive_real, default=1e-12, help="oracle zero tolerance")
    parser.add_argument("--check", help="restrict `sample` to one named check")
    return parser


def run(argv) -> tuple[dict | None, int, str | None]:
    """Execute a request; returns (document, exit code, diagnostic)."""
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if not args.t / args.h <= MAX_STEPS:
            parser.error(f"argument --t/--h: --t={args.t} over --h={args.h} "
                         f"exceeds the limit of {MAX_STEPS} steps")
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
    except (ParseError, ZeroDenominatorError, ZeroLogArgumentError) as exc:
        return None, EXIT_PARSE_ERROR, f"parse error: {exc}"
    except (
        DegenerateFrameError,
        InconsistencyError,
        SingularPointError,
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
    """The ``mcflow`` command and ``python -m mcflow.cli``: main(), then exit.

    A report that cannot be written (a closed pipe, a full disk) exits 1
    with one line on stderr.  The collector is frozen before exit, so the
    interpreter's final collection, which cost more than a small request's
    own work, skips every object and the operating system takes the memory
    back.  main() leaves the collector alone for longer-lived callers."""
    try:
        status = main()
        sys.stdout.flush()
    except OSError as exc:
        # what is left in the buffer goes to devnull, so the interpreter's
        # own final flush of stdout cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"mcflow: cannot write the report: {exc}", file=sys.stderr)
        status = EXIT_CHECK_FAILED
    gc.freeze()
    raise SystemExit(status)


if __name__ == "__main__":
    console_main()
