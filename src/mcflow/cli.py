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

from __future__ import annotations

import atexit
import codecs
import gc
import math
import os
import re
import sys
import types

if __name__ == "__main__":
    # a console request runs without the cyclic collector (see
    # console_main), and so do the package imports below
    gc.disable()

from . import GRID_DENOMINATOR, __version__
from .algebra import (
    AlgebraError,
    RationalFunction,
    SingularPointError,
    ZeroDenominatorError,
)
from .calculus import div
from .mcframe import (
    Check,
    DegenerateFrameError,
    FAILS,
    FrameError,
    HOLDS,
    InconsistencyError,
    NOT_APPLICABLE,
    ZERO,
    all_hold,
    bihamiltonian_verify,
    conformal_transform,
    curl_identities,
    frobenius_residual,
    heisenberg_verify,
    sigma_residual,
    verify_duality,
    verify_maurer_cartan,
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

# the oracle samples each check at most at this many points: about a minute
# for the slowest built-in verify (guillot), where the default takes 25
MAX_POINTS = 350_000


def _resolve(target: str) -> System:
    if target in BUILTIN_NAMES:
        return builtin(target)
    if not os.path.exists(target):
        raise ParseError(f"{target!r} is not a built-in system or an existing file")
    try:
        with open(target, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {target!r}: {exc.strerror}") from None
    # one leading byte order mark is skipped; a bad byte's offset counts it
    skip = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        source = data[skip:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{target!r} is not UTF-8 text: {exc.reason} "
                         f"at byte {skip + exc.start}") from None
    # parse_system splits lines at \r\n and \r as text mode would
    return System(parse_system(source))


def _eps_integrals(spec: SystemSpec, eps: int):
    """Declared integrals, with the _plus/_minus pair restricted by eps."""
    skip = "_minus" if eps > 0 else "_plus"
    return tuple((name, h) for name, h in spec.integrals if not name.endswith(skip))


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


def _sigma_checks(r: System, args, curl):
    """The candidate (rho, f) checked on the conformally transformed frame,
    where sigma = alpha - (1/2) dlog(rho) + f gamma is alpha' + (f rho) gamma'.
    Its rows are read off the frame's curl rows.  The candidate is parsed
    on every system; without an sl(2) frame it gets one N/A row."""
    chart = r.v.chart
    rho = _candidate(args.rho, "--rho", 1, chart)
    f = _candidate(args.f, "--f", 0, chart)
    if r.frame is None or r.heisenberg:
        yield Check("sigma.integrability",
                    "no sl(2) frame carries the candidate (rho, f)", NOT_APPLICABLE,
                    None, None, ZERO)
        return
    # conformal_transform rejects a vanishing rho before anything divides by it
    alpha, beta, gamma = conformal_transform(r.frame, rho)
    structure = verify_maurer_cartan(r.frame, curl, rho)
    e = {c.name: c.residual_obj for c in structure}
    sigma, agreement = sigma_residual(
        alpha, beta, gamma, f * rho, e["structure.dalpha"], e["structure.dgamma"])
    yield Check.from_residual(
        "sigma.integrability", "sigma ^ d(sigma) = 0 for candidate (rho, f)", sigma)
    yield Check.from_residual(
        "sigma.factored_agreement", "sigma ^ d(sigma) matches its factored shape", agreement)
    for c in structure:
        yield Check(f"conformal.{c.name}", c.anchor, c.status, c.residual_obj, c.residual,
                    c.expect)


def _checks(r: System, args):
    """Every check of a report, in report order.  The mcframe and systems
    functions are called through module global names (the System's
    potential through those of systems), so a wrapper installed in every
    namespace that holds a function (a tracing span) sees each call."""
    frame, hint = r.frame, r.spec.multiplier_hint
    sl2 = frame is not None and not r.heisenberg
    curl = None
    integrals = _eps_integrals(r.spec, args.eps)
    if r.heisenberg:
        yield from heisenberg_verify(frame, r.brackets)
    elif r.brackets is not None:
        yield from r.brackets
    if frame is not None and hint is not None:
        yield Check.from_residual(
            "multiplier.matches_hint", "M = declared multiplier", frame.M - hint)
    if sl2:
        yield from verify_duality(frame)
        # the structure and Frobenius rows are read off the curl rows
        curl = curl_identities(frame)
        yield from verify_maurer_cartan(frame, curl)
        yield from curl
        yield from frobenius_residual(frame, curl)
        yield Check.from_residual(
            "potential.curl_scale", f"curl(A) = s M v, s = {r.potential()}",
            RationalFunction.const(0, frame.M.chart))
    # an sl(2) frame pairs two or more integrals in the decomposition
    if sl2 and len(integrals) >= 2:
        (_, h1), *pairs = integrals
        div_mv = next(c.residual_obj for c in curl if c.name == "divergence.mv")
        for label, h2 in pairs:
            yield from bihamiltonian_verify(frame.v, frame.M, h1, h2, label, div_mv)
    else:
        for label, h in integrals:
            yield Check.from_residual(
                f"integral.{label}", f"iota_v d{label} = 0",
                h.differential().interior(r.v).coeffs[0])
    if frame is None and hint is not None:
        yield Check.from_residual(
            "multiplier.invariance", "div(M v) = 0 for declared M", div(r.v.scale(hint)))
    if args.rho is not None or args.f is not None:
        yield from _sigma_checks(r, args, curl)
    if r.is_builtin and r.name in ("dh_classic", "dh_symmetric"):
        yield from dh_reduction_check()
    if r.is_builtin and r.name == "dh_symmetric":
        yield from grading_check(r)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


def _frame_section(resolved: System):
    spec = resolved.spec
    section = {
        "variables": list(spec.variables),
        "v": [str(c) for c in spec.v],
    }
    if spec.u is not None:
        section["u"] = [str(c) for c in spec.u]
        section["w"] = [str(c) for c in spec.w]
    if spec.integrals:
        section["integrals"] = {name: str(h) for name, h in spec.integrals}
    return section


def _forms_section(resolved: System):
    frame = resolved.frame
    if frame is None:
        return None
    if resolved.heisenberg:
        forms = {"omega1": frame.gamma, "omega2": frame.beta, "omega3": frame.alpha}
    else:
        forms = {"alpha": frame.alpha, "beta": frame.beta, "gamma": frame.gamma}
    section = {name: [str(c) for c in form.coeffs] for name, form in forms.items()}
    if not resolved.heisenberg:
        # A is the covector of gamma
        try:
            section["potential"] = {"A": section["gamma"], "scale": str(resolved.potential())}
        except FrameError:
            section["potential"] = None
    return section


def _multiplier_section(resolved: System):
    if resolved.frame is None:
        hint = resolved.spec.multiplier_hint
        return {"M": str(hint)} if hint is not None else None
    m = resolved.frame.M
    return {"M": str(m), "inverse": str(m.reciprocal())}


def _sample_checks(checks, args, names=None):
    """The oracle row of each applicable check that expects zero.

    An exact zero residual is 0 over 1: at every grid point its denominator
    clears the singular floor and its value is 0.0, so its row is derived,
    not drawn: all --points points, max |residual| 0.0.  Only a nonzero
    residual is evaluated at seeded points by numeric.sample_identity."""
    rows = []
    all_pass = True
    for check in checks:
        if names is not None and check.name not in names:
            continue
        if check.residual_obj is None:
            continue
        if check.status == NOT_APPLICABLE or check.expect != ZERO:
            continue
        if check.residual_obj.is_zero():
            points, worst = args.points, 0.0
        else:
            from .numeric import sample_identity

            points, worst = sample_identity(
                check.residual_obj, n=args.points, box=args.box, seed=args.seed,
                name=check.name)
        if points == 0:
            # every draw was singular, or its value overflowed or was not finite
            rows.append({"check": check.name, "points": 0, "max_residual": None,
                         "verdict": "inconclusive"})
            all_pass = False
            continue
        passed = worst < args.tol
        agrees = passed == (check.status == HOLDS)
        rows.append(
            {
                "check": check.name,
                "points": points,
                "max_residual": worst,
                "verdict": "pass" if passed else "fail",
                "agrees_with_symbolic": agrees,
            }
        )
        if not agrees:
            all_pass = False
    return rows, all_pass


def _integration_section(resolved: System, args):
    from .numeric import conservation_drift, rk4_integrate

    times, states = rk4_integrate(resolved.v, args.start, args.t, args.h)
    drifts = {}
    for label, h in _eps_integrals(resolved.spec, args.eps):
        drifts[label] = conservation_drift(h, times, states)
    return {
        "from": list(args.start),
        "t_end": args.t,
        "h": args.h,
        "steps": len(times) - 1,
        "final_state": list(states[-1]),
        "drift": drifts,
    }


class _Document(dict):
    """A report document that knows whether its request asked for --json,
    so main() renders it without reading argv again."""

    __slots__ = ("json",)


_COMMANDS = ("check-file", "derive", "integrate", "sample", "verify")


def _report(resolved: System, args):
    """The request's document and exit status.

    Every command fills the same six sections, or leaves some empty:
    verify (and check-file, whose document reads verify) fills all six;
    derive all but the numeric one, and the checks only with the bracket
    relations that fail; sample the frame, the checks and the oracle rows;
    integrate the frame, the multiplier and the trajectory."""
    command = "verify" if args.command == "check-file" else args.command
    checks, numeric, status = (), {}, EXIT_OK
    if command in ("verify", "sample"):
        checks = tuple(_checks(resolved, args))
        names = {args.check} if command == "sample" and args.check is not None else None
        known = {c.name for c in checks}
        if names is not None and args.check not in known:
            raise ParseError(f"--check: unknown check {args.check!r}; available: "
                             f"{', '.join(sorted(known))}", None)
        numeric["samples"], oracle_ok = _sample_checks(checks, args, names)
        if names is not None and not numeric["samples"]:
            raise ParseError(f"--check: {args.check!r} has no oracle row: only an "
                             "applicable check that expects an exact zero residual is sampled",
                             None)
        if not oracle_ok or (command == "verify" and not all_hold(checks)):
            status = EXIT_CHECK_FAILED
    elif command == "derive" and not all_hold(resolved.brackets or ()):
        checks, status = resolved.brackets, EXIT_CHECK_FAILED
    derived = command in ("verify", "derive")
    sections = {
        "frame": _frame_section(resolved),
        "multiplier": _multiplier_section(resolved) if command != "sample" else None,
        "forms": _forms_section(resolved) if derived else None,
        "checks": [{"system": resolved.name, "check": c.name, "anchor": c.anchor,
                    "status": c.status, "residual": c.residual} for c in checks],
        "concordance": concordance(resolved) if derived else [],
        "numeric": numeric,
    }
    if command == "integrate":
        numeric["integration"] = _integration_section(resolved, args)
    document = _Document(tool={"name": "mcflow", "version": __version__}, command=command,
                         system=resolved.name, sections=sections, exit_status=status)
    document.json = args.json
    return document, status


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
        status = {HOLDS: "PASS", FAILS: "FAIL", NOT_APPLICABLE: "N/A "}[row["status"]]
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


class _UsageError(Exception):
    """A malformed command line; the message follows ``mcflow: error: ``."""


def _parse_triple(text: str) -> tuple[float, float, float]:
    from fractions import Fraction  # only --from reads a number as a Fraction

    parts = text.split(",")
    try:
        if len(parts) == 3:
            return tuple(float(Fraction(part.strip())) for part in parts)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise _UsageError(f"expected three comma-separated finite numbers, got {text!r}")


def _parse_box(text: str) -> tuple[float, float]:
    parts = text.split(",")
    try:
        lo, hi = map(float, parts)
    except ValueError:
        raise _UsageError(f"expected LO,HI as two finite numbers, got {text!r}") from None
    # the sampler draws grid indices between bound * GRID_DENOMINATOR
    if not all(math.isfinite(bound * GRID_DENOMINATOR) for bound in (lo, hi)):
        raise _UsageError("box bounds must be finite on the sampling grid")
    if hi < lo:
        raise _UsageError("box upper bound below lower bound")
    if math.ceil(lo * GRID_DENOMINATOR) > math.floor(hi * GRID_DENOMINATOR):
        raise _UsageError(f"box holds no point of the 1/{GRID_DENOMINATOR} sampling grid")
    return lo, hi


def _point_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise _UsageError(f"expected a positive integer, got {text!r}")
    if value > MAX_POINTS:
        raise _UsageError(f"{value} exceeds the limit of {MAX_POINTS} points")
    return value


def _positive_real(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise _UsageError(f"expected a finite positive number, got {text!r}")
    return value


def _choice(text: str, choices) -> str:
    if text not in choices:
        shown = ", ".join(map(repr, choices))
        raise _UsageError(f"invalid choice: {text!r} (choose from {shown})")
    return text


def _eps(text: str) -> int:
    return int(_choice(text, ("+1", "-1")))


def _command(text: str) -> str:
    return _choice(text, _COMMANDS)


def _convert(label: str, convert, text: str):
    """convert(text); a fault is a _UsageError naming the argument."""
    try:
        return convert(text)
    except _UsageError as exc:
        raise _UsageError(f"argument {label}: {exc}") from None
    except ValueError:
        raise _UsageError(f"argument {label}: invalid {convert.__name__} value: "
                          f"{text!r}") from None


# Every long option, in the order of the usage line: its destination (None
# for --help and --version, which print and exit), its converter (None for a
# flag), its default and the commands that read it.  A converter raises
# _UsageError with its message, or ValueError for "invalid <converter> value".
# An option given to any other command, in any spelling and with any value, is
# a usage error rather than silently ignored.
_OPTIONS = {
    "--help": (None, None, None, _COMMANDS),
    "--version": (None, None, None, _COMMANDS),
    "--json": ("json", None, False, _COMMANDS),
    "--eps": ("eps", _eps, 1, ("check-file", "integrate", "sample", "verify")),
    "--rho": ("rho", str, None, ("check-file", "sample", "verify")),
    "--f": ("f", str, None, ("check-file", "sample", "verify")),
    "--points": ("points", _point_count, 25, ("check-file", "sample", "verify")),
    "--h": ("h", _positive_real, 1e-3, ("integrate",)),
    "--t": ("t", _positive_real, 0.2, ("integrate",)),
    "--from": ("start", _parse_triple, (1.0, 1.0, 1.0), ("integrate",)),
    "--seed": ("seed", int, 0, ("check-file", "sample", "verify")),
    "--box": ("box", _parse_box, (-3.0, 3.0), ("check-file", "sample", "verify")),
    "--tol": ("tol", _positive_real, 1e-12, ("check-file", "sample", "verify")),
    "--check": ("check", str, None, ("sample",)),
}

_USAGE = """\
usage: mcflow [-h] [--version] [--json] [--eps {+1,-1}] [--rho RHO] [--f F]
              [--points POINTS] [--h H] [--t T] [--from START] [--seed SEED]
              [--box BOX] [--tol TOL] [--check CHECK]
              {check-file,derive,integrate,sample,verify} system
"""
_HELP = _USAGE + """
exact structural verification of 3D flows with companion frames

positional arguments:
  {check-file,derive,integrate,sample,verify}
  system                built-in system name or path to a .sys file

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
  --json                emit one JSON document
  --eps {+1,-1}         select the +1 or -1 branch of paired integrals
  --rho RHO             conformal factor candidate (expression)
  --f F                 perturbation candidate for the potential (expression)
  --points POINTS       oracle sample points per check
  --h H                 integration step size
  --t T                 integration horizon
  --from START          initial point x,y,z
  --seed SEED           oracle sampling seed
  --box BOX             sampling box LO,HI (applied to each axis)
  --tol TOL             oracle zero tolerance
  --check CHECK         restrict `sample` to one named check
"""


def _option_of(text: str):
    """(long option, text after '=' or None) if text is an option, the
    option None if it is unknown; None if text is a positional.  A long
    option may be a unique prefix, and a text that looks like a negative
    number or holds a space is a positional."""
    if text[:1] != "-" or text == "-":
        return None
    name, equals, value = text.partition("=")
    explicit = value if equals else None
    if name in _OPTIONS:
        return name, explicit
    if text[1] == "-":
        matches = [option for option in _OPTIONS if option.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {text} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    elif text.startswith("-h"):
        # -h takes no value, so letters after it are more options: -hh is
        # -h -h, and the first letter that is not h is left over
        if name != "-h":
            explicit = text[2:]
        return "--help", explicit.lstrip("h") or None if explicit else explicit
    if re.match(r"^-\d+$|^-\d*\.\d+$", text) or " " in text:
        return None
    return None, None


def _parse_args(argv):
    """The request a command line asks for: one attribute per option
    destination, plus command and system.

    argv is read once, left to right, with argparse's rules: --opt=value,
    --opt value (a value never starts with '-' unless it is a negative
    number or holds a space), a unique prefix of a long option, and '--',
    after which every token is a positional.  Each option is converted, and
    each positional taken, where it stands, so the first fault from the
    left is reported; a missing positional, an unrecognised token, then an
    option the command does not read, only at the end.  Returns the text to
    print instead if --help or --version comes first; raises _UsageError."""
    separator = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option_of(text) for text in argv[:separator]] + [None] * (len(argv) - separator)
    values = {dest: default for dest, _, default, _ in _OPTIONS.values() if dest}
    positionals, extras, given = [], [], set()
    taken = None  # the index of the last positional taken
    i = 0
    while i < len(argv):
        text, kind = argv[i], kinds[i]
        i += 1
        if kind is None:
            # a positional feeds the next missing one, or is unrecognised;
            # the '--' is dropped while one is missing or right after system
            if i - 1 == separator and (len(positionals) < 2 or taken == i - 2):
                continue
            if len(positionals) == 2:
                extras.append(text)
                continue
            positionals.append(text if positionals else _convert("command", _command, text))
            taken = i - 1
            continue
        name, explicit = kind
        if name is None:
            extras.append(text)
            continue
        given.add(name)
        label = "-h/--help" if name == "--help" else name
        dest, convert, _, _ = _OPTIONS[name]
        if convert is None:
            if explicit is not None:
                raise _UsageError(f"argument {label}: ignored explicit argument {explicit!r}")
            if dest is None:
                return _HELP if name == "--help" else f"mcflow {__version__}\n"
            values[dest] = True
            continue
        if explicit is None:
            if i == len(argv) or kinds[i] is not None or i == separator:
                raise _UsageError(f"argument {label}: expected one argument")
            explicit = argv[i]
            i += 1
        values[dest] = _convert(label, convert, explicit)
    if len(positionals) < 2:
        missing = ", ".join(("command", "system")[len(positionals):])
        raise _UsageError(f"the following arguments are required: {missing}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    args = types.SimpleNamespace(command=positionals[0], system=positionals[1], **values)
    for name, (_, _, _, readers) in _OPTIONS.items():
        if name in given and args.command not in readers:
            raise _UsageError(f"argument {name}: not read by {args.command}")
    if not args.t / args.h <= MAX_STEPS:
        raise _UsageError(f"argument --t/--h: --t={args.t} over --h={args.h} "
                          f"exceeds the limit of {MAX_STEPS} steps")
    return args


def run(argv) -> tuple[dict | None, int, str | None]:
    """Execute a request; returns (document, exit code, diagnostic)."""
    try:
        args = _parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{_USAGE}mcflow: error: {exc}\n")
        return None, EXIT_PARSE_ERROR, None
    if isinstance(args, str):
        sys.stdout.write(args)
        return None, EXIT_OK, None
    try:
        resolved = _resolve(args.system)
        if args.command == "check-file" and resolved.is_builtin:
            raise ParseError("check-file expects a path to a .sys file")
        document, status = _report(resolved, args)
        return document, status, None
    except (ParseError, ZeroDenominatorError) as exc:
        return None, EXIT_PARSE_ERROR, f"parse error: {exc}"
    except (
        DegenerateFrameError,
        InconsistencyError,
        SingularPointError,
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
    if document.json:
        import json

        print(json.dumps(document, indent=2))
    else:
        print(_render_text(document))
    return status


def console_main() -> None:
    """The ``mcflow`` command and ``python -m mcflow.cli``: main(), then exit.

    A report that cannot be written (a closed pipe, a full disk) exits 1
    with one line on stderr.  A request leaves no garbage cycles, so it runs
    without the cyclic collector, and it ends without interpreter teardown:
    the atexit callbacks run, both streams are flushed, and os._exit hands
    the memory back to the operating system.  main() leaves the collector
    on and returns, for callers in a longer-lived process."""
    gc.disable()
    try:
        status = main()
        sys.stdout.flush()
    except OSError as exc:
        # what is left in the buffer goes to devnull, so the final flush of
        # stdout cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"mcflow: cannot write the report: {exc}", file=sys.stderr)
        status = EXIT_CHECK_FAILED
    # what the interpreter's shutdown would do that can be seen from outside,
    # in its order: the atexit callbacks, then the flush of both streams
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    console_main()
