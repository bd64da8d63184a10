"""Span tracing of one mcflow request, driven from outside the program.

    python3 perfbench/spans.py SPAWN_NS SPANS_OUT ARGV...

runs `mcflow ARGV...` in this process with the public functions listed in
TARGETS wrapped in timing spans, prints the report exactly as `mcflow`
would, exits with its status, and writes the spans to SPANS_OUT (marshal).
SPAWN_NS is the parent's `time.perf_counter_ns()` just before it started
this process; on Linux that clock is system-wide, so the difference to the
first statement below is the interpreter's start-up time.

The parent reads the file with `load()` and derives self times with
`self_times()`: a span's duration minus the part of it covered by its child
spans.
"""

import time

_FIRST_NS = time.perf_counter_ns()

import functools  # noqa: E402
import importlib  # noqa: E402
import marshal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# (module, attribute path) of every wrapped callable.  Functions are patched
# in every mcflow module namespace that holds them, because cli and systems
# import names with `from .mcframe import ...`.
TARGETS = (
    ("cli", "main"),
    ("cli", "run"),
    ("parser", "parse_system"),
    ("parser", "parse_rational"),
    ("mcframe", "verify_sl2"),
    ("mcframe", "build_frame"),
    ("mcframe", "verify_duality"),
    ("mcframe", "verify_maurer_cartan"),
    ("mcframe", "curl_identities"),
    ("mcframe", "frobenius_residual"),
    ("mcframe", "potential_from_gamma"),
    ("mcframe", "bihamiltonian_verify"),
    ("mcframe", "sigma_residual"),
    ("mcframe", "sigma_residual_factored"),
    ("mcframe", "conformal_transform"),
    ("systems", "builtin"),
    ("systems", "concordance"),
    ("systems", "dh_reduction_check"),
    ("systems", "grading_check"),
    ("numeric", "sample_identity"),
    ("numeric", "rk4_integrate"),
    ("numeric", "conservation_drift"),
    ("calculus", "KForm.d"),
    ("calculus", "KForm.wedge"),
    ("calculus", "KForm.interior"),
    ("algebra", "poly_gcd"),
    ("algebra", "Poly3.__mul__"),
    ("algebra", "Poly3.try_div"),
    ("algebra", "RationalFunction.diff"),
    ("algebra", "RationalFunction.__init__"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr in TARGETS)


class Tracer:
    """Spans kept in memory as parallel lists; span id = list index."""

    def __init__(self):
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self.stack = [-1]
        # algebra counters observed at the same boundaries as the spans
        self.gcd_useful = 0
        self.gcd_max_terms = 0
        self.div_hits = 0

    def wrap(self, index, fn, observe=None):
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_gcd(self, args, result):
        self.gcd_max_terms = max(self.gcd_max_terms, *(p.term_count() for p in args[:2]))
        if not result.is_constant():
            self.gcd_useful += 1

    def _observe_div(self, args, result):
        if result is not None:
            self.div_hits += 1

    def install(self):
        modules = [importlib.import_module(f"mcflow.{m}")
                   for m in ("algebra", "calculus", "parser", "mcframe",
                             "numeric", "systems", "cli")]
        observers = {"algebra.poly_gcd": self._observe_gcd,
                     "algebra.Poly3.try_div": self._observe_div}
        for index, (module_name, attr) in enumerate(TARGETS):
            module = importlib.import_module(f"mcflow.{module_name}")
            wrapper_of = functools.partial(self.wrap, index, observe=observers.get(NAMES[index]))
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, wrapper_of(cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = wrapper_of(original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def dump(self, path, python_start_ns, import_ns):
        record = {
            "python_start_ns": python_start_ns,
            "import_ns": import_ns,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "gcd_useful": self.gcd_useful,
            "gcd_max_terms": self.gcd_max_terms,
            "div_hits": self.div_hits,
        }
        with open(path, "wb") as handle:
            marshal.dump(record, handle)


def load(path):
    with open(path, "rb") as handle:
        return marshal.load(handle)


def self_times(parent, start, end):
    """Per span: duration minus the union of its children's intervals."""
    children = {}
    for sid, pid in enumerate(parent):
        if pid >= 0:
            children.setdefault(pid, []).append(sid)
    result = []
    for sid in range(len(start)):
        lo, hi = start[sid], end[sid]
        covered = 0
        reach = lo
        for child in sorted(children.get(sid, ()), key=start.__getitem__):
            c_lo, c_hi = max(start[child], reach), min(end[child], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        result.append(hi - lo - covered)
    return result


def _child(argv):
    spawn_ns, out = int(argv[0]), argv[1]
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter_ns()
    cli = importlib.import_module("mcflow.cli")
    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install()
    try:
        status = cli.main(argv[2:])
        sys.stdout.flush()
    finally:
        tracer.dump(out, _FIRST_NS - spawn_ns, import_ns)
    return status


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
