"""mcflow benchmark: time to verdict, one `mcflow` process per request.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The generator (gen.py) writes the
workload's inputs from the seed; the client then runs the workload's fixed
request list as passes in a closed loop with one client, each request a
fresh `python3 -m mcflow.cli ARGV` process started only after the previous
one exited, until S seconds are used.  Every verdict is checked against the
known answer in the manifest.

The process is pinned to one CPU, and every reported time is scaled to a
reference CPU speed by SpeedProbe, which times an empty interpreter start and
a fixed stdlib loop after each measured interval: on a shared machine the CPU
speed drifts by tens of percent between minutes.  Raw request times are kept in the results file.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
passes with passes whose requests run under spans.py and reports the
per-layer metrics.  The last line of stdout is one JSON object; the lines
before it repeat every figure with its unit.  Per-request exit codes and
sha256 digests of stdout go to .perfbench_work/results/, and with --trace 1
so do the spans of every traced request (marshal; see spans.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

REQUEST_TIMEOUT_S = 120
REFERENCE_S = 0.090
# a fixed hash seed keeps set iteration, and so the traced call counts, the
# same from run to run
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
SETUP_REPEATS = 15
DRIFT_LIMIT = 1e-8

_ROW = re.compile(r"^(PASS|FAIL|N/A)\s+(\S+)")
_ORACLE = re.compile(r"^oracle (\S+)\s+(pass|fail|inconclusive) ")
_SCALE = re.compile(r"scale s = (\S+)$")
_CONSTANT = re.compile(r"^\S+\s+bihamiltonian\.decomposition\S*\s.*, c = (\S+)$")
_DRIFT = re.compile(r"^drift (\S+): (\S+)$")


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def judge(stdout: str, code: int, expect: dict) -> list[str]:
    """Every way the report differs from the known answer (empty if none)."""
    problems = []
    if code != expect["exit"]:
        problems.append(f"exit {code}, expected {expect['exit']}")
    lines = stdout.splitlines()
    rows = {m.group(2): m.group(1) for m in map(_ROW.match, lines) if m}
    oracle = {m.group(1): m.group(2) for m in map(_ORACLE.match, lines) if m}
    if expect.get("all_hold"):
        if not rows or any(status != "PASS" for status in rows.values()):
            problems.append("a check does not hold")
        if not oracle or any(v != "pass" for v in oracle.values()):
            problems.append("an oracle sample does not pass")
    if "sigma_holds" in expect:
        want = "PASS" if expect["sigma_holds"] else "FAIL"
        if rows.get("sigma.integrability") != want:
            problems.append(f"sigma.integrability is not {want}")
        conformal = [name for name in rows if name.startswith("conformal.")]
        others = [name for name in rows if name != "sigma.integrability"]
        if not conformal or any(rows[name] != "PASS" for name in others):
            problems.append("a conformal, factored or structural check does not hold")
        if oracle.get("sigma.integrability") != ("pass" if expect["sigma_holds"] else "fail"):
            problems.append("oracle disagrees on sigma.integrability")
        if any(v != "pass" for name, v in oracle.items() if name != "sigma.integrability"):
            problems.append("an oracle sample does not pass")
    if "scale" in expect:
        scales = [m.group(1) for m in map(_SCALE.search, lines) if m]
        if scales != [expect["scale"]]:
            problems.append(f"scale {scales}, expected {expect['scale']}")
    if "c" in expect:
        constants = [m.group(1) for m in map(_CONSTANT.match, lines) if m]
        if not constants or any(c != expect["c"] for c in constants):
            problems.append(f"c {constants}, expected {expect['c']}")
    if expect.get("drift"):
        drifts = [m for m in map(_DRIFT.match, lines) if m]
        if len(drifts) != expect["drift"] or any(
                not float(m.group(2)) < DRIFT_LIMIT for m in drifts):
            problems.append("declared integrals drift or are missing")
    return problems


# ---------------------------------------------------------------------------
# speed probe
# ---------------------------------------------------------------------------


def reference_s() -> float:
    """Time to start an empty interpreter plus the best of three timings of a
    fixed stdlib loop: the two halves of a request, independent of mcflow."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    spawn = time.perf_counter() - start
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 4000):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            table[i % 97] = (acc.numerator % 1000, str(i))
        best = min(best, time.perf_counter() - start)
    return spawn + best


class SpeedProbe:
    """Scales measured times to the CPU speed at which reference_s() is REFERENCE_S.

    A shared machine's CPU speed drifts by tens of percent over seconds to
    minutes, far more than one run can average out.  The probe runs on the
    same CPU right after every measured interval, and the interval is scaled
    by REFERENCE_S over the mean of the probes on either side of it.
    """

    def __init__(self):
        self.last = reference_s()

    def scale(self, seconds: float) -> float:
        after = reference_s()
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return seconds * factor


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


class Client:
    """Closed loop, one client: the next process starts after this one exits."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.probe = SpeedProbe()
        self.records = {}
        self.times_ms = []
        self.raw_ms = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.traces = []

    def request(self, request: dict, traced: bool) -> float:
        """Run one request; its time from process start to exit, scaled (s)."""
        spans_out = self.workdir / f"spans-{len(self.traces)}.bin"
        if traced:
            prefix = [sys.executable, str(HERE / "spans.py")]
        else:
            prefix = [sys.executable, "-m", "mcflow.cli"]
        self.attempted += 1
        start = time.perf_counter_ns()
        argv = prefix + ([str(start), str(spans_out)] if traced else []) + request["argv"]
        try:
            done = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                                  timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failed += 1
            self._note(request, None, b"", ["timeout"])
            return self.probe.scale(REQUEST_TIMEOUT_S)
        raw_ms = (time.perf_counter_ns() - start) / 1e6
        elapsed_ms = self.probe.scale(raw_ms)
        code = done.returncode
        if b"Traceback" in done.stderr or code not in (0, 1, 2, 3):
            self.failed += 1
            self._note(request, code, done.stdout, ["crash"])
            return elapsed_ms / 1e3
        problems = judge(done.stdout.decode("utf-8", "replace"), code, request["expect"])
        if problems:
            self.wrong += 1
        entry = self._note(request, code, done.stdout, problems)
        if traced:
            record = spans.load(spans_out)
            spans_out.unlink()
            record["request"] = request["id"]
            self.traces.append(record)
        else:
            self.times_ms.append(elapsed_ms)
            self.raw_ms.append(raw_ms)
            entry["ms"].append(round(elapsed_ms, 3))
            entry["raw_ms"].append(round(raw_ms, 3))
        return elapsed_ms / 1e3

    def _note(self, request, code, stdout, problems):
        digest = hashlib.sha256(stdout).hexdigest()
        entry = self.records.setdefault(request["id"], {
            "argv": request["argv"], "exit": code, "stdout_sha256": digest,
            "same_output_every_time": True, "problems": [], "ms": [], "raw_ms": []})
        if (code, digest) != (entry["exit"], entry["stdout_sha256"]):
            entry["same_output_every_time"] = False
        entry["problems"] = sorted(set(entry["problems"]) | set(problems))
        return entry

    def run_pass(self, requests, traced=False) -> float:
        """Scaled time to finish the list, one request after another (s)."""
        return sum(self.request(request, traced) for request in requests)


def setup(workload: str, seed: int, workdir: Path, probe: SpeedProbe):
    """Generate the inputs SETUP_REPEATS times; median scaled time and the requests."""
    durations = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"inputs-{k}"
        start = time.perf_counter()
        requests = gen.generate(workload, seed, target, ROOT)
        durations.append(probe.scale(time.perf_counter() - start))
        if k:
            shutil.rmtree(workdir / f"inputs-{k - 1}")
    for request in requests:
        request["argv"] = [str(target / a) if a.endswith(".sys") else a for a in request["argv"]]
    return statistics.median(durations), requests


def _keep_going(started: float, seconds: float, rounds: int) -> bool:
    """Start another round only if it ends at most half a round after the budget."""
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / rounds < seconds


# ---------------------------------------------------------------------------
# per-layer aggregation
# ---------------------------------------------------------------------------


_MCFRAME = ("verify_sl2", "build_frame", "verify_duality", "verify_maurer_cartan",
            "curl_identities", "frobenius_residual", "potential_from_gamma",
            "bihamiltonian_verify", "sigma_residual", "sigma_residual_factored",
            "conformal_transform")
LAYER_FIELDS = (
    ("parser", ("parse_system", "parse_rational"), ("calls", "self_ms")),
    ("mcframe", _MCFRAME, ("calls", "total_ms", "self_ms")),
    ("systems", ("builtin", "concordance", "dh_reduction_check", "grading_check"),
     ("calls", "total_ms")),
    ("numeric", ("sample_identity", "rk4_integrate", "conservation_drift"),
     ("calls", "total_ms")),
    ("calculus", ("KForm.d", "KForm.wedge", "KForm.interior"), ("calls", "self_ms")),
    ("algebra", ("poly_gcd", "Poly3.__mul__", "Poly3.try_div", "RationalFunction.diff",
                 "RationalFunction.__init__"), ("calls", "self_ms")),
)


def layer_metrics(traces: list[dict]) -> dict[str, tuple[float, str]]:
    """Totals over one pass's requests; cli timings are per-request medians."""
    calls = [0] * len(spans.NAMES)
    total_ns = [0] * len(spans.NAMES)
    self_ns = [0] * len(spans.NAMES)
    per_request = {"cli.python_start_ms": [], "cli.import_ms": [],
                   "cli.render_ms": [], "cli.run.self_ms": []}
    gcd_useful = gcd_max_terms = div_hits = 0
    main_ix, run_ix = spans.NAMES.index("cli.main"), spans.NAMES.index("cli.run")
    for trace in traces:
        own = spans.self_times(trace["parent"], trace["start"], trace["end"])
        duration = {}
        for sid, index in enumerate(trace["name"]):
            span_ns = trace["end"][sid] - trace["start"][sid]
            calls[index] += 1
            total_ns[index] += span_ns
            self_ns[index] += own[sid]
            if index in (main_ix, run_ix):
                duration[index] = (span_ns, own[sid])
        per_request["cli.python_start_ms"].append(trace["python_start_ns"] / 1e6)
        per_request["cli.import_ms"].append(trace["import_ns"] / 1e6)
        per_request["cli.render_ms"].append((duration[main_ix][0] - duration[run_ix][0]) / 1e6)
        per_request["cli.run.self_ms"].append(duration[run_ix][1] / 1e6)
        gcd_useful += trace["gcd_useful"]
        gcd_max_terms = max(gcd_max_terms, trace["gcd_max_terms"])
        div_hits += trace["div_hits"]

    def at(name):
        return spans.NAMES.index(name)

    metrics = {name: (statistics.median(values), "ms") for name, values in per_request.items()}
    for module, attrs, fields in LAYER_FIELDS:
        for attr in attrs:
            ix = at(f"{module}.{attr}")
            values = {"calls": (calls[ix], "count"), "total_ms": (total_ns[ix] / 1e6, "ms"),
                      "self_ms": (self_ns[ix] / 1e6, "ms")}
            for field in fields:
                metrics[f"{module}.{attr}.{field}"] = values[field]
    gcd_calls, div_calls = calls[at("algebra.poly_gcd")], calls[at("algebra.Poly3.try_div")]
    metrics["algebra.poly_gcd.max_input_terms"] = (gcd_max_terms, "count")
    metrics["algebra.poly_gcd.useful_ratio"] = (gcd_useful / gcd_calls if gcd_calls else 0.0, "ratio")
    metrics["algebra.Poly3.try_div.hit_ratio"] = (div_hits / div_calls if div_calls else 0.0, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    setup_s, requests = setup(workload, seed, workdir, SpeedProbe())
    # compile the package's bytecode once, outside every measured figure
    subprocess.run([sys.executable, "-m", "mcflow.cli", "derive", "heisenberg_example"],
                   cwd=ROOT, env=CHILD_ENV, capture_output=True, timeout=REQUEST_TIMEOUT_S)
    client = Client(workdir)
    started = time.perf_counter()
    plain, traced = [], []
    while not plain or _keep_going(started, seconds, len(plain)):
        plain.append(client.run_pass(requests))
        if trace:
            traced.append(client.run_pass(requests, traced=True))
    if trace:
        metrics = layer_metrics(client.traces[:len(requests)])
        metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                           "ratio")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(plain), "s"),
            "verdict_ms.p50": (statistics.median(client.times_ms), "ms"),
            "verdict_ms.p90": (statistics.quantiles(client.times_ms, n=10)[-1], "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "requests_per_pass": len(requests), "passes": len(plain),
        "verdict_samples": len(client.times_ms),
        "raw_verdict_ms.p50": statistics.median(client.raw_ms) if client.raw_ms else None,
    }
    return client, metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mcflow" / "cli.py").is_file():
        print(f"no mcflow sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # the speed probe must share the CPU that runs the requests
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    base = ROOT / ".perfbench_work"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client, metrics, summary = measure(args.workload, args.seed, args.seconds,
                                           bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(results / f"{name}-spans.bin", "wb") as handle:
            marshal.dump(client.traces, handle)
    (results / f"{name}.json").write_text(json.dumps(
        {"summary": summary, "wrong_verdicts": client.wrong, "failed": client.failed,
         "attempted": client.attempted, "metrics": metrics,
         "requests": [client.records[k] for k in sorted(client.records)]},
        indent=1) + "\n", encoding="utf-8")

    # wrong_verdicts and failed_ratio are 0 when all is well, so they reach the
    # JSON line as "correct" and "failed" rather than as metrics
    for key, value in summary.items():
        print(f"# {key} = {value}")
    print(f"wrong_verdicts = {client.wrong} count")
    print(f"failed_ratio = {client.failed / client.attempted:.6g} ratio")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": client.wrong == 0 and client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
