"""Seeded input generator for the mcflow benchmark (standard library only).

    python3 perfbench/gen.py --workload NAME --seed N --out DIR [--root REPO]

writes the workload's `.sys` inputs and a `manifest.json` that lists every
request (its argv after `mcflow`, with `.sys` inputs named relative to DIR)
with the answer it must produce.  The same
seed gives the same bytes.  The generator never imports mcflow: the shipped
`.sys` files are read as text and conjugated by text substitution, and the
known answers come from `expected.json`, which `derive_expected.py`
establishes independently with sympy.

Workloads:
  builtins    the four shipped systems through verify, derive, sample and
              integrate with default arguments; the seed fixes the order.
  conjugated  guillot and dh_symmetric under seeded linear changes of
              coordinates X = A x; every check must still hold.
  candidates  verify --rho R --f F on guillot and dh_symmetric with seeded
              candidates from the committed pool.
"""

from __future__ import annotations

import argparse
import json
import random
import re
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILTINS = ("guillot", "dh_classic", "dh_symmetric", "heisenberg_example")
COMMANDS = ("verify", "derive", "sample", "integrate")
WORKLOADS = ("builtins", "conjugated", "candidates")


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# linear conjugation by text substitution
# ---------------------------------------------------------------------------


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adjugate(m):
    """adj(A), so that A^-1 = adj(A) / det(A)."""
    return [
        [
            m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
            - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]


def _coefficient(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def linear_combination(coeffs, terms) -> str:
    """sum c_k * (t_k) as text, skipping zero coefficients."""
    parts = []
    for c, term in zip(coeffs, terms):
        c = Fraction(c)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        magnitude = abs(c)
        factor = term if term.isidentifier() else f"({term})"
        body = factor if magnitude == 1 else f"{_coefficient(magnitude)}*{factor}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _substitute(expr: str, images: dict[str, str]) -> str:
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, images)) + r")\b")
    return pattern.sub(lambda m: f"({images[m.group(1)]})", expr)


def conjugate_text(source: str, matrix, name: str) -> str:
    """The system pushed forward by X = A x, as `.sys` text.

    Vector fields map to A v(A^-1 X); integrals and the multiplier are
    composed with A^-1, and the multiplier (a density) is divided by det A.
    """
    det = det3(matrix)
    if det == 0:
        raise ValueError("singular matrix")
    adj = adjugate(matrix)
    variables = None
    lines = [f"# {name}: X = A x with A = {matrix}"]
    for raw in source.splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        key, _, value = body.partition(":")
        key, value = key.strip(), value.strip()
        if key == "variables":
            variables = [part.strip() for part in value.split(",")]
            images = {
                var: linear_combination(
                    [Fraction(adj[i][k], det) for k in range(3)], variables
                )
                for i, var in enumerate(variables)
            }
            lines.append(f"variables: {value}")
        elif key == "name":
            lines.append(f"name: {name}")
        elif key in ("v", "u", "w"):
            pulled = [_substitute(c.strip(), images) for c in value.split(";")]
            pushed = [linear_combination(row, pulled) for row in matrix]
            lines.append(f"{key}: " + "; ".join(pushed))
        elif key == "multiplier":
            lines.append(f"multiplier: ({_substitute(value, images)})/({det})")
        elif key.startswith("integral"):
            lines.append(f"{key}: {_substitute(value, images)}")
        else:
            raise ValueError(f"unexpected key {key!r}")
    return "\n".join(lines) + "\n"


def draw_dense(rng: random.Random, y_terms: int, z_terms: int):
    """Integer matrix with entries in [-2, 2] and det != 0, drawn until the
    images of y and z under A^-1 involve y_terms and z_terms coordinates.

    Cost grows steeply with those two counts (1/M of guillot is 2 y^3 z):
    unconditioned draws take 0.3 s to over 20 s, which no run could average.
    """
    while True:
        matrix = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if det3(matrix) == 0:
            continue
        adj = adjugate(matrix)
        if [sum(1 for e in adj[i] if e) for i in (1, 2)] == [y_terms, z_terms]:
            return matrix


def draw_shear(rng: random.Random, row: int, columns=(0, 1, 2)):
    """A unimodular shear X_row = x_row + k x_col, k in {-2, -1, 1, 2}."""
    matrix = [[int(r == c) for c in range(3)] for r in range(3)]
    column = rng.choice([c for c in columns if c != row])
    matrix[row][column] = rng.choice((-2, -1, 1, 2))
    return matrix


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _builtins(rng, root, out, expected):
    requests = [
        {"argv": [command, system], "expect": _builtin_answer(command, system, root, expected)}
        for system in BUILTINS
        for command in COMMANDS
    ]
    rng.shuffle(requests)
    return requests


def _builtin_answer(command, system, root, expected):
    answer = {"exit": 0, "all_hold": command in ("verify", "sample")}
    base = expected["bases"].get(system, {})
    if command == "verify":
        answer.update(base)
    elif command == "derive" and base:
        answer["scale"] = base["scale"]
    elif command == "integrate":
        # the +1 branch: every declared integral except the *_minus ones
        source = _source(root, system)
        answer["drift"] = len(re.findall(r"^integral (?!\S*_minus:)", source, re.MULTILINE))
    return answer


def _source(root: Path, system: str) -> str:
    return (root / "src" / "mcflow" / "data" / f"{system}.sys").read_text(encoding="utf-8")


def _conjugated(rng, root, out, expected):
    requests = []
    for base, draws in CONJUGATED_DRAWS:
        source = _source(root, base)
        for k, draw in enumerate(draws):
            matrix = draw(rng)
            name = f"{base}_conj{k}"
            (out / f"{name}.sys").write_text(conjugate_text(source, matrix, name),
                                             encoding="utf-8")
            answer = {"exit": 0, "all_hold": True, **expected["bases"][base]}
            requests.append({"argv": ["verify", f"{name}.sys"], "expect": answer, "matrix": matrix})
    rng.shuffle(requests)
    return requests


def _candidates(rng, root, out, expected):
    requests = []
    for base, stratum, draws in CANDIDATE_MIX:
        for _ in range(draws):
            entry = rng.choice(expected["candidates"][base][stratum])
            holds = entry["sigma_holds"]
            requests.append(
                {
                    "argv": ["verify", base, f"--rho={entry['rho']}", f"--f={entry['f']}"],
                    "expect": {
                        "exit": 0 if holds else 1,
                        "sigma_holds": holds,
                        "scale": expected["bases"][base]["scale"],
                    },
                }
            )
    rng.shuffle(requests)
    return requests


# Per base system, one draw per input.  Each draw is a cost class whose
# members take about the same time, so every seed runs the same mix, and the
# mix puts the median request well inside the dh_symmetric z-shear class and
# the p90 inside the y-shear class rather than on a boundary between classes.
# Other dense guillot classes spread 0.7-1.9 s within the class; dense
# dh_symmetric conjugates (about 280 s each) and shears of x or of y by z
# (3-10 s) are left out to keep a pass near ten seconds.
CONJUGATED_DRAWS = (
    ("guillot", (lambda rng: draw_dense(rng, 2, 3),) * 2),
    ("dh_symmetric", (lambda rng: draw_shear(rng, 2),) * 3
     + (lambda rng: draw_shear(rng, 1, columns=(0,)),)),
)

# (base, stratum of the committed pool, draws per pass).  The five b_shift
# draws, where the sigma layer does most of the work, hold the median and
# p90 request.
CANDIDATE_MIX = (
    ("guillot", "a_holds", 1),
    ("guillot", "b_linear", 1),
    ("guillot", "c_rational", 1),
    ("dh_symmetric", "b_shift", 5),
)

_GENERATORS = {"builtins": _builtins, "conjugated": _conjugated, "candidates": _candidates}


def generate(workload: str, seed: int, out: Path, root: Path) -> list[dict]:
    """Write the workload's inputs under `out` and return its request list."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    requests = _GENERATORS[workload](rng, root, out, load_expected())
    for index, request in enumerate(requests):
        request["id"] = index
    manifest = {"workload": workload, "seed": seed, "requests": requests}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return requests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="repository checkout holding src/mcflow/data")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.root)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
