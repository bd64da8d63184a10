"""Establish the benchmark's known answers with sympy, independently of mcflow.

    python3 perfbench/derive_expected.py    # rewrites perfbench/expected.json

For guillot and dh_symmetric this computes, from the shipped (v, u, w)
alone, the last multiplier M = 1/((v x u).w), the one-forms
alpha = M (w x v), beta = M (u x w), gamma = M (v x u), the scale s in
curl(gamma) = s M v and, where two integrals are declared, the constant c
in dH2 ^ dH1 = c M iota_v(dx^dy^dz).  For every candidate (rho, f) in the
pool below it decides whether sigma ^ d(sigma) vanishes identically, for
sigma = alpha - d(log rho)/2 + f gamma, by expanding sigma . curl(sigma)
and cancelling.  sympy is needed only here; the benchmark itself reads the
committed expected.json.
"""

from __future__ import annotations

import json
from pathlib import Path

import sympy as sp

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "mcflow" / "data"
X, Y, Z = sp.symbols("x y z")
CHART = (X, Y, Z)

# Candidate pool: per base system, strata of (rho, f) pairs of like shape and
# cost.  The generator draws a fixed number of pairs per stratum, so every
# seed runs the same mix.  With U = u(log rho) = 2 and f of u-weight -2 (or
# f = 0) sigma is integrable, so a_holds holds; the other strata fail and
# exercise the printing of nonzero residuals.  Non-homogeneous rho on
# dh_symmetric, such as x + y + z, takes minutes and is left out.
POOL = {
    "guillot": {
        "a_holds": [(rho, f) for rho in ("x", "2*x", "y^2", "x*y*z")
                    for f in ("0", "1/x", "z^2", "z/y")],
        "b_linear": [(rho, f) for rho in ("x + 1", "x - 1", "y + 1", "y + 2")
                     for f in ("x", "y", "z")],
        "c_rational": [(rho, f) for rho in ("x*z + y^2", "x*z - y^2", "x*y + z^2")
                       for f in ("y/(x + z)", "x/(y + z)", "z/(x + y)")],
    },
    "dh_symmetric": {
        "b_shift": [(rho, "y") for rho in ("x + 1", "x - 2", "x + 3", "2*x + 1",
                                           "x - 1", "3*x + 2")],
    },
}


def _parse(text: str):
    return sp.sympify(text.replace("^", "**"), locals={"x": X, "y": Y, "z": Z})


def read_system(name: str) -> dict:
    fields = {}
    integrals = []
    for raw in (DATA / f"{name}.sys").read_text(encoding="utf-8").splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        key, _, value = body.partition(":")
        key, value = key.strip(), value.strip()
        if key in ("v", "u", "w"):
            fields[key] = sp.Matrix([_parse(c) for c in value.split(";")])
        elif key.startswith("integral"):
            integrals.append((key[len("integral"):].strip(), _parse(value)))
    fields["integrals"] = integrals
    return fields


def grad(f):
    return sp.Matrix([sp.diff(f, var) for var in CHART])


def curl(a):
    return sp.Matrix(
        [
            sp.diff(a[2], Y) - sp.diff(a[1], Z),
            sp.diff(a[0], Z) - sp.diff(a[2], X),
            sp.diff(a[1], X) - sp.diff(a[0], Y),
        ]
    )


def constant_ratio(num, den):
    ratios = {sp.cancel(n / d) for n, d in zip(num, den) if sp.cancel(d) != 0}
    if len(ratios) != 1:
        raise ValueError(f"not a single ratio: {ratios}")
    (ratio,) = ratios
    if not ratio.is_Rational:
        raise ValueError(f"ratio {ratio} is not constant")
    return ratio


def frame(system):
    v, u, w = system["v"], system["u"], system["w"]
    multiplier = sp.cancel(1 / v.cross(u).dot(w))
    alpha = (w.cross(v) * multiplier).applyfunc(sp.cancel)
    beta = (u.cross(w) * multiplier).applyfunc(sp.cancel)
    gamma = (v.cross(u) * multiplier).applyfunc(sp.cancel)
    return multiplier, alpha, beta, gamma


def base_answers(name: str) -> dict:
    system = read_system(name)
    multiplier, _, _, gamma = frame(system)
    target = system["v"] * multiplier
    answer = {"scale": str(constant_ratio(curl(gamma), target))}
    plus = [h for label, h in system["integrals"] if not label.endswith("_minus")]
    if len(plus) >= 2:
        h1, h2 = plus[0], plus[1]
        answer["c"] = str(constant_ratio(grad(h2).cross(grad(h1)), target))
    return answer


def sigma_holds(name: str, rho: str, f: str) -> bool:
    system = read_system(name)
    _, alpha, _, gamma = frame(system)
    rho_e, f_e = _parse(rho), _parse(f)
    sigma = alpha - grad(rho_e) / (2 * rho_e) + gamma * f_e
    return sp.cancel(sp.together(sigma.dot(curl(sigma)))) == 0


def derive() -> dict:
    bases = {name: base_answers(name) for name in ("guillot", "dh_symmetric")}
    candidates = {
        name: {
            stratum: [
                {"rho": rho, "f": f, "sigma_holds": sigma_holds(name, rho, f)}
                for rho, f in pairs
            ]
            for stratum, pairs in strata.items()
        }
        for name, strata in POOL.items()
    }
    return {"bases": bases, "candidates": candidates}


if __name__ == "__main__":
    text = json.dumps(derive(), indent=1, sort_keys=True) + "\n"
    (HERE / "expected.json").write_text(text, encoding="utf-8")
