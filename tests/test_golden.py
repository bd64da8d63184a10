"""Text reports compared byte for byte with the reports kept in tests/golden/.

Each golden file holds the stdout of `mcflow ARGV` as the CLI prints it.  A
rational function has one canonical form, so a change to how a residual or a
form is computed must leave these reports exactly as they are.
"""

from pathlib import Path

import pytest

from mcflow.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (golden report, argv, exit code)
CASES = [
    ("verify_guillot", ["verify", "guillot"], 0),
    ("verify_dh_classic", ["verify", "dh_classic"], 0),
    ("verify_dh_symmetric", ["verify", "dh_symmetric"], 0),
    ("verify_heisenberg_example", ["verify", "heisenberg_example"], 0),
    ("derive_guillot", ["derive", "guillot"], 0),
    ("verify_guillot_sigma_holds", ["verify", "guillot", "--rho=x*y*z", "--f=z/y"], 0),
    ("verify_guillot_sigma_fails", ["verify", "guillot", "--rho=x + 1", "--f=y"], 1),
    ("verify_dh_symmetric_sigma_fails",
     ["verify", "dh_symmetric", "--rho=x + 1", "--f=y"], 1),
    # sigma = rho dx + f dy over the unrelated denominators 1 and x + z
    ("verify_guillot_sigma_unequal",
     ["verify", "guillot", "--rho=x*z - y^2", "--f=y/(x + z)"], 1),
    # guillot under X = A x, A = [[1, -2, -1], [1, -1, -2], [1, 2, -1]]
    ("verify_guillot_conj0", ["verify", str(GOLDEN / "guillot_conj0.sys")], 0),
    ("derive_json_guillot_conj0",
     ["derive", "--json", str(GOLDEN / "guillot_conj0.sys")], 0),
    # dh_symmetric under X = A x, A = [[1, 0, 0], [0, 1, 0], [0, 2, 1]]; the
    # field has the coefficient 1/2
    ("verify_dh_symmetric_conj0", ["verify", str(GOLDEN / "dh_symmetric_conj0.sys")], 0),
    # guillot_conj0 pushed forward by the unit-Jacobian map
    # (x, y, z) -> (x, y + x^2, z + x*y); its multiplier has a 55-term denominator
    ("verify_guillot_conj0_tri2", ["verify", str(GOLDEN / "guillot_conj0_tri2.sys")], 0),
    # guillot's v with the sign of u's z component flipped: [v,w] - u fails
    ("verify_broken", ["verify", str(GOLDEN / "broken.sys")], 1),
    ("derive_broken", ["derive", str(GOLDEN / "broken.sys")], 1),
    # no companion fields: one declared integral and a declared multiplier
    ("verify_partial", ["verify", str(GOLDEN / "partial.sys")], 0),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_report_matches_golden(name, argv, code, capsys):
    status = main(argv)
    out = capsys.readouterr().out
    assert status == code
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
