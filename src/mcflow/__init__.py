"""Exact verifier for 3D flows carried by an sl(2) frame.

The package computes the Jacobi last multiplier, the dual one-form frame
and the vector potential of a 3D dynamical system with given companion
fields, and checks every structural identity (brackets, structure
equations, duality, curl and divergence identities, integrability,
conformal invariance, bi-Hamiltonian decomposition) as an exact zero
residual, cross-validated by a floating-point oracle.
"""

from __future__ import annotations

__version__ = "0.1.0"

# the oracle samples the (1/GRID_DENOMINATOR)-grid of the box; the cli
# checks that a --box holds a point of it without loading the oracle
GRID_DENOMINATOR = 8


class Record:
    """Base of the package's records.

    A subclass lists its fields, in order, as ``__slots__``.  A record is
    built with one value per field, by position, and prints as
    ``Name(field=value, ...)``.  No code assigns a field after
    construction; a test of the package's source keeps it so, in place of
    a runtime freeze.
    """

    __slots__ = ()

    def __init__(self, *args):
        names = self.__slots__
        if len(args) != len(names):
            raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            setattr(self, name, value)

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"
