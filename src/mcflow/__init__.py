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


class Record:
    """Base of the package's immutable records.

    A subclass lists its fields, in order, as ``__slots__``; ``_defaults``
    holds the values of the last ``len(_defaults)`` fields.  Records are
    built by position or keyword, compare equal only to a record of the same
    class with equal fields, print as ``Name(field=value, ...)`` and raise
    AttributeError on assignment.
    """

    __slots__ = ()
    _defaults = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs):
        names = cls.__slots__
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
        values = dict(zip(names[len(names) - len(cls._defaults):], cls._defaults))
        values.update(zip(names, args), **kwargs)
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{cls.__name__} is missing {', '.join(missing)}")
        return [values[n] for n in names]

    def _key(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses
        return self.__class__, self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
