"""Twisted Euler factors with a_v and v left as formal symbols, and the cube test.

The factor is the recursion of ``lseries.twisted_euler_factor`` over
``SymbolicPoly`` coefficients.
"""

from __future__ import annotations

from .characters import Character
from .cyclotomic import CyclotomicNumber, format_sum
from .groups import ConjClass
from .lseries import _ONE, _determinant

__all__ = ["SymbolicPoly", "symbolic_twisted_euler_factor", "cube_of_quadratic_defect"]

_THIRD = CyclotomicNumber.from_rational(1, 3)


class SymbolicPoly:
    """Polynomial in the formal symbols a and v with cyclotomic coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], CyclotomicNumber]):
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @classmethod
    def scalar(cls, c) -> "SymbolicPoly":
        if not isinstance(c, CyclotomicNumber):
            c = CyclotomicNumber.from_rational(c)
        return cls({(0, 0): c})

    @classmethod
    def var_a(cls) -> "SymbolicPoly":
        return cls({(1, 0): _ONE})

    @classmethod
    def var_v(cls) -> "SymbolicPoly":
        return cls({(0, 1): _ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return SymbolicPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return SymbolicPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], CyclotomicNumber] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                prod = c1 * c2
                out[k] = out[k] + prod if k in out else prod
        return SymbolicPoly(out)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(x) -> "SymbolicPoly":
        if isinstance(x, SymbolicPoly):
            return x
        c = CyclotomicNumber.coerce(x)
        return NotImplemented if c is NotImplemented else SymbolicPoly({(0, 0): c})

    def __str__(self):
        return format_sum((c, (("a", i), ("v", j))) for (i, j), c in sorted(self.terms.items()))

    __repr__ = __str__


def symbolic_twisted_euler_factor(chi: Character, cls: ConjClass) -> list[SymbolicPoly]:
    """The twisted factor with a_v and v left as formal symbols."""
    a, v = SymbolicPoly.var_a(), SymbolicPoly.var_v()
    return _determinant(chi, cls, a, v, SymbolicPoly.scalar(1))


def cube_of_quadratic_defect(poly: list) -> dict:
    """Certificate that a degree-6 T-polynomial with constant 1 is not a cube.

    If poly = Q^3 for a quadratic Q = e + cT + dT^2 over any field extension,
    then e^3 = 1, and the T and T^2 coefficients force c = e c_1 and d = e d_1,
    with c_1 = poly_1 / 3 and d_1 = (poly_2 - 3 c_1^2) / 3.  So Q = e Q_1 for
    Q_1 = 1 + c_1 T + d_1 T^2, and every cube root of unity e gives the same
    cube Q^3 = Q_1^3: comparing Q_1^3 with poly decides the question, at the
    conductor of poly itself.  Its coefficients are compared in order and the
    first mismatch proves the polynomial is not the cube of any quadratic; it
    is reported under each of the three roots, since all three share it.  A
    constant term other than 1 mismatches at index 0.
    Returns {"is_cube": bool, "witness": ...}.
    """
    if len(poly) != 7:
        raise ValueError("expected a degree-6 polynomial")
    c = poly[1] * _THIRD
    quad = (_ONE, c, (poly[2] - 3 * (c * c)) * _THIRD)
    square = []  # Q^2, one coefficient per step: a non-cube stops before it needs d^2
    for i in range(7):
        if i <= 4:
            square.append(sum(quad[a] * quad[i - a] for a in range(max(0, i - 2), min(i, 2) + 1)))
        cube = sum(square[a] * quad[i - a] for a in range(max(0, i - 2), min(i, 4) + 1))
        if not (cube - poly[i]).is_zero():
            mismatch = dict.fromkeys(("1", "zeta3", "zeta3^2"), i)
            return {"is_cube": False, "witness": {"first_mismatch_by_root": mismatch}}
    return {"is_cube": True, "witness": {"e": "1"}}
