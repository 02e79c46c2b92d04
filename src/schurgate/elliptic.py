"""Elliptic curves over Q and exact traces of Frobenius at good odd primes.

Up to NAIVE_COUNT_MAX the count is a naive x-sweep against a
quadratic-residue table, O(v) per prime: the curve is completed to
(2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6, so only the quadratic
character of the right-hand side is needed.  Above it, Shanks-Mestre
baby-step giant-step finds the group order in the Hasse interval from
points of E and of its quadratic twist, O(v^(1/4)) group operations
(Cohen, GTM 138, 7.4.3; Mestre's argument needs v > 229).  Measured, the
two counts cross near v = 100, so the naive one stops where Mestre's
argument starts.  Primes are capped at v <= 10^6.

An Euler factor is a polynomial in T with cyclotomic coefficients; the
curve's own factor at v is 1 - a_v T + v T^2 (``untwisted_factor``), and
the twisted ones are built in ``lseries``.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .cyclotomic import CyclotomicNumber
from .groups import InternalCheckError, is_prime

__all__ = ["EllipticCurveQ", "EulerFactor", "a_v", "untwisted_factor"]

MAX_POINT_COUNT_PRIME = 10 ** 6
# largest v counted naively: Shanks-Mestre needs v > 229 (Mestre)
NAIVE_COUNT_MAX = 229
# points tried before a non-unique order in the Hasse interval is an error
MAX_ORDER_POINTS = 40


class _Weierstrass(NamedTuple):
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int


class EllipticCurveQ(_Weierstrass):
    # a NamedTuple body may not define __new__, so the singular check lives here
    __slots__ = ()

    def __new__(cls, a1: int, a2: int, a3: int, a4: int, a6: int) -> "EllipticCurveQ":
        self = super().__new__(cls, a1, a2, a3, a4, a6)
        if self.discriminant == 0:
            raise ValueError("singular curve: discriminant is zero")
        return self

    @classmethod
    def from_list(cls, coeffs) -> "EllipticCurveQ":
        vals = [int(c) for c in coeffs]
        if len(vals) != 5:
            raise ValueError("curve spec needs exactly [a1, a2, a3, a4, a6]")
        return cls(*vals)

    @property
    def b_invariants(self) -> tuple[int, int, int, int]:
        b2 = self.a1 ** 2 + 4 * self.a2
        b4 = 2 * self.a4 + self.a1 * self.a3
        b6 = self.a3 ** 2 + 4 * self.a6
        b8 = (
            self.a1 ** 2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3 ** 2
            - self.a4 ** 2
        )
        return b2, b4, b6, b8

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants
        return -(b2 ** 2) * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6

    def to_json(self) -> list[int]:
        return [self.a1, self.a2, self.a3, self.a4, self.a6]

    def __str__(self):
        return f"[{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}]"


def a_v(E: EllipticCurveQ, v: int) -> int:
    """Trace of Frobenius a_v = v + 1 - #E(F_v) at a good odd prime v <= 10^6."""
    if v > MAX_POINT_COUNT_PRIME:  # before the primality test: any v above the cap gets this message
        raise ValueError(f"v = {v} exceeds the point-counting cap {MAX_POINT_COUNT_PRIME}")
    if not is_prime(v):
        raise ValueError(f"{v} is not prime")
    if v == 2 or E.discriminant % v == 0:
        raise ValueError(f"bad prime {v}")
    trace = _naive_trace(E, v) if v <= NAIVE_COUNT_MAX else _shanks_mestre_trace(E, v)
    if trace * trace > 4 * v:
        raise InternalCheckError(f"Hasse bound violated at v = {v} on the curve {E}")
    return trace


def _naive_trace(E: EllipticCurveQ, v: int) -> int:
    b2, b4, b6, _ = E.b_invariants
    is_sq = bytearray(v)
    for y in range(v):
        is_sq[y * y % v] = 1
    total = 0
    b2 %= v
    b4_2 = 2 * b4 % v
    b6 %= v
    for x in range(v):
        rhs = ((4 * x + b2) * x + b4_2) * x + b6
        rhs %= v
        if rhs == 0:
            continue
        total += 1 if is_sq[rhs] else -1
    return -total


# -- Shanks-Mestre ------------------------------------------------------------
# Points are affine pairs (x, y) on y^2 = x^3 + A x + B over F_v, None is O.

def _ec_add(P, Q, A, v):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % v == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, v) % v
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, v) % v
    x3 = (lam * lam - x1 - x2) % v
    return x3, (lam * (x1 - x3) - y1) % v


def _ec_mul(k: int, P, A, v):
    R = None
    for bit in bin(k)[2:]:
        R = _ec_add(R, R, A, v)
        if bit == "1":
            R = _ec_add(R, P, A, v)
    return R


def _orders_in_interval(P, A, v, lo, hi) -> set[int]:
    """Every N in [lo, hi] with [N]P = O, by baby steps jP (j <= m) and giant
    steps of 2m + 1 around the block centres lo + m + i (2m + 1)."""
    m = isqrt((hi - lo) // 2) + 1
    baby = {}
    R = None
    for j in range(1, 2 * m + 2):
        R = _ec_add(R, P, A, v)
        if R is None or (j <= m and R[0] in baby):
            while R is not None:  # jP = -j'P: the order is at most 2m
                R = _ec_add(R, P, A, v)
                j += 1
            return set(range(-(-lo // j) * j, hi + 1, j))
        if j <= m:
            baby[R[0]] = (j, R[1])
    step = R  # (2m + 1) P
    centre = lo + m
    R = _ec_mul(centre, P, A, v)
    found = set()
    while centre - m <= hi:
        if R is None:
            found.add(centre)
        elif R[0] in baby:
            j, y = baby[R[0]]
            found.add(centre - j if y == R[1] else centre + j)
        R = _ec_add(R, step, A, v)
        centre += 2 * m + 1
    return {N for N in found if lo <= N <= hi}


def _shanks_mestre_trace(E: EllipticCurveQ, v: int) -> int:
    """a_v for v > 229 from points of the short model of E and of its twist.

    Over F_v, E is y^2 = f(x) = x^3 + A x + B with A = -27 c4, B = -54 c6.
    For d = f(x) != 0 the point (d x, d^2) lies on y^2 = x^3 + A d^2 x + B d^3,
    which is E when d is a square and its quadratic twist E' (of order
    2v + 2 - #E) when not, so no square root is taken (Cohen, GTM 138,
    Algorithm 7.4.12).  Points come by increasing x until one order in the
    Hasse interval is left.
    """
    b2, b4, b6, _ = E.b_invariants
    A = -27 * (b2 * b2 - 24 * b4) % v
    B = -54 * (-(b2 ** 3) + 36 * b2 * b4 - 216 * b6) % v
    half = (v - 1) // 2
    width = isqrt(4 * v)
    lo, hi = v + 1 - width, v + 1 + width
    orders = None
    points = 0
    for x in range(v):
        d = ((x * x + A) * x + B) % v
        if not d:
            continue
        found = _orders_in_interval((d * x % v, d * d % v), A * d * d % v, v, lo, hi)
        if pow(d, half, v) != 1:
            found = {2 * v + 2 - N for N in found}
        orders = found if orders is None else orders & found
        if len(orders) == 1:
            return v + 1 - orders.pop()
        points += 1
        if not orders or points == MAX_ORDER_POINTS:
            break
    raise InternalCheckError(
        f"no unique group order in the Hasse interval at v = {v} on the curve {E}"
    )


# -- Euler factors ------------------------------------------------------------

class EulerFactor(NamedTuple):
    v: int
    poly: tuple[CyclotomicNumber, ...]  # ascending in T, constant term 1

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    def to_json(self) -> dict:
        return {"v": self.v, "poly": [c.to_json() for c in self.poly]}

    def __str__(self):
        return _tpoly_str(self.poly)


def _tpoly_str(poly) -> str:
    parts = []
    for i, c in enumerate(poly):
        if hasattr(c, "is_zero") and c.is_zero():
            continue
        cs = str(c)
        mono = "" if i == 0 else ("T" if i == 1 else f"T^{i}")
        if mono and cs == "1":
            parts.append(mono)
        elif mono and cs == "-1":
            parts.append(f"-{mono}")
        elif mono:
            wrapped = f"({cs})" if ("+" in cs or " - " in cs) else cs
            parts.append(f"{wrapped}*{mono}")
        else:
            parts.append(cs)
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def untwisted_factor(av: int, v: int) -> EulerFactor:
    return EulerFactor(v, tuple(CyclotomicNumber.from_rational(c) for c in (1, -av, v)))
