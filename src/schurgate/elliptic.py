"""Elliptic curves over Q and exact traces of Frobenius at good odd primes.

Counting is a naive x-sweep against a quadratic-residue table, O(v) per
prime, capped at v <= 10^6: ample for every identity check in this package.
The curve is completed to (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6,
so only the quadratic character of the right-hand side is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import InternalCheckError
from .groups import is_prime

__all__ = ["EllipticCurveQ", "a_v"]

MAX_POINT_COUNT_PRIME = 10 ** 6


@dataclass(frozen=True)
class EllipticCurveQ:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

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

    def __post_init__(self):
        if self.discriminant == 0:
            raise ValueError("singular curve: discriminant is zero")

    def to_json(self) -> list[int]:
        return [self.a1, self.a2, self.a3, self.a4, self.a6]

    def __str__(self):
        return f"[{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}]"


def a_v(E: EllipticCurveQ, v: int) -> int:
    """Trace of Frobenius a_v = v + 1 - #E(F_v) at a good odd prime v <= 10^6."""
    if not is_prime(v):
        raise ValueError(f"{v} is not prime")
    if v > MAX_POINT_COUNT_PRIME:
        raise ValueError(f"prime {v} exceeds the point-counting cap {MAX_POINT_COUNT_PRIME}")
    if v == 2 or E.discriminant % v == 0:
        raise ValueError(f"bad prime {v}")
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
    trace = -total
    if trace * trace > 4 * v:
        raise InternalCheckError(f"Hasse bound violated at v = {v} on the curve {E}")
    return trace


def point_count(E: EllipticCurveQ, v: int) -> int:
    """#E(F_v), including the point at infinity."""
    return v + 1 - a_v(E, v)
