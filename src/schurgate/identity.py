"""The tower identity, on characters and on L-series.

On characters, reg + perm(K_{n-1}) - perm(K_n) - perm(F_{n-1}) is the tower
coefficient times the sum of the faithful irreducibles.  Both sides are
``Character``s read in closed form and compared at one class per type, at
most 2(n + 1), so the identity reads no table.  On L-series the same product
comes from two trace sources: the faithful sum twists the recursion of
``lseries``, and a prime of residue degree f over v adds f (alpha^s + beta^s)
to tr_s whenever f | s, with degrees from factorization patterns and the
compositum splitting formula, no character theory, and integers throughout.
Only the ``identity`` command loads this module; ``characters`` and
``lseries`` forward its exported names on first use (PEP 562).
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from . import characters
from .characters import _ZERO, Character
from .cyclotomic import CyclotomicNumber
from .groups import (
    ConjClass, GroupElement, InternalCheckError, MetacyclicParams, faithful_count, tower_coefficient, tower_subgroups,
)
from .lseries import _ONE, _assemble, _local_data, _newton, _power_sums, _resolve_local_factor

if TYPE_CHECKING:
    from .elliptic import EllipticCurveQ
    from .frobenius import FrobeniusDatum

__all__ = ["QuotientIdentity", "quotient_identity_virtual_character", "IdentityCheck", "identity_series_check",
           "tower_residue_degrees"]


# ---------------------------------------------------------------------------
# the identity on characters

def _ramanujan_sum(pk: int, p: int, m: int) -> int:
    """c_{p^k}(m), the sum of zeta_{p^k}^{w m} over the units w mod pk = p^k (c_1 = 1).

    It is p^k - p^{k-1} when p^k | m, -p^{k-1} when p^{k-1} | m but p^k does
    not, and 0 otherwise; for a prime q, c_q(x) is q - 1 at x = 0 and -1 elsewhere.
    """
    if m % pk == 0:
        return pk - pk // p if pk > 1 else 1
    return -(pk // p) if m % (pk // p) == 0 else 0


def _faithful_sum(G: MetacyclicParams, coefficient: int) -> Character:
    """coefficient times the sum of the faithful irreducibles, as a product of Ramanujan sums.

    The faithful characters are induced from psi = (u, w), u over the minimal
    H-orbit representatives of the units mod q and w over the units mod
    p^{n-r} (w = 0 when n = r).  Each vanishes off X, that is at (x, y) with
    p^r not dividing y, and at (x, y) in X equals
    sum_{h in H} zeta_q^{u h x} * zeta_{p^{n-r}}^{w y / p^r}.  As u runs over
    the representatives and h over H, u h runs over every unit mod q once,
    and w runs over every unit mod p^{n-r}, so the sum is the product
    c_q(x) * c_{p^{n-r}}(y / p^r) of two Ramanujan sums (Hardy and Wright,
    An Introduction to the Theory of Numbers, 16.6).  It is a rational integer.
    """
    q, p, pr, pmr = G.q, G.p, G.pr, G.pn // G.pr

    def at(c: ConjClass) -> CyclotomicNumber:
        x, y = c.rep
        if y % pr:
            return _ZERO
        return CyclotomicNumber.from_rational(
            coefficient * _ramanujan_sum(q, q, x) * _ramanujan_sum(pmr, p, y // pr)
        )
    return Character(G, ("faithful_sum", coefficient), at)


class QuotientIdentity(NamedTuple):
    """Both sides of the tower permutation-character identity, each a character in closed form.

    lhs = reg + perm(K_{n-1}) - perm(K_n) - perm(F_{n-1}), where reg = perm(F_n)
    is the regular character, decomposes as ``coefficient`` times the sum of
    all faithful irreducibles, the rhs.  The coefficient is p^r for n > r; in
    the degenerate tower base n = r it drops to p^r - p^{r-1}, because
    perm(F_{n-1}) already contains each faithful character p^{r-1} times.
    """

    group: MetacyclicParams
    lhs: Character
    rhs: Character
    equal: bool
    coefficient: int
    faithful_count: int

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "equal": self.equal,
            "coefficient": self.coefficient,
            "faithful_count": self.faithful_count,
            "total_dimension": str(self.lhs.degree),
        }


def quotient_identity_virtual_character(G: MetacyclicParams) -> QuotientIdentity:
    """The tower identity, its two sides compared at one class of each type they tell apart.

    The lhs adds the four permutation characters at a class (reg is perm(F_n));
    the rhs is ``_faithful_sum``.  Both depend on the class of (x, y) only
    through whether x = 0 and through v_p(y): the permutation characters by
    the ``characters.permutation_character`` docstring, the rhs by its
    Ramanujan sums.  So they agree everywhere iff they agree at (0, p^k) for
    k = 0..n, and at (1, p^k) when p^r | p^k (x != 0 is its own class only on
    X): at most 2(n + 1) classes, whatever the class count.  The permutation
    characters are read through ``characters``, where bench/tracer.py wraps them.
    """
    towers = {s.label: s for s in tower_subgroups(G)}
    n = G.n
    reg, k_below, k_top, f_below = (
        characters.permutation_character(G, towers[label]) for label in (f"F{n}", f"K{n - 1}", f"K{n}", f"F{n - 1}")
    )
    lhs = Character(G, ("tower_quotient",), lambda c: reg.at(c) + k_below.at(c) - k_top.at(c) - f_below.at(c))
    coeff = tower_coefficient(G)
    rhs = _faithful_sum(G, coeff)
    types = (GroupElement(x, G.p ** k % G.pn) for k in range(n + 1) for x in ((0, 1) if k >= G.r else (0,)))
    return QuotientIdentity(
        group=G,
        lhs=lhs,
        rhs=rhs,
        equal=all(lhs.at(c) == rhs.at(c) for c in map(G.conj_class, types)),
        coefficient=coeff,
        faithful_count=faithful_count(G),
    )


# ---------------------------------------------------------------------------
# the identity on L-series, coefficient by coefficient

def tower_residue_degrees(G: MetacyclicParams, datum: FrobeniusDatum, kind: str, level: int) -> list[tuple[int, int]]:
    """Residue degrees over v in a tower field, from pattern + cyclotomic data.

    K-levels split by the order of the cyclotomic component alone; F-levels
    are the compositum of the degree-q field with a K-level, so each pair of
    primes yields gcd primes of lcm degree.
    """
    y = datum.cyclotomic_component
    pk = G.p ** level
    fk = pk // gcd(pk, y)
    if kind == "K":
        return [(fk, pk // fk)]
    if kind != "F":
        raise ValueError(f"unknown tower kind {kind!r}")
    out: dict[int, int] = {}
    for d in datum.pattern:
        f = d * fk // gcd(d, fk)
        out[f] = out.get(f, 0) + gcd(d, fk) * (pk // fk)
    return sorted(out.items())


def _tower_series(G: MetacyclicParams, datum: FrobeniusDatum, av: int, v: int, kmax: int) -> list:
    """b_0..b_kmax of L(E/F_n) L(E/K_{n-1}) / (L(E/K_n) L(E/F_{n-1})) at v, from residue degrees.

    Each prime of residue degree f over v contributes f (alpha^s + beta^s) to
    tr_s for f | s, with sign +1 in the numerator fields and -1 in the
    denominator ones.  The traces are integers, and so is the series.
    """
    n = G.n
    sums = _power_sums(av, v, kmax)
    traces = [0] * (kmax + 1)
    for kind, level, sign in (("F", n, 1), ("K", n - 1, 1), ("K", n, -1), ("F", n - 1, -1)):
        for f, count in tower_residue_degrees(G, datum, kind, level):
            for s in range(f, kmax + 1, f):
                traces[s] += sign * count * f * sums[s]
    series = _newton([CyclotomicNumber.from_rational(t) for t in traces], kmax, 1, _ONE)
    if any(b.den != 1 for b in series):
        raise InternalCheckError(f"tower local series is not integral at v = {v} ({G.spec})")
    return series


class IdentityCheck(NamedTuple):
    group: MetacyclicParams
    X: int
    coefficient: int
    holds: bool
    primes_used: int
    first_mismatch: int | None
    quotient: QuotientIdentity  # the closed-form character side; not part of the JSON

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "X": self.X,
            "coefficient": self.coefficient,
            "holds": self.holds,
            "primes_used": self.primes_used,
            "first_mismatch": self.first_mismatch,
        }


def identity_series_check(
    E: EllipticCurveQ, field_coeffs, G: MetacyclicParams, X: int
) -> IdentityCheck:
    """Compare both sides of the tower L-identity coefficientwise up to X.

    Left side: L(E/F_n) L(E/K_{n-1}) / (L(E/K_n) L(E/F_{n-1})) built purely
    from splitting patterns (pattern route).  Right side: the product over
    faithful tau of L(E, tau)^coefficient, one twist by the closed-form rhs
    of the character identity, whose values are integers (character route).
    Good primes only; both sides are symmetric under the Frobenius
    class ambiguity, which is verified, not assumed.
    """
    local = _local_data(E, field_coeffs, G, X)
    qi = quotient_identity_virtual_character(G)
    lhs_local = {}
    rhs_local = {}
    for v, kmax, datum, av in local:
        lhs_local[v] = _tower_series(G, datum, av, v, kmax)
        rhs_local[v] = _resolve_local_factor(qi.rhs, datum, av, v, kmax)
    lhs = _assemble(X, lhs_local)
    rhs = _assemble(X, rhs_local)
    mismatch = next((i for i in range(1, X + 1) if lhs.an[i] != rhs.an[i]), None)
    return IdentityCheck(
        group=G,
        X=X,
        coefficient=qi.coefficient,
        holds=mismatch is None,
        primes_used=len(lhs_local),
        first_mismatch=mismatch,
        quotient=qi,
    )
