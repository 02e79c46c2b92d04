"""Twisted Euler factors and truncated Dirichlet series, exactly.

Every local factor comes from one trace recursion.  For a matrix M,
det(1 - M T) = exp(-sum_s tr(M^s) T^s / s) and the local L-series is its
inverse exp(+sum_s tr(M^s) T^s / s); Newton's identities (``_newton``)
expand either from the traces, in whatever ring they live in.  Two
independent trace sources feed it, and the tower identity compares them:

  * characters: for M = A_v (x) tau(g), tr(M^s) = (alpha^s + beta^s) chi(g^s),
    with alpha, beta the roots of T^2 - a_v T + v.  Their power sums are
    integers (or polynomials in formal symbols a, v), so every coefficient
    stays in Q(zeta); chi(g^s) is read once per process for each class
    representative and 1 <= s <= kmax the recursion uses, by the evaluator at
    the class of g^s (no value table is built), so a prime costs the same at any n.
  * residue degrees: a prime of residue degree f over v contributes
    f (alpha^s + beta^s) to tr_s whenever f | s.  The degrees come from
    factorization patterns and the compositum splitting formula, with no
    character theory, and everything stays in the integers.

The Frobenius-ambiguity check (order-q part) assembles a series only when
every candidate class gives the same one, unless the caller picks a
candidate.  Candidates are compared by their traces: Newton's identities give
the traces back from the series, so equal traces share one series, unequal
ones are refused, and no character is inverted.  The full Euler factors
(``twisted_euler_factor``, ``symbolic_twisted_euler_factor``) take the same
recursion with sign -1 up to D = 2 chi(1), the degree of det(1 - M T), so
they read chi(g^s) only for s <= D and never compute an eigenvalue of
tau(g).  They take only a Character, which is genuine, the tower
identity's rhs included; any other class function is refused.

Each prime is decided once.  One smallest-prime-factor sieve per X gives
the primes; v is good when it is odd, not p or q, and divides neither disc(E)
nor the cached field discriminant (a zero one excludes no prime, and
``frobenius_datum`` refuses the first).  One loop feeds the series and the
identity, and coefficients are assembled over the same sieve: a_n = a_{v^k} a_t
for v = spf(n), n = v^k t and v not dividing t, so the work is linear in X.

Bad and ramified primes contribute the trivial factor 1; every identity
statement in this package is about good-prime-supported coefficients only.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import TYPE_CHECKING, NamedTuple

from .cyclotomic import CyclotomicNumber, format_sum
from .groups import ConjClass, GroupElement, InternalCheckError, MetacyclicParams
from .characters import Character, QuotientIdentity, quotient_identity_virtual_character

# elliptic and frobenius are imported where they are used: the symbolic factor needs neither
if TYPE_CHECKING:
    from .elliptic import EllipticCurveQ, EulerFactor
    from .frobenius import FrobeniusDatum

__all__ = [
    "DirichletSeries",
    "SymbolicPoly",
    "twisted_euler_factor",
    "symbolic_twisted_euler_factor",
    "cube_of_quadratic_defect",
    "dirichlet_partial",
    "good_primes",
    "identity_series_check",
]

_ZERO = CyclotomicNumber.from_rational(0)
_ONE = CyclotomicNumber.from_rational(1)
_THIRD = CyclotomicNumber.from_rational(1, 3)


# ---------------------------------------------------------------------------
# Euler factors

def _newton(traces, kmax: int, sign: int, one) -> list:
    """c_0..c_kmax of exp(sign * sum_s traces[s] T^s / s), by Newton's identities:
    c_0 = one and k c_k = sign * sum_{s=1..k} traces[s] c_{k-s}.

    With traces[s] = tr(M^s), sign -1 gives det(1 - M T) and sign +1 the
    L-series 1 / det(1 - M T).  traces[0] is not read.  The traces are
    cyclotomic values or polynomials in them, and the division by k is a
    product with the kernel's rational sign/k.
    """
    c = [one]
    for k in range(1, kmax + 1):
        acc = traces[k]  # traces[k] * c_0
        for s in range(1, k):
            acc = acc + traces[s] * c[k - s]
        c.append(acc if sign == k == 1 else acc * CyclotomicNumber.from_rational(sign, k))
    return c


def _power_sums(a, v, kmax: int) -> list:
    """alpha^k + beta^k for 0 <= k <= kmax, alpha + beta = a and alpha beta = v (numbers or symbols)."""
    s = [2, a]
    for _ in range(2, kmax + 1):
        s.append(a * s[-1] - v * s[-2])
    return s


def _traces(sums: list, chi, cls: ConjClass, kmax: int) -> list:
    """tr(M^s) = (alpha^s + beta^s) chi(g^s) for M = A_v (x) tau(g), 1 <= s <= kmax
    (Newton's identities never read tr(M^0), so index 0 holds None)."""
    G, at, rep = chi.group, chi.at, cls.rep
    return [None] + [sums[s] * _value_at_power(at, G, rep, s) for s in range(1, kmax + 1)]


@lru_cache(maxsize=1 << 12)
def _value_at_power(at, G: MetacyclicParams, rep: GroupElement, s: int) -> CyclotomicNumber:
    """chi(g^s) for g = rep, read by the evaluator at of chi, once per process: a series
    reads the few classes of its Frobenius data at every prime, and the key holds the
    evaluator itself, so no two characters share a value."""
    return at(G.conj_class(G.power(rep, s)))


def _determinant(chi: Character, cls: ConjClass, a, v, one) -> list:
    """det(1 - (A_v (x) chi(g)) T) in full, degree D = 2 chi(1), from the traces tr_s, s <= D.

    Only a Character, which is genuine, has such a determinant here: any
    other class function is refused before a trace is read.
    """
    if not isinstance(chi, Character):
        raise TypeError(f"a full Euler factor needs a Character, not {type(chi).__name__}")
    D = 2 * chi.degree
    return _newton(_traces(_power_sums(a, v, D), chi, cls, D), D, -1, one)


def twisted_euler_factor(av: int, v: int, chi: Character, cls: ConjClass) -> EulerFactor:
    """det(1 - (A_v (x) chi(g)) T) at a good unramified v, exactly.

    A_v enters only through the power sums of its eigenvalues, integers
    determined by a_v and v, so the coefficients stay in Q(zeta).  The
    degree is 2 * chi(1); constant term is 1.
    """
    from .elliptic import EulerFactor

    return EulerFactor(v, tuple(_determinant(chi, cls, av, v, _ONE)))


# ---------------------------------------------------------------------------
# symbolic factors in the formal symbols a and v

class SymbolicPoly:
    """Polynomial in the formal symbols a and v with cyclotomic coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], CyclotomicNumber]):
        self.terms = {k: c for k, c in terms.items() if not c.is_zero()}

    @classmethod
    def zero(cls) -> "SymbolicPoly":
        return cls({})

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

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

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


# ---------------------------------------------------------------------------
# Dirichlet series

class DirichletSeries(NamedTuple):
    X: int
    an: tuple[CyclotomicNumber, ...]  # index 0 unused; an[n] for 1 <= n <= X

    def coefficient(self, n: int) -> CyclotomicNumber:
        if not 1 <= n <= self.X:
            raise ValueError(f"coefficient index {n} outside 1..{self.X}")
        return self.an[n]

    def to_json(self) -> dict:
        return {"X": self.X, "an": [c.to_json() for c in self.an[1:]]}


@lru_cache(maxsize=8)
def _spf(X: int) -> tuple[int, ...]:
    """Smallest prime factor of each 0 <= n <= X; n >= 2 is prime iff spf[n] == n.

    Every d <= sqrt(X), taken downwards, marks its multiples from d^2 on, so
    each n ends marked by its smallest divisor d >= 2 with d^2 <= n: its
    smallest prime factor.  Primes are never marked.
    """
    spf = list(range(X + 1))
    for d in range(isqrt(X), 1, -1):
        spf[d * d :: d] = [d] * ((X - d * d) // d + 1)
    return tuple(spf)


def _assemble(X: int, local: dict[int, list]) -> DirichletSeries:
    """a_1..a_X of the product of the local series local[v] = [1, b_1, b_2, ...].

    Multiplicative over the sieve: a_n = local[v][k] * a_t for v = spf(n),
    n = v^k t with v not dividing t.  a_n = 0 when a prime factor of n has
    no local series or its series stops before the power.
    """
    spf = _spf(X)
    an = [_ZERO] * (X + 1)
    an[1] = _ONE
    for n in range(2, X + 1):
        v = spf[n]
        t, k = n // v, 1
        while t % v == 0:
            t, k = t // v, k + 1
        b = local.get(v)
        if b is None or k >= len(b) or b[k].is_zero() or an[t].is_zero():
            continue
        an[n] = b[k] if t == 1 else b[k] * an[t]
    return DirichletSeries(X, tuple(an))


def _kmax(v: int, X: int) -> int:
    """The largest k with v^k <= X."""
    k, t = 0, v
    while t <= X:
        k, t = k + 1, t * v
    return k


def good_primes(E: EllipticCurveQ, field_coeffs, G: MetacyclicParams, X: int) -> list[int]:
    """Primes <= X that are good for the curve and unramified for the field data."""
    from .frobenius import _discriminant

    # a prime divides the product iff it divides a factor; a zero field discriminant excludes none
    bad = E.discriminant * (_discriminant(tuple(field_coeffs)) or 1)
    spf = _spf(X)
    return [v for v in range(3, X + 1) if spf[v] == v and v != G.p and v != G.q and bad % v]


def _local_data(E: EllipticCurveQ, field_coeffs, G: MetacyclicParams, X: int):
    """(v, kmax, Frobenius datum, a_v) at each good prime v <= X, in order, computed as consumed.

    Both series routes start here, so X is checked here, before any work:
    1 <= X <= 10^5.
    """
    from .elliptic import a_v
    from .frobenius import frobenius_datum

    if X < 1:
        raise ValueError("X must be at least 1")
    if X > 10 ** 5:
        raise ValueError("X capped at 10^5")
    return (
        (v, _kmax(v, X), frobenius_datum(field_coeffs, G, v), a_v(E, v))
        for v in good_primes(E, field_coeffs, G, X)
    )


def _resolve_local_factor(
    chi, datum: FrobeniusDatum, av: int, v: int, kmax: int, pick_first: bool = False
) -> list:
    """b_0..b_kmax of the local L-series of a character twist at v;
    every candidate class must agree unless pick_first takes the smallest."""
    candidates = datum.candidates[:1] if pick_first else datum.candidates
    sums = _power_sums(av, v, kmax)
    # Newton's identities give each trace back from the series, so candidates
    # give the same series exactly when they give the same traces
    traces = [_traces(sums, chi, cls, kmax) for cls in candidates]
    if any(t != traces[0] for t in traces[1:]):
        raise ValueError(
            f"Frobenius ambiguity at v={v} changes the factor; pass an explicit "
            f"class choice (candidates {[list(c.rep) for c in datum.candidates]})"
        )
    return _newton(traces[0], kmax, 1, _ONE)


def dirichlet_partial(
    E: EllipticCurveQ, G: MetacyclicParams, chi, field_coeffs, X: int, pick_first: bool = False
) -> DirichletSeries:
    """Coefficients of the twisted L-series over good primes up to X.

    chi is a Character on G, or a class function read the same way.  Bad and ramified
    primes contribute the factor 1.  An ambiguous Frobenius class must give
    the same factor at every candidate, unless pick_first takes the smallest.
    """
    local = {
        v: _resolve_local_factor(chi, datum, av, v, kmax, pick_first)
        for v, kmax, datum, av in _local_data(E, field_coeffs, G, X)
    }
    return _assemble(X, local)


# ---------------------------------------------------------------------------
# the tower identity, coefficient by coefficient

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
