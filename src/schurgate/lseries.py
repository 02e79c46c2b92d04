"""Twisted Euler factors and truncated Dirichlet series, exactly.

Every local factor comes from one trace recursion.  For a matrix M,
det(1 - M T) = exp(-sum_s tr(M^s) T^s / s) and the local L-series is its
inverse exp(+sum_s tr(M^s) T^s / s); Newton's identities (``_newton``)
expand either from the traces, in whatever ring they live in.  For
M = A_v (x) tau(g), tr(M^s) = (alpha^s + beta^s) chi(g^s), with alpha, beta
the roots of T^2 - a_v T + v.  Their power sums are integers (or polynomials
in formal symbols a, v), so every coefficient stays in Q(zeta); chi(g^s) is
read once per process for each class representative and 1 <= s <= kmax the
recursion uses, by the evaluator at the class of g^s (no value table is
built), so a prime costs the same at any n.  The tower identity, which
compares these traces with a second source, residue degrees, lives in
``identity``, loaded on the first use of its name from here (PEP 562).

The Frobenius-ambiguity check (order-q part) assembles a series only when
every candidate class gives the same one, unless the caller picks a
candidate.  Candidates are compared by their traces: Newton's identities give
the traces back from the series, so equal traces share one series, unequal
ones are refused, and no character is inverted.  The full Euler factors
(``twisted_euler_factor``, and ``symbolic_twisted_euler_factor`` in
``symbolic``, loaded from here on first use, PEP 562) take the same
recursion with sign -1 up to D = 2 chi(1), the degree of det(1 - M T), so
they read chi(g^s) only for s <= D and never compute an eigenvalue of
tau(g).  They take only a Character, which is genuine, the tower
identity's rhs included; any other class function is refused.

Each prime is decided once.  One smallest-prime-factor sieve per X gives
the primes, and no other primality test runs on them; v is good when it is
odd, not p or q, and divides neither disc(E) nor the cached field
discriminant (a zero one excludes no prime, and ``frobenius_datum`` refuses
the first).  One loop feeds the series and the identity, and coefficients
are assembled over the same sieve: a_n = a_{v^k} a_t for v = spf(n),
n = v^k t and v not dividing t, so the work is linear in X.

Bad and ramified primes contribute the trivial factor 1; every identity
statement in this package is about good-prime-supported coefficients only.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple

from .cyclotomic import CyclotomicNumber
from .groups import ConjClass, GroupElement, MetacyclicParams
from .characters import Character

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
    return (  # the sieve of good_primes is the one primality test of each v
        (v, _kmax(v, X), frobenius_datum(field_coeffs, G, v, known_prime=True), a_v(E, v, known_prime=True))
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


def __getattr__(name: str):
    """identity_series_check from ``identity``, the rest from ``symbolic``, on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = ".identity" if name == "identity_series_check" else ".symbolic"
    return getattr(import_module(module, __package__), name)
