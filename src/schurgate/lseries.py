"""Twisted Euler factors and truncated Dirichlet series, exactly.

Every local factor comes from one trace recursion.  For a matrix M,
det(1 - M T) = exp(-sum_s tr(M^s) T^s / s) and the local L-series is its
inverse exp(+sum_s tr(M^s) T^s / s); Newton's identities (``_newton``)
expand either from the traces, in whatever ring they live in.  Two
independent trace sources feed it, and the tower identity compares them:

  * characters: for M = A_v (x) tau(g), tr(M^s) = (alpha^s + beta^s) chi(g^s),
    with alpha, beta the roots of T^2 - a_v T + v.  Their power sums are
    integers (or polynomials in formal symbols a, v), so every coefficient
    stays in Q(zeta); chi(g^s) is read once per (character, class).
  * residue degrees: a prime of residue degree f over v contributes
    f (alpha^s + beta^s) to tr_s whenever f | s.  The degrees come from
    factorization patterns and the compositum splitting formula, with no
    character theory, and everything stays in the integers.

Eigenvalue multiplicities of tau(g) come from the same values by integer
Fourier inversion on <g>, one fold per eigenvalue.  They validate chi at a
class and key the Frobenius-ambiguity check (order-q part): a series is only
assembled when every candidate class gives the same one, unless the caller
picks a candidate.  Candidates with equal element order and multiplicities
have equal traces and share one series.

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

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .cyclotomic import CyclotomicNumber, _fold
from .groups import ConjClass, InternalCheckError, MetacyclicParams, _class_index
from .characters import QuotientIdentity, quotient_identity_virtual_character
from .elliptic import EllipticCurveQ, a_v
from .frobenius import FrobeniusDatum, _discriminant, frobenius_datum

__all__ = [
    "EulerFactor",
    "DirichletSeries",
    "SymbolicPoly",
    "eigenvalue_multiplicities",
    "twisted_euler_factor",
    "symbolic_twisted_euler_factor",
    "cube_of_quadratic_defect",
    "dirichlet_partial",
    "good_primes",
    "identity_series_check",
    "untwisted_factor",
]

_ZERO = CyclotomicNumber.from_rational(0)
_ONE = CyclotomicNumber.from_rational(1)


# ---------------------------------------------------------------------------
# eigenvalues from character values

def eigenvalue_multiplicities(chi, cls: ConjClass) -> dict[int, int]:
    """Multiplicity of each eigenvalue zeta_d^k of chi at the class, d = element order.

    Fourier inversion on <g>: m_k = (1/d) sum_i chi(g^i) zeta_d^{-ki}.
    Works for genuine and virtual characters (integer multiplicities).
    """
    return dict(_multiplicities(chi, cls))


@lru_cache(maxsize=None)
def _multiplicities(chi, cls: ConjClass) -> tuple[tuple[int, int], ...]:
    """Sorted (k, m_k) pairs with m_k != 0, by integer Fourier inversion.

    Every nonzero chi(g^i) is lifted once to M = lcm(d, its conductors) as
    den_i^-1 * vec_i.  Multiplying by zeta_d^{-ki} = zeta_M^{-ki M/d} rotates
    the power-basis vector, so d * den * m_k is the constant term of one
    folded integer buffer, den = lcm(den_i); every other coordinate is 0.
    """
    d = cls.element_order
    values = _powers(chi, cls)
    M = d
    for val in values:
        if not val.is_zero():
            M = M * val.conductor // gcd(M, val.conductor)
    lifted = [(i, val._lifted(M)) for i, val in enumerate(values) if not val.is_zero()]
    den = 1
    for _, (di, _) in lifted:
        den = den * di // gcd(den, di)
    terms = [
        (i * (M // d), [(e, c * (den // di)) for e, c in enumerate(vec) if c])
        for i, (di, vec) in lifted
    ]
    out = []
    for k in range(d):
        buf = [0] * M
        for step, vec in terms:
            shift = -k * step
            for e, c in vec:
                buf[(e + shift) % M] += c
        red = _fold(M, buf)
        if not any(red):
            continue
        if any(red[1:]):
            raise InternalCheckError(f"eigenvalue multiplicity is not rational ({_where(chi, cls)})")
        m, rem = divmod(red[0], d * den)
        if rem:
            raise InternalCheckError(f"eigenvalue multiplicity is not an integer ({_where(chi, cls)})")
        out.append((k, m))
    return tuple(out)


@lru_cache(maxsize=None)
def _powers(chi, cls: ConjClass) -> tuple[CyclotomicNumber, ...]:
    """chi(g^s) for 0 <= s < d, with g the class representative and d its order."""
    G = chi.group
    idx = _class_index(G)
    return tuple(
        chi.values[idx[G.class_of(G.power(cls.rep, s))]] for s in range(cls.element_order)
    )


def _where(chi, cls: ConjClass) -> str:
    return (
        f"{chi.group.spec}, "
        f"character {getattr(chi, 'char_id', 'virtual')}, class rep {tuple(cls.rep)}"
    )


# ---------------------------------------------------------------------------
# Euler factors

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


def _tpoly_mul(a: list, b: list) -> list:
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


def _newton(traces, kmax: int, sign: int, one) -> list:
    """c_0..c_kmax of exp(sign * sum_s traces[s] T^s / s), by Newton's identities:
    c_0 = one and k c_k = sign * sum_{s=1..k} traces[s] c_{k-s}.

    With traces[s] = tr(M^s), sign -1 gives det(1 - M T) and sign +1 the
    L-series 1 / det(1 - M T).  Integer traces give Fractions.
    """
    c = [one]
    for k in range(1, kmax + 1):
        acc = traces[1] * c[k - 1]
        for s in range(2, k + 1):
            acc = acc + traces[s] * c[k - s]
        c.append(acc * Fraction(sign, k))
    return c


def _power_sums(a, v, kmax: int) -> list:
    """alpha^k + beta^k for 0 <= k <= kmax, alpha + beta = a and alpha beta = v (numbers or symbols)."""
    s = [2, a]
    for _ in range(2, kmax + 1):
        s.append(a * s[-1] - v * s[-2])
    return s


def _traces(sums: list, chi, cls: ConjClass, kmax: int) -> list:
    """tr(M^s) = (alpha^s + beta^s) chi(g^s) for M = A_v (x) tau(g), 0 <= s <= kmax."""
    pw = _powers(chi, cls)
    return [sums[s] * pw[s % len(pw)] for s in range(kmax + 1)]


def _determinant(chi, cls: ConjClass, a, v, one, refusal: str) -> list:
    """det(1 - (A_v (x) chi(g)) T) in full, degree 2 chi(1); refused for negative multiplicities."""
    mults = eigenvalue_multiplicities(chi, cls)
    if any(m < 0 for m in mults.values()):
        raise ValueError(refusal)
    D = 2 * sum(mults.values())
    return _newton(_traces(_power_sums(a, v, D), chi, cls, D), D, -1, one)


def twisted_euler_factor(av: int, v: int, chi, cls: ConjClass) -> EulerFactor:
    """det(1 - (A_v (x) chi(g)) T) at a good unramified v, exactly.

    A_v enters only through the power sums of its eigenvalues, integers
    determined by a_v and v, so the coefficients stay in Q(zeta).  For a
    genuine character the degree is 2 * chi(1); constant term is 1.
    """
    refusal = "twisted Euler factor of a virtual character with negative parts; use the series machinery instead"
    return EulerFactor(v, tuple(_determinant(chi, cls, av, v, _ONE, refusal)))


def untwisted_factor(av: int, v: int) -> EulerFactor:
    return EulerFactor(v, (_ONE, CyclotomicNumber.from_rational(-av), CyclotomicNumber.from_rational(v)))


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
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, _ZERO) + c
        return SymbolicPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return SymbolicPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict[tuple[int, int], CyclotomicNumber] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                prod = c1 * c2
                out[k] = out.get(k, _ZERO) + prod
        return SymbolicPoly(out)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(x) -> "SymbolicPoly":
        if isinstance(x, SymbolicPoly):
            return x
        if isinstance(x, (int, Fraction, CyclotomicNumber)):
            return SymbolicPoly.scalar(x)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms):
            c = self.terms[(i, j)]
            mono = "*".join(
                s for s in (f"a^{i}" if i > 1 else "a" if i else "",
                            f"v^{j}" if j > 1 else "v" if j else "") if s
            )
            cs = str(c)
            if not mono:
                parts.append(f"({cs})" if "+" in cs or " - " in cs else cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append((f"({cs})" if "+" in cs or " - " in cs else cs) + f"*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def symbolic_twisted_euler_factor(chi, cls: ConjClass) -> list[SymbolicPoly]:
    """The twisted factor with a_v and v left as formal symbols."""
    a, v = SymbolicPoly.var_a(), SymbolicPoly.var_v()
    return _determinant(chi, cls, a, v, SymbolicPoly.scalar(1), "symbolic factor needs a genuine character")


def cube_of_quadratic_defect(poly: list) -> dict:
    """Certificate that a degree-6 T-polynomial with constant 1 is not a cube.

    If poly = Q^3 for a quadratic Q = e + cT + dT^2 over any field extension,
    then e^3 = 1 and c, d are forced by the T and T^2 coefficients.  All
    three cube roots of unity are tried; for each, the forced Q is cubed and
    compared.  A mismatch for all three proves the polynomial is not the
    cube of any quadratic.  Returns {"is_cube": bool, "witness": ...}.
    """
    if len(poly) != 7:
        raise ValueError("expected a degree-6 polynomial")
    mismatches = {}
    for name, e in (("1", _ONE), ("zeta3", CyclotomicNumber.zeta(3)), ("zeta3^2", CyclotomicNumber.zeta(3, 2))):
        inv3e2 = (CyclotomicNumber.from_rational(3) * e * e).inverse()
        c = poly[1] * inv3e2
        d = (poly[2] - 3 * e * (c * c)) * inv3e2
        q_poly = [e, c, d]
        cube = _tpoly_mul(_tpoly_mul(q_poly, q_poly), q_poly)
        bad = None
        for i in range(7):
            if not (cube[i] - poly[i]).is_zero():
                bad = i
                break
        if bad is None:
            return {"is_cube": True, "witness": {"e": name}}
        mismatches[name] = bad
    return {"is_cube": False, "witness": {"first_mismatch_by_root": mismatches}}


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
    # a prime divides the product iff it divides a factor; a zero field discriminant excludes none
    bad = E.discriminant * (_discriminant(tuple(field_coeffs)) or 1)
    spf = _spf(X)
    return [v for v in range(3, X + 1) if spf[v] == v and v != G.p and v != G.q and bad % v]


def _local_data(E: EllipticCurveQ, field_coeffs, G: MetacyclicParams, X: int):
    """(v, kmax, Frobenius datum, a_v) at each good prime v <= X, in order, computed as consumed.

    Both series routes start here, so X is checked here, before any work:
    1 <= X <= 10^5.
    """
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
    """b_0..b_kmax of the local L-series of a (virtual) character twist at v;
    every candidate class must agree unless pick_first takes the smallest."""
    candidates = [datum.conj_class] if datum.conj_class else list(datum.candidates)
    if pick_first:
        candidates = candidates[:1]
    # the multiplicities validate chi at every candidate; equal ones give equal traces
    distinct: dict = {}
    for cls in candidates:
        distinct.setdefault((cls.element_order, _multiplicities(chi, cls)), cls)
    sums = _power_sums(av, v, kmax)
    series = [_newton(_traces(sums, chi, cls, kmax), kmax, 1, _ONE) for cls in distinct.values()]
    if any(b != series[0] for b in series[1:]):
        raise ValueError(
            f"Frobenius ambiguity at v={v} changes the factor; pass an explicit "
            f"class choice (candidates {[list(c.rep) for c in datum.candidates]})"
        )
    return series[0]


def dirichlet_partial(
    E: EllipticCurveQ, G: MetacyclicParams, chi, field_coeffs, X: int, pick_first: bool = False
) -> DirichletSeries:
    """Coefficients of the twisted L-series over good primes up to X.

    chi may be a Character or VirtualCharacter on G.  Bad and ramified
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
    series = _newton(traces, kmax, 1, 1)
    if any(b.denominator != 1 for b in series):
        raise InternalCheckError(f"tower local series is not integral at v = {v} ({G.spec})")
    return [CyclotomicNumber.from_rational(b) for b in series]


class IdentityCheck(NamedTuple):
    group: MetacyclicParams
    X: int
    coefficient: int
    holds: bool
    primes_used: int
    first_mismatch: int | None
    quotient: QuotientIdentity  # the virtual-character side; not part of the JSON

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
    faithful tau of L(E, tau)^coefficient via character data (eigenvalue
    route).  Good primes only; both sides are symmetric under the Frobenius
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
