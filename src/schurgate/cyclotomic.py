"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is (conductor m, den > 0, integer numerators over the power basis
1, z, ..., z^(phi(m)-1)) with gcd(den, numerators) = 1, and a rational is an
integer pair: ``fractions`` is imported only where the API returns or reads
a Fraction (``coeffs``, ``rational_value``, the public constructor).  Sums,
products, Galois images and inner products put each operand's nonzero terms
(i, c) at its own conductor m at exponent i * (M/m) mod M of one integer
buffer at the common conductor M (a rational or a root of unity is one
term), then reduce it once: wrap exponents mod M and divide by the sparse
monic Phi_M = Phi_rad(x^(M/rad)), rad = rad(M).
``dot`` accumulates a whole sum of weighted products in one such buffer and
reduces once, which is what makes full-table orthogonality sweeps affordable;
``CyclotomicNumber.root_sum`` builds a sum of roots of unity (a root of unity
or a Gaussian period) the same way.  Each refuses a conductor above the cap
before it allocates a buffer.  ``format_sum`` is the one text rule for a sum of
terms, shared by a value and the polynomials whose coefficients are values.

Every value is canonicalized when it is built, down to the smallest
conductor m' | m whose field contains it, so equal values compare equal.
The descent goes one prime p | m at a time:

* p^2 | m: Phi_m(x) = Phi_(m/p)(x^p), so the value lies in the subfield iff
  every coordinate at an exponent not divisible by p is 0, and its
  coordinates there are every p-th one;
* p || m: by CRT, zeta_m^(a m/p + b p) = zeta_p^a zeta_(m/p)^b, so the value
  is sum_a zeta_p^a Y_a with Y_a in Q(zeta_(m/p)).  Since 1, zeta_p, ...,
  zeta_p^(p-2) is a basis over Q(zeta_(m/p)), the value lies there iff
  Y_1 = ... = Y_(p-1), and then equals Y_0 - Y_(p-1).

Inverses take the relative norm down the same prime layers: multiplying y
by its conjugates over Q(zeta_(m/p)) lands in that subfield, and repeating
until the norm is rational gives 1/y as (product of the factors) / norm.

Abelian subfields (``AbelianField``, ``field_of_values``) live in ``tables``,
which is loaded on their first use from here (PEP 562).

No floating point is used anywhere: the complex embedding that numeric
sanity checks compare against is a test oracle, not part of the package.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from importlib import import_module
from math import gcd, lcm, prod
from typing import TYPE_CHECKING

from .groups import InternalCheckError, prime_factors

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CyclotomicNumber",
    "AbelianField",
    "dot",
    "field_of_values",
    "format_sum",
    "euler_phi",
    "ConductorOverflowError",
]

MAX_CONDUCTOR = 10 ** 6


class ConductorOverflowError(ValueError):
    """Raised when an operation would need a conductor above MAX_CONDUCTOR."""


def check_conductor(m: int, op: str) -> int:
    """m, once it is known to be a positive conductor within the cap; op names the caller."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m} in {op}")
    if m > MAX_CONDUCTOR:
        raise ConductorOverflowError(f"conductor {m} exceeds the cap {MAX_CONDUCTOR} in {op}")
    return m


def euler_phi(m: int) -> int:
    phi = m
    for pr in prime_factors(m):
        phi -= phi // pr
    return phi


# ---------------------------------------------------------------------------
# per-conductor tables, memoized

_phi = lru_cache(maxsize=None)(euler_phi)


@lru_cache(maxsize=None)
def _cyclo(m: int) -> tuple[tuple[int, int], ...]:
    """Nonzero terms (exponent, coefficient) of the m-th cyclotomic polynomial, ascending.

    The last term is the leading (phi(m), 1).  For squarefree n > 1,
    Phi_n(x) = prod over d | n of (1 - x^d)^mu(n/d), which is evaluated as a
    power series cut off above degree phi(n).  Then Phi_m(x) = Phi_rad(x^(m/rad))
    for the radical rad of m, so Phi_m has at most phi(rad) + 1 terms.
    """
    if m == 1:
        return ((0, -1), (1, 1))
    ps = prime_factors(m)
    divs = [(1, -1 if len(ps) % 2 else 1)]  # (d, mu(rad/d)) over d | rad
    for pr in ps:
        divs += [(d * pr, -mu) for d, mu in divs]
    rad = divs[-1][0]
    top = _phi(rad)
    ser = [1] + [0] * top
    for d, mu in divs:
        if mu > 0:
            for i in range(top, d - 1, -1):
                ser[i] -= ser[i - d]
        else:
            for i in range(d, top + 1):
                ser[i] += ser[i - d]
    if ser[top] != 1:
        raise InternalCheckError(f"cyclotomic polynomial {rad} is not monic of degree {top}")
    step = m // rad
    return tuple((i * step, c) for i, c in enumerate(ser) if c)


def _fold(m: int, buf: list[int]) -> list[int]:
    """Reduce an integer buffer indexed by exponents into the power basis of Q(zeta_m).

    Exponents wrap mod m (z^m = 1); then long division by the sparse monic
    Phi_m clears the exponents phi(m) and up, from the top down.
    """
    phi = _phi(m)
    if len(buf) <= phi:
        return buf + [0] * (phi - len(buf))
    work = buf[:m]
    for e in range(m, len(buf)):
        work[e % m] += buf[e]
    low = _cyclo(m)[:-1]
    for e in range(len(work) - 1, phi - 1, -1):
        c = work[e]
        if c:
            base = e - phi
            for i, a in low:
                work[base + i] -= c * a
    del work[phi:]
    return work


def _image(m: int, terms, k: int) -> list[int]:
    """Coordinates at conductor m of the sum of c * z_m^(i*k) over the terms (i, c)."""
    buf = [0] * m
    for i, c in terms:
        buf[i * k % m] += c
    return _fold(m, buf)


def _mul_into(buf: list[int], M: int, w: int, a, b) -> None:
    """Add w times the product of the numerators of values a, b to an exponent buffer at M."""
    sa, sb = M // a.conductor, M // b.conductor
    bt = [(j * sb, y) for j, y in b._nz()]
    for i, x in a._nz():
        e, wx = i * sa, w * x
        for f, y in bt:
            buf[(e + f) % M] += wx * y


def dot(terms) -> "CyclotomicNumber":
    """Sum of w * a * b over the terms (w, a, b), reduced and canonicalized once.

    Each product goes into one exponent buffer at the common conductor, its
    numerators scaled to the common denominator of all the terms.
    """
    live = [(w, a, b) for w, a, b in terms if w and not a.is_zero() and not b.is_zero()]
    if not live:
        return CyclotomicNumber.from_rational(0)
    M = check_conductor(lcm(*(x.conductor for _, a, b in live for x in (a, b))), "inner product")
    D = lcm(*(a.den * b.den for _, a, b in live))
    buf = [0] * M
    for w, a, b in live:
        _mul_into(buf, M, w * (D // (a.den * b.den)), a, b)
    return _from_buffer(M, D, buf)


def _descend(m: int, pr: int, vec: list[int]) -> list[int] | None:
    """Coordinates at conductor m/pr of the value vec at conductor m; None if not in that field."""
    mp = m // pr
    if mp % pr == 0:
        # Phi_m(x) = Phi_mp(x^pr): 1, z, ..., z^(pr-1) is a basis over Q(zeta_mp)
        if any(any(vec[r::pr]) for r in range(1, pr)):
            return None
        return vec[::pr]
    if mp == 1:
        return None if any(vec[1:]) else vec[:1]
    # pr || m: z_m^(a*mp + b*pr) = z_pr^a * z_mp^b by CRT, so the value is
    # sum_a z_pr^a * Y_a with Y_a at conductor mp.  As 1, z_pr, ..., z_pr^(pr-2)
    # is a basis over Q(zeta_mp), it lies there iff Y_1 = ... = Y_(pr-1), and
    # then equals Y_0 - Y_(pr-1).
    pinv = pow(pr, -1, mp)

    def part(a: int) -> list[int]:
        i0 = a * mp % pr  # exponents i0 + pr*t have b = i0*pinv + t mod mp
        return _fold(mp, [0] * (i0 * pinv % mp) + vec[i0::pr])

    last = part(pr - 1)
    for a in range(1, pr - 1):
        if part(a) != last:
            return None
    return [x - y for x, y in zip(part(0), last)]


def _canonical(m: int, den: int, vec: list[int]) -> tuple[int, int, tuple[int, ...]]:
    """(minimal conductor, den, numerators) of vec/den at conductor m, in lowest terms."""
    if any(vec[1:]):
        # a prime that fails at m fails at every m'' | m, as Q(z_(m''/pr)) lies in
        # Q(z_(m/pr)); so each prime is tried until its first failure
        for pr in prime_factors(m):
            while m % pr == 0:
                sub = _descend(m, pr, vec)
                if sub is None:
                    break
                m, vec = m // pr, sub
    else:
        m, vec = 1, vec[:1]
    g = gcd(den, *vec)
    if g != 1:
        den //= g
        vec = [c // g for c in vec]
    return m, den, tuple(vec)


def _from_buffer(M: int, den: int, buf: list[int]) -> "CyclotomicNumber":
    """The value (exponent buffer at conductor M) / den, reduced and canonicalized."""
    return CyclotomicNumber._make(*_canonical(M, den, _fold(M, buf)))


def _fmt(c: int, den: int) -> str:
    """The rational c/den as Fraction renders it."""
    g = gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def format_sum(terms) -> str:
    """The text of a sum of (coefficient, monomial) terms: how every value and polynomial prints.

    A coefficient is an int, a CyclotomicNumber or a rational's text, and a
    monomial is a tuple of (symbol, exponent) pairs, printed as "x", "x^e" or
    nothing for the exponents 1, e > 1 and 0, joined by "*".  Zero terms are
    dropped; before a monomial a coefficient 1 or -1 prints as the monomial or
    its negation; a coefficient of more than one term is bracketed; each "+ -"
    folds to "- ", and the empty sum is "0".
    """
    parts = []
    for c, powers in terms:
        if not c:
            continue
        mono = "*".join(x if e == 1 else f"{x}^{e}" for x, e in powers if e)
        if mono and c == 1:
            parts.append(mono)
        elif mono and c == -1:
            parts.append(f"-{mono}")
        else:
            text = f"({c})" if isinstance(c, CyclotomicNumber) and len(c._nz()) > 1 else str(c)
            parts.append(f"{text}*{mono}" if mono else text)
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class CyclotomicNumber:
    """An exact element of Q(zeta_m), canonicalized to its minimal conductor."""

    __slots__ = ("conductor", "den", "num", "_terms")

    def __init__(self, conductor: int, coeffs):
        from fractions import Fraction
        m = check_conductor(int(conductor), "the CyclotomicNumber constructor")
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != _phi(m):
            raise ValueError(f"need phi({m}) = {_phi(m)} coefficients, got {len(vec)}")
        den = lcm(*(c.denominator for c in vec))
        num = [c.numerator * (den // c.denominator) for c in vec]
        self.conductor, self.den, self.num = _canonical(m, den, num)
        self._terms = None

    @classmethod
    def _make(cls, m: int, den: int, num: tuple[int, ...]) -> "CyclotomicNumber":
        obj = object.__new__(cls)
        obj.conductor, obj.den, obj.num = m, den, num
        obj._terms = None
        return obj

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coordinates over the power basis of Q(zeta_conductor)."""
        from fractions import Fraction
        return tuple(Fraction(c, self.den) for c in self.num)

    def _nz(self) -> tuple[tuple[int, int], ...]:
        """Nonzero (exponent, numerator) terms; memoized."""
        terms = self._terms
        if terms is None:
            terms = self._terms = tuple((i, c) for i, c in enumerate(self.num) if c)
        return terms

    @classmethod
    def from_rational(cls, x, den: int = 1) -> "CyclotomicNumber":
        """The rational x / den, for an int den and an int, a Fraction or anything Fraction reads."""
        if not isinstance(x, int):
            from fractions import Fraction
            x = Fraction(x)
            x, den = x.numerator, x.denominator * den
        if not den:
            raise ZeroDivisionError(f"rational {x}/0")
        g = gcd(x, den) if den > 0 else -gcd(x, den)
        return cls._make(1, den // g, (x // g,))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CyclotomicNumber":
        """The root of unity zeta_m^k = zeta_(m/g)^(k/g), g = gcd(m, k), built at conductor m/g."""
        g = gcd(m, k)
        return cls.root_sum(m // g, (k // g,), "zeta")

    @classmethod
    def root_sum(cls, m: int, exponents, op: str) -> "CyclotomicNumber":
        """The sum of zeta_m^e over the exponents, a repeated one counted each time.

        The conductor m is checked against the cap, naming op, before the
        buffer is allocated or an exponent read.
        """
        check_conductor(m, op)
        buf = [0] * m
        for e in exponents:
            buf[e % m] += 1
        return _from_buffer(m, 1, buf)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.num[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        from fractions import Fraction
        if self.conductor != 1:
            raise ValueError(f"value {self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        M = check_conductor(lcm(self.conductor, other.conductor), "add")
        g = gcd(self.den, other.den)
        buf = [0] * M
        for x, scale in ((self, other.den // g), (other, self.den // g)):
            s = M // x.conductor
            for i, c in x._nz():
                buf[i * s] += c * scale
        return _from_buffer(M, self.den // g * other.den, buf)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._make(self.conductor, self.den, tuple(-c for c in self.num))

    def __sub__(self, other):
        other = self.coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self.coerce(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.conductor == 1 or other.conductor == 1:
            # a nonzero rational multiple keeps the minimal conductor; zero stays zero
            x, r = (other, self) if self.conductor == 1 else (self, other)
            c = r.num[0]
            if c == 0:
                return r
            den, num = x.den * r.den, [a * c for a in x.num]
            g = gcd(den, *num)
            return CyclotomicNumber._make(x.conductor, den // g, tuple(a // g for a in num))
        M = check_conductor(lcm(self.conductor, other.conductor), "mul")
        buf = [0] * M
        _mul_into(buf, M, 1, self, other)
        return _from_buffer(M, self.den * other.den, buf)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/y as acc/N(y), taking the relative norm of y down one prime layer at a time."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.conductor == 1:
            return CyclotomicNumber.from_rational(self.den, self.num[0])
        y = self
        acc = CyclotomicNumber.from_rational(1)
        while y.conductor != 1:
            m = y.conductor
            mp = m // prime_factors(m)[0]
            # the units k = 1 mod mp other than 1: Gal(Q(z_m)/Q(z_mp)) less the identity
            c = prod(y.galois(k) for k in range(1 + mp, m, mp) if gcd(k, m) == 1)
            y, acc = y * c, acc * c
            if mp % y.conductor:
                raise InternalCheckError(
                    f"norm of a value at conductor {m} down to Q(z_{mp}) has conductor {y.conductor}"
                )
        return acc * CyclotomicNumber.from_rational(y.den, y.num[0])

    def __truediv__(self, other):
        other = self.coerce(other)
        return NotImplemented if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = self.coerce(other)
        return NotImplemented if other is NotImplemented else other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        acc = CyclotomicNumber.from_rational(1)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def galois(self, k: int) -> "CyclotomicNumber":
        """Image under zeta_m -> zeta_m^k; requires gcd(k, m) = 1."""
        m = self.conductor
        k %= m
        if m == 1:
            return self
        if gcd(k, m) != 1:
            raise ValueError(f"galois exponent {k} is not coprime to the conductor {m}")
        # an automorphism of Z[zeta_m] keeps the minimal conductor and the content
        return CyclotomicNumber._make(m, self.den, tuple(_image(m, self._nz(), k)))

    # -- misc -----------------------------------------------------------------

    def to_json(self) -> dict:
        den = self.den
        coeffs = [str(c) for c in self.num] if den == 1 else [_fmt(c, den) for c in self.num]
        return {"conductor": self.conductor, "coeffs": coeffs}

    def __eq__(self, other):
        other = self.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.conductor, self.den, self.num) == (other.conductor, other.den, other.num)

    def __hash__(self):
        return hash((self.conductor, self.den, self.num))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {[_fmt(c, self.den) for c in self.num]})"

    def __str__(self):
        # a coefficient stays an int when den divides it, so that format_sum sees 1 and -1
        z, den = f"z{self.conductor}", self.den
        return format_sum((c // den if c % den == 0 else _fmt(c, den), ((z, i),)) for i, c in self._nz())

    @staticmethod
    def coerce(x):
        """x as a CyclotomicNumber if it is one, an int or a Fraction; else NotImplemented.
        No Fraction exists before ``fractions`` is loaded, so its type is looked up, not imported."""
        if isinstance(x, CyclotomicNumber):
            return x
        fractions = sys.modules.get("fractions")
        if isinstance(x, int) or fractions and isinstance(x, fractions.Fraction):
            return CyclotomicNumber.from_rational(x)
        return NotImplemented


def __getattr__(name: str):
    """AbelianField and field_of_values, from ``tables`` on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".tables", __package__), name)
