"""Exact arithmetic in cyclotomic fields Q(zeta_m) and their abelian subfields.

A value is (conductor m, den > 0, integer numerators over the power basis
1, z, ..., z^(phi(m)-1)) with gcd(den, numerators) = 1; ``coeffs`` builds
the rationals on request.  Sums, products, Galois images and inner products
put each operand's nonzero terms (i, c) at its own conductor m at exponent
i * (M/m) mod M of one integer buffer at the common conductor M (a rational
or a root of unity is one term), then reduce it once: wrap exponents mod M
and divide by the sparse monic Phi_M = Phi_rad(x^(M/rad)), rad = rad(M).

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

``field_of_values`` is the general route, for any values, and the check on the
closed forms that ``characters`` reads fields off.  It works by orbit-stabilizer:
each value's orbit under generators of the units fixing the values before it
gives Schreier generators of its stabilizer, not a scan of all phi(m) units.

No floating point is used anywhere except ``CyclotomicNumber.to_complex``,
which exists for display and numeric sanity checks only.
"""

from __future__ import annotations

import cmath
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .groups import InternalCheckError, prime_factors

__all__ = [
    "CyclotomicNumber",
    "AbelianField",
    "field_of_values",
    "euler_phi",
    "max_conductor",
    "ConductorOverflowError",
]

_DEFAULT_MAX_CONDUCTOR = 10 ** 6


class ConductorOverflowError(ValueError):
    """Raised when an operation would need a conductor above the configured cap."""


@lru_cache(maxsize=None)
def max_conductor() -> int:
    """Conductor cap; override with the SCHURGATE_MAX_CONDUCTOR environment variable.

    The variable is read once per process (``max_conductor.cache_clear()``
    reads it again).  An invalid value raises on every call, as a call that
    raises is not cached.
    """
    raw = os.environ.get("SCHURGATE_MAX_CONDUCTOR")
    if raw is None:
        return _DEFAULT_MAX_CONDUCTOR
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"SCHURGATE_MAX_CONDUCTOR must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError("SCHURGATE_MAX_CONDUCTOR must be positive")
    return cap


def _check_conductor(m: int, op: str) -> int:
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m} in {op}")
    if m > max_conductor():
        raise ConductorOverflowError(
            f"conductor {m} exceeds the cap {max_conductor()} in {op} "
            "(set SCHURGATE_MAX_CONDUCTOR to raise it)"
        )
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


def _kernel_residues(m: int, mp: int) -> list[int]:
    """Units of Z/m congruent to 1 mod mp: Gal(Q(z_m)/Q(z_mp)), for mp | m, mp < m."""
    return [k for k in range(1, m, mp) if gcd(k, m) == 1]


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


class CyclotomicNumber:
    """An exact element of Q(zeta_m), canonicalized to its minimal conductor."""

    __slots__ = ("conductor", "den", "num", "_terms", "_hash", "_lifts")

    def __init__(self, conductor: int, coeffs):
        m = _check_conductor(int(conductor), "the CyclotomicNumber constructor")
        vec = [Fraction(c) for c in coeffs]
        if len(vec) != _phi(m):
            raise ValueError(f"need phi({m}) = {_phi(m)} coefficients, got {len(vec)}")
        den = lcm(*(c.denominator for c in vec))
        num = [c.numerator * (den // c.denominator) for c in vec]
        self.conductor, self.den, self.num = _canonical(m, den, num)
        self._terms = self._hash = self._lifts = None

    @classmethod
    def _make(cls, m: int, den: int, num: tuple[int, ...]) -> "CyclotomicNumber":
        obj = object.__new__(cls)
        obj.conductor, obj.den, obj.num = m, den, num
        obj._terms = obj._hash = obj._lifts = None
        return obj

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coordinates over the power basis of Q(zeta_conductor)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _nz(self) -> tuple[tuple[int, int], ...]:
        """Nonzero (exponent, numerator) terms; memoized."""
        terms = self._terms
        if terms is None:
            terms = self._terms = tuple((i, c) for i, c in enumerate(self.num) if c)
        return terms

    def _lifted(self, M: int) -> tuple[int, tuple[int, ...]]:
        """(denominator, integer vector) of this value at conductor M; memoized."""
        if self._lifts is None:
            self._lifts = {}
        hit = self._lifts.get(M)
        if hit is None:
            hit = self._lifts[M] = (self.den, tuple(_image(M, self._nz(), M // self.conductor)))
        return hit

    @classmethod
    def from_rational(cls, x) -> "CyclotomicNumber":
        x = x if type(x) is int else Fraction(x)  # an int is its own numerator
        return cls._make(1, x.denominator, (x.numerator,))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CyclotomicNumber":
        """The root of unity zeta_m^k (k arbitrary; the result is canonicalized)."""
        _check_conductor(m, "zeta")
        buf = [0] * m
        buf[k % m] = 1
        return _from_buffer(m, 1, buf)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.num[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"value {self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        M = _check_conductor(lcm(self.conductor, other.conductor), "add")
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
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
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
        M = _check_conductor(lcm(self.conductor, other.conductor), "mul")
        buf = [0] * M
        _mul_into(buf, M, 1, self, other)
        return _from_buffer(M, self.den * other.den, buf)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/y as acc/N(y), taking the relative norm of y down one prime layer at a time."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.conductor == 1:
            return CyclotomicNumber.from_rational(Fraction(self.den, self.num[0]))
        y = self
        acc = CyclotomicNumber.from_rational(1)
        while y.conductor != 1:
            m = y.conductor
            mp = m // prime_factors(m)[0]
            c = prod(y.galois(k) for k in _kernel_residues(m, mp) if k != 1)
            y, acc = y * c, acc * c
            if mp % y.conductor:
                raise InternalCheckError(
                    f"norm of a value at conductor {m} down to Q(z_{mp}) has conductor {y.conductor}"
                )
        return acc * Fraction(y.den, y.num[0])

    def __truediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
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

    def conjugate(self) -> "CyclotomicNumber":
        return self.galois(-1)

    # -- misc -----------------------------------------------------------------

    def to_complex(self) -> complex:
        """Float embedding with zeta_m = exp(2*pi*i/m); display and diagnostics only."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        pw = 1 + 0j
        for c in self.num:
            if c:
                acc += (c / self.den) * pw
            pw *= z
        return acc

    def to_json(self) -> dict:
        den = self.den
        coeffs = [str(c) for c in self.num] if den == 1 else [_fmt(c, den) for c in self.num]
        return {"conductor": self.conductor, "coeffs": coeffs}

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.conductor, self.den, self.num) == (other.conductor, other.den, other.num)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.conductor, self.den, self.num))
        return h

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {[_fmt(c, self.den) for c in self.num]})"

    def __str__(self):
        den = self.den
        if self.conductor == 1:
            return _fmt(self.num[0], den)
        terms = []
        for i, c in self._nz():
            mono = f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
            if i == 0:
                terms.append(_fmt(c, den))
            elif abs(c) == den:
                terms.append(mono if c > 0 else f"-{mono}")
            else:
                terms.append(f"{_fmt(c, den)}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")


def _coerce(x):
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    return NotImplemented


class AbelianField:
    """An abelian number field, as the fixed field of a subgroup of (Z/m)^x.

    Canonicalized on construction: the conductor is reduced to the true
    conductor of the field, so equal fields always compare equal.  For the
    rationals the representation is conductor 1 with stabilizer (1,).
    """

    __slots__ = ("conductor", "stabilizer")

    def __init__(self, conductor: int, stabilizer):
        m = _check_conductor(int(conductor), "the AbelianField constructor")
        stab = sorted({k % m for k in stabilizer}) if m > 1 else [1]
        if m > 1:
            if 1 not in stab:
                raise ValueError("stabilizer must contain 1")
            for a in stab:
                if gcd(a, m) != 1:
                    raise ValueError(f"stabilizer element {a} is not a unit mod {m}")
            if _span(m, stab)[1] != set(stab):
                raise ValueError("stabilizer is not closed under multiplication")
        m, stab = self._reduce(m, stab)
        self.conductor = m
        self.stabilizer = tuple(stab)

    @staticmethod
    def _reduce(m: int, stab: list[int]) -> tuple[int, list[int]]:
        """Conductor of the fixed field and the stabilizer there, one prime at a time.

        The field lies in Q(zeta_(m/p)) iff every unit that is 1 mod m/p fixes
        it; a prime that fails at m fails at every divisor of m, as in _canonical.
        """
        for pr in prime_factors(m):
            while m % pr == 0 and set(_kernel_residues(m, m // pr)) <= set(stab):
                m //= pr
                stab = sorted({k % m for k in stab})
        return (m, stab) if m > 1 else (1, [1])

    @property
    def degree(self) -> int:
        return _phi(self.conductor) // len(self.stabilizer)

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "stabilizer": list(self.stabilizer)}

    @classmethod
    def rationals(cls) -> "AbelianField":
        return cls(1, [1])

    def __eq__(self, other):
        if not isinstance(other, AbelianField):
            return NotImplemented
        return self.conductor == other.conductor and self.stabilizer == other.stabilizer

    def __hash__(self):
        return hash((self.conductor, self.stabilizer))

    def __repr__(self):
        return f"AbelianField(conductor={self.conductor}, degree={self.degree})"


def _span(m: int, candidates) -> tuple[list[int], set[int]]:
    """Greedy generators and the elements of the subgroup of (Z/m)^x the candidates span.

    A candidate outside the span so far becomes a generator g, and the span H
    grows by the cosets g^t H until g^t falls in H; no Galois image is needed.
    """
    gens, group = [], {1}
    for g in candidates:
        if g not in group:
            gens.append(g)
            out, x = set(group), g
            while x not in group:
                out.update(h * x % m for h in group)
                x = x * g % m
            group = out
    return gens, group


def _stabilizer(m: int, gens, order: int, x: CyclotomicNumber):
    """Generators and elements of the subgroup of <gens> (of the given order) fixing x.

    Walks the orbit of x, recording for each image a unit u of <gens> that
    maps x to it; each generator g then gives the Schreier generator
    g * u / u' of the stabilizer, where u' is the unit recorded for g(u(x)).
    """
    mx, terms = x.conductor, x._nz()
    reps = {x.num: 1}
    frontier = [1]
    schreier = set()
    while frontier:
        u = frontier.pop()
        for g in gens:
            gu = g * u % m
            img = tuple(_image(mx, terms, gu % mx))
            r = reps.get(img)
            if r is None:
                reps[img] = gu
                frontier.append(gu)
            elif r != gu:
                schreier.add(gu * pow(r, -1, m) % m)
    sub_gens, group = _span(m, sorted(schreier))
    if len(group) * len(reps) != order:
        raise InternalCheckError(
            f"orbit-stabilizer at conductor {m}: |orbit| {len(reps)} * |stabilizer| "
            f"{len(group)} != {order}"
        )
    return sub_gens, group


def field_of_values(values) -> AbelianField:
    """Smallest abelian field containing every value in the list."""
    vals = list(values)
    if not vals:
        raise ValueError("need at least one value")
    m = _check_conductor(lcm(*(v.conductor for v in vals)), "field_of_values")
    if m == 1:
        return AbelianField.rationals()
    gens, group = _span(m, (k for k in range(2, m) if gcd(k, m) == 1))
    for x in dict.fromkeys(v for v in vals if v.conductor > 1):
        gens, group = _stabilizer(m, gens, len(group), x)
    return AbelianField(m, group)
