"""Exact arithmetic in cyclotomic fields Q(zeta_m) and their abelian subfields.

A value is stored as a dense vector of rationals over the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m).  Integer buffers indexed by exponents
are reduced into that basis by wrapping exponents mod m and dividing by the
sparse monic Phi_m: Phi_m(x) = Phi_rad(x^(m/rad)) for the radical rad of m,
so Phi_m has at most phi(rad) + 1 nonzero terms.

Every public operation canonicalizes its result down to the smallest
conductor m' | m whose field contains the value, so two values compare
equal exactly when they are equal as algebraic numbers.  The descent goes
one prime p | m at a time, and membership in Q(zeta_(m/p)) and the
coordinates there come out of one step:

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

No floating point is used anywhere except ``CyclotomicNumber.to_complex``,
which exists for display and numeric sanity checks only.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

__all__ = [
    "CyclotomicNumber",
    "AbelianField",
    "galois_apply",
    "field_of_values",
    "euler_phi",
    "max_conductor",
    "ConductorOverflowError",
    "InternalCheckError",
]

_DEFAULT_MAX_CONDUCTOR = 10 ** 6


class ConductorOverflowError(ValueError):
    """Raised when an operation would need a conductor above the configured cap."""


class InternalCheckError(RuntimeError):
    """An identity that must hold by theory failed; indicates a bug, not a finding."""


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


def _check_conductor(m: int) -> int:
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    if m > max_conductor():
        raise ConductorOverflowError(
            f"conductor {m} exceeds the cap {max_conductor()} "
            "(set SCHURGATE_MAX_CONDUCTOR to raise it)"
        )
    return m


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of m, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def euler_phi(m: int) -> int:
    phi = m
    for pr in prime_factors(m):
        phi -= phi // pr
    return phi


# ---------------------------------------------------------------------------
# per-conductor tables, memoized

_phi_cache: dict[int, int] = {}
_cyclo_cache: dict[int, tuple[tuple[int, int], ...]] = {}


def _phi(m: int) -> int:
    val = _phi_cache.get(m)
    if val is None:
        val = _phi_cache[m] = euler_phi(m)
    return val


def _cyclo(m: int) -> tuple[tuple[int, int], ...]:
    """Nonzero terms (exponent, coefficient) of the m-th cyclotomic polynomial, ascending.

    The last term is the leading (phi(m), 1).  For squarefree n > 1,
    Phi_n(x) = prod over d | n of (1 - x^d)^mu(n/d), which is evaluated as a
    power series cut off above degree phi(n).  Then Phi_m(x) = Phi_rad(x^(m/rad))
    for the radical rad of m, so Phi_m has at most phi(rad) + 1 terms.
    """
    terms = _cyclo_cache.get(m)
    if terms is not None:
        return terms
    if m == 1:
        terms = ((0, -1), (1, 1))
    else:
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
        terms = tuple((i * step, c) for i, c in enumerate(ser) if c)
    _cyclo_cache[m] = terms
    return terms


def _int_parts(coeffs) -> tuple[int, list[int]]:
    """Common denominator and integer numerators of a rational coefficient vector."""
    den = 1
    for c in coeffs:
        d = c.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return 1, [c.numerator for c in coeffs]
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


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


def _lift_int(m: int, den: int, vec: list[int], big: int) -> tuple[int, list[int]]:
    """Re-express an integer vector at conductor m in conductor big (m | big)."""
    if m == big:
        return den, vec
    scale = big // m
    buf = [0] * ((len(vec) - 1) * scale + 1)
    for i, c in enumerate(vec):
        if c:
            buf[i * scale] = c
    return den, _fold(big, buf)


def _apply_galois_int(m: int, vec: list[int], k: int) -> list[int]:
    buf = [0] * m
    for i, c in enumerate(vec):
        if c:
            buf[(i * k) % m] += c
    return _fold(m, buf)


def _kernel_residues(m: int, mp: int) -> list[int]:
    """Units of Z/m congruent to 1 mod mp: Gal(Q(z_m)/Q(z_mp))."""
    if mp >= m:
        return [1]
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


def _canonical(m: int, den: int, vec: list[int]) -> tuple[int, tuple[Fraction, ...]]:
    """Minimal conductor and coordinates there of the value vec/den at conductor m."""
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
    return m, tuple(Fraction(c, den) for c in vec)


class CyclotomicNumber:
    """An exact element of Q(zeta_m), canonicalized to its minimal conductor."""

    __slots__ = ("conductor", "coeffs", "_hash", "_lifts")

    def __init__(self, conductor: int, coeffs):
        m = _check_conductor(int(conductor))
        vec = tuple(Fraction(c) for c in coeffs)
        if len(vec) != _phi(m):
            raise ValueError(f"need phi({m}) = {_phi(m)} coefficients, got {len(vec)}")
        m, vec = _canonical(m, *_int_parts(vec))
        self.conductor = m
        self.coeffs = vec
        self._hash = None
        self._lifts = None

    @classmethod
    def _make(cls, m: int, vec: tuple[Fraction, ...]) -> "CyclotomicNumber":
        obj = object.__new__(cls)
        obj.conductor = m
        obj.coeffs = vec
        obj._hash = None
        obj._lifts = None
        return obj

    def _lifted(self, M: int) -> tuple[int, tuple[int, ...]]:
        """(denominator, integer vector) of this value at conductor M; memoized."""
        cache = self._lifts
        if cache is None:
            cache = {}
            self._lifts = cache
        hit = cache.get(M)
        if hit is None:
            den, vec = _int_parts(self.coeffs)
            den, out = _lift_int(self.conductor, den, vec, M)
            hit = (den, tuple(out))
            cache[M] = hit
        return hit

    @classmethod
    def from_rational(cls, x) -> "CyclotomicNumber":
        return cls._make(1, (Fraction(x),))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CyclotomicNumber":
        """The root of unity zeta_m^k (k arbitrary; the result is canonicalized)."""
        _check_conductor(m)
        return cls._make(*_canonical(m, 1, _fold(m, [0] * (k % m) + [1])))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.conductor == 1 and self.coeffs[0] == 0

    def is_rational(self) -> bool:
        return self.conductor == 1

    def rational_value(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"value {self} is not rational")
        return self.coeffs[0]

    # -- arithmetic -----------------------------------------------------------

    def _common(self, other: "CyclotomicNumber") -> int:
        m1, m2 = self.conductor, other.conductor
        m = m1 * m2 // gcd(m1, m2)
        _check_conductor(m)
        return m

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self._common(other)
        d1, v1 = _lift_int(self.conductor, *_int_parts(self.coeffs), m)
        d2, v2 = _lift_int(other.conductor, *_int_parts(other.coeffs), m)
        vec = [a * d2 + b * d1 for a, b in zip(v1, v2)]
        return CyclotomicNumber._make(*_canonical(m, d1 * d2, vec))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber._make(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self._common(other)
        d1, v1 = _lift_int(self.conductor, *_int_parts(self.coeffs), m)
        d2, v2 = _lift_int(other.conductor, *_int_parts(other.coeffs), m)
        phi = _phi(m)
        buf = [0] * (2 * phi - 1)
        for i, a in enumerate(v1):
            if a:
                for j, b in enumerate(v2):
                    if b:
                        buf[i + j] += a * b
        return CyclotomicNumber._make(*_canonical(m, d1 * d2, _fold(m, buf)))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/y as acc/N(y), taking the relative norm of y down one prime layer at a time."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.conductor == 1:
            return CyclotomicNumber.from_rational(1 / self.coeffs[0])
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
        return acc * (1 / y.coeffs[0])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

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
        den, vec = _int_parts(self.coeffs)
        return CyclotomicNumber._make(*_canonical(m, den, _apply_galois_int(m, vec, k)))

    def conjugate(self) -> "CyclotomicNumber":
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    # -- misc -----------------------------------------------------------------

    def to_complex(self) -> complex:
        """Float embedding with zeta_m = exp(2*pi*i/m); display and diagnostics only."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        pw = 1 + 0j
        for c in self.coeffs:
            if c:
                acc += float(c) * pw
            pw *= z
        return acc

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [
                str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                for c in self.coeffs
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CyclotomicNumber":
        return cls(obj["conductor"], [Fraction(s) for s in obj["coeffs"]])

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.conductor, self.coeffs))
        return h

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.conductor == 1:
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mono = f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")


def _coerce(x):
    if isinstance(x, CyclotomicNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicNumber.from_rational(x)
    return NotImplemented


def galois_apply(x: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """Apply zeta_m -> zeta_m^k to x; k must be coprime to the conductor of x."""
    return x.galois(k)


class AbelianField:
    """An abelian number field, as the fixed field of a subgroup of (Z/m)^x.

    Canonicalized on construction: the conductor is reduced to the true
    conductor of the field, so equal fields always compare equal.  For the
    rationals the representation is conductor 1 with stabilizer (1,).
    """

    __slots__ = ("conductor", "stabilizer")

    def __init__(self, conductor: int, stabilizer):
        m = _check_conductor(int(conductor))
        stab = sorted({k % m for k in stabilizer}) if m > 1 else [1]
        if m > 1:
            sset = set(stab)
            if 1 not in sset:
                raise ValueError("stabilizer must contain 1")
            for a in stab:
                if gcd(a, m) != 1:
                    raise ValueError(f"stabilizer element {a} is not a unit mod {m}")
                for b in stab:
                    if (a * b) % m not in sset:
                        raise ValueError("stabilizer is not closed under multiplication")
        m, stab = self._reduce(m, stab)
        self.conductor = m
        self.stabilizer = tuple(stab)

    @staticmethod
    def _reduce(m: int, stab: list[int]) -> tuple[int, list[int]]:
        changed = True
        while changed and m > 1:
            changed = False
            sset = set(stab)
            for pr in prime_factors(m):
                mp = m // pr
                if all(k in sset for k in _kernel_residues(m, mp)):
                    if mp == 1:
                        return 1, [1]
                    stab = sorted({k % mp for k in stab})
                    m = mp
                    changed = True
                    break
        if m == 1:
            stab = [1]
        return m, stab

    @property
    def degree(self) -> int:
        return _phi(self.conductor) // len(self.stabilizer)

    def contains_value(self, x: CyclotomicNumber) -> bool:
        m = self.conductor
        if m % x.conductor != 0:
            return False
        _, vec = _lift_int(x.conductor, *_int_parts(x.coeffs), m)
        return all(
            k == 1 or _apply_galois_int(m, vec, k) == vec for k in self.stabilizer
        )

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "stabilizer": list(self.stabilizer)}

    @classmethod
    def from_json(cls, obj: dict) -> "AbelianField":
        return cls(obj["conductor"], obj["stabilizer"])

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


def field_of_values(values) -> AbelianField:
    """Smallest abelian field containing every value in the list."""
    vals = list(values)
    if not vals:
        raise ValueError("need at least one value")
    m = 1
    for v in vals:
        m = m * v.conductor // gcd(m, v.conductor)
    _check_conductor(m)
    if m == 1:
        return AbelianField.rationals()
    lifted = []
    for v in vals:
        if not v.is_rational():
            _, vec = _lift_int(v.conductor, *_int_parts(v.coeffs), m)
            lifted.append(vec)
    stab = [
        k
        for k in range(1, m)
        if gcd(k, m) == 1
        and all(_apply_galois_int(m, vec, k) == vec for vec in lifted)
    ]
    return AbelianField(m, stab)
