"""Exact arithmetic in cyclotomic fields Q(zeta_m) and their abelian subfields.

A value is stored as a dense vector of rationals over the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m), reduced modulo the m-th cyclotomic
polynomial.  Every public operation canonicalizes its result down to the
smallest conductor m' | m whose field contains the value, so two values
compare equal exactly when they are equal as algebraic numbers.

No floating point is used anywhere except ``CyclotomicNumber.to_complex``,
which exists for display and numeric sanity checks only.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd

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


def max_conductor() -> int:
    """Conductor cap; override with the SCHURGATE_MAX_CONDUCTOR environment variable."""
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


def _proper_divisors(m: int) -> list[int]:
    divs = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            divs.append(d)
            if d != m // d:
                divs.append(m // d)
        d += 1
    divs.remove(m)
    return sorted(divs)


# ---------------------------------------------------------------------------
# per-conductor tables, memoized

_phi_cache: dict[int, int] = {}
_cyclo_cache: dict[int, tuple[int, ...]] = {}
_rows_cache: dict[int, list[tuple[int, ...]]] = {}
_solver_cache: dict[tuple[int, int], "_SubfieldSolver"] = {}


def _phi(m: int) -> int:
    val = _phi_cache.get(m)
    if val is None:
        val = _phi_cache[m] = euler_phi(m)
    return val


def _poly_div_monic(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of ascending integer polynomials, den monic
    num = list(num)
    dn = len(den) - 1
    qn = len(num) - 1 - dn
    quot = [0] * (qn + 1)
    for k in range(qn, -1, -1):
        c = num[k + dn]
        quot[k] = c
        if c:
            for i in range(dn + 1):
                num[k + i] -= c * den[i]
    if any(num[:dn]):
        raise InternalCheckError("inexact cyclotomic polynomial division")
    return quot


def _cyclo(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic."""
    poly = _cyclo_cache.get(m)
    if poly is not None:
        return poly
    if m == 1:
        poly = (-1, 1)
    else:
        work = [0] * (m + 1)
        work[0], work[m] = -1, 1
        for d in _proper_divisors(m):
            work = _poly_div_monic(work, _cyclo(d))
        poly = tuple(work)
    _cyclo_cache[m] = poly
    return poly


def _rows(m: int) -> list[tuple[int, ...]]:
    """rows[e - phi] expresses z^e in the power basis, for phi <= e <= max(2*phi-2, m-1)."""
    rows = _rows_cache.get(m)
    if rows is not None:
        return rows
    phi = _phi(m)
    poly = _cyclo(m)
    top = max(2 * phi - 2, m - 1)
    base = tuple(-c for c in poly[:phi])
    rows = [base]
    row = base
    for _ in range(phi + 1, top + 1):
        carry = row[phi - 1]
        new = [0] * phi
        for i in range(phi - 1, 0, -1):
            new[i] = row[i - 1]
        if carry:
            for i in range(phi):
                new[i] += carry * base[i]
        row = tuple(new)
        rows.append(row)
    _rows_cache[m] = rows
    return rows


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
    """Reduce an integer buffer indexed by exponents 0..len-1 into the power basis."""
    phi = _phi(m)
    if len(buf) <= phi:
        return buf + [0] * (phi - len(buf))
    rows = _rows(m)
    out = buf[:phi]
    for e in range(phi, len(buf)):
        c = buf[e]
        if c:
            row = rows[e - phi]
            for i in range(phi):
                out[i] += c * row[i]
    return out


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


class _SubfieldSolver:
    """Coordinates of conductor-m values inside Q(zeta_mp), for a fixed mp | m."""

    def __init__(self, m: int, mp: int):
        phi, phip = _phi(m), _phi(mp)
        cols = []
        for i in range(phip):
            unit = [0] * phip
            unit[i] = 1
            _, col = _lift_int(mp, 1, unit, m)
            cols.append(col)
        # greedily select phip rows of the tall basis matrix with full rank
        reduced: list[list[Fraction]] = []
        lead_cols: list[int] = []
        select: list[int] = []
        for i in range(phi):
            row = [Fraction(cols[j][i]) for j in range(phip)]
            for rvec, lc in zip(reduced, lead_cols):
                f = row[lc]
                if f:
                    row = [a - f * b for a, b in zip(row, rvec)]
            lead = next((t for t, a in enumerate(row) if a), None)
            if lead is None:
                continue
            piv = row[lead]
            row = [a / piv for a in row]
            reduced.append(row)
            lead_cols.append(lead)
            select.append(i)
            if len(select) == phip:
                break
        if len(select) != phip:
            raise InternalCheckError("subfield basis matrix is rank deficient")
        square = [[Fraction(cols[j][i]) for j in range(phip)] for i in select]
        self.inv = _invert_matrix(square)
        self.cols = cols
        self.select = select
        self.phi, self.phip = phi, phip

    def solve(self, coeffs) -> tuple[Fraction, ...] | None:
        """Solve basis_matrix * c = coeffs; None if coeffs is not in the subfield."""
        rhs = [coeffs[i] for i in self.select]
        sol = [
            sum(row[t] * rhs[t] for t in range(self.phip)) for row in self.inv
        ]
        for i in range(self.phi):
            acc = Fraction(0)
            for j in range(self.phip):
                if sol[j]:
                    acc += sol[j] * self.cols[j][i]
            if acc != coeffs[i]:
                return None
        return tuple(sol)


def _invert_matrix(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    work = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise InternalCheckError("singular matrix in subfield solver")
        work[col], work[piv] = work[piv], work[col]
        f = work[col][col]
        work[col] = [a / f for a in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                g = work[r][col]
                work[r] = [a - g * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def _solver(m: int, mp: int) -> _SubfieldSolver:
    key = (m, mp)
    sol = _solver_cache.get(key)
    if sol is None:
        sol = _solver_cache[key] = _SubfieldSolver(m, mp)
    return sol


def _kernel_residues(m: int, mp: int) -> list[int]:
    """Units of Z/m congruent to 1 mod mp: Gal(Q(z_m)/Q(z_mp))."""
    if mp >= m:
        return [1]
    return [k for k in range(1, m, mp) if gcd(k, m) == 1]


def _canonical(m: int, coeffs: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    if all(c == 0 for c in coeffs[1:]):
        return 1, (coeffs[0],)
    den, vec = _int_parts(coeffs)
    changed = True
    while changed and m > 1:
        changed = False
        for pr in prime_factors(m):
            mp = m // pr
            fixed = True
            for k in _kernel_residues(m, mp):
                if k != 1 and _apply_galois_int(m, vec, k) != vec:
                    fixed = False
                    break
            if not fixed:
                continue
            frac = tuple(Fraction(v, den) for v in vec)
            sol = _solver(m, mp).solve(frac)
            if sol is None:
                raise InternalCheckError(
                    f"value fixed by Gal(Q(z_{m})/Q(z_{mp})) but not expressible there"
                )
            m = mp
            if all(c == 0 for c in sol[1:]):
                return 1, (sol[0],)
            den, vec = _int_parts(sol)
            changed = True
            break
    return m, tuple(Fraction(v, den) for v in vec)


class CyclotomicNumber:
    """An exact element of Q(zeta_m), canonicalized to its minimal conductor."""

    __slots__ = ("conductor", "coeffs", "_hash", "_lifts")

    def __init__(self, conductor: int, coeffs):
        m = _check_conductor(int(conductor))
        vec = tuple(Fraction(c) for c in coeffs)
        if len(vec) != _phi(m):
            raise ValueError(f"need phi({m}) = {_phi(m)} coefficients, got {len(vec)}")
        m, vec = _canonical(m, vec)
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
        k %= m
        phi = _phi(m)
        if k < phi:
            vec = [Fraction(0)] * phi
            vec[k] = Fraction(1)
        else:
            vec = [Fraction(c) for c in _rows(m)[k - phi]]
        return cls._make(*_canonical(m, tuple(vec)))

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
        vec = tuple(Fraction(a * d2 + b * d1, d1 * d2) for a, b in zip(v1, v2))
        return CyclotomicNumber._make(*_canonical(m, vec))

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
        out = _fold(m, buf)
        den = d1 * d2
        vec = tuple(Fraction(c, den) for c in out)
        return CyclotomicNumber._make(*_canonical(m, vec))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.conductor == 1:
            return CyclotomicNumber.from_rational(Fraction(1) / self.coeffs[0])
        m = self.conductor
        phi = _phi(m)
        # extended Euclid against the (irreducible) cyclotomic polynomial:
        # maintain r_i = u_i * self (mod Phi_m)
        r0 = [Fraction(c) for c in _cyclo(m)]
        r1 = _trim(list(self.coeffs))
        u0: list[Fraction] = [Fraction(0)]
        u1: list[Fraction] = [Fraction(1)]
        while len(r1) > 1:
            q, rem = _poly_divmod_q(r0, r1)
            r0, r1 = r1, _trim(rem)
            u0, u1 = u1, _trim(_poly_sub(u0, _poly_mul_q(q, u1)))
            if not r1:
                raise InternalCheckError("zero remainder while inverting a nonzero value")
        c = r1[0]
        inv = [x / c for x in u1]
        vec = tuple(inv) + (Fraction(0),) * (phi - len(inv))
        return CyclotomicNumber._make(*_canonical(m, vec))

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
        out = _apply_galois_int(m, vec, k)
        frac = tuple(Fraction(c, den) for c in out)
        return CyclotomicNumber._make(*_canonical(m, frac))

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


def _trim(poly: list[Fraction]) -> list[Fraction]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_divmod_q(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dn:
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn] / lead
        q[k] = c
        if c:
            for i in range(dn + 1):
                num[k + i] -= c * den[i]
    return q, num[:dn]


def _poly_mul_q(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


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
