"""Frobenius data at unramified primes from splitting patterns and residues.

For the fields of interest, Frobenius at v lives in G = C_q x| C_{p^n} and is
pinned down by two independent observations:

  * the distinct-degree factorization pattern of the degree-q polynomial
    defining the non-Galois field F_1 modulo v, which sees the image of
    Frobenius in the closure quotient C_q x| C_{p^r} acting on q points; and
  * the class of v in the degree-p^n cyclotomic layer, read off as the
    p-adic logarithm of v^{p-1} in the principal units mod p^{n+1}, which
    is one modular power, never a walk through the units.

The pattern can only take the shapes 1^q (trivial image), 1 + o + ... + o
with o = p^i > 1 (a power of b), or a single q (nontrivial order-q part).
In the last case the conjugacy class is ambiguous among the (q-1)/p^r
classes of order-q-part elements with the observed cyclotomic component;
the ambiguity is carried explicitly and never silently resolved.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .groups import (
    ConjClass,
    GroupElement,
    MetacyclicParams,
    _class_index,
    _psi_orbit_reps,
    conjugacy_classes,
    is_prime,
    vp,
)

__all__ = [
    "EXAMPLE_F1",
    "FrobeniusDatum",
    "frobenius_datum",
    "factor_pattern",
    "cyclotomic_exponent",
    "poly_discriminant",
    "resolve_field_poly",
]

# x^7 - 42x^5 - 70x^4 + 168x^3 + 126x^2 - 84x - 45, ascending coefficients
EXAMPLE_F1 = (-45, -84, 126, 168, -70, -42, 0, 1)


def resolve_field_poly(spec: str) -> tuple[int, ...]:
    """Builtin name or comma-separated integer coefficients (ascending)."""
    if spec == "example-F1":
        return EXAMPLE_F1
    try:
        coeffs = tuple(int(t) for t in spec.split(","))
    except ValueError as exc:
        raise ValueError(f"bad field spec {spec!r}: use 'example-F1' or ascending integer coefficients") from exc
    if len(coeffs) < 2 or coeffs[-1] == 0:
        raise ValueError("field polynomial must be nonconstant with nonzero leading coefficient")
    return coeffs


# -- integer resultants -------------------------------------------------------

def poly_discriminant(coeffs) -> int:
    """Discriminant of an integer polynomial (ascending coefficients), exact."""
    f = list(coeffs)
    d = len(f) - 1
    fp = [i * f[i] for i in range(1, d + 1)]
    res = _resultant(f, fp)
    lead = f[-1]
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    val, rem = divmod(sign * res, lead)
    if rem:
        raise ValueError("discriminant is not integral; is the input a polynomial?")
    return val


def _resultant(f: list[int], g: list[int]) -> int:
    """Sylvester determinant by fraction-free (Bareiss) elimination."""
    dn, dm = len(f) - 1, len(g) - 1
    size = dn + dm
    mat = []
    frow = list(reversed(f))
    grow = list(reversed(g))
    for i in range(dm):
        mat.append([0] * i + frow + [0] * (size - dn - 1 - i))
    for i in range(dn):
        mat.append([0] * i + grow + [0] * (size - dm - 1 - i))
    prev = 1
    sign = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if mat[r][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


# -- polynomial arithmetic mod v ----------------------------------------------

def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_rem(a: list[int], b: list[int], v: int) -> list[int]:
    """a mod b over F_v for a trimmed, nonzero b; products are summed before % v."""
    db = len(b) - 1
    inv = pow(b[-1], -1, v)
    b = [c * inv % v for c in b[:db]]  # b made monic, leading 1 left implicit
    a = list(a)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] % v
        if c:
            off = k - db
            a[off:k] = [x - c * y for x, y in zip(a[off:k], b)]
    return _gf_trim([x % v for x in a[:db]])


def _gf_gcd(a, b, v):
    """Monic gcd over F_v of trimmed lists."""
    while b:
        a, b = b, _gf_rem(a, b, v)
    inv = pow(a[-1], -1, v)
    return [c * inv % v for c in a]


def _gf_quo(a, b, v):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, v)
    for k in range(len(out) - 1, -1, -1):
        c = a[k + len(b) - 1] * inv_lead % v
        out[k] = c
        if c:
            for i in range(len(b)):
                a[k + i] = (a[k + i] - c * b[i]) % v
    return _gf_trim(out)


@lru_cache(maxsize=None)
def _discriminant(coeffs: tuple[int, ...]) -> int:
    return poly_discriminant(coeffs)


class _FrobeniusMap:
    """The v-power map of F_v[x]/(f) for a monic f of degree d >= 2.

    A residue h = sum h_i x^i is packed into one integer with a B-bit slot
    per coefficient, so a product of residues is one integer product whose
    slots hold the coefficient sums (fewer than d v^2, no carries).  The
    slots of degree d .. 2d-1 are then folded back with the packed rows
    x^k mod f, and one % v per coefficient finishes the reduction.  Rows
    x^(v i) mod f (the Berlekamp Q-matrix) turn each further power x^(v^k)
    into one matrix-vector product.
    """

    def __init__(self, f: list[int], v: int):
        d = len(f) - 1
        self.d, self.v = d, v
        self.bits = b = (2 * d * v * v).bit_length()
        self.mask = (1 << b) - 1
        self.low = (1 << (b * d)) - 1
        self.shifts = [b * k for k in range(2 * d)]
        row = [-c % v for c in f[:d]]  # x^d mod f
        self.top_down = self.shifts[d - 1::-1]
        fold = []
        for k in range(d, 2 * d):
            fold.append((self.shifts[k], self.pack(row)))
            top = row[-1]
            row = [(r - top * c) % v for r, c in zip([0] + row[:-1], f)]
        self.fold = fold  # (slot shift, x^k mod f) for k = d .. 2d-1
        h = 1 << b  # x
        for bit in bin(v)[3:]:
            h = self.reduce(h * h << b if bit == "1" else h * h)
        rows = [1, h]
        for _ in range(d - 2):
            rows.append(self.reduce(rows[-1] * h))
        self.rows = rows

    def pack(self, coeffs) -> int:
        out, b = 0, self.bits
        for c in reversed(coeffs):
            out = out << b | c
        return out

    def unpack(self, h: int) -> list[int]:
        mask = self.mask
        return [h >> s & mask for s in self.shifts[: self.d]]

    def reduce(self, s: int) -> int:
        """The packed product s (degree < 2d) as a reduced residue mod (f, v)."""
        v, mask, b = self.v, self.mask, self.bits
        acc = s & self.low
        for t, row in self.fold:
            c = s >> t & mask
            if c:
                acc += c % v * row
        out = 0
        for t in self.top_down:
            out = out << b | (acc >> t & mask) % v
        return out

    def power(self, coeffs: list[int]) -> int:
        """h^v mod (f, v) for h given by its d coefficients."""
        acc = 0
        for c, row in zip(coeffs, self.rows):
            if c:
                acc += c * row
        return self.reduce(acc)


def factor_pattern(coeffs, v: int) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of a squarefree poly mod v.

    Distinct-degree factorization driven by the Frobenius matrix of f mod v:
    x^v mod f comes from one left-to-right powering, and each further
    x^(v^i) is one matrix-vector product.  Only the degree multiset is kept.
    Raises if v divides the leading coefficient (the degree drops) or the
    discriminant (v ramified: f mod v is squarefree exactly when v does not
    divide disc(f), given that v does not divide the leading coefficient).
    """
    if not is_prime(v):
        raise ValueError(f"{v} is not prime")
    lead = coeffs[-1] % v
    if lead == 0:
        raise ValueError(f"leading coefficient vanishes mod {v}")
    d = len(coeffs) - 1
    if d < 2:
        return (1,) * d
    if _discriminant(tuple(coeffs)) % v == 0:
        raise ValueError(f"ramified prime {v}: reduction is not squarefree")
    inv_lead = pow(lead, -1, v)
    work = [c * inv_lead % v for c in coeffs]
    frob = _FrobeniusMap(work, v)
    degrees: list[int] = []
    h = frob.unpack(frob.rows[1])  # x^v mod f
    i = 1
    while True:
        diff = h[:]
        diff[1] = (diff[1] - 1) % v
        g = _gf_gcd(work, _gf_trim(diff), v)
        if len(g) > 1:
            degrees.extend([i] * ((len(g) - 1) // i))
            work = _gf_quo(work, g, v)
        if len(work) - 1 < 2 * (i + 1):
            break
        i += 1
        h = frob.unpack(frob.power(h))  # x^(v^i) mod f
    if len(work) > 1:
        degrees.append(len(work) - 1)
    return tuple(sorted(degrees))


# -- cyclotomic component -----------------------------------------------------

def cyclotomic_exponent(v: int, p: int, n: int) -> int:
    """Exponent y in Z/p^n of the class of v in the degree-p^n cyclotomic layer.

    The layer is the fixed field of the prime-to-p torsion of (Z/p^{n+1})^x,
    so v and v * t are identified for t^{p-1} = 1.  Concretely
    v^{p-1} = (1+p)^e in the principal units and y = e / (p-1) mod p^n,
    normalizing b to act as the class with y = 1.  The p-adic logarithm
    l(u) = (u^{p^n} - 1) / p^{n+1} mod p^n, taken mod p^{2n+1}, maps the
    principal units mod p^{n+1} isomorphically onto Z/p^n with l(1+p) a
    unit, so e = l(v^{p-1}) / l(1+p).
    """
    if v % p == 0:
        raise ValueError(f"{v} is ramified in the cyclotomic layer")
    pn, mod, scale = p ** n, p ** (2 * n + 1), p ** (n + 1)
    e = (pow(v, (p - 1) * pn, mod) - 1) // scale
    unit = (pow(1 + p, pn, mod) - 1) // scale
    return e * pow(unit * (p - 1), -1, pn) % pn


class FrobeniusDatum(NamedTuple):
    v: int
    order_in_G: int
    cyclotomic_component: int  # exponent y in Z/p^n
    conj_class: ConjClass | None  # populated only when unique
    candidates: tuple[ConjClass, ...]
    pattern: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "v": self.v,
            "order_in_G": self.order_in_G,
            "cyclotomic_component": self.cyclotomic_component,
            "pattern": list(self.pattern),
            "class": list(self.conj_class.rep) if self.conj_class else None,
            "candidates": [list(c.rep) for c in self.candidates],
        }


def frobenius_datum(coeffs, G: MetacyclicParams, v: int) -> FrobeniusDatum:
    """Frobenius class data at an unramified prime v from pattern + residue.

    Preconditions: v prime, v not in {p, q}, v unramified (not dividing the
    polynomial discriminant; detected via squarefreeness mod v), and the
    polynomial of degree exactly q.
    """
    if len(coeffs) - 1 != G.q:
        raise ValueError(
            f"field polynomial has degree {len(coeffs) - 1}, expected q = {G.q}"
        )
    if v in (G.p, G.q):
        raise ValueError(f"{v} is a ramified structural prime for this group")
    pattern = factor_pattern(coeffs, v)
    y = cyclotomic_exponent(v, G.p, G.n)
    classes, idx = conjugacy_classes(G), _class_index(G)
    q, pr = G.q, G.pr
    if pattern == (1,) * q:
        if y % pr != 0:
            raise _pattern_error(coeffs, v, pattern, y)
        cls = classes[idx[GroupElement(0, y)]]
        return FrobeniusDatum(v, cls.element_order, y, cls, (cls,), pattern)
    if pattern == (q,):
        if y % pr != 0:
            raise _pattern_error(coeffs, v, pattern, y)
        cands = tuple(classes[idx[GroupElement(x0, y)]] for x0 in _psi_orbit_reps(G))
        order = cands[0].element_order
        if any(c.element_order != order for c in cands):
            raise _pattern_error(coeffs, v, pattern, y)
        return FrobeniusDatum(v, order, y, None, cands, pattern)
    # expected shape: one fixed point plus (q-1)/o cycles of length o = p^i
    o = pattern[-1]
    if (
        pattern[0] == 1
        and len(set(pattern[1:])) == 1
        and o > 1
        and o == G.p ** vp(o, G.p)
        and pattern.count(o) * o == q - 1
    ):
        i = vp(o, G.p)
        if i > G.r or y % pr == 0 or vp(y, G.p) != G.r - i:
            raise _pattern_error(coeffs, v, pattern, y)
        cls = classes[idx[GroupElement(0, y)]]
        return FrobeniusDatum(v, cls.element_order, y, cls, (cls,), pattern)
    raise _pattern_error(coeffs, v, pattern, y)


def _pattern_error(coeffs, v, pattern, y):
    return ValueError(
        f"polynomial does not define expected extension: pattern {pattern} at v={v} "
        f"is incompatible with cyclotomic exponent {y}"
    )

