"""Frobenius data at unramified primes from residues and certified splitting patterns.

For the fields of interest, Frobenius at v lives in G = C_q x| C_{p^n} and is
pinned down by two independent observations:

  * the class of v in the degree-p^n cyclotomic layer, read off as the
    p-adic logarithm of v^{p-1} in the principal units mod p^{n+1}, which
    is one modular power, never a walk through the units; and
  * the splitting pattern of the degree-q polynomial defining the
    non-Galois field F_1 modulo v, which sees the image of Frobenius in the
    closure quotient C_q x| C_{p^r} acting on q points.

The pattern can only take the shapes 1^q (trivial image), 1 + o + ... + o
with o = p^i > 1 (a power of b), or a single q (nontrivial order-q part),
and the cyclotomic exponent y already says which: 1 + o + ... + o with
o = p^(r - v_p(y)) when y is not 0 mod p^r, else 1^q or q.  So the pattern
is certified, not factored: the Frobenius matrix of x -> x^v mod f, built
once per prime, checks the shapes y allows (``frobenius_datum``), and
distinct-degree factorization runs only when a certificate fails, to name
the pattern in the refusal.  In the q case the conjugacy class is
ambiguous among the (q-1)/p^r classes of order-q-part elements with the
observed cyclotomic component; the ambiguity is carried explicitly and
never silently resolved.  The class and each candidate are built from
their representatives (``MetacyclicParams.conj_class``), so no class list
is read and the cost does not grow with p^n.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .groups import ConjClass, GroupElement, MetacyclicParams, _psi_orbit_reps, is_prime, vp

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


def _gf_gcd(a: list[int], b: list[int], v: int) -> list[int]:
    """Monic gcd over F_v of trimmed lists, not both zero; neither list is changed.

    One Euclid loop: each remainder of a by the monic form of b is formed in
    a working copy, products summed before % v, and the pair then swaps.
    """
    a, b = list(a), list(b)
    while b:
        db = len(b) - 1
        inv = pow(b[-1], -1, v)
        low = [c * inv % v for c in b[:db]]  # b made monic, leading 1 left implicit
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k] % v
            if c:
                off = k - db
                a[off:k] = [x - c * y for x, y in zip(a[off:k], low)]
        a, b = b, _gf_trim([x % v for x in a[:db]])
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
        self.f, self.d, self.v = f, d, v
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

    def power(self, h: int) -> int:
        """h^v mod (f, v) for a packed reduced residue h."""
        mask = self.mask
        acc = 0
        for t, row in zip(self.shifts, self.rows):
            c = h >> t & mask
            if c:
                acc += c * row
        return self.reduce(acc)

    def iterate(self, h: int, k: int) -> int:
        """h^(v^k) mod (f, v) for a packed reduced residue h."""
        for _ in range(k):
            h = self.power(h)
        return h

    def root_degree(self, h: int, k: int) -> int:
        """Degree of gcd(h - x, f) for h = x^(v^k): the number of roots of f in F_(v^k).

        On a factor field F_(v^m) the v-power map permutes a normal basis
        cyclically, so its trace is 1 for m = 1 and 0 for m > 1.  The trace
        of the Q-matrix therefore counts the linear factors mod v, and for
        k = 1 and v > d it is the count itself, with no gcd.
        """
        if k == 1 and self.v > self.d:
            mask = self.mask
            return sum(row >> t & mask for t, row in zip(self.shifts, self.rows)) % self.v
        return len(_gf_gcd(self.f, self.minus_x(h), self.v)) - 1

    def minus_x(self, h: int) -> list[int]:
        """The trimmed coefficients of h - x for a packed residue h."""
        mask = self.mask
        diff = [h >> t & mask for t in self.shifts[: self.d]]
        diff[1] = (diff[1] - 1) % self.v
        return _gf_trim(diff)


def _frobenius_map(coeffs, v: int) -> _FrobeniusMap | None:
    """The v-power map of the monic form of f mod v, or None below degree 2.

    Raises if v is not prime, if v divides the leading coefficient (the
    degree drops) or the discriminant (v ramified: f mod v is squarefree
    exactly when v does not divide disc(f), given that v does not divide
    the leading coefficient).
    """
    if not is_prime(v):
        raise ValueError(f"{v} is not prime")
    lead = coeffs[-1] % v
    if lead == 0:
        raise ValueError(f"leading coefficient vanishes mod {v}")
    if len(coeffs) < 3:
        return None
    if _discriminant(tuple(coeffs)) % v == 0:
        raise ValueError(f"ramified prime {v}: reduction is not squarefree")
    inv_lead = pow(lead, -1, v)
    return _FrobeniusMap([c * inv_lead % v for c in coeffs], v)


def factor_pattern(coeffs, v: int) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of a squarefree poly mod v.

    Raises as ``_frobenius_map`` does for a composite v, a vanishing leading
    coefficient or a ramified v.
    """
    frob = _frobenius_map(coeffs, v)
    return (1,) * (len(coeffs) - 1) if frob is None else _distinct_degrees(frob)


def _distinct_degrees(frob: _FrobeniusMap) -> tuple[int, ...]:
    """Distinct-degree factorization driven by the Frobenius matrix of f mod v:
    x^v mod f comes from one left-to-right powering, and each further
    x^(v^i) is one matrix-vector product.  Only the degree multiset is kept.
    """
    v, work = frob.v, frob.f
    degrees: list[int] = []
    h = frob.rows[1]  # x^v mod f
    i = 1
    while True:
        g = _gf_gcd(work, frob.minus_x(h), v)
        if len(g) > 1:
            degrees.extend([i] * ((len(g) - 1) // i))
            work = _gf_quo(work, g, v)
        if len(work) - 1 < 2 * (i + 1):
            break
        i += 1
        h = frob.power(h)  # x^(v^i) mod f
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

    Each shape that y allows is certified on the Frobenius map of f mod v:
    1^q iff x^v = x; q iff x^(v^q) = x != x^v (Rabin's test, q prime);
    1 + o + ... + o iff x^(v^o) = x and f has one root in F_(v^(o/p)), as
    every other factor then has degree o.  Only a failed certificate
    factors f, to name the pattern in the error.
    """
    q = G.q
    if len(coeffs) - 1 != q:
        raise ValueError(
            f"field polynomial has degree {len(coeffs) - 1}, expected q = {q}"
        )
    if v in (G.p, q):
        raise ValueError(f"{v} is a ramified structural prime for this group")
    frob = _frobenius_map(coeffs, v)
    y = cyclotomic_exponent(v, G.p, G.n)
    x, xv = 1 << frob.bits, frob.rows[1]  # x and x^v mod f, packed
    pattern = None
    if y % G.pr:
        o = G.p ** (G.r - vp(y, G.p))
        h = frob.iterate(xv, o // G.p - 1)  # x^(v^(o/p)) mod f
        if frob.iterate(h, o - o // G.p) == x and frob.root_degree(h, o // G.p) == 1:
            pattern = (1,) + (o,) * ((q - 1) // o)
    elif xv == x:
        pattern = (1,) * q
    elif frob.iterate(xv, q - 1) == x:  # degrees 1 and q are left, and x^v != x rules out 1^q
        cands = tuple(G.conj_class(GroupElement(x0, y)) for x0 in _psi_orbit_reps(G))
        order = cands[0].element_order
        if any(c.element_order != order for c in cands):
            raise _pattern_error(coeffs, v, (q,), y)
        return FrobeniusDatum(v, order, y, None, cands, (q,))
    if pattern is None:
        raise _pattern_error(coeffs, v, _distinct_degrees(frob), y)
    cls = G.conj_class(GroupElement(0, y))
    return FrobeniusDatum(v, cls.element_order, y, cls, (cls,), pattern)


def _pattern_error(coeffs, v, pattern, y):
    return ValueError(
        f"polynomial does not define expected extension: pattern {pattern} at v={v} "
        f"is incompatible with cyclotomic exponent {y}"
    )

