"""Frobenius data at unramified primes from splitting patterns and residues.

For the fields of interest, Frobenius at v lives in G = C_q x| C_{p^n} and is
pinned down by two independent observations:

  * the distinct-degree factorization pattern of the degree-q polynomial
    defining the non-Galois field F_1 modulo v, which sees the image of
    Frobenius in the closure quotient C_q x| C_{p^r} acting on q points; and
  * the class of v in the degree-p^n cyclotomic layer, recovered as a
    discrete logarithm of v^{p-1} in the principal units mod p^{n+1}.

The pattern can only take the shapes 1^q (trivial image), 1 + o + ... + o
with o = p^i > 1 (a power of b), or a single q (nontrivial order-q part).
In the last case the conjugacy class is ambiguous among the (q-1)/p^r
classes of order-q-part elements with the observed cyclotomic component;
the ambiguity is carried explicitly and never silently resolved.
"""

from __future__ import annotations

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


def _gf_mul(a, b, v):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % v
    return _gf_trim(out)


def _gf_mod(a, m, v):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, v)
    while len(a) - 1 >= dm:
        c = a[-1] * inv_lead % v
        if c:
            shift = len(a) - 1 - dm
            for i in range(dm + 1):
                a[shift + i] = (a[shift + i] - c * m[i]) % v
        a.pop()
        _gf_trim(a)
        if not a:
            break
    return a


def _gf_gcd(a, b, v):
    a, b = _gf_trim(list(a)), _gf_trim(list(b))
    while b:
        a, b = b, _gf_mod(a, b, v)
    if a:
        inv = pow(a[-1], -1, v)
        a = [c * inv % v for c in a]
    return a


def _gf_pow(h, exp, m, v):
    """h(x)^exp mod (m, v) by binary powering."""
    result = [1]
    base = _gf_mod(h, m, v)
    while exp:
        if exp & 1:
            result = _gf_mod(_gf_mul(result, base, v), m, v)
        exp >>= 1
        if exp:
            base = _gf_mod(_gf_mul(base, base, v), m, v)
    return result


def factor_pattern(coeffs, v: int) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of a squarefree poly mod v.

    Uses distinct-degree factorization; only the degree multiset is kept.
    Raises if the reduction mod v is not squarefree (v ramified) or drops
    degree (v divides the leading coefficient).
    """
    if not is_prime(v):
        raise ValueError(f"{v} is not prime")
    f = [c % v for c in coeffs]
    if f[-1] == 0:
        raise ValueError(f"leading coefficient vanishes mod {v}")
    inv_lead = pow(f[-1], -1, v)
    f = _gf_trim([c * inv_lead % v for c in f])
    deriv = _gf_trim([i * f[i] % v for i in range(1, len(f))])
    if len(_gf_gcd(f, deriv, v)) != 1:
        raise ValueError(f"ramified prime {v}: reduction is not squarefree")
    degrees: list[int] = []
    work = f[:]
    h = [0, 1]  # x
    i = 0
    while len(work) - 1 >= 2 * (i + 1):
        i += 1
        h = _gf_pow(h, v, work, v)
        diff = _gf_trim([(a - b) % v for a, b in _zip_pad(h, [0, 1])])
        g = _gf_gcd(work, diff, v)
        if len(g) > 1:
            deg = len(g) - 1
            degrees.extend([i] * (deg // i))
            work = _gf_quo(work, g, v)
            h = _gf_mod(h, work, v)
    if len(work) > 1:
        degrees.append(len(work) - 1)
    return tuple(sorted(degrees))


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


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


# -- cyclotomic component -----------------------------------------------------

def cyclotomic_exponent(v: int, p: int, n: int) -> int:
    """Exponent y in Z/p^n of the class of v in the degree-p^n cyclotomic layer.

    The layer is the fixed field of the prime-to-p torsion of (Z/p^{n+1})^x,
    so v and v * t are identified for t^{p-1} = 1.  Concretely
    v^{p-1} = (1+p)^e in the principal units and y = e / (p-1) mod p^n,
    normalizing b to act as the class with y = 1.
    """
    mod = p ** (n + 1)
    if v % p == 0:
        raise ValueError(f"{v} is ramified in the cyclotomic layer")
    target = pow(v, p - 1, mod)
    base = 1 + p
    acc = 1
    e = None
    for k in range(p ** n):
        if acc == target:
            e = k
            break
        acc = acc * base % mod
    if e is None:
        raise ValueError(f"{v}^{p - 1} is not a principal unit mod {mod}")
    return e * pow(p - 1, -1, p ** n) % p ** n


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

