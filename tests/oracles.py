"""Brute-force oracles that the tests compare the closed forms against.

Each one recomputes from the definitions, by enumerating G or with big
integers, what the package derives in closed form; the group-level ones are
gated to order <= BRUTE_FORCE_LIMIT.  The L-series ones are the package's
earlier direct routes: Fourier inversion in CyclotomicNumber arithmetic and
Dirichlet assembly by one convolution pass per prime.  The cyclotomic ones
lift values densely, multiply them schoolbook and reduce by sympy's Phi_M,
and find a field of values by applying every unit.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import sympy

from schurgate.cyclotomic import AbelianField, CyclotomicNumber, InternalCheckError
from schurgate.groups import (
    ConjClass,
    GroupElement,
    MetacyclicParams,
    conjugacy_classes,
    multiplicative_order,
    subgroup_X,
)
from schurgate.characters import Character, PsiDescriptor, _class_index, psi_value
from schurgate.lseries import DirichletSeries

BRUTE_FORCE_LIMIT = 10 ** 4

_ZERO = CyclotomicNumber.from_rational(0)
_ONE = CyclotomicNumber.from_rational(1)


def brute_force_classes(G: MetacyclicParams) -> list[ConjClass]:
    """Independent class computation by orbit closure; test oracle only."""
    if G.order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force gated to order <= {BRUTE_FORCE_LIMIT}")
    gens = [GroupElement(1, 0), GroupElement(0, 1)]
    seen: set[GroupElement] = set()
    classes = []
    for g in G.elements():
        if g in seen:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            h = frontier.pop()
            for s in gens:
                c = G.conjugate(h, s)
                if c not in orbit:
                    orbit.add(c)
                    frontier.append(c)
        seen |= orbit
        rep = min(orbit)
        classes.append(ConjClass(GroupElement(*rep), len(orbit), G.element_order(g)))
    classes.sort(key=lambda c: (c.rep.y, c.rep.x))
    return classes


def centralizer_of(G: MetacyclicParams, g: GroupElement) -> set[GroupElement]:
    """Brute-force centralizer; test oracle only."""
    if G.order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force gated to order <= {BRUTE_FORCE_LIMIT}")
    return {h for h in G.elements() if G.mul(h, g) == G.mul(g, h)}


def commutator_subgroup(G: MetacyclicParams) -> set[GroupElement]:
    """Brute-force commutator subgroup; test oracle only."""
    if G.order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force gated to order <= {BRUTE_FORCE_LIMIT}")
    gens = set()
    for g in G.elements():
        for h in (GroupElement(1, 0), GroupElement(0, 1)):
            gens.add(G.mul(G.mul(g, h), G.mul(G.inv(g), G.inv(h))))
    # closure
    closure = {GroupElement(0, 0)}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        for h in gens:
            c = G.mul(g, h)
            if c not in closure:
                closure.add(c)
                frontier.append(c)
    return closure


def induce_brute(G: MetacyclicParams, psi: PsiDescriptor) -> Character:
    """Induction by the general formula, summing over all of G; test oracle."""
    if G.order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force gated to order <= {BRUTE_FORCE_LIMIT}")
    X = subgroup_X(G).elements
    order_X = len(X)
    vals = []
    for c in conjugacy_classes(G):
        acc = CyclotomicNumber.from_rational(0)
        for g in G.elements():
            t = G.mul(G.mul(G.inv(g), c.rep), g)
            if t in X:
                acc = acc + psi_value(G, PsiDescriptor(psi.u, psi.w), t)
        acc = acc * Fraction(1, order_X)
        vals.append(acc)
    return Character(G, vals, ("induced_brute", psi.u, psi.w))


def qadic_class_order_direct(q: int, p: int, n: int, r: int) -> int:
    """schur.qadic_class_order's index by explicit big-integer arithmetic; test oracle."""
    d = p ** (n - r)
    f = 1 if d == 1 else multiplicative_order(q % d, d)
    N = q ** f - 1
    e = gcd(p ** r, N)
    assert N % d == 0
    return e // gcd(e, N // d)


def eigenvalue_multiplicities_direct(chi, cls: ConjClass) -> dict[int, int]:
    """Multiplicity of each eigenvalue zeta_d^k of chi at the class, d = element order.

    Fourier inversion on <g>: m_k = (1/d) sum_i chi(g^i) zeta_d^{-ki}, summed
    in CyclotomicNumber arithmetic; test oracle.
    """
    G = chi.group
    d = cls.element_order
    idx = _class_index(G)
    values = [
        chi.values[idx[G.class_of(G.power(cls.rep, i))]] for i in range(d)
    ]
    out: dict[int, int] = {}
    for k in range(d):
        acc = _ZERO
        for i, val in enumerate(values):
            if not val.is_zero():
                acc = acc + val * CyclotomicNumber.zeta(d, (-k * i) % d)
        if acc.is_zero():
            continue
        if not acc.is_rational():
            raise InternalCheckError("eigenvalue multiplicity is not rational")
        m = acc.rational_value() / d
        if m.denominator != 1:
            raise InternalCheckError("eigenvalue multiplicity is not an integer")
        out[k] = int(m)
    return out


def assemble_by_convolution(X: int, local: dict[int, list]) -> DirichletSeries:
    """Dirichlet coefficients to X from local expansions, one pass over 1..X per prime; test oracle."""
    an = [_ZERO] * (X + 1)
    an[1] = _ONE
    for v in sorted(local):
        b = local[v]
        new = [_ZERO] * (X + 1)
        for m in range(1, X + 1):
            if an[m].is_zero():
                continue
            t = m
            k = 0
            while t <= X:
                if k < len(b) and not b[k].is_zero():
                    new[t] = new[t] + an[m] * b[k]
                k += 1
                t *= v
        an = new
    return DirichletSeries(X, tuple(an))


@lru_cache(maxsize=None)
def _dense_cyclo(M: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Degree of Phi_M and its nonzero terms below the leading one, from sympy."""
    x = sympy.Symbol("x")
    coeffs = sympy.Poly(sympy.cyclotomic_poly(M, x), x).all_coeffs()[::-1]
    return len(coeffs) - 1, tuple((i, int(c)) for i, c in enumerate(coeffs[:-1]) if c)


def dense_reduce(M: int, buf: list) -> list:
    """Coordinates in the power basis of Q(zeta_M) of sum buf[e] * zeta_M^e."""
    phi, low = _dense_cyclo(M)
    work = [0] * max(M, len(buf))
    for e, c in enumerate(buf):
        work[e % M] += c
    for e in range(M - 1, phi - 1, -1):
        c = work[e]
        if c:
            for i, a in low:
                work[e - phi + i] -= c * a
    return work[:phi]


def dense_lift(x: CyclotomicNumber, M: int) -> list:
    """Rational coordinates of x at conductor M (a multiple of its conductor)."""
    buf = [0] * M
    for i, c in enumerate(x.coeffs):
        buf[i * (M // x.conductor)] = c
    return dense_reduce(M, buf)


def dense_add(x: CyclotomicNumber, y: CyclotomicNumber) -> tuple[int, list]:
    M = lcm(x.conductor, y.conductor)
    return M, [a + b for a, b in zip(dense_lift(x, M), dense_lift(y, M))]


def dense_mul(x: CyclotomicNumber, y: CyclotomicNumber) -> tuple[int, list]:
    M = lcm(x.conductor, y.conductor)
    u, v = dense_lift(x, M), dense_lift(y, M)
    buf = [0] * (2 * len(u) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            buf[i + j] += a * b
    return M, dense_reduce(M, buf)


def dense_galois(M: int, vec: list, k: int) -> list:
    """zeta_M -> zeta_M^k applied to coordinates at conductor M."""
    buf = [0] * M
    for i, c in enumerate(vec):
        buf[i * k % M] += c
    return dense_reduce(M, buf)


def field_of_values_all_units(values) -> AbelianField:
    """Smallest abelian field containing the values: every unit k < m is tried on every value."""
    vals = list(values)
    m = lcm(*(v.conductor for v in vals))
    if m == 1:
        return AbelianField.rationals()
    lifted = []
    for mv, coeffs in {(v.conductor, v.coeffs) for v in vals if v.conductor > 1}:
        den = lcm(*(c.denominator for c in coeffs))  # integers: the same fixed units
        buf = [0] * m
        for i, c in enumerate(coeffs):
            buf[i * (m // mv)] = int(c * den)
        lifted.append(dense_reduce(m, buf))
    stab = [
        k
        for k in range(1, m)
        if gcd(k, m) == 1 and all(dense_galois(m, vec, k) == vec for vec in lifted)
    ]
    return AbelianField(m, stab)
