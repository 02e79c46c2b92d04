"""Brute-force oracles that the tests compare the closed forms against.

Each one recomputes from the definitions, by enumerating G or with big
integers, what the package derives in closed form; the group-level ones are
gated to order <= BRUTE_FORCE_LIMIT.  The package describes a subgroup only
by its generators, so its elements are found here by closing them under
the group law (mul), and psi and the restriction to X are evaluated element by element.
A virtual character here is a value table (VirtualCharacter): induction,
permutation characters and the tower identity's faithful sum are returned
as tables summed class by class.  The L-series ones are the package's earlier direct routes: Fourier
inversion, in integers and in CyclotomicNumber arithmetic, Dirichlet assembly by one
convolution pass per prime, local factors as products of quadratic blocks
(one per eigenvalue, or one per residue degree) expanded by power-series
inversion, evaluation of symbolic factors, the cube-of-a-quadratic test
tried at each cube root of unity, and explicit monomial matrices
for a faithful character.  The cyclotomic ones lift values densely,
multiply them schoolbook and reduce by sympy's Phi_M, and find a field of
values by applying every unit; to_complex embeds a value in the complex
numbers for numeric checks.  The local ones count points naively, one
quadratic in y per x, factor polynomials mod v with sympy, and find good
primes by trial division.  The group-law helpers (identity, mul, elements,
conjugate, index_in, value_at) are the element-level views that the
package itself never needs, and so are decompose, galois_apply,
contains_value and the JSON readers.  The integer ones walk: the
multiplicative order by stepping through powers, and the cyclotomic
exponent by stepping through the powers of 1 + p.
"""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import sympy

from schurgate.cyclotomic import AbelianField, CyclotomicNumber, InternalCheckError, _fold, _image, prime_factors
from schurgate.elliptic import EulerFactor, a_v
from schurgate.frobenius import poly_discriminant
from schurgate.groups import (
    ConjClass,
    GroupElement,
    MetacyclicParams,
    Subgroup,
    _class_index,
    _psi_orbit_reps,
    conjugacy_classes,
    is_prime,
    subgroup_X,
    tower_coefficient,
    vp,
)
from schurgate.characters import (
    Character, PsiDescriptor, faithful_characters, inner_product, irreducible_characters,
)
from schurgate.lseries import DirichletSeries, SymbolicPoly

BRUTE_FORCE_LIMIT = 10 ** 4

_ZERO = CyclotomicNumber.from_rational(0)
_ONE = CyclotomicNumber.from_rational(1)


def identity(G: MetacyclicParams) -> GroupElement:
    return GroupElement(0, 0)


def mul(G: MetacyclicParams, g: GroupElement, h: GroupElement) -> GroupElement:
    """The group law (x1, y1) * (x2, y2) = (x1 + j^y1 x2 mod q, y1 + y2 mod p^n)."""
    return GroupElement((g.x + pow(G.j, g.y, G.q) * h.x) % G.q, (g.y + h.y) % G.pn)


def elements(G: MetacyclicParams):
    """Every element of G, by y and then x."""
    for y in range(G.pn):
        for x in range(G.q):
            yield GroupElement(x, y)


def conjugate(G: MetacyclicParams, g: GroupElement, h: GroupElement) -> GroupElement:
    """h g h^-1, by the group law."""
    return mul(G, mul(G, h, g), G.inv(h))


def index_in(H: Subgroup, G: MetacyclicParams) -> int:
    return G.order // H.order


def value_at(chi, g: GroupElement) -> CyclotomicNumber:
    """chi(g), read from the class of g."""
    G = chi.group
    return chi.values[_class_index(G)[G.class_of(g)]]


class VirtualCharacter:
    """Integer linear combination of characters, stored value-wise and read by class.

    It reads like a Character (group, values, at, degree), so the
    package's inner products and factors take it; equality is value-wise.
    """

    __slots__ = ("group", "values")

    def __init__(self, group: MetacyclicParams, values):
        self.group = group
        self.values = tuple(values)

    def at(self, cls: ConjClass) -> CyclotomicNumber:
        return self.values[_class_index(self.group)[cls.rep]]

    def __eq__(self, other):
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    @classmethod
    def zero(cls, group: MetacyclicParams) -> "VirtualCharacter":
        return cls(group, (_ZERO,) * len(conjugacy_classes(group)))

    @classmethod
    def of(cls, chi: Character) -> "VirtualCharacter":
        return cls(chi.group, chi.values)

    def _pairs(self, other):
        """Value pairs with a character or virtual character on the same group."""
        if self.group != other.group:
            raise ValueError("virtual characters live on different groups")
        return zip(self.values, other.values)

    def __add__(self, other):
        return VirtualCharacter(self.group, tuple(a + b for a, b in self._pairs(other)))

    def __sub__(self, other):
        return VirtualCharacter(self.group, tuple(a - b for a, b in self._pairs(other)))

    def __rmul__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return VirtualCharacter(self.group, tuple(k * v for v in self.values))

    @property
    def degree(self) -> Fraction:
        return self.values[0].rational_value()


def faithful_sum_by_values(G: MetacyclicParams) -> VirtualCharacter:
    """tower_coefficient(G) times the sum of the faithful irreducibles, added up value by value."""
    return tower_coefficient(G) * sum(faithful_characters(G), VirtualCharacter.zero(G))


def subgroup_elements(G: MetacyclicParams, H: Subgroup) -> frozenset[GroupElement]:
    """The elements of H, by closing its generators under the group law; test oracle."""
    if G.order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force gated to order <= {BRUTE_FORCE_LIMIT}")
    closure = {identity(G)}
    frontier = [identity(G)]
    while frontier:
        g = frontier.pop()
        for s in H.generators:
            c = mul(G, g, s)
            if c not in closure:
                closure.add(c)
                frontier.append(c)
    return frozenset(closure)


def psi_value(G: MetacyclicParams, psi: PsiDescriptor, g: GroupElement) -> CyclotomicNumber:
    """psi evaluated at an element of X; raises if g is outside X."""
    if g.y % G.pr != 0:
        raise ValueError(f"{g} is not in X")
    pmr = G.pn // G.pr
    val = CyclotomicNumber.zeta(G.q, psi.u * g.x % G.q)
    if pmr > 1:
        val = val * CyclotomicNumber.zeta(pmr, psi.w * (g.y // G.pr) % pmr)
    return val


def conjugate_psi(G: MetacyclicParams, psi: PsiDescriptor, k: int) -> PsiDescriptor:
    """The b^k-conjugate: (b^k psi)(h) = psi(b^k h b^-k)."""
    return PsiDescriptor(psi.u * pow(G.j, k, G.q) % G.q, psi.w)


def conjugate_units(G: MetacyclicParams) -> list[int]:
    """Every unit k mod q p^(n-r), the modulus of the values of the faithful characters."""
    m = G.q * G.pn // G.pr
    return [k for k in range(1, m) if gcd(k, m) == 1]


def restriction_to_X(chi: Character) -> dict[GroupElement, CyclotomicNumber]:
    """Values of chi on the elements of X."""
    G = chi.group
    return {g: value_at(chi, g) for g in sorted(subgroup_elements(G, subgroup_X(G)))}


def evaluate_symbolic(poly, a_val, v_val) -> CyclotomicNumber:
    """A SymbolicPoly in the formal symbols (a, v) at a = a_val, v = v_val."""
    a_val = CyclotomicNumber.from_rational(a_val)
    v_val = CyclotomicNumber.from_rational(v_val)
    acc = _ZERO
    for (i, j), c in poly.terms.items():
        acc = acc + c * a_val ** i * v_val ** j
    return acc


def symbolic_terms(coeffs) -> list[dict]:
    """Each coefficient as its {(i, j): coefficient of a^i v^j} without zeros, a number as a constant."""
    return [SymbolicPoly._coerce(c).terms for c in coeffs]


def brute_force_classes(G: MetacyclicParams) -> list[ConjClass]:
    """Independent class computation by orbit closure; test oracle only."""
    if G.order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force gated to order <= {BRUTE_FORCE_LIMIT}")
    gens = [GroupElement(1, 0), GroupElement(0, 1)]
    seen: set[GroupElement] = set()
    classes = []
    for g in elements(G):
        if g in seen:
            continue
        orbit = {g}
        frontier = [g]
        while frontier:
            h = frontier.pop()
            for s in gens:
                c = conjugate(G, h, s)
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
    return {h for h in elements(G) if mul(G, h, g) == mul(G, g, h)}


def commutator_subgroup(G: MetacyclicParams) -> set[GroupElement]:
    """Brute-force commutator subgroup; test oracle only."""
    if G.order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force gated to order <= {BRUTE_FORCE_LIMIT}")
    gens = set()
    for g in elements(G):
        for h in (GroupElement(1, 0), GroupElement(0, 1)):
            gens.add(mul(G, mul(G, g, h), mul(G, G.inv(g), G.inv(h))))
    # closure
    closure = {GroupElement(0, 0)}
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        for h in gens:
            c = mul(G, g, h)
            if c not in closure:
                closure.add(c)
                frontier.append(c)
    return closure


def induce_brute(G: MetacyclicParams, psi: PsiDescriptor) -> VirtualCharacter:
    """Induction by the general formula, summing over all of G, as a value table; test oracle."""
    if G.order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force gated to order <= {BRUTE_FORCE_LIMIT}")
    X = subgroup_elements(G, subgroup_X(G))
    order_X = len(X)
    vals = []
    for c in conjugacy_classes(G):
        acc = CyclotomicNumber.from_rational(0)
        for g in elements(G):
            t = mul(G, mul(G, G.inv(g), c.rep), g)
            if t in X:
                acc = acc + psi_value(G, PsiDescriptor(psi.u, psi.w), t)
        acc = acc * Fraction(1, order_X)
        vals.append(acc)
    return VirtualCharacter(G, vals)


def multiplicative_order(a: int, m: int) -> int:
    """The order of a mod m, by stepping through its powers; test oracle."""
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    a %= m
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


def qadic_class_order_direct(q: int, p: int, n: int, r: int) -> int:
    """schur.qadic_class_order's index by explicit big-integer arithmetic; test oracle."""
    d = p ** (n - r)
    f = 1 if d == 1 else multiplicative_order(q % d, d)
    N = q ** f - 1
    e = gcd(p ** r, N)
    assert N % d == 0
    return e // gcd(e, N // d)


def permutation_character_brute(G: MetacyclicParams, H) -> VirtualCharacter:
    """The character of G on the cosets G/H, by enumerating the cosets, as a value table; test oracle.

    g fixes the coset xH iff g lies in its stabilizer x H x^-1, so each class
    representative is counted once per coset stabilizer it lies in.
    """
    if G.order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force gated to order <= {BRUTE_FORCE_LIMIT}")
    els = subgroup_elements(G, H)
    index = {c.rep: i for i, c in enumerate(conjugacy_classes(G))}
    fixed = [0] * len(index)
    seen: set[GroupElement] = set()
    for x in elements(G):
        if x in seen:
            continue
        seen.update(mul(G, x, h) for h in els)
        x_inv = G.inv(x)
        for h in els:
            i = index.get(mul(G, mul(G, x, h), x_inv))
            if i is not None:
                fixed[i] += 1
    return VirtualCharacter(G, [CyclotomicNumber.from_rational(f) for f in fixed])


def eigenvalue_multiplicities(chi, cls: ConjClass) -> dict[int, int]:
    """Multiplicity of each eigenvalue zeta_d^k of chi at the class, d = element order.

    Fourier inversion on <g>: m_k = (1/d) sum_i chi(g^i) zeta_d^{-ki}, in
    integers; works for genuine and virtual characters.  The reference that
    the block-product oracles read; test oracle.
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
    d, G = cls.element_order, chi.group
    values = [chi.at(G.conj_class(G.power(cls.rep, i))) for i in range(d)]
    M = lcm(d, *(val.conductor for val in values if not val.is_zero()))
    lifted = [
        (i, val.den, _image(M, val._nz(), M // val.conductor))
        for i, val in enumerate(values) if not val.is_zero()
    ]
    den = lcm(*(di for _, di, _ in lifted))
    terms = [
        (i * (M // d), [(e, c * (den // di)) for e, c in enumerate(vec) if c])
        for i, di, vec in lifted
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
            raise InternalCheckError("eigenvalue multiplicity is not rational")
        m, rem = divmod(red[0], d * den)
        if rem:
            raise InternalCheckError("eigenvalue multiplicity is not an integer")
        out.append((k, m))
    return tuple(out)


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
        return AbelianField(1, [1])
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


# -- local factors as block products ------------------------------------------

def tpoly_mul(a: list, b: list, trunc: int | None = None) -> list:
    """Product of two T-polynomials, cut off above T^trunc when trunc is given."""
    n = len(a) + len(b) - 1 if trunc is None else min(len(a) + len(b) - 1, trunc + 1)
    out = [a[0] * 0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] = out[i + j] + x * y
    return out


def cube_of_quadratic_defect_three_roots(poly: list) -> dict:
    """The cube-of-a-quadratic certificate tried once per cube root of unity e.

    For each e, Q = e + cT + dT^2 with c and d solved from the T and T^2
    coefficients by a field inverse, and Q^3 is multiplied out and compared
    with poly; a cube reports the first e that works.
    """
    if len(poly) != 7:
        raise ValueError("expected a degree-6 polynomial")
    mismatches = {}
    for name, e in (("1", _ONE), ("zeta3", CyclotomicNumber.zeta(3)), ("zeta3^2", CyclotomicNumber.zeta(3, 2))):
        inv3e2 = (CyclotomicNumber.from_rational(3) * e * e).inverse()
        c = poly[1] * inv3e2
        d = (poly[2] - 3 * e * (c * c)) * inv3e2
        q_poly = [e, c, d]
        cube = tpoly_mul(tpoly_mul(q_poly, q_poly), q_poly)
        bad = next((i for i in range(7) if not (cube[i] - poly[i]).is_zero()), None)
        if bad is None:
            return {"is_cube": True, "witness": {"e": name}}
        mismatches[name] = bad
    return {"is_cube": False, "witness": {"first_mismatch_by_root": mismatches}}


def quadratic_block(zeta_k: CyclotomicNumber, av: int, v: int) -> list:
    """1 - zeta a_v T + zeta^2 v T^2: the factor of one eigenvalue zeta of tau(g)."""
    return [_ONE, -(zeta_k * av), zeta_k * zeta_k * v]


def block_euler_factor(av: int, v: int, d: int, mults: dict[int, int]) -> EulerFactor:
    """det(1 - (A_v (x) tau(g)) T) as the product of m_k blocks per eigenvalue zeta_d^k."""
    poly = [_ONE]
    for k, m in sorted(mults.items()):
        for _ in range(m):
            poly = tpoly_mul(poly, quadratic_block(CyclotomicNumber.zeta(d, k), av, v))
    return EulerFactor(v, tuple(poly))


def block_local_factor(av: int, v: int, d: int, mults: dict[int, int], kmax: int) -> tuple:
    """(num, den) mod T^(kmax+1) of the local factor of a virtual character: blocks with
    positive multiplicity go to the denominator, negative ones to the numerator."""
    num, den = [_ONE], [_ONE]
    for k, m in sorted(mults.items()):
        block = quadratic_block(CyclotomicNumber.zeta(d, k), av, v)
        for _ in range(abs(m)):
            if m > 0:
                den = tpoly_mul(den, block, kmax)
            else:
                num = tpoly_mul(num, block, kmax)
    return tuple(num), tuple(den)


def series_inverse(poly: list, kmax: int) -> list:
    """Coefficients of 1/poly(T) to order kmax; poly has constant term 1."""
    out = [_ONE] + [_ZERO] * kmax
    for k in range(1, kmax + 1):
        acc = _ZERO
        for i in range(1, min(k, len(poly) - 1) + 1):
            acc = acc + poly[i] * out[k - i]
        out[k] = -acc
    return out


def local_expansion(num: list, den: list, kmax: int) -> list:
    """num / den as a power series to order kmax."""
    return tpoly_mul(list(num), series_inverse(list(den), kmax), kmax)


def field_local_factor(av: int, v: int, degrees: list[tuple[int, int]], kmax: int) -> list:
    """Local factor of L(E/field)^-1 from residue degrees [(f, count), ...], mod T^(kmax+1)."""
    fmax = max((f for f, _ in degrees), default=1)
    s = [2, av]
    for _ in range(2, fmax + 1):
        s.append(av * s[-1] - v * s[-2])
    poly = [_ONE]
    for f, count in degrees:
        block = [_ZERO] * (2 * f + 1)
        block[0] = _ONE
        block[f] = CyclotomicNumber.from_rational(-s[f])
        block[2 * f] = CyclotomicNumber.from_rational(pow(v, f))
        for _ in range(count):
            poly = tpoly_mul(poly, block, kmax)
    return poly


# -- monomial matrices for a faithful character -------------------------------

def monomial_model(G: MetacyclicParams, tau: Character):
    """Explicit p^r x p^r matrices for a and b realizing a faithful tau.

    a acts diagonally through zeta_q^{u j^k} over the coset line e_k; b
    shifts the lines cyclically, picking up the scalar zeta_{p^{n-r}}^w once
    per full cycle, so b^{p^r} is that scalar times the identity.
    """
    if tau.provenance[0] != "induced":
        raise ValueError("monomial model requires a faithful induced character")
    _, u, w = tau.provenance
    pr = G.pr
    pmr = G.pn // pr
    Ma = [[_ZERO] * pr for _ in range(pr)]
    for k in range(pr):
        Ma[k][k] = CyclotomicNumber.zeta(G.q, u * pow(G.j, k, G.q) % G.q)
    Mb = [[_ZERO] * pr for _ in range(pr)]
    for k in range(1, pr):
        Mb[k - 1][k] = _ONE
    Mb[pr - 1][0] = CyclotomicNumber.zeta(pmr, w % pmr) if pmr > 1 else _ONE
    return Ma, Mb


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = [[_ZERO] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            a = A[i][t]
            if a.is_zero():
                continue
            for j in range(m):
                b = B[t][j]
                if not b.is_zero():
                    out[i][j] = out[i][j] + a * b
    return out


def mat_pow(A, k: int):
    n = len(A)
    out = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    base = A
    while k:
        if k & 1:
            out = mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return out


def element_matrix(G: MetacyclicParams, model, g: GroupElement):
    Ma, Mb = model
    return mat_mul(mat_pow(Ma, g.x), mat_pow(Mb, g.y))


def mat_trace(A) -> CyclotomicNumber:
    acc = _ZERO
    for i in range(len(A)):
        acc = acc + A[i][i]
    return acc


def to_complex(x: CyclotomicNumber) -> complex:
    """Float embedding with zeta_m = exp(2*pi*i/m); numeric sanity checks only."""
    z = cmath.exp(2j * cmath.pi / x.conductor)
    acc = 0j
    pw = 1 + 0j
    for c in x.num:
        if c:
            acc += (c / x.den) * pw
        pw *= z
    return acc


def complex_conjugate(x: CyclotomicNumber) -> CyclotomicNumber:
    """The complex conjugate of x: its image under zeta_m -> zeta_m^-1."""
    return x.galois(-1)


def reciprocal_root_magnitudes(factor: EulerFactor) -> list[float]:
    """|lambda| for the reciprocal roots of the factor, in floating point."""
    import numpy as np

    coeffs = [to_complex(c) for c in factor.poly]
    roots = np.roots(list(reversed(coeffs)))
    return sorted(abs(1.0 / r) for r in roots)


def point_count(E, v: int) -> int:
    """#E(F_v), including the point at infinity."""
    return v + 1 - a_v(E, v)


def good_primes_trial_division(E, field_coeffs, G: MetacyclicParams, X: int) -> list[int]:
    """Good primes <= X by trial division: each n tested with is_prime, and the
    field discriminant factored into its primes (none when it is zero)."""
    bad_field = set(prime_factors(abs(poly_discriminant(tuple(field_coeffs)))))
    return [
        v for v in range(3, X + 1)
        if is_prime(v) and v not in (G.p, G.q) and v not in bad_field and E.discriminant % v
    ]


def naive_trace(E, v: int) -> int:
    """a_v = -sum_x chi(disc_x) at an odd prime v, straight from the a-invariants.

    For each x, y^2 + (a1 x + a3) y = x^3 + a2 x^2 + a4 x + a6 has
    1 + chi((a1 x + a3)^2 + 4 (x^3 + a2 x^2 + a4 x + a6)) solutions, with chi
    the quadratic character mod v read from a table of squares.
    """
    import numpy as np

    x = np.arange(v, dtype=np.int64)
    x2 = x * x % v
    u = (E.a1 * x + E.a3) % v
    w = (x2 * x + E.a2 * x2 + E.a4 * x + E.a6) % v
    disc = (u * u + 4 * w) % v
    square = np.zeros(v, dtype=bool)
    square[x2] = True
    chi = np.where(disc == 0, 0, np.where(square[disc], 1, -1))
    return -int(chi.sum())


def sympy_factor_degrees(coeffs, v: int) -> tuple[tuple[int, ...], bool]:
    """Sorted degrees of the irreducible factors mod v (with multiplicity) by
    sympy, and whether some factor repeats."""
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=v)
    _, factors = poly.factor_list()
    degrees = sorted(f.degree() for f, e in factors for _ in range(e))
    return tuple(degrees), any(e > 1 for _, e in factors)


def sympy_is_squarefree(coeffs, v: int) -> bool:
    """gcd(f, f') = 1 mod v, by sympy."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(coeffs)), x, modulus=v)
    return poly.gcd(poly.diff(x)).degree() == 0


def cyclotomic_exponent_walk(v: int, p: int, n: int) -> int:
    """frobenius.cyclotomic_exponent by stepping through the powers of 1 + p
    mod p^{n+1} until v^{p-1} appears; test oracle."""
    mod = p ** (n + 1)
    if v % p == 0:
        raise ValueError(f"{v} is ramified in the cyclotomic layer")
    target = pow(v, p - 1, mod)
    acc = 1
    for e in range(p ** n):
        if acc == target:
            return e * pow(p - 1, -1, p ** n) % p ** n
        acc = acc * (1 + p) % mod
    raise ValueError(f"{v}^{p - 1} is not a principal unit mod {mod}")


def frobenius_datum_by_factoring(coeffs, G: MetacyclicParams, v: int) -> tuple:
    """(order in G, y, class, candidates, pattern) of frobenius.frobenius_datum at an
    unramified v, from the whole factorization pattern (sympy) and the walked
    cyclotomic exponent y, accepting each shape in turn; raises its refusal."""
    pattern, repeated = sympy_factor_degrees(coeffs, v)
    assert not repeated and coeffs[-1] % v
    y = cyclotomic_exponent_walk(v, G.p, G.n)
    classes, idx = conjugacy_classes(G), _class_index(G)
    q, p, pr = G.q, G.p, G.pr
    refusal = ValueError(
        f"polynomial does not define expected extension: pattern {pattern} at v={v} "
        f"is incompatible with cyclotomic exponent {y}"
    )
    if pattern == (1,) * q and y % pr == 0:
        cls = classes[idx[GroupElement(0, y)]]
        return cls.element_order, y, cls, (cls,), pattern
    if pattern == (q,) and y % pr == 0:
        cands = tuple(classes[idx[GroupElement(x0, y)]] for x0 in _psi_orbit_reps(G))
        if len({c.element_order for c in cands}) > 1:
            raise refusal
        return cands[0].element_order, y, None, cands, pattern
    o = pattern[-1]
    i = vp(o, p)
    if pattern[0] == 1 and set(pattern[1:]) == {o} and o == p ** i > 1 and y % pr and (
            vp(y, p) == G.r - i):
        cls = classes[idx[GroupElement(0, y)]]
        return cls.element_order, y, cls, (cls,), pattern
    raise refusal


def decompose(chi, table=None) -> dict[str, int]:
    """Multiplicities of a (virtual) character against the irreducible table; exact."""
    table = table if table is not None else irreducible_characters(chi.group)
    out = {}
    for irr in table:
        m = inner_product(chi, irr)
        if m:
            if m.denominator != 1:
                raise InternalCheckError(
                    f"non-integral multiplicity {m} of {irr.char_id} in decomposition "
                    f"({chi.group.spec})"
                )
            out[irr.char_id] = int(m)
    return out


def galois_apply(x: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """Apply zeta_m -> zeta_m^k to x; k must be coprime to the conductor of x."""
    return x.galois(k)


def contains_value(fld: AbelianField, x: CyclotomicNumber) -> bool:
    """Whether x lies in fld: x lives in Q(zeta_m) and every stabilizer unit fixes it."""
    m, c = fld.conductor, x.conductor
    if m % c != 0:
        return False
    return c == 1 or all(x.galois(k % c) == x for k in fld.stabilizer)


def cyclotomic_from_json(obj: dict) -> CyclotomicNumber:
    return CyclotomicNumber(obj["conductor"], [Fraction(s) for s in obj["coeffs"]])


def field_from_json(obj: dict) -> AbelianField:
    return AbelianField(obj["conductor"], obj["stabilizer"])
