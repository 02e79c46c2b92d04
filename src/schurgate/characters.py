"""Complex character tables of C_q x| C_{p^n} and the identities on them.

The table of G splits into p^n one-dimensional characters factoring through
the C_{p^n} abelianization and, for each level r <= m <= n, the faithful
p^r-dimensional characters of the quotient C_q x| C_{p^m} inflated to G.
A faithful character is the induction of a faithful one-dimensional psi of
the self-centralizing subgroup X = <a, b^{p^r}> = C_q x C_{p^{n-r}}, written
psi(a^x b^{p^r y}) = zeta_q^{u x} * zeta_{p^{n-r}}^{w y}.

A character is its descriptor plus a closed-form evaluator at a class:
induced values vanish off X and on X equal a Gaussian period times a root of
unity, each period built and kept on the first read of its index.  A factor
or a series reads the classes it names, at any n and q; the table over all
classes is built only when ``values`` is first read.  The two sides of the
tower identity are characters of the same kind: four permutation characters
added at a class, and the tower coefficient times the faithful sum, a
product of two Ramanujan sums.  They are compared at one class per type, at
most 2(n + 1), so the identity reads no table either.  An inner product is
one ``cyclotomic.dot`` over the classes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .cyclotomic import AbelianField, CyclotomicNumber, dot
from .groups import (
    ConjClass, GroupElement, InternalCheckError, MetacyclicParams, PsiDescriptor, Subgroup,
    _class_index, _induced_descriptors, _p_power_subgroup, conjugacy_classes, faithful_count,
    one_faithful_descriptor, tower_coefficient, tower_subgroups,
)

__all__ = [
    "Character",
    "irreducible_characters",
    "faithful_characters",
    "induce_from_X",
    "inner_product",
    "is_faithful",
    "tensor_decompose",
    "character_field",
    "formula_field",
    "permutation_character",
    "trivial_character",
    "quotient_identity_virtual_character",
    "QuotientIdentity",
]


@lru_cache(maxsize=None)
def _zeta(m: int, k: int) -> CyclotomicNumber:
    return CyclotomicNumber.zeta(m, k)


_ZERO = CyclotomicNumber.from_rational(0)
_IDENTITY = ConjClass(GroupElement(0, 0), 1, 1)


class Character:
    """A class function on G with cyclotomic values, read at a class in closed form.

    ``provenance`` records how the character arose:
    ("one_dimensional", e), ("lifted_from_quotient", level, u, w),
    ("induced", u, w), ("permutation", label), or a side of the tower
    identity, ("tower_quotient",) or ("faithful_sum", coefficient).
    ``at`` maps a ConjClass to the value there; chi(g) reads it at the class
    of g.  ``values``, the table over conjugacy_classes, is built from it on
    first use and kept.  Equality is value-wise, and the hash reads only the
    value at 1, so agrees with it.
    """

    __slots__ = ("group", "provenance", "at", "_values")

    def __init__(self, group: MetacyclicParams, provenance, at):
        self.group = group
        self.provenance = tuple(provenance)
        self.at = at
        self._values = None

    def __call__(self, g: GroupElement) -> CyclotomicNumber:
        return self.at(self.group.conj_class(g))

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __hash__(self):
        return hash((self.group, self.at(_IDENTITY)))

    @property
    def values(self) -> tuple[CyclotomicNumber, ...]:
        if self._values is None:
            self._values = tuple(map(self.at, conjugacy_classes(self.group)))
        return self._values

    @property
    def degree(self) -> int:
        v0 = self.at(_IDENTITY)
        if not v0.is_rational() or v0.rational_value().denominator != 1:
            raise ValueError("character degree must be a rational integer")
        return int(v0.rational_value())

    @property
    def char_id(self) -> str:
        kind = self.provenance[0]
        if kind == "one_dimensional":
            return f"lin[{self.provenance[1]}]"
        if kind == "lifted_from_quotient":
            _, m, u, w = self.provenance
            return f"lift{m}[u={u},w={w}]"
        if kind == "induced":
            return PsiDescriptor(*self.provenance[1:]).char_id
        return kind

    def __repr__(self):
        return f"<Character {self.char_id} of {self.group}, degree {self.degree}>"

    def to_json(self) -> dict:
        return {
            "id": self.char_id,
            "degree": self.degree,
            "provenance": list(self.provenance),
            "values": [v.to_json() for v in self.values],
        }


# ---------------------------------------------------------------------------
# table construction

@lru_cache(maxsize=None)
def _inverse_class_map(G: MetacyclicParams) -> tuple[int, ...]:
    cls = conjugacy_classes(G)
    idx = _class_index(G)
    return tuple(idx[G.class_of(G.inv(c.rep))] for c in cls)


@lru_cache(maxsize=None)
def _gauss_period(G: MetacyclicParams, t: int) -> CyclotomicNumber:
    """The sum over the order-p^r subgroup H of zeta_q^{t h} (p^r at t = 0), 0 <= t < q."""
    H = _p_power_subgroup(G.q, G.p, G.r)
    return CyclotomicNumber.root_sum(G.q, (t * h for h in H), "Gaussian period")


def _linear_character(G: MetacyclicParams, e: int) -> Character:
    pn, e = G.pn, e % G.pn
    return Character(G, ("one_dimensional", e), lambda c: _zeta(pn, e * c.rep.y % pn))


def _induced_character(G: MetacyclicParams, level: int, u: int, w: int) -> Character:
    """The degree-p^r character at quotient level m: zero off X, Gaussian on X."""
    pr, pmr = G.pr, G.p ** (level - G.r)

    def at(c: ConjClass) -> CyclotomicNumber:
        x, y = c.rep
        if y % pr:
            return _ZERO
        g = _gauss_period(G, u * x % G.q)
        return g * _zeta(pmr, w * (y // pr) % pmr) if pmr > 1 else g
    prov = ("induced", u, w) if level == G.n else ("lifted_from_quotient", level, u, w)
    return Character(G, prov, at)


@lru_cache(maxsize=None)
def irreducible_characters(G: MetacyclicParams) -> tuple[Character, ...]:
    """The complete irreducible table, in deterministic order.

    One-dimensional characters sorted by exponent, then the p^r-dimensional
    ones by quotient level (unfaithful first) and minimal (u, w) orbit
    representative.  The count equals the number of conjugacy classes and
    the squared degrees sum to |G|.
    """
    table = [_linear_character(G, e) for e in range(G.pn)]
    table += [_induced_character(G, level, *psi) for level, psi in _induced_descriptors(G)]
    ncls = len(conjugacy_classes(G))
    if len(table) != ncls:
        raise InternalCheckError(
            f"table size {len(table)} does not match class count {ncls} ({G.spec})"
        )
    squares = sum(chi.degree ** 2 for chi in table)
    if squares != G.order:
        raise InternalCheckError(
            f"degree squares sum to {squares}, not the group order {G.order} ({G.spec})"
        )
    return tuple(table)


def faithful_characters(G: MetacyclicParams) -> list[Character]:
    return [chi for chi in irreducible_characters(G) if chi.provenance[0] == "induced"]


def one_faithful_character(G: MetacyclicParams) -> Character:
    """A single faithful irreducible, without building the whole table."""
    return _induced_character(G, G.n, *one_faithful_descriptor(G))


def trivial_character(G: MetacyclicParams) -> Character:
    return _linear_character(G, 0)


# ---------------------------------------------------------------------------
# induction

def induce_from_X(G: MetacyclicParams, psi: PsiDescriptor) -> Character:
    """Induction of psi from X to G via the coset sum over b^0, ..., b^{p^r - 1}.

    Faithful psi give faithful irreducible characters; the trivial psi gives
    the permutation character of G/X.
    """
    pmr = G.pn // G.pr
    u = psi.u % G.q
    w = psi.w % pmr if pmr > 1 else 0
    return _induced_character(G, G.n, u, w)


# ---------------------------------------------------------------------------
# inner products

def inner_product(chi1, chi2) -> Fraction:
    """<chi1, chi2> = (1/|G|) sum over classes of size * chi1(g) * conj(chi2(g)).

    Conjugation is evaluated as the value at the inverse class.  The result
    must be rational (it always is for characters and their integer
    combinations); a non-rational result raises.
    """
    if chi1.group != chi2.group:
        raise ValueError("characters live on different groups")
    G, v1, v2 = chi1.group, chi1.values, chi2.values
    cls = conjugacy_classes(G)
    inv_map = _inverse_class_map(G)
    raw = dot((cls[i].size, v1[i], v2[inv_map[i]]) for i in range(len(cls)))
    if not raw.is_rational():
        raise ValueError("inner product is not rational for these class functions")
    return raw.rational_value() / G.order


def is_faithful(chi: Character) -> bool:
    """Trivial-kernel test: the kernel is the union of classes where chi = chi(1)."""
    return chi.values[0] not in chi.values[1:]


# ---------------------------------------------------------------------------
# tensor structure, character fields, permutation characters

def tensor_decompose(tau: Character) -> tuple[Character, Character]:
    """Write a faithful irreducible as tau_r (x) chi with tau_r from level r.

    tau_r is the inflation of a faithful irreducible of C_q x| C_{p^r} and chi
    is one-dimensional of order p^n (trivial in the degenerate case n = r).
    The factorization is verified value-wise before returning.
    """
    G = tau.group
    if tau.provenance[0] != "induced":
        raise ValueError("tensor decomposition applies to faithful induced characters")
    if not is_faithful(tau):
        raise ValueError("character is not faithful")
    _, u, w = tau.provenance
    tau_r = _induced_character(G, G.r, u, 0)
    e = w if G.n > G.r else 0
    chi = _linear_character(G, e)
    prod = tuple(a * b for a, b in zip(tau_r.values, chi.values))
    if prod != tau.values:
        raise InternalCheckError(
            f"tensor factorization {tau.char_id} = {tau_r.char_id} (x) {chi.char_id} "
            f"failed value-wise ({G.spec})"
        )
    return tau_r, chi


def character_field(chi: Character) -> AbelianField:
    """The field of values of chi, read off its provenance in closed form.

    A linear character lin[e] has field Q(zeta_d), d = p^n / gcd(e, p^n).  One
    induced from psi = (u, w) at level m is Q(zeta_d, eta_H), or Q(zeta_d) when
    q | u, with d = p^{m-r} / gcd(w, p^{m-r}).  Permutation characters are
    rational.
    """
    G, (kind, *args) = chi.group, chi.provenance
    if kind == "one_dimensional":
        return _eta_field(G, G.pn // gcd(args[0], G.pn), False)
    if kind in ("induced", "lifted_from_quotient"):
        level, u, w = (G.n, *args) if kind == "induced" else args
        pmr = G.p ** (level - G.r)
        return _eta_field(G, pmr // gcd(w, pmr), u % G.q != 0)
    if kind == "permutation":
        return AbelianField.rationals()
    raise ValueError(f"no closed-form field for a {kind!r} character ({G.spec})")


def formula_field(G: MetacyclicParams) -> AbelianField:
    """Closed form of the field of a faithful character: Q(zeta_{p^{n-r}}, eta_H)."""
    return _eta_field(G, G.pn // G.pr, True)


@lru_cache(maxsize=None)
def _eta_field(G: MetacyclicParams, d: int, eta: bool) -> AbelianField:
    """Q(zeta_d, eta_H) if eta, else Q(zeta_d): fixed by the units k = 1 mod d in H mod q."""
    m = G.q * d if eta else d  # k lies in H iff k^{p^r} = 1 mod q
    return AbelianField(m, [k for k in range(1, m, d) if k % G.q and pow(k, G.pr, G.q) == 1])


def permutation_character(G: MetacyclicParams, H: Subgroup) -> Character:
    """The character of G acting on the cosets G/H, in closed form from (kind, level).

    K_k is normal with cyclic quotient of order p^k, so pi(g) = p^k on K_k
    (p^k | y) and 0 off it.  F_k = <b^{p^k}> meets the class of g at most in
    b^y: when p^k | y and the class holds b^y (its minimal representative
    has x = 0), pi(g) = |C_G(g)| / |F_k| = q p^k / |g^G|, and 0 otherwise.
    """
    if H.kind not in ("K", "F"):
        raise ValueError(f"unknown subgroup kind {H.kind!r} of {H.label} ({G.spec})")
    pk = G.p ** H.level

    def at(c: ConjClass) -> CyclotomicNumber:
        if c.rep.y % pk or H.kind == "F" and c.rep.x:
            return _ZERO
        return CyclotomicNumber.from_rational(pk if H.kind == "K" else G.q * pk // c.size)
    return Character(G, ("permutation", H.label), at)


def _ramanujan_sum(pk: int, p: int, m: int) -> int:
    """c_{p^k}(m), the sum of zeta_{p^k}^{w m} over the units w mod pk = p^k (c_1 = 1).

    It is p^k - p^{k-1} when p^k | m, -p^{k-1} when p^{k-1} | m but p^k does
    not, and 0 otherwise; for a prime q, c_q(x) is q - 1 at x = 0 and -1 elsewhere.
    """
    if m % pk == 0:
        return pk - pk // p if pk > 1 else 1
    return -(pk // p) if m % (pk // p) == 0 else 0


def _faithful_sum(G: MetacyclicParams, coefficient: int) -> Character:
    """coefficient times the sum of the faithful irreducibles, as a product of Ramanujan sums.

    The faithful characters are induced from psi = (u, w), u over the minimal
    H-orbit representatives of the units mod q and w over the units mod
    p^{n-r} (w = 0 when n = r).  Each vanishes off X, that is at (x, y) with
    p^r not dividing y, and at (x, y) in X equals
    sum_{h in H} zeta_q^{u h x} * zeta_{p^{n-r}}^{w y / p^r}.  As u runs over
    the representatives and h over H, u h runs over every unit mod q once,
    and w runs over every unit mod p^{n-r}, so the sum is the product
    c_q(x) * c_{p^{n-r}}(y / p^r) of two Ramanujan sums (Hardy and Wright,
    An Introduction to the Theory of Numbers, 16.6).  It is a rational integer.
    """
    q, p, pr, pmr = G.q, G.p, G.pr, G.pn // G.pr

    def at(c: ConjClass) -> CyclotomicNumber:
        x, y = c.rep
        if y % pr:
            return _ZERO
        return CyclotomicNumber.from_rational(
            coefficient * _ramanujan_sum(q, q, x) * _ramanujan_sum(pmr, p, y // pr)
        )
    return Character(G, ("faithful_sum", coefficient), at)


class QuotientIdentity(NamedTuple):
    """Both sides of the tower permutation-character identity, each a character in closed form.

    lhs = reg + perm(K_{n-1}) - perm(K_n) - perm(F_{n-1}), where reg = perm(F_n)
    is the regular character, decomposes as ``coefficient`` times the sum of
    all faithful irreducibles, the rhs.  The coefficient is p^r for n > r; in
    the degenerate tower base n = r it drops to p^r - p^{r-1}, because
    perm(F_{n-1}) already contains each faithful character p^{r-1} times.
    """

    group: MetacyclicParams
    lhs: Character
    rhs: Character
    equal: bool
    coefficient: int
    faithful_count: int

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "equal": self.equal,
            "coefficient": self.coefficient,
            "faithful_count": self.faithful_count,
            "total_dimension": str(self.lhs.degree),
        }


def quotient_identity_virtual_character(G: MetacyclicParams) -> QuotientIdentity:
    """The tower identity, its two sides compared at one class of each type they tell apart.

    The lhs adds the four permutation characters at a class (reg is perm(F_n));
    the rhs is ``_faithful_sum``.  Both depend on the class of (x, y) only
    through whether x = 0 and through v_p(y): the permutation characters by
    the ``permutation_character`` docstring, the rhs by its Ramanujan sums.
    So they agree everywhere iff they agree at (0, p^k) for k = 0..n, and at
    (1, p^k) when p^r | p^k (x != 0 is its own class only on X): at most
    2(n + 1) classes, whatever the class count.
    """
    towers = {s.label: s for s in tower_subgroups(G)}
    n = G.n
    reg, k_below, k_top, f_below = (
        permutation_character(G, towers[label]) for label in (f"F{n}", f"K{n - 1}", f"K{n}", f"F{n - 1}")
    )
    lhs = Character(G, ("tower_quotient",), lambda c: reg.at(c) + k_below.at(c) - k_top.at(c) - f_below.at(c))
    coeff = tower_coefficient(G)
    rhs = _faithful_sum(G, coeff)
    types = (GroupElement(x, G.p ** k % G.pn) for k in range(n + 1) for x in ((0, 1) if k >= G.r else (0,)))
    return QuotientIdentity(
        group=G,
        lhs=lhs,
        rhs=rhs,
        equal=all(lhs.at(c) == rhs.at(c) for c in map(G.conj_class, types)),
        coefficient=coeff,
        faithful_count=faithful_count(G),
    )
