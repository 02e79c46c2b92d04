"""Complex character tables of C_q x| C_{p^n} and the identities on them.

The table of G splits into p^n one-dimensional characters factoring through
the C_{p^n} abelianization and, for each level r <= m <= n, the faithful
p^r-dimensional characters of the quotient C_q x| C_{p^m} inflated to G.
A faithful character is the induction of a faithful one-dimensional psi of
the self-centralizing subgroup X = <a, b^{p^r}> = C_q x C_{p^{n-r}}, written
psi(a^x b^{p^r y}) = zeta_q^{u x} * zeta_{p^{n-r}}^{w y}.

A character is its descriptor plus a closed-form evaluator at a class:
induced values vanish off X and on X equal a Gaussian period times a root of
unity.  A factor or a series reads the classes it names, at any n; the table
over all classes is built only when ``values`` is first read.  Inner products
accumulate an integer convolution buffer at the common conductor and reduce
once, which is what makes full-table orthogonality sweeps affordable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .cyclotomic import AbelianField, CyclotomicNumber, _check_conductor, _from_buffer, _mul_into
# the psi calculus (PsiDescriptor to tower_coefficient) reads only (q, p, n, r)
# and the H-orbits, so it lives in groups; it is re-exported from here
from .groups import (  # noqa: F401
    ConjClass, GroupElement, InternalCheckError, MetacyclicParams, PsiDescriptor, Subgroup,
    _class_index, _induced_descriptors, _p_power_subgroup, conjugacy_classes, faithful_descriptors,
    one_faithful_descriptor, psi_is_faithful, tower_coefficient, tower_subgroups,
)

__all__ = [
    "Character",
    "VirtualCharacter",
    "irreducible_characters",
    "faithful_characters",
    "induce_from_X",
    "inner_product",
    "is_faithful",
    "tensor_decompose",
    "character_field",
    "formula_field",
    "permutation_character",
    "regular_character",
    "trivial_character",
    "quotient_identity_virtual_character",
    "QuotientIdentity",
]


@lru_cache(maxsize=None)
def _zeta(m: int, k: int) -> CyclotomicNumber:
    return CyclotomicNumber.zeta(m, k)


_ZERO = CyclotomicNumber.from_rational(0)
_IDENTITY = ConjClass(GroupElement(0, 0), 1, 1)


class _ClassFunction:
    """What characters and virtual characters share: chi(g) read at the class of g,
    value-wise equality, and a hash that reads only the value at 1, so agrees with it."""

    __slots__ = ()

    def __call__(self, g: GroupElement) -> CyclotomicNumber:
        return self.at(self.group.conj_class(g))

    def __eq__(self, other):
        if not isinstance(other, _ClassFunction):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __hash__(self):
        return hash((self.group, self.at(_IDENTITY)))


class Character(_ClassFunction):
    """A class function on G with cyclotomic values, read at a class in closed form.

    ``provenance`` records how the character arose:
    ("one_dimensional", e), ("lifted_from_quotient", level, u, w),
    ("induced", u, w), ("permutation", label) or ("regular",).  ``at`` maps a
    ConjClass to the value there; ``values``, the table over conjugacy_classes,
    is built from it on first use and kept.
    """

    __slots__ = ("group", "provenance", "at", "_values")

    def __init__(self, group: MetacyclicParams, provenance, at):
        self.group = group
        self.provenance = tuple(provenance)
        self.at = at
        self._values = None

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


class VirtualCharacter(_ClassFunction):
    """Integer linear combination of characters, stored value-wise and read by class."""

    __slots__ = ("group", "values")

    def __init__(self, group: MetacyclicParams, values):
        self.group = group
        self.values = tuple(values)

    def at(self, cls: ConjClass) -> CyclotomicNumber:
        return self.values[_class_index(self.group)[cls.rep]]

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


# ---------------------------------------------------------------------------
# table construction

@lru_cache(maxsize=None)
def _inverse_class_map(G: MetacyclicParams) -> tuple[int, ...]:
    cls = conjugacy_classes(G)
    idx = _class_index(G)
    return tuple(idx[G.class_of(G.inv(c.rep))] for c in cls)


@lru_cache(maxsize=None)
def _gauss_periods(G: MetacyclicParams) -> tuple[CyclotomicNumber, ...]:
    """gauss[t] = sum over the order-p^r subgroup H of zeta_q^{t s}."""
    H = _p_power_subgroup(G.q, G.p, G.r)
    out = [CyclotomicNumber.from_rational(G.pr)]
    for t in range(1, G.q):
        buf = [0] * G.q
        for s in H:
            buf[t * s % G.q] += 1
        out.append(_from_buffer(G.q, 1, buf))
    return tuple(out)


def _linear_character(G: MetacyclicParams, e: int) -> Character:
    pn, e = G.pn, e % G.pn
    return Character(G, ("one_dimensional", e), lambda c: _zeta(pn, e * c.rep.y % pn))


def _induced_character(G: MetacyclicParams, level: int, u: int, w: int) -> Character:
    """The degree-p^r character at quotient level m: zero off X, Gaussian on X."""
    pr, pmr, gauss = G.pr, G.p ** (level - G.r), _gauss_periods(G)

    def at(c: ConjClass) -> CyclotomicNumber:
        x, y = c.rep
        if y % pr:
            return _ZERO
        g = gauss[u * x % G.q]
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
    return irreducible_characters(G)[0]


def regular_character(G: MetacyclicParams) -> Character:
    order = CyclotomicNumber.from_rational(G.order)
    return Character(G, ("regular",), lambda c: _ZERO if any(c.rep) else order)


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

def _weighted_dot(terms: Iterable[tuple[int, CyclotomicNumber, CyclotomicNumber]]) -> CyclotomicNumber:
    """Sum of w * a * b over terms, reduced and canonicalized once.

    Each product goes into one exponent buffer at the common conductor, its
    numerators scaled to the common denominator of all the terms.
    """
    live = [(w, a, b) for w, a, b in terms if w and not a.is_zero() and not b.is_zero()]
    if not live:
        return _ZERO
    M = lcm(*(x.conductor for _, a, b in live for x in (a, b)))
    _check_conductor(M, "inner product")
    D = lcm(*(a.den * b.den for _, a, b in live))
    buf = [0] * M
    for w, a, b in live:
        _mul_into(buf, M, w * (D // (a.den * b.den)), a, b)
    return _from_buffer(M, D, buf)


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
    raw = _weighted_dot((cls[i].size, v1[i], v2[inv_map[i]]) for i in range(len(cls)))
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
    q | u, with d = p^{m-r} / gcd(w, p^{m-r}).  Permutation and regular
    characters are rational.
    """
    G, (kind, *args) = chi.group, chi.provenance
    if kind == "one_dimensional":
        return _eta_field(G, G.pn // gcd(args[0], G.pn), False)
    if kind in ("induced", "lifted_from_quotient"):
        level, u, w = (G.n, *args) if kind == "induced" else args
        pmr = G.p ** (level - G.r)
        return _eta_field(G, pmr // gcd(w, pmr), u % G.q != 0)
    if kind in ("permutation", "regular"):
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


class QuotientIdentity(NamedTuple):
    """Both sides of the tower permutation-character identity.

    lhs = reg + perm(K_{n-1}) - perm(K_n) - perm(F_{n-1}) decomposes as
    ``coefficient`` times the sum of all faithful irreducibles.  The
    coefficient is p^r for n > r; in the degenerate tower base n = r it drops
    to p^r - p^{r-1}, because perm(F_{n-1}) already contains each faithful
    character p^{r-1} times.
    """

    group: MetacyclicParams
    lhs: VirtualCharacter
    rhs: VirtualCharacter
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
    towers = {s.label: s for s in tower_subgroups(G)}
    n = G.n
    lhs = (
        VirtualCharacter.of(permutation_character(G, towers[f"F{n}"]))
        + permutation_character(G, towers[f"K{n - 1}"])
        - permutation_character(G, towers[f"K{n}"])
        - permutation_character(G, towers[f"F{n - 1}"])
    )
    faith = faithful_characters(G)
    coeff = tower_coefficient(G)
    rhs = coeff * sum(faith, VirtualCharacter.zero(G))
    return QuotientIdentity(
        group=G,
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        coefficient=coeff,
        faithful_count=len(faith),
    )
