"""Characters of C_q x| C_{p^n}, each read at a class in closed form, and the tower identity.

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
most 2(n + 1), so the identity reads no table either.  The table side and
the character fields live in ``tables`` and ``fields``, loaded on the first
use of their names from here (PEP 562): a series or an identity compiles neither.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module
from typing import NamedTuple

from .cyclotomic import CyclotomicNumber
from .groups import (
    ConjClass, GroupElement, MetacyclicParams, PsiDescriptor, Subgroup, _p_power_subgroup,
    conjugacy_classes, faithful_count, one_faithful_descriptor, tower_coefficient, tower_subgroups,
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
        if not v0.is_rational() or v0.den != 1:
            raise ValueError("character degree must be a rational integer")
        return v0.num[0]

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
# the irreducible characters

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
# permutation characters and the tower identity

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


def __getattr__(name: str):
    """The table side of __all__ from ``tables``, the fields from ``fields``, on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = ".fields" if name in ("character_field", "formula_field") else ".tables"
    return getattr(import_module(module, __package__), name)
