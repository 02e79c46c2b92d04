"""Characters of C_q x| C_{p^n}, each read at a class in closed form.

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
classes is built only when ``values`` is first read.  The table side with
the character fields lives in ``tables``, and the tower identity, whose two
sides are characters of this kind, in ``identity``; both are loaded on the
first use of their names from here (PEP 562), so a series compiles neither.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module

from .cyclotomic import CyclotomicNumber
from .groups import (
    ConjClass, GroupElement, MetacyclicParams, PsiDescriptor, Subgroup, _p_power_subgroup,
    conjugacy_classes, one_faithful_descriptor,
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
    ``at`` maps a ConjClass to the value there.  ``values``, the table over
    conjugacy_classes, is built from it on first use and kept.
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
        if not v0.is_rational() or v0.den != 1:
            raise ValueError("character degree must be a rational integer")
        return v0.num[0]

    @property
    def psi(self) -> PsiDescriptor | None:
        """The psi of an induced character Ind_X psi; None for every other kind."""
        return PsiDescriptor(*self.provenance[1:]) if self.provenance[0] == "induced" else None

    @property
    def char_id(self) -> str:
        kind = self.provenance[0]
        if kind == "one_dimensional":
            return f"lin[{self.provenance[1]}]"
        if kind == "lifted_from_quotient":
            _, m, u, w = self.provenance
            return f"lift{m}[u={u},w={w}]"
        if kind == "induced":
            return self.psi.char_id
        return kind

    def __repr__(self):
        return f"<Character {self.char_id} of {self.group}, degree {self.degree}>"


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
# permutation characters

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


def __getattr__(name: str):
    """The tower identity's names in __all__ from ``identity``, the rest from ``tables``, on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = ".identity" if name in ("QuotientIdentity", "quotient_identity_virtual_character") else ".tables"
    return getattr(import_module(module, __package__), name)
