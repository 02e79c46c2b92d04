"""The irreducible table of C_q x| C_{p^n}: inner products, tensor structure and the fields of values.

The rows are the evaluators of ``characters``, and an inner product is one
``cyclotomic.dot`` over the classes.  An abelian field is the fixed field of a
subgroup of (Z/m)^x.  ``field_of_values`` is the general route, for any
values, and the check on the closed forms that ``character_field`` reads off a
provenance.  By orbit-stabilizer, each value's orbit under generators of the
units fixing the values before it gives Schreier generators of its
stabilizer, not a scan of all phi(m) units.  Only ``table`` and
``sweep --tables`` load this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import TYPE_CHECKING

from . import cyclotomic, groups  # dot and conjugacy_classes are read there, where bench/tracer.py wraps them
from .characters import Character, _induced_character, _linear_character
from .cyclotomic import CyclotomicNumber, check_conductor, euler_phi
from .groups import (
    InternalCheckError, MetacyclicParams, _class_index, _induced_descriptors, prime_factors, psi_is_faithful,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "irreducible_characters", "faithful_characters", "inner_product", "is_faithful", "tensor_decompose",
    "AbelianField", "field_of_values", "character_field", "formula_field",
]


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
    ncls = len(groups.conjugacy_classes(G))
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


@lru_cache(maxsize=None)
def _inverse_class_map(G: MetacyclicParams) -> tuple[int, ...]:
    cls = groups.conjugacy_classes(G)
    idx = _class_index(G)
    return tuple(idx[G.class_of(G.inv(c.rep))] for c in cls)


def inner_product(chi1, chi2) -> Fraction:
    """<chi1, chi2> = (1/|G|) sum over classes of size * chi1(g) * conj(chi2(g)).

    Conjugation is evaluated as the value at the inverse class.  The result
    must be rational (it always is for characters and their integer
    combinations); a non-rational result raises.
    """
    if chi1.group != chi2.group:
        raise ValueError("characters live on different groups")
    G, v1, v2 = chi1.group, chi1.values, chi2.values
    cls = groups.conjugacy_classes(G)
    inv_map = _inverse_class_map(G)
    raw = cyclotomic.dot((cls[i].size, v1[i], v2[inv_map[i]]) for i in range(len(cls)))
    if not raw.is_rational():
        raise ValueError("inner product is not rational for these class functions")
    return raw.rational_value() / G.order


def is_faithful(chi: Character) -> bool:
    """Trivial-kernel test on the values of any class function: the kernel is where chi = chi(1)."""
    return chi.values[0] not in chi.values[1:]


def tensor_decompose(tau: Character) -> tuple[Character, Character]:
    """Write a faithful irreducible as tau_r (x) chi with tau_r from level r.

    tau_r is the inflation of a faithful irreducible of C_q x| C_{p^r} and chi
    is one-dimensional of order p^n (trivial in the degenerate case n = r).
    The factorization is verified value-wise before returning.
    """
    G, psi = tau.group, tau.psi
    if psi is None:
        raise ValueError("tensor decomposition applies to faithful induced characters")
    if not psi_is_faithful(G, psi):
        raise ValueError("character is not faithful")
    tau_r = _induced_character(G, G.r, psi.u, 0)
    e = psi.w if G.n > G.r else 0
    chi = _linear_character(G, e)
    prod = tuple(a * b for a, b in zip(tau_r.values, chi.values))
    if prod != tau.values:
        raise InternalCheckError(
            f"tensor factorization {tau.char_id} = {tau_r.char_id} (x) {chi.char_id} "
            f"failed value-wise ({G.spec})"
        )
    return tau_r, chi


# ---------------------------------------------------------------------------
# fields of values

class AbelianField:
    """An abelian number field, as the fixed field of a subgroup of (Z/m)^x.

    Canonicalized on construction: the conductor is reduced to the true
    conductor of the field, so equal fields always compare equal.  For the
    rationals the representation is conductor 1 with stabilizer (1,).
    """

    __slots__ = ("conductor", "stabilizer")

    def __init__(self, conductor: int, stabilizer):
        m = check_conductor(int(conductor), "the AbelianField constructor")
        stab = sorted({k % m for k in stabilizer}) if m > 1 else [1]
        if m > 1:
            if 1 not in stab:
                raise ValueError("stabilizer must contain 1")
            for a in stab:
                if gcd(a, m) != 1:
                    raise ValueError(f"stabilizer element {a} is not a unit mod {m}")
            if _span(m, stab)[1] != set(stab):
                raise ValueError("stabilizer is not closed under multiplication")
        m, stab = self._reduce(m, stab)
        self.conductor = m
        self.stabilizer = tuple(stab)

    @staticmethod
    def _reduce(m: int, stab: list[int]) -> tuple[int, list[int]]:
        """Conductor of the fixed field and the stabilizer there, one prime at a time.

        The field lies in Q(zeta_(m/p)) iff every unit that is 1 mod m/p fixes
        it; a prime that fails at m fails at every divisor of m, as in the
        kernel's canonical descent.
        """
        for pr in prime_factors(m):
            while m % pr == 0 and {k for k in range(1, m, m // pr) if gcd(k, m) == 1} <= set(stab):
                m //= pr
                stab = sorted({k % m for k in stab})
        return (m, stab) if m > 1 else (1, [1])

    @property
    def degree(self) -> int:
        return euler_phi(self.conductor) // len(self.stabilizer)

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "stabilizer": list(self.stabilizer)}

    def __eq__(self, other):
        if not isinstance(other, AbelianField):
            return NotImplemented
        return self.conductor == other.conductor and self.stabilizer == other.stabilizer

    def __repr__(self):
        return f"AbelianField(conductor={self.conductor}, degree={self.degree})"


def _span(m: int, candidates) -> tuple[list[int], set[int]]:
    """Greedy generators and the elements of the subgroup of (Z/m)^x the candidates span.

    A candidate outside the span so far becomes a generator g, and the span H
    grows by the cosets g^t H until g^t falls in H; no Galois image is needed.
    """
    gens, group = [], {1}
    for g in candidates:
        if g not in group:
            gens.append(g)
            out, x = set(group), g
            while x not in group:
                out.update(h * x % m for h in group)
                x = x * g % m
            group = out
    return gens, group


def _stabilizer(m: int, gens, order: int, x: CyclotomicNumber):
    """Generators and elements of the subgroup of <gens> (of the given order) fixing x.

    Walks the orbit of x, recording for each image a unit u of <gens> that
    maps x to it; each generator g then gives the Schreier generator
    g * u / u' of the stabilizer, where u' is the unit recorded for g(u(x)).
    """
    mx = x.conductor
    reps = {x.num: 1}
    frontier = [1]
    schreier = set()
    while frontier:
        u = frontier.pop()
        for g in gens:
            gu = g * u % m
            img = x.galois(gu % mx).num
            r = reps.get(img)
            if r is None:
                reps[img] = gu
                frontier.append(gu)
            elif r != gu:
                schreier.add(gu * pow(r, -1, m) % m)
    sub_gens, group = _span(m, sorted(schreier))
    if len(group) * len(reps) != order:
        raise InternalCheckError(
            f"orbit-stabilizer at conductor {m}: |orbit| {len(reps)} * |stabilizer| "
            f"{len(group)} != {order}"
        )
    return sub_gens, group


def field_of_values(values) -> AbelianField:
    """Smallest abelian field containing every value in the list."""
    vals = list(values)
    if not vals:
        raise ValueError("need at least one value")
    m = check_conductor(lcm(*(v.conductor for v in vals)), "field_of_values")
    if m == 1:
        return AbelianField(1, [1])
    gens, group = _span(m, (k for k in range(2, m) if gcd(k, m) == 1))
    for x in dict.fromkeys(v for v in vals if v.conductor > 1):
        gens, group = _stabilizer(m, gens, len(group), x)
    return AbelianField(m, group)


def character_field(chi) -> AbelianField:
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
        return AbelianField(1, [1])
    raise ValueError(f"no closed-form field for a {kind!r} character ({G.spec})")


def formula_field(G: MetacyclicParams) -> AbelianField:
    """Closed form of the field of a faithful character: Q(zeta_{p^{n-r}}, eta_H)."""
    return _eta_field(G, G.pn // G.pr, True)


@lru_cache(maxsize=None)
def _eta_field(G: MetacyclicParams, d: int, eta: bool) -> AbelianField:
    """Q(zeta_d, eta_H) if eta, else Q(zeta_d): fixed by the units k = 1 mod d in H mod q."""
    m = G.q * d if eta else d  # k lies in H iff k^{p^r} = 1 mod q
    return AbelianField(m, [k for k in range(1, m, d) if k % G.q and pow(k, G.pr, G.q) == 1])
