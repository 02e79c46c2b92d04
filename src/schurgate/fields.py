"""Abelian fields as fixed fields of subgroups of (Z/m)^x, and the fields of values.

``field_of_values`` is the general route, for any values, and the check on the
closed forms that ``character_field`` reads off a provenance.  By orbit-stabilizer,
each value's orbit under generators of the units fixing the values before it
gives Schreier generators of its stabilizer, not a scan of all phi(m) units.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .cyclotomic import CyclotomicNumber, check_conductor, euler_phi
from .groups import InternalCheckError, MetacyclicParams, prime_factors

__all__ = ["AbelianField", "field_of_values", "character_field", "formula_field"]


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

    @classmethod
    def rationals(cls) -> "AbelianField":
        return cls(1, [1])

    def __eq__(self, other):
        if not isinstance(other, AbelianField):
            return NotImplemented
        return self.conductor == other.conductor and self.stabilizer == other.stabilizer

    def __hash__(self):
        return hash((self.conductor, self.stabilizer))

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
        return AbelianField.rationals()
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
