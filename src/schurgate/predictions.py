"""Conditional prediction reports: forced divisibility of analytic ranks and
Selmer multiplicities for twists by the faithful characters.

Every rank or Selmer statement here is conditional and tagged with its
hypothesis; the tool never asserts an unconditional claim about L-functions.
The rank statements assume the Birch--Swinnerton-Dyer conjecture for Artin
twists (equality of the order of vanishing at s = 1 with the multiplicity in
the Mordell--Weil representation); the Selmer statements assume finiteness
of the relevant Tate--Shafarevich primary component.

Two moduli are reported for the tower L-function: the conservative value
p^{n-r} (p-1) (q-1) coming from the divisible-by-p bound, and the sharper
value coefficient * count * m built from the exact Schur index m.  The
exact index refines the proved p | m bound; reports label it as derived.
"""

from __future__ import annotations

from typing import NamedTuple

from .groups import (
    InternalCheckError,
    MetacyclicParams,
    faithful_count,
    faithful_descriptors,
    one_faithful_descriptor,
    tower_coefficient,
)
from .schur import global_index

__all__ = ["PredictionReport", "prediction_report", "tower_modulus"]

# faithful characters the count check may walk, one descriptor at a time: about 0.6 us each
# (2,125,764 at C7:C3^14 take 1.3 s and 55 MiB in all), so a walk at the cap ends in seconds
MAX_FAITHFUL_WALK = 3 * 10 ** 6

HYP_BSD = "BSD-Deligne-Gross"
HYP_SHA = "Sha-finite"
HYP_GALOIS_EQUIV = "Galois-equivariance-of-L-values"


def tower_modulus(G: MetacyclicParams) -> int:
    """The conservative tower modulus p^{n-r} (p-1) (q-1)."""
    return (G.pn // G.pr) * (G.p - 1) * (G.q - 1)


class PredictionReport(NamedTuple):
    group: MetacyclicParams
    character_id: str
    schur_modulus: int
    forced: bool
    statements: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "character": self.character_id,
            "schur_modulus": self.schur_modulus,
            "forced_divisibility": self.forced,
            "statements": [dict(s) for s in self.statements],
        }


def prediction_report(G: MetacyclicParams) -> PredictionReport:
    """Assemble the conditional predictions for the faithful tau of G, which share one index.

    When p^n | q - 1 the Schur index is 1 and the report says so: no forced
    divisibility.  Otherwise the statements cover (a) the rank of the
    twisted L-function modulo the exact index, (b) the Selmer multiplicity,
    (c) the tower L-function modulus with the faithful count bookkeeping,
    and (d) the reformulation of the twist as a Dirichlet twist of the base
    change to the degree-p^r cyclotomic layer.
    """
    rep = global_index(G, one_faithful_descriptor(G))
    m = rep.global_index
    count = faithful_count(G)
    if count > MAX_FAITHFUL_WALK:  # count has up to 4,300 digits: too many to print
        raise ValueError(f"{G.spec} has more faithful characters than the cap {MAX_FAITHFUL_WALK} of the count check")
    if sum(1 for _ in faithful_descriptors(G)) != count:  # one at a time: up to the cap, millions
        raise InternalCheckError(f"faithful character count formula disagrees with the enumeration ({G.spec})")
    if m == 1:
        return PredictionReport(
            group=G,
            character_id=rep.character_id,
            schur_modulus=1,
            forced=False,
            statements=(
                {
                    "kind": "no_forced_divisibility",
                    "assuming": [],
                    "statement": (
                        f"p^n = {G.pn} divides q - 1 = {G.q - 1}: the Schur index is 1 "
                        "and no rank divisibility is forced"
                    ),
                },
            ),
        )
    coefficient = tower_coefficient(G)
    identity_modulus = coefficient * count * m
    pmr = G.pn // G.pr
    psi_order = G.q * pmr
    statements = (
        {
            "kind": "rank_divisibility",
            "assuming": [HYP_BSD],
            "modulus": m,
            "statement": (
                f"ord_{{s=1}} L(E, tau, s) = 0 mod {m} for every elliptic curve E/Q "
                f"and every faithful irreducible tau of this group"
            ),
        },
        {
            "kind": "selmer_multiplicity",
            "assuming": [HYP_SHA],
            "modulus": m,
            "statement": (
                f"the multiplicity of tau in the dual ell-infinity Selmer representation "
                f"is divisible by {m}, for every prime ell with finite Sha[ell^infinity]"
            ),
        },
        {
            "kind": "tower_rank_divisibility",
            "assuming": [HYP_BSD],
            "modulus": tower_modulus(G),
            "identity_modulus": identity_modulus,
            "identity_coefficient": coefficient,
            "faithful_count": count,
            "statement": (
                f"if L(E/K, 1) != 0 for all proper subfields K, then "
                f"ord_{{s=1}} L(E/F, s) = 0 mod {tower_modulus(G)}; with the exact index "
                f"and equal orders across the Galois orbit (also assuming "
                f"{HYP_GALOIS_EQUIV}) the modulus sharpens to {identity_modulus}"
            ),
        },
        {
            "kind": "dirichlet_twist_reformulation",
            "assuming": [HYP_BSD],
            "psi_order": psi_order,
            "base_degree": G.pr,
            "statement": (
                f"tau is induced from a primitive character psi of order {psi_order} of "
                f"the degree-{G.pr} cyclotomic layer K, so L(E, tau, s) = L(f_E, psi, s) "
                f"for the base change f_E of the modular form of E to K; ranks of these "
                f"Dirichlet-twisted L-functions are forced to 0 mod {m}"
            ),
        },
    )
    return PredictionReport(
        group=G,
        character_id=rep.character_id,
        schur_modulus=m,
        forced=True,
        statements=statements,
    )
