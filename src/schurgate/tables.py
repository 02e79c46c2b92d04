"""The full irreducible table of C_q x| C_{p^n}, its inner products and tensor structure.

The rows are the evaluators of ``characters``, and an inner product is one
``cyclotomic.dot`` over the classes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .characters import Character, _induced_character, _linear_character
from .cyclotomic import dot
from .groups import InternalCheckError, MetacyclicParams, _class_index, _induced_descriptors, conjugacy_classes

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["irreducible_characters", "faithful_characters", "inner_product", "is_faithful", "tensor_decompose"]


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


@lru_cache(maxsize=None)
def _inverse_class_map(G: MetacyclicParams) -> tuple[int, ...]:
    cls = conjugacy_classes(G)
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
    cls = conjugacy_classes(G)
    inv_map = _inverse_class_map(G)
    raw = dot((cls[i].size, v1[i], v2[inv_map[i]]) for i in range(len(cls)))
    if not raw.is_rational():
        raise ValueError("inner product is not rational for these class functions")
    return raw.rational_value() / G.order


def is_faithful(chi: Character) -> bool:
    """Trivial-kernel test: the kernel is the union of classes where chi = chi(1)."""
    return chi.values[0] not in chi.values[1:]


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
