"""Local and global Schur indices of the faithful characters of C_q x| C_{p^n}.

The global index equals the index at the place q; every other place
contributes 1:

  * infinity: the group has odd order, so no faithful character is self-dual;
  * primes coprime to |G|: always 1;
  * the prime p: a mod-p constituent of tau inherits the p^r distinct
    eigenvalues of tau(a), which are permuted transitively by b, so tau stays
    irreducible mod p;
  * the prime q: the extension Q_q(psi)/Q_q(tau) is tame and totally ramified
    of degree p^r, so being a norm is a residue-field condition.  Writing
    d = p^{n-r}, f = ord(q mod d) and N = q^f - 1, the index is the order of
    the class of a primitive d-th root of unity in k* / (k*)^{p^r}, which is
    e / gcd(e, N/d) with e = gcd(p^r, N).

The q-adic value is computed purely with integer arithmetic (p-adic
valuations, with f read off by lifting the exponent); no local fields are
ever constructed and no multiplicative order is walked.  The exact index
refines the general p | m bound and is cross-checked in the tests against
the direct big-integer computation and all externally known values.

Every check reads only psi = (u, w) and powers mod q: it computes no character
value and lists no element of H, so its cost does not grow with p^r.  Only
multiplicity_divisibility_check takes an inner product of values, and only it
loads the character tables.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING, NamedTuple

from .groups import InternalCheckError, MetacyclicParams, PsiDescriptor, psi_is_faithful, vp

if TYPE_CHECKING:
    from .characters import Character

__all__ = [
    "LocalIndexReport",
    "GlobalIndexReport",
    "local_index",
    "global_index",
    "multiplicity_divisibility_check",
    "qadic_class_order",
]

REASON_INFINITY = "odd_order_not_self_dual"
REASON_COPRIME = "coprime_to_group_order"
REASON_MOD_P = "irreducible_mod_p"
REASON_TAME = "tame_norm_criterion"


class LocalIndexReport(NamedTuple):
    place: object  # "inf" or a prime
    index: int
    reason: str
    details: dict

    def to_json(self) -> dict:
        return dict(self._asdict())


class GlobalIndexReport(NamedTuple):
    group: MetacyclicParams
    character_id: str
    local: tuple[LocalIndexReport, ...]
    global_index: int
    divides_dimension: bool

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "character": self.character_id,
            "local": [
                {**entry.to_json(), "place": _place_label(self.group, entry.place)}
                for entry in self.local
            ],
            "global": self.global_index,
            "divides_dimension": self.divides_dimension,
        }


def _place_label(G: MetacyclicParams, place) -> object:
    return {G.q: "q", G.p: "p"}.get(place, place)


def qadic_class_order(q: int, p: int, n: int, r: int) -> tuple[int, dict]:
    """Order of zeta_{p^{n-r}} in k*/(k*)^{p^r} for the residue field k of Q_q(tau).

    Uses only integer arithmetic.  Lifting the exponent, v_p(q^k - 1) =
    v_p(q - 1) + v_p(k) for odd p once q = 1 mod p, so q has order
    f = p^{max(0, n - r - v_p(q - 1))} mod d = p^{n-r}, and q^f is never
    formed.  Returns the order together with the intermediate data.
    """
    if q % p != 1:
        raise InternalCheckError(
            f"action of order p^r requires q = 1 mod p ((q, p, n, r) = {(q, p, n, r)})"
        )
    V0 = vp(q - 1, p)
    V = max(V0, n - r)  # v_p(q^f - 1)
    f = p ** (V - V0)
    e_val = min(r, V)  # e = gcd(p^r, q^f - 1) = p^e_val
    nd_val = V - (n - r)  # v_p((q^f - 1)/d)
    index_val = e_val - min(e_val, nd_val)
    details = {
        "d": p ** (n - r),
        "f": f,
        "v_p_of_N": V,
        "e": p ** e_val,
        "class_order": p ** index_val,
    }
    return p ** index_val, details


def _violation(G: MetacyclicParams, psi: PsiDescriptor | None, what: str) -> InternalCheckError:
    """An invariant violation that names the group reproducing it, and the character when there is one."""
    return InternalCheckError(f"{what} ({G.spec})" if psi is None else f"{what} ({psi.char_id}, {G.spec})")


def _check_index(G: MetacyclicParams, index: int, psi: PsiDescriptor | None = None) -> None:
    """Raise unless the Schur index of G's faithful characters is 1 exactly when p^n | q - 1 and divides p^r."""
    if (index == 1) != ((G.q - 1) % G.pn == 0):
        raise _violation(G, psi, f"index {index} contradicts the p^n | q-1 criterion")
    if G.pr % index != 0:
        raise _violation(G, psi, f"global Schur index {index} does not divide the dimension {G.pr}")


def _faithful_psi(G: MetacyclicParams, tau: Character | PsiDescriptor) -> PsiDescriptor:
    """The descriptor of a faithful irreducible tau = Ind_X psi; raises if tau is not one."""
    psi = tau if isinstance(tau, PsiDescriptor) else tau.psi
    if psi is None or not psi_is_faithful(G, psi):
        raise ValueError(
            "character is not faithful: compute its Schur index in the quotient "
            "group where it becomes faithful"
        )
    return psi


def local_index(
    G: MetacyclicParams, tau: Character | PsiDescriptor, place
) -> LocalIndexReport:
    """Local Schur index of a faithful irreducible at a place ("inf" or a prime)."""
    psi = _faithful_psi(G, tau)
    if place == "inf":
        # Ind psi-bar = Ind psi iff psi-bar = (u h, w), h in H: -w = w and (-1)^{p^r} = 1 mod q
        pmr = G.pn // G.pr
        if -psi.w % pmr == psi.w % pmr and pow(G.q - 1, G.pr, G.q) == 1:
            raise _violation(G, psi, "faithful character of an odd-order group is self-dual")
        return LocalIndexReport("inf", 1, REASON_INFINITY, {"self_dual": False})
    ell = int(place)
    if ell == G.q:
        order, details = qadic_class_order(G.q, G.p, G.n, G.r)
        return LocalIndexReport(ell, order, REASON_TAME, details)
    if ell == G.p:
        # the eigenvalues of tau(a) are u j^k, k < p^r: distinct iff j has exact order p^r
        if pow(G.j, G.pr, G.q) != 1 or pow(G.j, G.pr // G.p, G.q) == 1:
            raise _violation(G, psi, "tau(a) does not have p^r distinct eigenvalues")
        return LocalIndexReport(ell, 1, REASON_MOD_P, {"distinct_eigenvalues": G.pr})
    if G.order % ell == 0:
        raise _violation(G, psi, f"{ell} divides |G| = q * p^n but is neither p nor q")
    return LocalIndexReport(ell, 1, REASON_COPRIME, {})


def global_index(G: MetacyclicParams, tau: Character | PsiDescriptor) -> GlobalIndexReport:
    """Global Schur index as the lcm of the local ones, with consistency checks.

    The places inf, p, q and one representative coprime prime (2, since the
    group order is odd) are reported.  The lcm necessarily equals the q-adic
    index; the report additionally asserts the index-1 criterion p^n | q - 1.
    """
    psi = _faithful_psi(G, tau)
    locs = tuple(local_index(G, psi, place) for place in ("inf", 2, G.p, G.q))
    g = lcm(*(entry.index for entry in locs))
    _check_index(G, g, psi)
    return GlobalIndexReport(
        group=G,
        character_id=psi.char_id,
        local=locs,
        global_index=g,
        divides_dimension=True,
    )


class DivisibilityCheck(NamedTuple):
    multiplicity: int
    modulus: int
    divisible: bool


def multiplicity_divisibility_check(
    G: MetacyclicParams, tau: Character, rho
) -> DivisibilityCheck:
    """Multiplicity of tau in a rational character rho, against the global index.

    rho must take rational values (permutation characters, the regular one
    perm(F_n) among them, and their integer combinations qualify).  The
    divisibility always holds for rationally realizable characters; a False
    outcome signals an internal error upstream, not a mathematical finding.
    """
    from .characters import inner_product

    psi = _faithful_psi(G, tau)
    if not all(v.is_rational() for v in rho.values):
        raise ValueError("not a rational character")
    mult = inner_product(rho, tau)
    if mult.denominator != 1:
        where = getattr(rho, "provenance", "a virtual character")
        raise _violation(G, psi, f"multiplicity {mult} in {where} must be an integer")
    modulus = global_index(G, tau).global_index
    m = int(mult)
    return DivisibilityCheck(m, modulus, m % modulus == 0)
