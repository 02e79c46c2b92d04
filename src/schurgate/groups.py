"""The metacyclic groups G = C_q x| C_{p^n} = <a, b | a^q = b^{p^n} = 1, bab^-1 = a^j>.

Elements are residue pairs (x, y) standing for a^x b^y, with the product

    (x1, y1) * (x2, y2) = (x1 + j^y1 * x2 mod q, y1 + y2 mod p^n).

Everything downstream (conjugacy classes, the distinguished subgroup X, the
tower subgroups) is computed from closed forms in (q, p, n, r).  The class of
any element is built from its representative (``conj_class``), so a caller
that needs a few classes never lists all of them.  A subgroup
is a descriptor (label, kind, level, order, generators), never a set of
elements: K_k = <a, b^{p^k}> and F_k = <b^{p^k}>, with X = K_r.  Only the
default j, iter_valid_groups, the orbit-minimum table of classes and the
Gaussian periods list the order-p^s subgroup of (Z/q)^x (H = <j> at s = r),
all through one cached _p_power_subgroup; elsewhere x in H is the power test
x^{p^r} = 1.  The group law itself (mul, elements) lives in the test oracles.

The psi calculus (which psi = (u, w) of X induce the irreducibles, and the
tower coefficient) is closed-form too and lives here, so that the Schur
indices and predictions never load the character tables or the kernel.

The integer questions are answered without walking (Z/q)^x: primality by
deterministic Miller-Rabin, and r by p-power tests, since j has p-power
order iff j^{p^v} = 1 for v = v_p(q - 1), and r is then the least k with
j^{p^k} = 1.  The order of j itself is never computed.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import gcd
from typing import Iterator, NamedTuple

__all__ = [
    "InternalCheckError",
    "MetacyclicParams",
    "GroupElement",
    "ConjClass",
    "Subgroup",
    "PsiDescriptor",
    "make_group",
    "conjugacy_classes",
    "subgroup_X",
    "tower_subgroups",
    "iter_valid_groups",
    "psi_is_faithful",
    "faithful_descriptors",
    "one_faithful_descriptor",
    "tower_coefficient",
]


class InternalCheckError(RuntimeError):
    """An identity that must hold by theory failed; indicates a bug, not a finding."""


# Miller-Rabin with the first k prime bases proves m prime for every odd
# m < psi_k (Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster,
# Math. Comp. 86, 2017).  psi_k is the least odd composite that is a strong
# probable prime to each of the first k bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for m < psi_13 (about 3.3e24).

    A larger m is decided only when one of the bases divides it; otherwise
    it raises ValueError rather than guess.
    """
    if m < 2:
        return False
    for a in _MR_BASES:
        if m % a == 0:
            return m == a
    k = bisect_right(_MR_PSI, m) + 1  # the least k with m < psi_k
    if k > len(_MR_PSI):
        raise ValueError(f"{m} is beyond the deterministic primality range (< {_MR_PSI[-1]})")
    s = vp(m - 1, 2)
    d = (m - 1) >> s
    for a in _MR_BASES[:k]:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of m, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


def vp(m: int, p: int) -> int:
    """p-adic valuation of m (0 for m = 0)."""
    v = 0
    while m and m % p == 0:
        m //= p
        v += 1
    return v


class GroupElement(NamedTuple):
    x: int
    y: int


class ConjClass(NamedTuple):
    rep: GroupElement
    size: int
    element_order: int


class MetacyclicParams(NamedTuple):
    q: int
    p: int
    n: int
    j: int
    r: int

    @property
    def order(self) -> int:
        return self.q * self.p ** self.n

    @property
    def pn(self) -> int:
        return self.p ** self.n

    @property
    def pr(self) -> int:
        return self.p ** self.r

    def inv(self, g: GroupElement) -> GroupElement:
        jy = pow(self.j, -g.y % self.pn, self.q)
        return GroupElement(-jy * g.x % self.q, -g.y % self.pn)

    def power(self, g: GroupElement, k: int) -> GroupElement:
        k %= self.order
        # (x, y)^k = (S_k(y) x, k y) with S_k(y) the twisted geometric sum
        return GroupElement(self._twisted_sum(g.y, k) * g.x % self.q, k * g.y % self.pn)

    def _twisted_sum(self, y: int, k: int) -> int:
        jy = pow(self.j, y, self.q)
        if jy == 1:
            return k % self.q
        return (pow(jy, k, self.q) - 1) * pow(jy - 1, -1, self.q) % self.q

    def element_order(self, g: GroupElement) -> int:
        ord_y = self.pn // gcd(self.pn, g.y)
        if self._twisted_sum(g.y, ord_y) * g.x % self.q == 0:
            return ord_y
        return self.q * ord_y

    def class_of(self, g: GroupElement) -> GroupElement:
        """Representative (lexicographically minimal element) of the class of g."""
        if g.y % self.pr != 0:
            return GroupElement(0, g.y)
        return GroupElement(_orbit_mins(self)[g.x % self.q], g.y)

    def conj_class(self, g: GroupElement) -> ConjClass:
        """The class of g from its representative alone.

        The class of (x, y) is {(j^v x + u(1 - j^y), y)}: all of (Z/q, y) when
        p^r does not divide y, and the H-orbit {(Hx, y)} otherwise.
        """
        rep = self.class_of(g)
        size = self.q if rep.y % self.pr else self.pr if rep.x else 1
        return ConjClass(rep, size, self.element_order(rep))

    def to_json(self) -> dict:
        return {"q": self.q, "p": self.p, "n": self.n, "j": self.j, "r": self.r}

    @property
    def spec(self) -> str:
        """The group as error messages name it, by the parameters that rebuild it."""
        return f"group (q, p, n, j) = ({self.q}, {self.p}, {self.n}, {self.j})"

    def __str__(self):
        return f"C{self.q}:C{self.pn}(j={self.j})"


def make_group(q: int, p: int, n: int, j: int | None = None) -> MetacyclicParams:
    """Validate parameters and derive r = log_p(order of j mod q) by p-power tests.

    When j is omitted the canonical choice with the largest possible action
    is used: the smallest residue of order p^{min(n, v_p(q-1))}.  Even primes
    are rejected: the engine covers only odd p and q, so classical even-order
    phenomena (e.g. the quaternion group, whose 2-dimensional character has
    Schur index 2) are out of range by design.
    """
    if not is_prime(q) or q % 2 == 0:
        raise ValueError(f"q must be an odd prime, got {q}")
    if not is_prime(p) or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p == q:
        raise ValueError("p and q must be distinct")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    v = vp(q - 1, p)
    if j is None:
        if not v:
            raise ValueError(f"no element of order {p} mod {q}: need p | q-1")
        s = min(n, v)
        j = next(x for x in _p_power_subgroup(q, p, s) if pow(x, p ** (s - 1), q) != 1)
    j %= q
    if j == 0:
        raise ValueError("j must be a unit mod q")
    if j == 1:
        raise ValueError("abelian: j = 1 gives the direct product, not handled here")
    if pow(j, p ** v, q) != 1:
        raise ValueError(
            f"not metacyclic of required type: j = {j} mod {q} does not have "
            f"order a power of p = {p}"
        )
    r = next(k for k in range(1, v + 1) if pow(j, p ** k, q) == 1)
    if r > n:
        raise ValueError(
            f"not metacyclic of required type: order of j is p^{r} but n = {n}"
        )
    return MetacyclicParams(q=q, p=p, n=n, j=j, r=r)


@lru_cache(maxsize=None)
def _p_power_subgroup(q: int, p: int, s: int) -> tuple[int, ...]:
    """The subgroup of order p^s of (Z/q)^x, sorted (1 first); p^s must divide q - 1.

    It is generated by h = x^{(q-1)/p^s} at the first x whose h has exact order p^s.
    """
    ps = p ** s
    for x in range(2, q):
        h = pow(x, (q - 1) // ps, q)
        if pow(h, ps // p, q) != 1:
            return tuple(sorted(pow(h, k, q) for k in range(ps)))


@lru_cache(maxsize=None)
def _orbit_mins(G: MetacyclicParams) -> tuple[int, ...]:
    """mins[x] = min(x h mod q for h in H): the smallest member of the H-orbit of x."""
    mins = [0] * G.q
    H = _p_power_subgroup(G.q, G.p, G.r)
    for x in range(1, G.q):
        if not mins[x]:  # x is the first of its orbit, hence the smallest
            for h in H:
                mins[x * h % G.q] = x
    return tuple(mins)


@lru_cache(maxsize=None)
def _psi_orbit_reps(G: MetacyclicParams) -> tuple[int, ...]:
    """Minimal representatives of the H-orbits on units mod q, sorted."""
    return tuple(x for x, m in enumerate(_orbit_mins(G)) if x and m == x)


@lru_cache(maxsize=None)
def conjugacy_classes(G: MetacyclicParams) -> tuple[ConjClass, ...]:
    """All conjugacy classes, ordered by (y, x) of the minimal representative."""
    reps = (0, *_psi_orbit_reps(G))
    out = [
        G.conj_class(GroupElement(x, y))
        for y in range(G.pn)
        for x in (reps if y % G.pr == 0 else (0,))
    ]
    total = sum(c.size for c in out)
    if total != G.order:
        raise InternalCheckError(f"class sizes sum to {total}, expected {G.order} ({G.spec})")
    return tuple(out)


@lru_cache(maxsize=None)
def _class_index(G: MetacyclicParams) -> dict[GroupElement, int]:
    """Position of each class representative in conjugacy_classes(G)."""
    return {c.rep: i for i, c in enumerate(conjugacy_classes(G))}


class Subgroup(NamedTuple):
    """K_k = <a, b^{p^k}> (kind "K") or F_k = <b^{p^k}> (kind "F") at level k."""

    label: str
    kind: str
    level: int
    order: int
    generators: tuple[GroupElement, ...]


def _tower_subgroup(G: MetacyclicParams, kind: str, k: int) -> Subgroup:
    pk = G.p ** k
    b = GroupElement(0, pk % G.pn)
    if kind == "K":
        return Subgroup(f"K{k}", "K", k, G.q * G.pn // pk, (GroupElement(1, 0), b))
    return Subgroup(f"F{k}", "F", k, G.pn // pk, (b,))


def subgroup_X(G: MetacyclicParams) -> Subgroup:
    """X = K_r = <a, b^{p^r}>, cyclic of order q * p^{n-r}, normal and self-centralizing."""
    return _tower_subgroup(G, "K", G.r)._replace(label="X")


def tower_subgroups(G: MetacyclicParams) -> list[Subgroup]:
    """Subgroups fixing the tower fields: K_k = <a, b^{p^k}> and F_k = <b^{p^k}>.

    K_k has index p^k (fixed field: the degree-p^k cyclotomic layer) and
    F_k has index q*p^k (fixed field: the k-th layer over the degree-q field).
    """
    return [_tower_subgroup(G, kind, k) for kind in "KF" for k in range(G.n + 1)]


def iter_valid_groups(max_order: int) -> Iterator[MetacyclicParams]:
    """All valid parameter tuples (q, p, n, j) with q * p^n <= max_order.

    Enumerates odd primes q, odd primes p dividing q - 1, all n >= 1 within
    the order bound, and every j whose order is a p-power between p and
    p^n.  Deterministic order: by (q, p, n, j).
    """
    for q in range(3, max_order // 3 + 1, 2):
        if not is_prime(q):
            continue
        for p in prime_factors(q - 1):
            if p == 2 or p == q or q * p > max_order:
                continue
            v = vp(q - 1, p)
            n = 1
            while q * p ** n <= max_order:
                for j in _p_power_subgroup(q, p, min(n, v))[1:]:
                    yield make_group(q, p, n, j)
                n += 1


# ---------------------------------------------------------------------------
# psi calculus: the one-dimensional characters of X that induce irreducibles

class PsiDescriptor(NamedTuple):
    """One-dimensional character of X: a^x b^{p^r y} -> zeta_q^{ux} zeta_{p^{n-r}}^{wy}."""

    u: int
    w: int

    @property
    def char_id(self) -> str:
        """ID of the character induced from this psi to G."""
        return f"ind[u={self.u},w={self.w}]"


def psi_is_faithful(G: MetacyclicParams, psi: PsiDescriptor) -> bool:
    return psi.u % G.q != 0 and (G.n == G.r or psi.w % G.p != 0)


def _induced_descriptors(G: MetacyclicParams) -> Iterator[tuple[int, PsiDescriptor]]:
    """(level, psi) of the p^r-dimensional irreducibles, in table order.

    Levels run from r to n, where the faithful ones sit; within a level, u
    runs over the minimal H-orbit representatives and w over the units mod
    p^{level - r} (only 0 at level r).
    """
    for level in range(G.r, G.n + 1):
        pmr = G.p ** (level - G.r)
        ws = [w for w in range(pmr) if gcd(w, G.p) == 1] if pmr > 1 else [0]
        for u in _psi_orbit_reps(G):
            for w in ws:
                yield level, PsiDescriptor(u, w)


def faithful_descriptors(G: MetacyclicParams) -> list[PsiDescriptor]:
    """The psi of the faithful irreducibles, in the order of faithful_characters."""
    return [psi for level, psi in _induced_descriptors(G) if level == G.n]


def one_faithful_descriptor(G: MetacyclicParams) -> PsiDescriptor:
    """The first entry of faithful_descriptors, without enumerating them."""
    return PsiDescriptor(1, 1 if G.n > G.r else 0)


def tower_coefficient(G: MetacyclicParams) -> int:
    """Multiple of the faithful sum in the tower identity: p^r, or p^r - p^{r-1} if n = r."""
    return G.pr if G.n > G.r else G.pr - G.pr // G.p
