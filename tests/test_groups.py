import hashlib
import random
import time

import pytest
import sympy

from oracles import (
    brute_force_classes,
    centralizer_of,
    commutator_subgroup,
    conjugate,
    elements,
    identity,
    index_in,
    mul,
    multiplicative_order,
    subgroup_elements,
)
from schurgate.groups import (
    _MR_BASES,
    _MR_PSI,
    GroupElement,
    _class_index,
    _p_power_subgroup,
    conjugacy_classes,
    is_prime,
    iter_valid_groups,
    make_group,
    subgroup_X,
    tower_subgroups,
)


def test_make_group_7_3_1():
    G = make_group(7, 3, 1, 2)
    assert G.r == 1
    assert multiplicative_order(2, 7) == 3
    assert G.order == 21


def test_make_group_7_3_2():
    G = make_group(7, 3, 2, 2)
    assert G.r == 1 and G.order == 63


def test_make_group_rejects_wrong_order_j():
    with pytest.raises(ValueError, match="not metacyclic"):
        make_group(7, 3, 1, 3)  # 3 has order 6 mod 7


def test_make_group_rejects_abelian():
    with pytest.raises(ValueError, match="abelian"):
        make_group(7, 3, 1, 1)


def test_make_group_rejects_even_primes():
    with pytest.raises(ValueError):
        make_group(7, 2, 1, 6)
    with pytest.raises(ValueError):
        make_group(2, 3, 1, 1)


def test_make_group_rejects_r_above_n():
    # 4 has order 9 mod 19, too big for n = 1
    with pytest.raises(ValueError):
        make_group(19, 3, 1, 4)


def test_default_j_is_canonical():
    G = make_group(7, 3, 1)
    assert G.j == 2  # orders mod 7: 2 -> 3, so min is 2


def test_group_axioms_random_triples():
    rng = random.Random(11)
    for G in (make_group(7, 3, 1, 2), make_group(7, 3, 2, 4), make_group(19, 3, 2, 7)):
        els = list(elements(G))
        e = identity(G)
        for _ in range(50):
            g, h, k = (rng.choice(els) for _ in range(3))
            assert mul(G, mul(G, g, h), k) == mul(G, g, mul(G, h, k))
            assert mul(G, g, G.inv(g)) == e
            assert mul(G, e, g) == g == mul(G, g, e)


def test_power_and_order_against_iteration():
    rng = random.Random(12)
    G = make_group(7, 3, 2, 2)
    els = list(elements(G))
    for _ in range(30):
        g = rng.choice(els)
        acc = identity(G)
        for k in range(1, 10):
            acc = mul(G, acc, g)
            assert G.power(g, k) == acc
        o = G.element_order(g)
        assert G.power(g, o) == identity(G)
        for d in range(1, o):
            assert G.power(g, d) != identity(G)


def test_classes_c7_c3():
    G = make_group(7, 3, 1, 2)
    cls = conjugacy_classes(G)
    assert len(cls) == 5
    assert sorted(c.size for c in cls) == [1, 3, 3, 7, 7]
    assert cls[0].rep == GroupElement(0, 0) and cls[0].size == 1


def test_classes_c7_c9():
    G = make_group(7, 3, 2, 2)
    cls = conjugacy_classes(G)
    assert len(cls) == 15
    assert sum(c.size for c in cls) == 63


def test_classes_match_brute_force():
    for args in ((7, 3, 1, 2), (7, 3, 2, 4), (13, 3, 1, 3), (19, 3, 2, 7), (11, 5, 1, 3)):
        G = make_group(*args)
        assert list(conjugacy_classes(G)) == brute_force_classes(G)


def test_class_of_agrees_with_membership():
    G = make_group(7, 3, 2, 2)
    cls = conjugacy_classes(G)
    reps = {c.rep for c in cls}
    for g in elements(G):
        assert G.class_of(g) in reps
        # conjugating never changes the class
        assert G.class_of(conjugate(G, g, GroupElement(3, 1))) == G.class_of(g)


def test_conj_class_of_every_element_is_its_listed_class():
    checked = 0
    for G in iter_valid_groups(300):
        classes, idx = conjugacy_classes(G), _class_index(G)
        for g in elements(G):
            assert G.conj_class(g) == classes[idx[G.class_of(g)]], (G, g)
            checked += 1
    assert checked > 10000


def test_conj_class_at_a_large_q_lists_no_orbit_representatives():
    import schurgate.groups as groups

    G = make_group(1000003, 3, 1)
    groups._psi_orbit_reps.cache_clear()
    cls = G.conj_class(GroupElement(5, 0))
    assert groups._psi_orbit_reps.cache_info().currsize == 0
    orbit = sorted(5 * h % G.q for h in sympy.nthroot_mod(1, 3, G.q, all_roots=True))
    assert len(orbit) == 3 and cls == (GroupElement(orbit[0], 0), 3, G.q)


def test_subgroup_X_examples():
    G1 = make_group(7, 3, 1, 2)
    X1 = subgroup_X(G1)
    assert X1.order == 7 and subgroup_elements(G1, X1) == frozenset(GroupElement(x, 0) for x in range(7))

    G2 = make_group(7, 3, 2, 2)
    X2 = subgroup_X(G2)
    assert X2.order == 21

    G3 = make_group(19, 3, 4, 4)  # 4 has order 9 mod 19
    assert G3.r == 2
    assert subgroup_X(G3).order == 19 * 9


def test_X_is_centralizer_of_a():
    for args in ((7, 3, 1, 2), (7, 3, 2, 2), (13, 3, 2, 3)):
        G = make_group(*args)
        assert set(subgroup_elements(G, subgroup_X(G))) == centralizer_of(G, GroupElement(1, 0))


def test_X_is_cyclic_and_self_centralizing():
    for args in ((7, 3, 2, 2), (19, 3, 2, 7)):
        G = make_group(*args)
        X = subgroup_X(G)
        gen = GroupElement(1, G.pr % G.pn)
        assert G.element_order(gen) == X.order  # cyclic
        cent = set(subgroup_elements(G, X))
        for g in elements(G):
            if all(mul(G, g, h) == mul(G, h, g) for h in cent):
                assert g in cent  # X = C_G(X)


def test_commutator_subgroup_is_a():
    for args in ((7, 3, 1, 2), (7, 3, 2, 4)):
        G = make_group(*args)
        assert commutator_subgroup(G) == {GroupElement(x, 0) for x in range(G.q)}


def test_tower_subgroups_indices():
    G = make_group(7, 3, 2, 2)
    towers = {s.label: s for s in tower_subgroups(G)}
    assert towers["K0"].order == G.order  # whole group, fixed field Q
    assert index_in(towers["K1"], G) == 3
    assert index_in(towers["K2"], G) == 9
    assert index_in(towers["F0"], G) == 7
    assert index_in(towers["F1"], G) == 21
    assert index_in(towers["F2"], G) == 63  # trivial subgroup
    for s in towers.values():
        # closure under the group law
        els = subgroup_elements(G, s)
        sample = list(els)[:20]
        for g in sample:
            for h in sample:
                assert mul(G, g, h) in els


def test_subgroup_orders_match_closure():
    for G in iter_valid_groups(700):
        for sub in tower_subgroups(G) + [subgroup_X(G)]:
            assert sub.order == len(subgroup_elements(G, sub)), (G, sub.label)


def test_tower_subgroups_of_a_large_group_hold_no_elements():
    G = make_group(7, 3, 12)  # order 7 * 3^12 = 3,720,087
    start = time.perf_counter()
    towers = {s.label: s for s in tower_subgroups(G)}
    assert time.perf_counter() - start < 1.0
    assert towers["K0"].order == G.order and towers["F12"].order == 1
    assert subgroup_X(G).order == 7 * 3 ** 11


def test_iter_valid_groups_small():
    groups = list(iter_valid_groups(200))
    keys = {(G.q, G.p, G.n, G.j) for G in groups}
    assert len(keys) == len(groups)
    assert all(G.order <= 200 for G in groups)
    # C7:C3 appears with both valid j (2 and 4)
    assert (7, 3, 1, 2) in keys and (7, 3, 1, 4) in keys
    # 9 | 18, so q = 19 admits r = 2 at n = 2 (order 171)
    assert any(G.r == 2 for G in groups if G.q == 19 and G.n == 2)
    assert all(G.r == 1 for G in groups if G.n == 1)


def test_iter_valid_groups_finds_higher_r():
    groups = list(iter_valid_groups(19 * 81))
    rs = {(G.q, G.p, G.n, G.r) for G in groups}
    assert (19, 3, 2, 2) in rs  # j of order 9 mod 19 exists (e.g. 4)
    assert (19, 3, 4, 2) in rs


def test_group_json():
    G = make_group(7, 3, 2, 2)
    assert G.to_json() == {"q": 7, "p": 3, "n": 2, "j": 2, "r": 1}


# -- closed-form integer questions against independent routes ------------------

def _strong_probable_prime(m: int, a: int) -> bool:
    """m passes the strong Fermat test to base a (m odd, m > a)."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, m)
    return x == 1 or any(pow(x, 2 ** i, m) == m - 1 for i in range(s))


def test_is_prime_matches_sympy_below_200000():
    assert [m for m in range(2 * 10 ** 5) if is_prime(m)] == list(sympy.primerange(2, 2 * 10 ** 5))


def test_is_prime_matches_sympy_on_large_and_adversarial_numbers():
    rng = random.Random(20170)
    numbers = [rng.getrandbits(bits) | 1 for bits in (64, 80) for _ in range(300)]
    numbers += [sympy.nextprime(m) for m in numbers[::20]]
    # Carmichael numbers, including ones with large prime factors
    numbers += [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    numbers += [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in (1, 6, 35, 45, 10 ** 6 + 56)]
    numbers += [10 ** 18 + 3, 10 ** 18 + 9, 2 ** 61 - 1, 2 ** 64 - 59, 2 ** 80 - 65]
    for m in numbers:
        assert is_prime(m) == sympy.isprime(m), m


def test_psi_table_is_consistent():
    # psi_k is composite and a strong probable prime to each of the first k
    # bases; where psi_k < psi_{k+1} it must fail base k + 1, or psi_{k+1}
    # would equal it.  A misquoted psi_10 would call psi_9 prime.
    assert len(_MR_PSI) == len(_MR_BASES) == 13
    for k, psi in enumerate(_MR_PSI, 1):
        assert not sympy.isprime(psi), psi
        assert k == len(_MR_PSI) or not is_prime(psi), psi  # psi_13 itself is refused
        assert all(_strong_probable_prime(psi, a) for a in _MR_BASES[:k]), psi
        if k < len(_MR_PSI) - 1 and psi < _MR_PSI[k]:
            assert not _strong_probable_prime(psi, _MR_BASES[k]), psi
    assert _MR_PSI == tuple(sorted(_MR_PSI))


def test_is_prime_refuses_beyond_the_proven_range():
    psi13 = _MR_PSI[-1]
    # even or with a factor among the bases: decided by trial division
    assert is_prime(psi13 - 1) is False and is_prime(psi13 + 2) is False
    above = next(m for m in range(psi13 + 2, psi13 + 200, 2) if all(m % a for a in _MR_BASES))
    for m in (psi13, above, 10 ** 30 + 57, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="beyond the deterministic primality range"):
            is_prime(m)


def _p_order_exponent(order: int, p: int):
    """k with order = p^k, or None when the order is not a power of p."""
    k = 0
    while order % p == 0:
        order, k = order // p, k + 1
    return k if order == 1 else None


@pytest.mark.parametrize("q", [7, 13, 19, 31, 37, 109, 163, 181, 211, 271, 487, 1459])
def test_make_group_r_and_rejections_match_sympy_n_order(q):
    for p in [p for p in sympy.primefactors(q - 1) if p > 2]:
        for n in (1, 2, 3, 5):
            for j in range(2, q):
                r = _p_order_exponent(sympy.n_order(j, q), p)
                if r is not None and 1 <= r <= n:
                    assert make_group(q, p, n, j).r == r
                    continue
                with pytest.raises(ValueError, match="not metacyclic") as err:
                    make_group(q, p, n, j)
                if r is None:
                    assert f"j = {j} mod {q}" in str(err.value) and f"p = {p}" in str(err.value)


def test_default_j_is_the_smallest_residue_of_the_largest_action():
    for q in sympy.primerange(7, 400):
        for p in [p for p in sympy.primefactors(q - 1) if p > 2]:
            v = sympy.multiplicity(p, q - 1)
            for n in range(1, v + 2):
                s = min(n, v)
                want = min(j for j in range(2, q) if sympy.n_order(j, q) == p ** s)
                G = make_group(q, p, n)
                assert (G.j, G.r) == (want, s), (q, p, n)


def test_default_j_scan_agrees_with_the_listed_subgroup():
    # make_group scans p^s residues before it lists the subgroup; both give the same j
    for q in sympy.primerange(7, 20000):
        for p in [p for p in sympy.primefactors(q - 1) if 2 < p <= 13]:
            for s in range(1, sympy.multiplicity(p, q - 1) + 1):
                listed = next(x for x in _p_power_subgroup(q, p, s) if pow(x, p ** (s - 1), q) != 1)
                assert make_group(q, p, s).j == listed, (q, p, s)


def test_iter_valid_groups_matches_n_order_enumeration():
    want = []
    for q in sympy.primerange(3, 3000 // 3 + 1):
        for p in sympy.primefactors(q - 1):
            n = 1
            while p > 2 and q * p ** n <= 3000:
                for j in range(2, q):
                    r = _p_order_exponent(sympy.n_order(j, q), p)
                    if r is not None and r <= n:
                        want.append((q, p, n, j, r))
                n += 1
    assert [(G.q, G.p, G.n, G.j, G.r) for G in iter_valid_groups(3000)] == want


def test_iter_valid_groups_is_byte_identical():
    # sha256 of repr(list(iter_valid_groups(30000))) as recorded when each
    # j was still found by walking its multiplicative order
    digest = hashlib.sha256(repr(list(iter_valid_groups(30000))).encode()).hexdigest()
    assert digest == "eb1d6a5e62fc4232fe6e8ade8ba63f9d4109cd3f48bd744fd2f0b94a38fda2c3"
