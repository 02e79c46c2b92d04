import random
import time

import pytest

from oracles import (
    brute_force_classes,
    centralizer_of,
    commutator_subgroup,
    conjugate,
    identity,
    index_in,
    subgroup_elements,
)
from schurgate.groups import (
    GroupElement,
    conjugacy_classes,
    iter_valid_groups,
    make_group,
    multiplicative_order,
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
        els = list(G.elements())
        e = identity(G)
        for _ in range(50):
            g, h, k = (rng.choice(els) for _ in range(3))
            assert G.mul(G.mul(g, h), k) == G.mul(g, G.mul(h, k))
            assert G.mul(g, G.inv(g)) == e
            assert G.mul(e, g) == g == G.mul(g, e)


def test_power_and_order_against_iteration():
    rng = random.Random(12)
    G = make_group(7, 3, 2, 2)
    els = list(G.elements())
    for _ in range(30):
        g = rng.choice(els)
        acc = identity(G)
        for k in range(1, 10):
            acc = G.mul(acc, g)
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
    for g in G.elements():
        assert G.class_of(g) in reps
        # conjugating never changes the class
        assert G.class_of(conjugate(G, g, GroupElement(3, 1))) == G.class_of(g)


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
        for g in G.elements():
            if all(G.mul(g, h) == G.mul(h, g) for h in cent):
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
                assert G.mul(g, h) in els


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
