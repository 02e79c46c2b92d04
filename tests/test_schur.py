from collections import Counter
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from schurgate.cyclotomic import CyclotomicNumber
from schurgate.groups import (
    conjugacy_classes,
    iter_valid_groups,
    make_group,
    subgroup_X,
    tower_subgroups,
)
from schurgate.characters import (
    VirtualCharacter,
    _inverse_class_map,
    character_field,
    faithful_characters,
    faithful_descriptors,
    irreducible_characters,
    one_faithful_character,
    permutation_character,
    regular_character,
    trivial_character,
)
from schurgate.schur import (
    REASON_COPRIME,
    REASON_INFINITY,
    REASON_MOD_P,
    REASON_TAME,
    global_index,
    local_index,
    multiplicity_divisibility_check,
    norm_criterion,
    qadic_class_order,
)
from schurgate.predictions import faithful_count, prediction_report
from oracles import contains_value, qadic_class_order_direct
from test_acceptance import _table_sweep_reps

G21 = make_group(7, 3, 1, 2)
G63 = make_group(7, 3, 2, 2)
G1539 = make_group(19, 3, 4, 4)


def test_local_index_at_q_examples():
    rep = local_index(G21, one_faithful_character(G21), 7)
    assert rep.index == 1 and rep.reason == REASON_TAME

    rep = local_index(G63, one_faithful_character(G63), 7)
    assert rep.index == 3
    assert rep.details["d"] == 3 and rep.details["f"] == 1

    rep = local_index(G1539, one_faithful_character(G1539), 19)
    assert rep.index == 9
    assert rep.details["d"] == 9


def test_local_index_other_places():
    tau = one_faithful_character(G63)
    assert local_index(G63, tau, "inf") == (
        "inf", 1, REASON_INFINITY, {"self_dual": False})
    assert local_index(G63, tau, 2).reason == REASON_COPRIME
    assert local_index(G63, tau, 11).index == 1
    rep = local_index(G63, tau, 3)
    assert rep.index == 1 and rep.reason == REASON_MOD_P
    assert rep.details["distinct_eigenvalues"] == 3


def test_local_index_rejects_unfaithful():
    with pytest.raises(ValueError, match="not faithful"):
        local_index(G63, trivial_character(G63), 7)


def test_global_index_known_values():
    assert global_index(G21, one_faithful_character(G21)).global_index == 1
    assert global_index(G63, one_faithful_character(G63)).global_index == 3
    assert global_index(G1539, one_faithful_character(G1539)).global_index == 9


def test_global_report_structure():
    rep = global_index(G63, one_faithful_character(G63))
    js = rep.to_json()
    assert js["global"] == 3
    assert js["divides_dimension"] is True
    places = {entry["place"]: entry["index"] for entry in js["local"]}
    assert places == {"inf": 1, 2: 1, "p": 1, "q": 3}


def test_norm_criterion():
    assert norm_criterion(G21, one_faithful_character(G21)) is True
    assert norm_criterion(G63, one_faithful_character(G63)) is False
    G19n4 = make_group(19, 3, 4, 7)  # j of order 3: r = 1
    assert norm_criterion(G19n4, one_faithful_character(G19n4)) is False


def test_qadic_formula_matches_direct_computation():
    for G in iter_valid_groups(3000):
        fast, _ = qadic_class_order(G.q, G.p, G.n, G.r)
        assert fast == qadic_class_order_direct(G.q, G.p, G.n, G.r)


# (q, p) with p | q - 1, among them p^2 | q - 1 (163, 109, 151) and a large p
QADIC_PAIRS = [(7, 3), (19, 3), (163, 3), (109, 3), (11, 5), (151, 5), (29, 7), (23, 11), (2999, 1499)]


@pytest.mark.parametrize("q, p", QADIC_PAIRS)
def test_qadic_details_match_direct_computation(q, p):
    # f from sympy.n_order, v_p(q^f - 1) from the big integer itself, which
    # is formed only while f = p^{n-r-v_p(q-1)} stays below 2000
    V0 = sympy.multiplicity(p, q - 1)
    for n in range(1, V0 + 4):
        for r in range(1, min(n, V0) + 1):
            if p ** max(0, n - r - V0) > 2000:
                continue
            d = p ** (n - r)
            f = sympy.n_order(q, d) if d > 1 else 1
            N = q ** f - 1
            e = gcd(p ** r, N)
            order, details = qadic_class_order(q, p, n, r)
            assert details == {
                "d": d,
                "f": f,
                "v_p_of_N": sympy.multiplicity(p, N),
                "e": e,
                "class_order": e // gcd(e, N // d),
            }, (q, p, n, r)
            assert order == details["class_order"] == qadic_class_order_direct(q, p, n, r)


def test_benard_schacher_the_character_field_holds_the_index_roots_of_unity():
    # Benard and Schacher (J. Algebra 22, 1972): a character of Schur index m
    # over Q has a primitive m-th root of unity in its field of values.  All
    # faithful tau of G are Galois conjugate, so one per group suffices.
    seen = Counter()
    for G in iter_valid_groups(700):
        tau = one_faithful_character(G)
        m = global_index(G, tau).global_index
        assert contains_value(character_field(tau), CyclotomicNumber.zeta(m)), G
        seen[m] += 1
    assert seen == {1: 140, 3: 26, 5: 4}


def test_sweep_index_iff_divisibility():
    seen_nontrivial = 0
    for G in iter_valid_groups(10 ** 4):
        idx, _ = qadic_class_order(G.q, G.p, G.n, G.r)
        if (G.q - 1) % G.pn == 0:
            assert idx == 1
        else:
            assert idx > 1
            seen_nontrivial += 1
        # index is a power of p within [1, p^r] dividing the dimension p^r
        assert G.pr % idx == 0
    assert seen_nontrivial > 100


def test_index_depends_only_on_q_p_n_r():
    a = global_index(make_group(7, 3, 2, 2), one_faithful_character(make_group(7, 3, 2, 2)))
    b = global_index(make_group(7, 3, 2, 4), one_faithful_character(make_group(7, 3, 2, 4)))
    assert a.global_index == b.global_index == 3


def test_galois_orbit_constancy():
    for G in (G63, make_group(19, 3, 3, 4)):
        vals = {global_index(G, tau).global_index for tau in faithful_characters(G)}
        assert len(vals) == 1


def test_faithful_characters_are_not_self_dual():
    # global_index decides self-duality from psi alone; check it on values
    for G in _table_sweep_reps() + [G1539]:
        inv = _inverse_class_map(G)
        for tau in faithful_characters(G):
            assert tuple(tau.values[i] for i in inv) != tau.values


def test_multiplicity_divisibility_regular():
    tau = one_faithful_character(G63)
    chk = multiplicity_divisibility_check(G63, tau, regular_character(G63))
    assert chk == (3, 3, True)


def test_multiplicity_divisibility_perm_of_X():
    tau = one_faithful_character(G63)
    rho = permutation_character(G63, subgroup_X(G63))
    chk = multiplicity_divisibility_check(G63, tau, rho)
    assert chk.multiplicity == 0 and chk.divisible


def test_multiplicity_divisibility_scaled_regular():
    tau = one_faithful_character(G1539)
    rho = 2 * VirtualCharacter.of(regular_character(G1539))
    chk = multiplicity_divisibility_check(G1539, tau, rho)
    assert chk == (18, 9, True)


def test_multiplicity_divisibility_rejects_irrational():
    tau = one_faithful_character(G63)
    with pytest.raises(ValueError, match="not a rational character"):
        multiplicity_divisibility_check(G63, tau, one_faithful_character(G63))


def test_tower_permutation_characters_divisible():
    for G in (G21, G63):
        taus = faithful_characters(G)
        mods = {t.char_id: global_index(G, t).global_index for t in taus}
        for sub in tower_subgroups(G):
            rho = permutation_character(G, sub)
            for tau in taus:
                chk = multiplicity_divisibility_check(G, tau, rho)
                assert chk.divisible and chk.modulus == mods[tau.char_id]


# -- presentation invariance ---------------------------------------------------
# every j of order p^r mod q presents the same group C_q x| C_{p^n}, so nothing
# reported about the group may depend on j

def _presentations(q, p, n, r):
    """The group in every presentation: one per j of order exactly p^r mod q."""
    js = [j for j in range(2, q) if pow(j, p ** r, q) == 1 and pow(j, p ** (r - 1), q) != 1]
    assert len(js) == (p - 1) * p ** (r - 1)  # the generators of the order-p^r subgroup
    return [make_group(q, p, n, j) for j in js]


PRESENTATIONS = sorted({(G.q, G.p, G.n, G.r) for G in iter_valid_groups(2000)})
# the table check keeps to groups with at most 40 classes (0.1 s a table at
# most); the largest tables below order 2000 take seconds each
TABLE_CLASSES_MAX = 40
SMALL_PRESENTATIONS = [
    key for key in PRESENTATIONS
    if len(conjugacy_classes(_presentations(*key)[0])) <= TABLE_CLASSES_MAX
]
INVARIANCE = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _closed_forms(G):
    predict = prediction_report(G).to_json()
    del predict["group"]
    return (
        Counter(global_index(G, psi).global_index for psi in faithful_descriptors(G)),
        faithful_count(G),
        Counter(c.size for c in conjugacy_classes(G)),
        predict,
    )


def _table_shape(G):
    table = irreducible_characters(G)
    return Counter(chi.degree for chi in table), Counter(character_field(chi).degree for chi in table)


@settings(INVARIANCE, max_examples=50)  # 0.01 s an example at most
@given(st.sampled_from(PRESENTATIONS))
def test_closed_forms_do_not_depend_on_the_presentation(key):
    first, *rest = _presentations(*key)
    want = _closed_forms(first)
    for G in rest:
        assert _closed_forms(G) == want, (first, G)


@INVARIANCE
@given(st.sampled_from(SMALL_PRESENTATIONS))
def test_table_shape_does_not_depend_on_the_presentation(key):
    first, *rest = _presentations(*key)
    want = _table_shape(first)
    for G in rest:
        assert _table_shape(G) == want, (first, G)
