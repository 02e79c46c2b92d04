from fractions import Fraction
from math import gcd, lcm

import pytest

from oracles import (
    conjugate_psi,
    decompose,
    dense_galois,
    field_of_values_all_units,
    index_in,
    induce_brute,
    permutation_character_brute,
    psi_value,
    restriction_to_X,
    value_at,
)
from schurgate.cyclotomic import CyclotomicNumber as C, field_of_values
from schurgate.groups import (
    GroupElement,
    Subgroup,
    conjugacy_classes,
    iter_valid_groups,
    make_group,
    subgroup_X,
    tower_subgroups,
)
from schurgate.characters import (
    PsiDescriptor,
    VirtualCharacter,
    character_field,
    faithful_characters,
    formula_field,
    induce_from_X,
    inner_product,
    irreducible_characters,
    is_faithful,
    one_faithful_character,
    permutation_character,
    psi_is_faithful,
    quotient_identity_virtual_character,
    regular_character,
    tensor_decompose,
    trivial_character,
)

G21 = make_group(7, 3, 1, 2)
G63 = make_group(7, 3, 2, 2)
G1539 = make_group(19, 3, 4, 4)  # j = 4 has order 9 mod 19, so r = 2


def test_table_c7_c3():
    tab = irreducible_characters(G21)
    assert len(tab) == 5
    assert sorted(c.degree for c in tab) == [1, 1, 1, 3, 3]
    assert len(faithful_characters(G21)) == 2


def test_table_c7_c9():
    tab = irreducible_characters(G63)
    assert len(tab) == 15
    degrees = sorted(c.degree for c in tab)
    assert degrees == [1] * 9 + [3] * 6
    assert sum(d * d for d in degrees) == 63
    assert len(faithful_characters(G63)) == 4
    unfaithful_3dim = [c for c in tab if c.degree == 3 and not is_faithful(c)]
    assert len(unfaithful_3dim) == 2


def test_table_c19_c81():
    tab = irreducible_characters(G1539)
    assert len(tab) == len(conjugacy_classes(G1539)) == 99
    assert sorted(set(c.degree for c in tab)) == [1, 9]
    assert sum(c.degree ** 2 for c in tab) == 19 * 81


def test_completeness_and_count_on_sweep():
    for args in ((13, 3, 1, 3), (13, 3, 2, 3), (11, 5, 1, 3), (19, 3, 2, 7), (19, 3, 2, 4)):
        G = make_group(*args)
        tab = irreducible_characters(G)
        assert len(tab) == len(conjugacy_classes(G))
        assert sum(c.degree ** 2 for c in tab) == G.order


def test_row_orthogonality_exact():
    for G in (G21, G63):
        tab = irreducible_characters(G)
        for i, a in enumerate(tab):
            for jj in range(i, len(tab)):
                expected = Fraction(1 if i == jj else 0)
                assert inner_product(a, tab[jj]) == expected


def test_column_orthogonality_exact():
    from schurgate.characters import _weighted_dot, _inverse_class_map

    for G in (G21, G63):
        tab = irreducible_characters(G)
        cls = conjugacy_classes(G)
        inv = _inverse_class_map(G)
        for gi in range(len(cls)):
            for hi in range(len(cls)):
                s = _weighted_dot(
                    (1, chi.values[gi], chi.values[inv[hi]]) for chi in tab
                )
                expected = G.order // cls[gi].size if gi == hi else 0
                assert s == C.from_rational(expected)


def test_induced_character_trace_at_a():
    # faithful character of C7:C3 has trace eta = z7 + z7^2 + z7^4 at a
    tau = one_faithful_character(G21)
    eta = C.zeta(7) + C.zeta(7, 2) + C.zeta(7, 4)
    assert value_at(tau, GroupElement(1, 0)) == eta


def test_induced_value_at_central_b3():
    # faithful character of C7:C9 takes value 3*zeta_3^w at b^3
    for tau in faithful_characters(G63):
        _, _, w = tau.provenance
        val = value_at(tau, GroupElement(0, 3))
        assert val == 3 * C.zeta(3, w)


def test_induce_trivial_psi_is_permutation_character():
    ind = induce_from_X(G63, PsiDescriptor(0, 0))
    assert inner_product(ind, trivial_character(G63)) == 1
    perm = permutation_character(G63, subgroup_X(G63))
    assert ind.values == perm.values


def test_induce_matches_brute_force():
    for G in (G21, G63):
        for psi in (PsiDescriptor(1, 1 % (G.pn // G.pr)), PsiDescriptor(3, 0), PsiDescriptor(0, 0)):
            fast = induce_from_X(G, psi)
            brute = induce_brute(G, psi)
            assert fast.values == brute.values


def test_induced_faithful_iff_psi_faithful():
    assert psi_is_faithful(G63, PsiDescriptor(1, 1))
    assert not psi_is_faithful(G63, PsiDescriptor(0, 1))
    assert not psi_is_faithful(G63, PsiDescriptor(1, 0))
    assert is_faithful(induce_from_X(G63, PsiDescriptor(1, 1)))
    assert not is_faithful(induce_from_X(G63, PsiDescriptor(1, 0)))


def test_mackey_restriction_is_conjugate_sum():
    for G in (G21, G63, make_group(19, 3, 2, 4)):
        psi = PsiDescriptor(1, 1 % max(1, G.pn // G.pr))
        tau = induce_from_X(G, psi)
        res = restriction_to_X(tau)
        for g, val in res.items():
            conj_sum = sum(
                (psi_value(G, conjugate_psi(G, psi, k), g) for k in range(G.pr)),
                C.from_rational(0),
            )
            assert val == conj_sum


def test_is_faithful_examples():
    assert not is_faithful(irreducible_characters(G63)[1])  # linear, kernel >= C7
    lifted = [c for c in irreducible_characters(G63) if c.provenance[0] == "lifted_from_quotient"]
    assert lifted and all(not is_faithful(c) for c in lifted)
    assert all(is_faithful(c) for c in faithful_characters(G63))


def test_frobenius_reciprocity_examples():
    for G in (G21, G63):
        tau = one_faithful_character(G)
        assert inner_product(regular_character(G), tau) == tau.degree
        perm_X = permutation_character(G, subgroup_X(G))
        assert inner_product(perm_X, tau) == 0


def test_tensor_decompose_c7_c9():
    for tau in faithful_characters(G63):
        tau_r, chi = tensor_decompose(tau)
        assert chi.degree == 1
        # chi has order p^n = 9: chi(b) is a primitive 9th root
        assert value_at(chi, GroupElement(0, 1)).conductor == 9
        prod = tuple(a * b for a, b in zip(tau_r.values, chi.values))
        assert prod == tau.values
        assert not is_faithful(tau_r)


def test_tensor_decompose_degenerate_case():
    tau = one_faithful_character(G21)
    tau_r, chi = tensor_decompose(tau)
    assert tau_r.values == tau.values
    assert chi.values == trivial_character(G21).values


def test_tensor_decompose_rejects_unfaithful():
    with pytest.raises(ValueError):
        tensor_decompose(trivial_character(G63))


def test_character_field_c7_c3():
    tau = one_faithful_character(G21)
    fld = character_field(tau)
    assert fld.conductor == 7 and fld.stabilizer == (1, 2, 4) and fld.degree == 2
    assert field_of_values(tau.values) == formula_field(G21)


def test_character_field_c7_c9():
    for tau in faithful_characters(G63):
        fld = character_field(tau)
        assert fld.degree == 4  # Q(zeta_3, eta_7): 2 * 2
        assert field_of_values(tau.values) == formula_field(G63)


def test_character_field_linear():
    chi = irreducible_characters(G63)[1]
    assert character_field(chi) == field_of_values([C.zeta(9)])


@pytest.mark.parametrize(
    "groups",
    [
        pytest.param(lambda: list(iter_valid_groups(300)), id="order<=300"),
        pytest.param(lambda: [make_group(19, 3, 4), make_group(31, 5, 2), make_group(73, 3, 2)],
                     id="C19:C81,C31:C25,C73:C9"),
    ],
)
def test_character_field_matches_all_units_oracle(groups):
    for G in groups():
        for chi in irreducible_characters(G):
            assert character_field(chi) == field_of_values_all_units(chi.values), (G, chi)


@pytest.mark.parametrize("G, chi", [
    (G63, induce_from_X(G63, PsiDescriptor(7, 1))),  # u = 0 mod q: Q(zeta_3)
    (G63, induce_from_X(G63, PsiDescriptor(1, 3))),  # w not a unit: Q(eta_7)
    (G1539, induce_from_X(G1539, PsiDescriptor(0, 3))),
    *((G, permutation_character(G, sub)) for G in (G21, G63, G1539) for sub in tower_subgroups(G)),
    *((G, regular_character(G)) for G in (G21, G63, G1539)),
], ids=lambda x: getattr(x, "char_id", str(x)))
def test_character_field_of_characters_outside_the_table(G, chi):
    assert character_field(chi) == field_of_values_all_units(chi.values)


def test_field_degree_counts_the_conjugates_of_the_value_tuple():
    # [Q(tau):Q] is the number of distinct images of the whole value tuple under
    # Gal(Q(zeta_M)/Q), M the lcm of the conductors.  sigma_k restricts to
    # zeta_m -> zeta_m^(k mod m) on a value of conductor m, so each value's
    # images are computed once per residue mod m and named by small integers.
    ids: dict[tuple, int] = {}
    images: dict[C, list[int]] = {}

    def conjugates(v: C) -> list[int]:
        if v not in images:
            m = v.conductor
            images[v] = [
                ids.setdefault((m, v.den, *dense_galois(m, v.num, k)), len(ids))
                if gcd(k, m) == 1 else -1
                for k in range(m)
            ]
        return images[v]

    for G in iter_valid_groups(300):
        for tau in faithful_characters(G):
            rows = [(conjugates(v), v.conductor) for v in dict.fromkeys(tau.values)]
            M = lcm(*(m for _, m in rows))
            tuples = {tuple(row[k % m] for row, m in rows) for k in range(1, M + 1) if gcd(k, M) == 1}
            assert len(tuples) == character_field(tau).degree, (G, tau.char_id)


def test_formula_field_matches_on_sweep():
    for args in ((13, 3, 1, 3), (13, 3, 2, 3), (11, 5, 1, 3), (19, 3, 2, 4), (19, 3, 3, 4)):
        G = make_group(*args)
        want = formula_field(G)
        for tau in faithful_characters(G):
            assert field_of_values(tau.values) == want


def test_permutation_character_rationality_and_tower():
    G = G63
    for sub in tower_subgroups(G):
        perm = permutation_character(G, sub)
        assert perm.degree == index_in(sub, G)
        assert all(v.is_rational() for v in perm.values)
        for tau in irreducible_characters(G):
            m = inner_product(perm, tau)
            assert m.denominator == 1 and m >= 0


def test_permutation_character_matches_coset_enumeration():
    for G in iter_valid_groups(700):
        for sub in tower_subgroups(G) + [subgroup_X(G)]:
            assert permutation_character(G, sub) == permutation_character_brute(G, sub)


def test_permutation_character_error_names_group_and_subgroup():
    bogus = Subgroup("bogus", "Z", 1, 3, (GroupElement(0, 1),))
    with pytest.raises(ValueError, match="unknown subgroup kind 'Z' of bogus") as err:
        permutation_character(G21, bogus)
    assert "(7, 3, 1, 2)" in str(err.value)


def test_quotient_identity_holds_both_towers():
    qi1 = quotient_identity_virtual_character(G21)
    assert qi1.equal and qi1.coefficient == 2 and qi1.faithful_count == 2

    qi2 = quotient_identity_virtual_character(G63)
    assert qi2.equal and qi2.coefficient == 3 and qi2.faithful_count == 4
    assert qi2.rhs.degree == 36  # 4 * 3^2


def test_quotient_identity_r2():
    G = make_group(19, 3, 3, 4)  # r = 2, n = 3
    qi = quotient_identity_virtual_character(G)
    assert qi.equal and qi.coefficient == 9

    Gd = make_group(19, 3, 2, 4)  # degenerate n = r = 2
    qid = quotient_identity_virtual_character(Gd)
    assert qid.equal and qid.coefficient == 6  # p^r - p^{r-1}


def test_virtual_character_algebra_and_decompose():
    tab = irreducible_characters(G21)
    v = 2 * VirtualCharacter.of(tab[3]) - VirtualCharacter.of(tab[0])
    dec = decompose(v)
    assert dec == {"ind[u=1,w=0]": 2, "lin[0]": -1}


def test_inner_product_group_mismatch():
    with pytest.raises(ValueError):
        inner_product(trivial_character(G21), trivial_character(G63))


def test_character_json():
    tau = one_faithful_character(G21)
    js = tau.to_json()
    assert js["degree"] == 3 and js["id"] == "ind[u=1,w=0]"
    assert len(js["values"]) == 5
