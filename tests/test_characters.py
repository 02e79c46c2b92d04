from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, seed, settings, strategies as st

from oracles import (
    VirtualCharacter,
    conjugate_psi,
    conjugate_units,
    decompose,
    dense_galois,
    elements,
    faithful_sum_by_values,
    field_of_values_all_units,
    index_in,
    induce_brute,
    permutation_character_brute,
    psi_value,
    restriction_to_X,
    value_at,
)
from schurgate.cyclotomic import CyclotomicNumber as C, dot, field_of_values
from schurgate.groups import (
    GroupElement,
    Subgroup,
    _induced_descriptors,
    conjugacy_classes,
    faithful_descriptors,
    iter_valid_groups,
    make_group,
    psi_is_faithful,
    subgroup_X,
    tower_subgroups,
)
from schurgate.characters import (
    PsiDescriptor,
    character_field,
    faithful_characters,
    formula_field,
    induce_from_X,
    inner_product,
    irreducible_characters,
    is_faithful,
    one_faithful_character,
    permutation_character,
    quotient_identity_virtual_character,
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


def test_a_faithful_character_builds_each_gauss_period_on_its_first_read():
    import schurgate.characters as characters

    G = make_group(20011, 3, 1)
    characters._gauss_period.cache_clear()
    tau = one_faithful_character(G)
    assert characters._gauss_period.cache_info().currsize == 0
    assert tau.degree == 3
    assert characters._gauss_period.cache_info().currsize == 1


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
    from schurgate.tables import _inverse_class_map

    for G in (G21, G63):
        tab = irreducible_characters(G)
        cls = conjugacy_classes(G)
        inv = _inverse_class_map(G)
        for gi in range(len(cls)):
            for hi in range(len(cls)):
                s = dot(
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


def test_the_faithful_walk_is_the_top_level_of_the_table_walk():
    for G in iter_valid_groups(300):
        top = [psi for level, psi in _induced_descriptors(G) if level == G.n]
        assert list(faithful_descriptors(G)) == top, G


def test_tensor_decompose_refuses_what_its_descriptor_calls_unfaithful():
    with pytest.raises(ValueError, match="^character is not faithful$"):
        tensor_decompose(induce_from_X(G63, PsiDescriptor(1, 0)))
    with pytest.raises(ValueError, match="applies to faithful induced characters"):
        tensor_decompose(irreducible_characters(G63)[1])


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
        reg = permutation_character(G, tower_subgroups(G)[-1])  # F_n is trivial: the regular character
        assert inner_product(reg, tau) == tau.degree
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


# -- Galois conjugation on tables -----------------------------------------------
#
# sigma_k (zeta -> zeta^k) maps psi_(u,w) to psi_(ku,kw), hence the column of
# values of ind:u,w to that of ind:ku,kw, for every unit k mod q p^(n-r), the
# conductor of the faithful values.  With q = 7 and p = 3, (Z/q)^x / H has
# order 2, so a period read at u^-1 x instead of u x would still pass; the
# sweep reaches q = 13, where it has order 4.

GALOIS_MAX = 300


def _bases(G):
    """ind:1,0 and ind:1,1 (one character when n = r): a faithful one, and one that is not when n > r."""
    return sorted({(1, w % (G.pn // G.pr)) for w in (0, 1)})


def _column(G, u, w):
    return induce_from_X(G, PsiDescriptor(u, w)).values


def test_galois_conjugate_columns_and_their_stabilizer_on_sweep():
    """sigma_k of the column of ind:u,w is that of ind:ku,kw, and the k fixing it give character_field."""
    for G in iter_valid_groups(GALOIS_MAX):
        for u, w in _bases(G):
            base = _column(G, u, w)
            field = character_field(induce_from_X(G, PsiDescriptor(u, w)))
            fixed = set()
            for k in conjugate_units(G):
                image = tuple(v.galois(k) for v in base)
                assert _column(G, k * u, k * w) == image, (G, u, w, k)
                if image == base:
                    fixed.add(k % field.conductor)
            assert fixed == set(field.stabilizer), (G, u, w)


@seed(20011)
@settings(max_examples=30, deadline=None, database=None)
@given(st.sampled_from(list(iter_valid_groups(2000))).flatmap(
    lambda G: st.tuples(st.just(G), st.integers(1, G.q - 1), st.integers(0, G.pn), st.sampled_from(conjugate_units(G)))
))
def test_galois_conjugate_column_at_a_drawn_unit(draw):
    G, u, w, k = draw
    assert _column(G, k * u, k * w) == tuple(v.galois(k) for v in _column(G, u, w))


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


def test_permutation_character_of_F_n_is_the_regular_character():
    for G in iter_valid_groups(300):
        F_n = tower_subgroups(G)[-1]
        assert F_n.label == f"F{G.n}" and F_n.order == 1
        reg = permutation_character(G, F_n)
        assert reg.values[0] == C.from_rational(G.order), G
        assert all(v.is_zero() for v in reg.values[1:]), G


def test_permutation_character_matches_coset_enumeration():
    for G in iter_valid_groups(700):
        for sub in tower_subgroups(G) + [subgroup_X(G)]:
            assert permutation_character(G, sub).values == permutation_character_brute(G, sub).values


def test_evaluator_agrees_with_the_table_at_every_element():
    # chi at the class of g, which class representatives alone never exercise
    for G in iter_valid_groups(300):
        perms = [permutation_character(G, s) for s in tower_subgroups(G) + [subgroup_X(G)]]
        for chi in [*irreducible_characters(G), *perms]:
            for g in elements(G):
                assert chi.at(G.conj_class(g)) == value_at(chi, g), (G, chi.char_id, g)


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


def test_closed_form_identity_matches_the_value_wise_faithful_sum():
    # 116 groups, r = 1 and 2, with 96 of them in the degenerate case n = r
    for G in iter_valid_groups(500):
        qi = quotient_identity_virtual_character(G)
        want = faithful_sum_by_values(G).values
        assert qi.equal and qi.rhs.values == want and qi.lhs.values == want, G
        assert qi.faithful_count == len(faithful_characters(G)), G


def test_identity_compares_the_sides_at_few_classes_and_sees_a_broken_side(monkeypatch):
    import schurgate.identity as identity
    from schurgate.groups import MetacyclicParams

    G = make_group(7, 3, 12)  # 265,721 classes
    seen = []
    conj_class = MetacyclicParams.conj_class
    monkeypatch.setattr(MetacyclicParams, "conj_class", lambda self, g: seen.append(g) or conj_class(self, g))
    assert quotient_identity_virtual_character(G).equal
    # one class per type: (0, 3^k) for k = 0..n, and (1, 3^k) where 3^r = 3 divides 3^k
    want = [(x, 3 ** k % G.pn) for k in range(G.n + 1) for x in ((0, 1) if k else (0,))]
    assert sorted(seen) == sorted(want)
    faithful_sum = identity._faithful_sum
    monkeypatch.setattr(identity, "_faithful_sum", lambda G, c: faithful_sum(G, c + 1))
    assert not quotient_identity_virtual_character(G21).equal


def test_virtual_character_algebra_and_decompose():
    tab = irreducible_characters(G21)
    v = 2 * VirtualCharacter.of(tab[3]) - VirtualCharacter.of(tab[0])
    dec = decompose(v)
    assert dec == {"ind[u=1,w=0]": 2, "lin[0]": -1}


def test_inner_product_group_mismatch():
    with pytest.raises(ValueError):
        inner_product(trivial_character(G21), trivial_character(G63))


def test_character_json():
    # what a table row reads of a character: its id, its degree and each value's JSON
    tau = one_faithful_character(G21)
    assert tau.degree == 3 and tau.char_id == "ind[u=1,w=0]"
    assert [v.to_json()["conductor"] for v in tau.values] == [1, 7, 7, 1, 1]
