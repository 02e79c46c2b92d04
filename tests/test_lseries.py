import cmath
import functools
import random

import numpy as np
import pytest

from oracles import (
    VirtualCharacter,
    assemble_by_convolution,
    block_euler_factor,
    block_local_factor,
    conjugate_units,
    cube_of_quadratic_defect_three_roots,
    eigenvalue_multiplicities,
    eigenvalue_multiplicities_direct,
    element_matrix,
    evaluate_symbolic,
    field_local_factor,
    good_primes_trial_division,
    local_expansion,
    mat_mul,
    mat_pow,
    mat_trace,
    monomial_model,
    reciprocal_root_magnitudes,
    symbolic_terms,
    to_complex,
    tpoly_mul,
)
from schurgate.cyclotomic import InternalCheckError, prime_factors
from schurgate.cyclotomic import CyclotomicNumber as C
from schurgate.groups import (
    GroupElement, MetacyclicParams, PsiDescriptor, _class_index, conjugacy_classes, is_prime, make_group,
    tower_subgroups,
)
from schurgate.characters import (
    _linear_character,
    faithful_characters,
    induce_from_X,
    irreducible_characters,
    one_faithful_character,
    permutation_character,
    quotient_identity_virtual_character,
    trivial_character,
)
from schurgate.elliptic import EllipticCurveQ, a_v, untwisted_factor
from schurgate.frobenius import EXAMPLE_F1, frobenius_datum
from schurgate.identity import _tower_series, tower_residue_degrees
from schurgate.lseries import (
    SymbolicPoly,
    cube_of_quadratic_defect,
    dirichlet_partial,
    good_primes,
    identity_series_check,
    symbolic_twisted_euler_factor,
    twisted_euler_factor,
    _assemble,
    _kmax,
    _local_data,
    _newton,
    _power_sums,
    _resolve_local_factor,
    _spf,
    _traces,
)

E_MINUS_X = EllipticCurveQ.from_list([0, 0, 0, -1, 0])
G21 = make_group(7, 3, 1, 2)
G63 = make_group(7, 3, 2, 2)


def order7_class(G, x=1):
    return next(c for c in conjugacy_classes(G) if c.rep == GroupElement(x, 0))


def test_monomial_model_relations():
    for G in (G21, G63, make_group(19, 3, 2, 4)):
        tau = one_faithful_character(G)
        Ma, Mb = monomial_model(G, tau)
        # defining relation b a b^-1 = a^j
        conj = mat_mul(mat_mul(Mb, Ma), mat_pow(Mb, G.pn - 1))
        assert conj == mat_pow(Ma, G.j)
        # b^{p^r} is the scalar zeta_{p^{n-r}}^w
        _, _, w = tau.provenance
        pmr = G.pn // G.pr
        scalar = C.zeta(pmr, w) if pmr > 1 else C.from_rational(1)
        eye = [[scalar if i == j else C.from_rational(0) for j in range(G.pr)] for i in range(G.pr)]
        assert mat_pow(Mb, G.pr) == eye


def test_monomial_traces_match_table():
    for G in (G21, G63):
        for tau in faithful_characters(G):
            model = monomial_model(G, tau)
            for i, c in enumerate(conjugacy_classes(G)):
                assert mat_trace(element_matrix(G, model, c.rep)) == tau.values[i]


def test_eigenvalue_multiplicities_faithful_at_a():
    tau = one_faithful_character(G63)
    mults = eigenvalue_multiplicities(tau, order7_class(G63))
    # u = 1: eigenvalues zeta_7^{1, 2, 4}
    assert mults == {1: 1, 2: 1, 4: 1}


def test_eigenvalue_multiplicities_regular_like():
    perm = permutation_character(G21, [s for s in tower_subgroups(G21) if s.label == "F1"][0])
    cls = order7_class(G21)
    mults = eigenvalue_multiplicities(perm, cls)
    assert mults == {k: 3 for k in range(7)}  # regular character of <a>


def test_untwisted_factor_example():
    f = untwisted_factor(a_v(E_MINUS_X, 5), 5)
    assert f.poly == (C.from_rational(1), C.from_rational(2), C.from_rational(5))
    assert str(f) == "1 + 2*T + 5*T^2"


def test_twisted_factor_trivial_character():
    cls = conjugacy_classes(G63)[0]
    f = twisted_euler_factor(-2, 5, trivial_character(G63), cls)
    assert f.poly == untwisted_factor(-2, 5).poly


def test_twisted_factor_degree_and_constant():
    tau = one_faithful_character(G63)
    d = frobenius_datum(EXAMPLE_F1, G63, 5)
    f = twisted_euler_factor(a_v(E_MINUS_X, 5), 5, tau, d.conj_class)
    assert len(f.poly) - 1 == 2 * tau.degree
    assert f.poly[0] == C.from_rational(1)


def test_reciprocal_roots_have_sqrt_v_magnitude():
    import math

    tau = one_faithful_character(G63)
    d = frobenius_datum(EXAMPLE_F1, G63, 11)
    f = twisted_euler_factor(a_v(E_MINUS_X, 11), 11, tau, d.conj_class)
    for mag in reciprocal_root_magnitudes(f):
        assert abs(mag - math.sqrt(11)) < 1e-9


def test_symbolic_factor_matches_displayed_product():
    tau = one_faithful_character(G63)
    sym = symbolic_twisted_euler_factor(tau, order7_class(G63))
    a, v = SymbolicPoly.var_a(), SymbolicPoly.var_v()
    expect = [SymbolicPoly.scalar(1)]
    for t in (1, 2, 4):
        z = C.zeta(7, t)
        block = [SymbolicPoly.scalar(1), -(z * a), (z * z) * v]
        new = [SymbolicPoly({}) for _ in range(len(expect) + 2)]
        for i, x in enumerate(expect):
            for j, y in enumerate(block):
                new[i + j] = new[i + j] + x * y
        expect = new
    assert symbolic_terms(sym) == symbolic_terms(expect)


def test_symbolic_factor_specializes_to_numeric():
    tau = one_faithful_character(G63)
    cls = order7_class(G63)
    sym = symbolic_twisted_euler_factor(tau, cls)
    num = twisted_euler_factor(-2, 5, tau, cls)
    assert tuple(evaluate_symbolic(c, -2, 5) for c in sym) == num.poly


def test_factor_is_not_a_cube():
    tau = one_faithful_character(G63)
    sym = symbolic_twisted_euler_factor(tau, order7_class(G63))
    out = cube_of_quadratic_defect(sym)
    assert out["is_cube"] is False
    assert set(out["witness"]["first_mismatch_by_root"]) == {"1", "zeta3", "zeta3^2"}
    # numeric specializations are not cubes either
    num = [evaluate_symbolic(c, -2, 5) for c in sym]
    assert cube_of_quadratic_defect(num)["is_cube"] is False


def test_cube_detector_accepts_actual_cube():
    one = C.from_rational(1)
    q = [one, C.from_rational(3), C.from_rational(-2)]
    cube = [one]
    for _ in range(3):
        new = [C.from_rational(0)] * (len(cube) + 2)
        for i, x in enumerate(cube):
            for j, y in enumerate(q):
                new[i + j] = new[i + j] + x * y
        cube = new
    assert cube_of_quadratic_defect(cube)["is_cube"] is True


def _cube(q_poly):
    return tpoly_mul(tpoly_mul(q_poly, q_poly), q_poly)


def _random_sextic(rng):
    """A small-integer sextic: a random one, or the cube of a random quadratic, one coefficient perturbed or not."""
    if rng.random() < 0.5:
        return [rng.choice((1, 1, 1, rng.randint(-2, 2)))] + [rng.randint(-3, 3) for _ in range(6)]
    poly = _cube([rng.choice((1, 1, -1)), rng.randint(-2, 2), rng.randint(-2, 2)])
    if rng.random() < 0.5:
        poly[rng.randrange(7)] += rng.choice((-1, 1))
    return poly


def test_cube_certificate_matches_the_three_root_oracle():
    """One normalized quadratic decides what trying each cube root of unity as its constant decides.

    Q_e = e Q_1 for every cube root e, so all three tries cube to Q_1^3 and
    share the first mismatch; the dicts, key order included, are equal.
    """
    one, z3 = C.from_rational(1), C.zeta(3)
    sym = symbolic_twisted_euler_factor(one_faithful_character(G63), order7_class(G63))
    cases = [
        sym,
        [evaluate_symbolic(c, -2, 5) for c in sym],
        _cube([one, C.from_rational(3), C.from_rational(-2)]),
        _cube([z3, C.from_rational(2), C.from_rational(-1)]),
        [C.from_rational(2)] + [C.from_rational(k) for k in (6, 9, 2, -3, 4, 1)],
        [1, 6, 6, -16, -12, 24, -8],  # (1 + 2T - 2T^2)^3 as plain ints
        [1, 6, 6, -16, -12, 24, -7],
    ]
    rng = random.Random(23)
    cases += [_random_sextic(rng) for _ in range(200)]
    for k in (3, 5):
        assert cube_of_quadratic_defect(cases[k]) == {"is_cube": True, "witness": {"e": "1"}}
    assert cube_of_quadratic_defect(cases[6])["witness"]["first_mismatch_by_root"] == {"1": 6, "zeta3": 6, "zeta3^2": 6}
    assert cube_of_quadratic_defect(cases[4])["witness"]["first_mismatch_by_root"] == {"1": 0, "zeta3": 0, "zeta3^2": 0}
    assert sum(cube_of_quadratic_defect(poly)["is_cube"] for poly in cases[7:]) > 20
    for poly in cases:
        got = cube_of_quadratic_defect(poly)
        want = cube_of_quadratic_defect_three_roots(poly)
        assert got == want and list(got["witness"]) == list(want["witness"]), poly
        if not got["is_cube"]:
            assert list(got["witness"]["first_mismatch_by_root"]) == ["1", "zeta3", "zeta3^2"]


def test_symbolic_poly_refuses_operands_it_cannot_coerce():
    """Python's own TypeError in either order, naming SymbolicPoly and never NotImplemented."""
    a = SymbolicPoly.var_a()
    for other in ("x", 1.5, None):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            for x, y in ((a, other), (other, a)):
                with pytest.raises(TypeError) as exc:
                    op(x, y)
                assert "SymbolicPoly" in str(exc.value) and "NotImplemented" not in str(exc.value)
    assert symbolic_terms([a + 1, a - 1, 2 * a]) == symbolic_terms([1 + a, -(1 - a), a * 2])


def test_dirichlet_partial_x1_is_one():
    s = dirichlet_partial(E_MINUS_X, G21, trivial_character(G21), EXAMPLE_F1, 1)
    assert s.X == 1 and s.coefficient(1) == C.from_rational(1)


def test_dirichlet_partial_trivial_matches_direct():
    X = 50
    s = dirichlet_partial(E_MINUS_X, G21, trivial_character(G21), EXAMPLE_F1, X)
    goods = good_primes(E_MINUS_X, EXAMPLE_F1, G21, X)
    # a_n by direct multiplicative extension over the same good support
    an = {1: 1}
    for v in goods:
        s0, s1 = 1, a_v(E_MINUS_X, v)
        powers = {1: 1}
        k, t = 1, v
        while t <= X:
            powers[t] = s1
            k += 1
            t *= v
            s0, s1 = s1, a_v(E_MINUS_X, v) * s1 - v * s0
        for m, c in list(an.items()):
            for t, val in powers.items():
                if t > 1 and m * t <= X:
                    an[m * t] = c * val
    for n in range(1, X + 1):
        want = C.from_rational(an.get(n, 0))
        assert s.coefficient(n) == want


def test_perm_character_series_matches_pattern_route():
    """Artin formalism: Ind_H 1 twisted series equals the residue-degree route."""
    X = 40
    for label, kind, level in (("F0", "F", 0), ("K1", "K", 1), ("F1", "F", 1)):
        sub = next(s for s in tower_subgroups(G63) if s.label == label)
        perm = permutation_character(G63, sub)
        via_char = dirichlet_partial(E_MINUS_X, G63, perm, EXAMPLE_F1, X)
        local = {}
        for v in good_primes(E_MINUS_X, EXAMPLE_F1, G63, X):
            kmax = 0
            t = v
            while t <= X:
                kmax += 1
                t *= v
            datum = frobenius_datum(EXAMPLE_F1, G63, v)
            degs = tower_residue_degrees(G63, datum, kind, level)
            poly = field_local_factor(a_v(E_MINUS_X, v), v, degs, kmax)
            local[v] = local_expansion([C.from_rational(1)], poly, kmax)
        via_pattern = _assemble(X, local)
        assert via_char == via_pattern


def test_ambiguous_class_handling():
    tau = one_faithful_character(G63)
    datum = frobenius_datum(EXAMPLE_F1, G63, 53)  # ambiguous order-7 Frobenius
    assert datum.conj_class is None
    # a single faithful twist genuinely depends on the candidate
    with pytest.raises(ValueError, match="ambiguity"):
        _resolve_local_factor(tau, datum, a_v(E_MINUS_X, 53), 53, 2)
    # but the full faithful product does not
    from schurgate.characters import quotient_identity_virtual_character

    rhs = quotient_identity_virtual_character(G63).rhs
    series = _resolve_local_factor(rhs, datum, a_v(E_MINUS_X, 53), 53, 2)
    assert series[0] == C.from_rational(1)
    # and picking the smallest candidate takes the faithful twist's factor there
    av = a_v(E_MINUS_X, 53)
    picked = _resolve_local_factor(tau, datum, av, 53, 2, pick_first=True)
    assert picked == _newton(_traces(_power_sums(av, 53, 2), tau, datum.candidates[0], 2), 2, 1, C.from_rational(1))


def test_identity_series_both_towers():
    chk1 = identity_series_check(E_MINUS_X, EXAMPLE_F1, G21, 120)
    assert chk1.holds and chk1.coefficient == 2 and chk1.first_mismatch is None
    chk2 = identity_series_check(E_MINUS_X, EXAMPLE_F1, G63, 120)
    assert chk2.holds and chk2.coefficient == 3


def test_identity_series_other_curve():
    E = EllipticCurveQ.from_list([1, -1, 1, -10, -20])
    chk = identity_series_check(E, EXAMPLE_F1, G21, 80)
    assert chk.holds


def test_series_json_round_trip_shape():
    s = dirichlet_partial(E_MINUS_X, G21, trivial_character(G21), EXAMPLE_F1, 10)
    js = s.to_json()
    assert js["X"] == 10 and len(js["an"]) == 10
    assert js["an"][0] == {"conductor": 1, "coeffs": ["1"]}


@pytest.mark.parametrize("q,n", [(7, 1), (7, 2), (13, 2), (19, 2)])
def test_integer_multiplicities_match_direct_inversion(q, n):
    G = make_group(q, 3, n)
    idx = _class_index(G)
    chars = list(irreducible_characters(G)) + [quotient_identity_virtual_character(G).rhs]
    direct = {}  # the oracle sees only d and chi(g^i), 0 <= i < d: run it once per distinct input
    for chi in chars:
        for cls in conjugacy_classes(G):
            d = cls.element_order
            key = (d, tuple(chi.values[idx[G.class_of(G.power(cls.rep, i))]] for i in range(d)))
            if key not in direct:
                direct[key] = eigenvalue_multiplicities_direct(chi, cls)
            assert eigenvalue_multiplicities(chi, cls) == direct[key]


def test_multiplicities_match_numeric_eigenvalues():
    """Independent route: complex eigenvalues of the monomial matrices, rounded to roots of unity."""
    for G in (G21, G63):
        for tau in faithful_characters(G):
            model = monomial_model(G, tau)
            for cls in conjugacy_classes(G):
                d = cls.element_order
                mat = element_matrix(G, model, cls.rep)
                eig = np.linalg.eigvals(np.array([[to_complex(c) for c in row] for row in mat]))
                counts: dict[int, int] = {}
                for lam in eig:
                    k = round(cmath.phase(lam) * d / (2 * cmath.pi)) % d
                    assert abs(lam - cmath.exp(2j * cmath.pi * k / d)) < 1e-9
                    counts[k] = counts.get(k, 0) + 1
                assert counts == eigenvalue_multiplicities(tau, cls)


def test_ambiguity_fast_path_matches_each_candidate():
    rhs = quotient_identity_virtual_character(G63).rhs
    datum = frobenius_datum(EXAMPLE_F1, G63, 53)
    av = a_v(E_MINUS_X, 53)
    assert len(datum.candidates) > 1
    assert _resolve_local_factor(rhs, datum, av, 53, 2) == _resolve_local_factor(
        rhs, datum, av, 53, 2, pick_first=True
    )


def test_kmax():
    assert [_kmax(2, 8), _kmax(2, 7), _kmax(3, 8), _kmax(11, 10), _kmax(97, 97)] == [3, 2, 1, 0, 1]


def _random_local(rng, X):
    values = [C.from_rational(0), C.from_rational(1), C.from_rational(-2), C.from_rational(3),
              C.zeta(3), C.zeta(7, 3), C.zeta(7) + C.zeta(3, 2)]
    local = {}
    for v in [t for t in range(2, X + 8) if all(t % s for s in range(2, t))]:
        if rng.random() < 0.2:
            continue  # a bad prime: no local series
        length = rng.randint(1, _kmax(v, X) + 2)  # sometimes stops before the top power
        local[v] = [C.from_rational(1)] + [rng.choice(values) for _ in range(length - 1)]
    return local


def test_spf_matches_trial_division():
    spf = _spf(5000)
    assert len(spf) == 5001
    for n in range(2, 5001):
        assert (spf[n] == n) == is_prime(n)
        assert spf[n] == prime_factors(n)[0]


# x^7 + x + 1 has discriminant -11 * 239 * 331, x^7 + 3x + 5 has -37 * 7817 * 44843,
# and x^7 + x^6 has discriminant 0, which excludes no prime
GOOD_PRIME_FIELDS = [EXAMPLE_F1, (1, 1, 0, 0, 0, 0, 0, 1), (5, 3, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1, 1)]
GOOD_PRIME_CURVES = [[0, 0, 0, -1, 0], [1, -1, 1, -10, -20], [0, 0, 1, -1, 0]]


@pytest.mark.parametrize("field", GOOD_PRIME_FIELDS, ids=str)
def test_good_primes_match_trial_division(field):
    for coeffs in GOOD_PRIME_CURVES:
        E = EllipticCurveQ.from_list(coeffs)
        for G in (G21, make_group(13, 3, 1)):
            for X in (0, 1, 2, 3, 5, 11, 240, 3000):
                assert good_primes(E, field, G, X) == good_primes_trial_division(E, field, G, X)


def test_the_sieve_is_the_one_primality_test_of_a_series(monkeypatch):
    import schurgate.elliptic as elliptic
    import schurgate.frobenius as frobenius

    want = dirichlet_partial(E_MINUS_X, G63, _linear_character(G63, 1), EXAMPLE_F1, 500)
    chk = identity_series_check(E_MINUS_X, EXAMPLE_F1, G21, 300)
    for module in (elliptic, frobenius):
        monkeypatch.setattr(module, "is_prime", lambda v: pytest.fail(f"{v} tested again after the sieve"))
    assert dirichlet_partial(E_MINUS_X, G63, _linear_character(G63, 1), EXAMPLE_F1, 500) == want
    assert identity_series_check(E_MINUS_X, EXAMPLE_F1, G21, 300).to_json() == chk.to_json()
    monkeypatch.undo()
    for v in (9, 25, 91, 561):  # a direct call still tests v
        for call in (lambda: a_v(E_MINUS_X, v), lambda: frobenius_datum(EXAMPLE_F1, G21, v)):
            with pytest.raises(ValueError, match=f"^{v} is not prime$"):
                call()


def test_zero_discriminant_is_refused_at_the_first_prime():
    with pytest.raises(ValueError, match="ramified prime 5"):
        dirichlet_partial(E_MINUS_X, G21, trivial_character(G21), (0, 0, 0, 0, 0, 0, 1, 1), 50)
    with pytest.raises(ValueError, match="ramified prime 5"):
        identity_series_check(E_MINUS_X, (0, 0, 0, 0, 0, 0, 1, 1), G21, 50)


@pytest.mark.parametrize("X", [1, 2, 3, 97, 243, 1000])
def test_sieve_assembly_matches_convolution(X):
    rng = random.Random(X)
    for _ in range(2):
        local = _random_local(rng, X)
        assert _assemble(X, local) == assemble_by_convolution(X, local)


# -- the trace recursion against the block-product route ------------------------

NEWTON_GROUPS = [make_group(7, 3, 1), make_group(7, 3, 2), make_group(13, 3, 2), make_group(19, 3, 2)]
# (a_v, v) on y^2 = x^3 - x, including the supersingular a_v = 0 at v = 3 mod 4
FROBENIUS_PAIRS = [(a_v(E_MINUS_X, v), v) for v in (5, 11, 13, 19)]


def _characters_and_rhs(G):
    return list(irreducible_characters(G)) + [quotient_identity_virtual_character(G).rhs]


def test_frobenius_pairs_include_supersingular():
    assert [av for av, v in FROBENIUS_PAIRS if v % 4 == 3] == [0, 0]


@pytest.mark.parametrize("G", NEWTON_GROUPS, ids=str)
def test_newton_series_matches_block_products(G):
    expected = {}  # the blocks see only (d, multiplicities): expand each distinct input once
    for chi in _characters_and_rhs(G):
        for cls in conjugacy_classes(G):
            mults = eigenvalue_multiplicities(chi, cls)
            for av, v in FROBENIUS_PAIRS:
                key = (cls.element_order, tuple(sorted(mults.items())), v)
                if key not in expected:
                    num, den = block_local_factor(av, v, cls.element_order, mults, 4)
                    expected[key] = local_expansion(num, den, 4)
                for kmax in range(1, 5):
                    series = _newton(_traces(_power_sums(av, v, kmax), chi, cls, kmax), kmax, 1, C.from_rational(1))
                    assert series == expected[key][: kmax + 1]


@pytest.mark.parametrize("G", NEWTON_GROUPS, ids=str)
def test_twisted_euler_factor_matches_block_product(G):
    for chi in irreducible_characters(G):
        for cls in conjugacy_classes(G):
            mults = eigenvalue_multiplicities(chi, cls)
            for av, v in FROBENIUS_PAIRS:
                assert twisted_euler_factor(av, v, chi, cls) == block_euler_factor(av, v, cls.element_order, mults)


def test_symbolic_factor_matches_block_product_at_every_class():
    a, v = SymbolicPoly.var_a(), SymbolicPoly.var_v()
    for G in NEWTON_GROUPS[:3]:
        tau = one_faithful_character(G)
        for cls in conjugacy_classes(G):
            block = block_euler_factor(a, v, cls.element_order, eigenvalue_multiplicities(tau, cls))
            assert symbolic_terms(symbolic_twisted_euler_factor(tau, cls)) == symbolic_terms(block.poly)


def test_full_factors_refuse_a_value_table_before_reading_a_trace(monkeypatch):
    import schurgate.lseries as lseries

    def no_traces(*args):
        raise AssertionError("a trace was read before the refusal")

    monkeypatch.setattr(lseries, "_traces", no_traces)
    tau = VirtualCharacter.of(one_faithful_character(G63))
    for cls in (conjugacy_classes(G63)[0], order7_class(G63)):
        with pytest.raises(TypeError, match="a full Euler factor needs a Character, not VirtualCharacter"):
            twisted_euler_factor(-2, 5, tau, cls)
        with pytest.raises(TypeError, match="a full Euler factor needs a Character, not VirtualCharacter"):
            symbolic_twisted_euler_factor(tau, cls)


def test_identity_rhs_factors_are_the_faithful_factors_to_the_coefficient():
    """The rhs is a genuine reducible Character, taken by the factors without an inner product.

    Numeric factors are compared at every class of C7:C3 and C7:C9, symbolic
    ones at every class of C7:C3 and at the classes of C7:C9 off X: on X the
    degree-72 symbolic factor costs seconds per class.
    """
    for G in (G21, G63):
        qi = quotient_identity_virtual_character(G)
        faithful = faithful_characters(G)
        for cls in conjugacy_classes(G):
            want = functools.reduce(tpoly_mul, [list(twisted_euler_factor(-2, 5, tau, cls).poly) for tau in faithful])
            want = functools.reduce(tpoly_mul, [want] * qi.coefficient)
            assert list(twisted_euler_factor(-2, 5, qi.rhs, cls).poly) == want, (G, cls)
            if G is G63 and cls.rep.y % G.pr == 0:
                continue
            want = functools.reduce(tpoly_mul, [symbolic_twisted_euler_factor(tau, cls) for tau in faithful])
            want = functools.reduce(tpoly_mul, [want] * qi.coefficient)
            assert symbolic_terms(symbolic_twisted_euler_factor(qi.rhs, cls)) == symbolic_terms(want), (G, cls)


def test_full_factors_read_chi_only_at_the_powers_they_use(monkeypatch):
    """det(1 - M T) has degree D = 2 chi(1), so a full factor reads chi(g^s) for 1 <= s <= D alone,
    and a second factor at the same class reads none: each value is read once per process."""
    G = make_group(31, 3, 2)  # no other test reads a factor on this group
    tau = one_faithful_character(G)
    calls = 0
    power = MetacyclicParams.power

    def counted(self, g, k):
        nonlocal calls
        calls += 1
        return power(self, g, k)

    monkeypatch.setattr(MetacyclicParams, "power", counted)
    seen = set()
    for x, y in ((1, 0), (1, 1), (0, 1)):  # (1, 1) and (0, 1) are one class
        cls = G.conj_class(GroupElement(x, y))
        assert cls.element_order > 7
        calls = 0
        assert len(twisted_euler_factor(-2, 5, tau, cls).poly) == 7
        assert calls == (0 if cls in seen else 6)
        seen.add(cls)
        calls = 0
        assert len(symbolic_twisted_euler_factor(tau, cls)) == 7
        assert calls == 0


@pytest.mark.parametrize("G", [G21, G63, make_group(7, 3, 3)], ids=str)
def test_integer_tower_series_matches_field_factors(G):
    n = G.n
    for v in good_primes(E_MINUS_X, EXAMPLE_F1, G, 300):
        datum = frobenius_datum(EXAMPLE_F1, G, v)
        av = a_v(E_MINUS_X, v)
        for kmax in range(1, 5):
            p_fn, p_kn1, p_kn, p_fn1 = (
                field_local_factor(av, v, tower_residue_degrees(G, datum, kind, level), kmax)
                for kind, level in (("F", n), ("K", n - 1), ("K", n), ("F", n - 1))
            )
            want = local_expansion(tpoly_mul(p_kn, p_fn1, kmax), tpoly_mul(p_fn, p_kn1, kmax), kmax)
            assert _tower_series(G, datum, av, v, kmax) == want


def test_tower_series_integrality_error_names_group_and_prime(monkeypatch):
    import schurgate.identity as identity

    # one split prime with power sums 1, 0, ...: no Frobenius pair has them, and
    # exp(T + 0 T^2 / 2 + ...) has c_2 = 1/2
    monkeypatch.setattr(identity, "_power_sums", lambda a, v, kmax: [2, 1] + [0] * kmax)
    monkeypatch.setattr(
        identity, "tower_residue_degrees", lambda G, datum, kind, level: [(1, 1)] if kind == "F" and level == G.n else []
    )
    datum = frobenius_datum(EXAMPLE_F1, G21, 5)
    with pytest.raises(InternalCheckError, match="not integral") as err:
        _tower_series(G21, datum, -2, 5, 2)
    assert "v = 5" in str(err.value) and "(7, 3, 1, 2)" in str(err.value)


def test_local_factors_read_chi_only_at_the_powers_they_use(monkeypatch):
    """Each candidate class costs kmax + 1 powers g^s at v, however large p^n is."""
    G = make_group(7, 3, 8)
    chi = _linear_character(G, 1)
    X = 100
    bound = sum(
        (kmax + 1) * (1 if datum.conj_class else len(datum.candidates))
        for _, kmax, datum, _ in _local_data(E_MINUS_X, EXAMPLE_F1, G, X)
    )
    calls = 0
    power = MetacyclicParams.power

    def counted(self, g, k):
        nonlocal calls
        calls += 1
        return power(self, g, k)

    monkeypatch.setattr(MetacyclicParams, "power", counted)
    dirichlet_partial(E_MINUS_X, G, chi, EXAMPLE_F1, X)
    assert 0 < calls <= bound


@pytest.mark.parametrize("n", [2, 3])
def test_ambiguity_check_raises_exactly_when_block_factors_differ(n):
    G = make_group(7, 3, n)
    chars = list(faithful_characters(G)) + [quotient_identity_virtual_character(G).rhs]
    ambiguous = 0
    for v in good_primes(E_MINUS_X, EXAMPLE_F1, G, 2000):
        datum = frobenius_datum(EXAMPLE_F1, G, v)
        if datum.conj_class is not None:
            continue
        ambiguous += 1
        av = a_v(E_MINUS_X, v)
        kmax = _kmax(v, 2000)
        for chi in chars:
            factors = {
                block_local_factor(av, v, c.element_order, eigenvalue_multiplicities(chi, c), kmax)
                for c in datum.candidates
            }
            if len(factors) > 1:
                with pytest.raises(ValueError, match="ambiguity"):
                    _resolve_local_factor(chi, datum, av, v, kmax)
            else:
                num, den = factors.pop()
                assert _resolve_local_factor(chi, datum, av, v, kmax) == local_expansion(num, den, kmax)
    assert ambiguous > 10


@pytest.mark.parametrize("G", [G21, G63], ids=str)
def test_galois_conjugate_twist_has_the_conjugate_series(G):
    """sigma_k of each coefficient of L(E, ind:u,w) is the coefficient of L(E, ind:ku,kw).

    sigma_k maps psi_(u,w) to psi_(ku,kw), hence ind:u,w to ind:ku,kw, and the
    coefficients are polynomials in the values with integer coefficients.  So
    a character read at the wrong index or a value read for another character
    breaks the equality, which orthogonality and degree checks cannot see.
    """
    u, w = 1, 1 if G.n > G.r else 0
    series = [
        dirichlet_partial(E_MINUS_X, G, induce_from_X(G, PsiDescriptor(k * u, k * w)), EXAMPLE_F1, 200,
                          pick_first=True).an[1:]
        for k in conjugate_units(G)
    ]
    base = series[0]  # k = 1
    assert sum(not c.is_rational() for c in base) >= 5
    for k, got in zip(conjugate_units(G), series):
        assert got == tuple(c.galois(k) for c in base), k


@pytest.mark.parametrize("n", [1, 2])
def test_galois_conjugate_twist_has_the_conjugate_factor(n):
    """The same for the full Euler factors on C13:C3^n, where (Z/13)^x / H has order 4.

    With q = 7 the quotient has order 2, so u and 1/u lie in one H-orbit and
    a character read at u^-1 x instead of u x is still right; here it is not.
    """
    G = make_group(13, 3, n)
    u, w = 2, 1 if n > G.r else 0
    classes = [G.conj_class(GroupElement(x, y)) for x in (1, 2, 4, 8) for y in sorted({0, G.pr % G.pn})]
    factors = [
        [twisted_euler_factor(-2, 5, induce_from_X(G, PsiDescriptor(k * u, k * w)), c).poly for c in classes]
        for k in conjugate_units(G)
    ]
    assert any(not c.is_rational() for f in factors[0] for c in f)
    for k, got in zip(conjugate_units(G), factors):
        assert got == [tuple(c.galois(k) for c in f) for f in factors[0]], k
