import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from schurgate.cyclotomic import (
    AbelianField,
    ConductorOverflowError,
    CyclotomicNumber as C,
    dot,
    euler_phi,
    field_of_values,
    format_sum,
    max_conductor,
    _cyclo,
    _image,
)
from schurgate.characters import inner_product, one_faithful_character
from schurgate.groups import make_group
from oracles import (
    complex_conjugate,
    contains_value,
    cyclotomic_from_json,
    dense_add,
    dense_galois,
    dense_lift,
    dense_mul,
    field_from_json,
    field_of_values_all_units,
    galois_apply,
    to_complex,
)


def rand_value(rng, m):
    phi = euler_phi(m)
    coeffs = [
        Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))
        for _ in range(phi)
    ]
    return C(m, coeffs)


def test_sum_of_nontrivial_cube_roots():
    assert C.zeta(3) + C.zeta(3, 2) == C.from_rational(-1)


def test_root_of_unity_product_identity():
    assert C.zeta(7) * C.zeta(7, 6) == C.from_rational(1)


def test_inverse_of_one_plus_zeta5():
    x = 1 + C.zeta(5)
    assert x * x.inverse() == C.from_rational(1)


def test_galois_moves_zeta7():
    assert galois_apply(C.zeta(7), 2) == C.zeta(7, 2)


def test_galois_on_gaussian_period():
    eta = C.zeta(7) + C.zeta(7, 2) + C.zeta(7, 4)
    assert galois_apply(eta, 3) == -1 - eta


def test_galois_identity_map():
    rng = random.Random(7)
    for m in (5, 9, 12, 21):
        x = rand_value(rng, m)
        assert galois_apply(x, 1) == x


def test_galois_not_coprime_rejected():
    with pytest.raises(ValueError):
        C.zeta(9).galois(3)


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        C.from_rational(0).inverse()


def test_conductor_overflow(monkeypatch):
    # the cap is read once per process, so each environment change is followed
    # by clearing the cached value
    monkeypatch.setenv("SCHURGATE_MAX_CONDUCTOR", "100")
    max_conductor.cache_clear()
    with pytest.raises(ConductorOverflowError):
        C.zeta(101)
    monkeypatch.delenv("SCHURGATE_MAX_CONDUCTOR")
    max_conductor.cache_clear()
    assert C.zeta(101) * C.zeta(101, 100) == 1


def test_zeta_works_at_the_reduced_conductor():
    # zeta_m^k = zeta_(m/g)^(k/g) with g = gcd(m, k), so neither needs conductor m
    assert C.zeta(3 ** 39, 0) == 1
    assert C.zeta(7 * 3 ** 20, 3 ** 20) == C.zeta(7)


@pytest.fixture
def lower_cap(monkeypatch):
    """Sets SCHURGATE_MAX_CONDUCTOR for one test; the cached cap is reread before and after."""
    def lower(cap: int) -> None:
        monkeypatch.setenv("SCHURGATE_MAX_CONDUCTOR", str(cap))
        max_conductor.cache_clear()
    yield lower
    max_conductor.cache_clear()


@pytest.mark.parametrize("op", [
    "add", "mul", "zeta", "the CyclotomicNumber constructor", "the AbelianField constructor",
    "inner product", "field_of_values",
])
def test_conductor_overflow_names_the_operation(lower_cap, op):
    tau = one_faithful_character(make_group(7, 3, 2))  # values at conductors 1, 3, 7 and 21
    tau.values  # the table is built on first use: build it under the default cap
    a, b = C.zeta(5), C.zeta(7)  # each below the cap, together at conductor 35
    conductor, call = {
        "add": (35, lambda: a + b),
        "mul": (35, lambda: a * b),
        "zeta": (23, lambda: C.zeta(23)),
        "the CyclotomicNumber constructor": (23, lambda: C(23, [0] * 22)),
        "the AbelianField constructor": (23, lambda: AbelianField(23, [1])),
        "inner product": (21, lambda: inner_product(tau, tau)),
        "field_of_values": (35, lambda: field_of_values([a, b])),
    }[op]
    lower_cap(20)
    with pytest.raises(ConductorOverflowError) as err:
        call()
    assert str(err.value) == (
        f"conductor {conductor} exceeds the cap 20 in {op} (set SCHURGATE_MAX_CONDUCTOR to raise it)"
    )


def test_a_gauss_period_above_the_cap_is_refused_before_its_buffer(lower_cap, monkeypatch):
    import schurgate.characters as characters
    import schurgate.cyclotomic as cyclotomic

    def unread():
        yield pytest.fail("an exponent was read")

    tau = one_faithful_character(make_group(103, 3, 1))  # building it reads no period
    characters._gauss_period.cache_clear()
    lower_cap(100)
    monkeypatch.setattr(cyclotomic, "_from_buffer", lambda *args: pytest.fail("a buffer was reduced"))
    message = r"^conductor 103 exceeds the cap 100 in Gaussian period \(set SCHURGATE_MAX_CONDUCTOR"
    with pytest.raises(ConductorOverflowError, match=message):
        tau.degree  # the period at index 0
    assert characters._gauss_period.cache_info().currsize == 0
    with pytest.raises(ConductorOverflowError, match="conductor 103 exceeds the cap 100 in zeta"):
        C.root_sum(103, unread(), "zeta")


def test_values_factors_and_symbolic_polys_print_by_one_rule():
    """Every printed sum drops zeros, prints a coefficient of +-1 as a sign, brackets a sum and folds "+ -"."""
    from schurgate.elliptic import EulerFactor
    from schurgate.lseries import SymbolicPoly

    eta = C.zeta(7) + C.zeta(7, 2) + C.zeta(7, 4)
    zero, one = C.from_rational(0), C.from_rational(1)
    a, v = SymbolicPoly.var_a(), SymbolicPoly.var_v()
    assert str(eta) == "z7 + z7^2 + z7^4"
    assert str(C.from_rational(Fraction(-3, 2)) * C.zeta(7, 2) + 1) == "1 - 3/2*z7^2"
    assert (str(zero), str(C.from_rational(Fraction(-3, 2)))) == ("0", "-3/2")
    assert str(EulerFactor(5, (one, -eta, zero, C.zeta(3), -one))) == "1 + (-z7 - z7^2 - z7^4)*T + z3*T^3 - T^4"
    assert str(SymbolicPoly.scalar(eta) - a * a * v + (-eta) * v + Fraction(2, 3) * a) == (
        "(z7 + z7^2 + z7^4) + (-z7 - z7^2 - z7^4)*v + 2/3*a - a^2*v"
    )
    assert str(EulerFactor(5, (zero,))) == str(SymbolicPoly.zero()) == format_sum([]) == "0"
    assert format_sum([(-1, ()), (Fraction(1, 2), (("x", 0), ("y", 3))), (-1, (("x", 1),))]) == "-1 + 1/2*y^3 - x"


def test_canonicalization_minimal_conductor():
    assert C.zeta(9, 3).conductor == 3
    assert C.zeta(6).conductor == 3  # zeta_6 = 1 + zeta_3
    assert (C.zeta(5) + C.zeta(7) - C.zeta(7)).conductor == 5
    assert C(7, [Fraction(2)] + [Fraction(0)] * 5).conductor == 1


def test_canonicalization_idempotent_on_random_values():
    rng = random.Random(1)
    for m in (1, 3, 7, 9, 15, 21, 63):
        for _ in range(5):
            x = rand_value(rng, m)
            y = C(x.conductor, x.coeffs)
            assert y.conductor == x.conductor and y.coeffs == x.coeffs


def test_field_axioms_on_random_samples():
    rng = random.Random(2)
    one = C.from_rational(1)
    for _ in range(25):
        m = rng.choice([3, 5, 7, 9, 12, 21])
        x, y, z = (rand_value(rng, m) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == one


def test_galois_is_automorphism_and_composes():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.choice([5, 7, 9, 16, 21])
        x, y = rand_value(rng, m), rand_value(rng, m)
        units = [k for k in range(1, m) if __import__("math").gcd(k, m) == 1]
        k, l = rng.choice(units), rng.choice(units)
        assert galois_apply(x + y, k) == galois_apply(x, k) + galois_apply(y, k)
        assert galois_apply(x * y, k) == galois_apply(x, k) * galois_apply(y, k)
        assert galois_apply(galois_apply(x, k), l) == galois_apply(x, (k * l) % m)


def test_field_of_values_examples():
    assert field_of_values([C.from_rational(1), C.from_rational(Fraction(-3, 2))]) == AbelianField.rationals()
    eta = C.zeta(7) + C.zeta(7, 2) + C.zeta(7, 4)
    fld = field_of_values([eta])
    assert fld.conductor == 7 and fld.stabilizer == (1, 2, 4) and fld.degree == 2
    assert field_of_values([C.zeta(9)]).degree == 6


def test_field_degree_divides_phi():
    rng = random.Random(4)
    for _ in range(15):
        m = rng.choice([5, 7, 9, 15, 21])
        x = rand_value(rng, m)
        assert euler_phi(m) % field_of_values([x]).degree == 0


def test_power_and_division():
    z = C.zeta(7)
    assert z ** 7 == 1
    assert z ** -1 == C.zeta(7, 6)
    assert (C.from_rational(3) / C.from_rational(2)) == C.from_rational(Fraction(3, 2))


def test_conjugate_is_complex_conjugation():
    x = C.zeta(7) + 2 * C.zeta(7, 3)
    a, b = to_complex(x), to_complex(complex_conjugate(x))
    assert abs(a.conjugate() - b) < 1e-9


def test_json_round_trip_bit_exact():
    rng = random.Random(5)
    for m in (1, 3, 7, 9, 21):
        x = rand_value(rng, m)
        y = cyclotomic_from_json(x.to_json())
        assert y.conductor == x.conductor and y.coeffs == x.coeffs
    fld = field_of_values([C.zeta(7) + C.zeta(7, 2) + C.zeta(7, 4)])
    assert field_from_json(fld.to_json()) == fld


def test_abelian_field_validation():
    with pytest.raises(ValueError):
        AbelianField(7, [2, 4])  # missing 1
    with pytest.raises(ValueError):
        AbelianField(7, [1, 2])  # not closed
    full = AbelianField(7, [1, 2, 3, 4, 5, 6])
    assert full == AbelianField.rationals()


def test_abelian_field_reduces_to_the_true_conductor():
    def units(m, keep):
        return [k for k in range(1, m) if gcd(k, m) == 1 and keep(k)]

    assert AbelianField(27, units(27, lambda k: True)) == AbelianField.rationals()
    assert AbelianField(63, units(63, lambda k: k % 7 == 1)) == field_of_values([C.zeta(7)])
    assert AbelianField(225, units(225, lambda k: k % 9 == 1)) == field_of_values([C.zeta(9)])
    eta = C.zeta(7) + C.zeta(7, 2) + C.zeta(7, 4)
    fld = AbelianField(189, units(189, lambda k: k % 7 in (1, 2, 4)))
    assert fld == field_of_values([eta]) and fld.conductor == 7


def test_abelian_field_contains_value():
    eta = C.zeta(7) + C.zeta(7, 2) + C.zeta(7, 4)
    fld = field_of_values([eta])
    assert contains_value(fld, eta)
    assert contains_value(fld, C.from_rational(5))
    assert not contains_value(fld, C.zeta(7))


def test_to_complex_embedding():
    import cmath

    z = to_complex(C.zeta(5))
    assert abs(z - cmath.exp(2j * cmath.pi / 5)) < 1e-12


def test_cyclo_matches_sympy():
    x = sympy.Symbol("x")
    for m in range(1, 301):
        dense = [0] * (euler_phi(m) + 1)
        for e, c in _cyclo(m):
            dense[e] = c
        want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert dense == [int(c) for c in want], m


@pytest.mark.parametrize("m", [171, 243])
def test_inverse_at_large_conductors(m):
    x = 1 + C.zeta(m) - 2 * C.zeta(m, 5) + Fraction(1, 3) * C.zeta(m, 40)
    assert x.conductor == m
    assert x * x.inverse() == 1


# Conductors covering every descent branch: p^2 | m (9, 25, 27, 63, 12),
# p || m with m/p > 1 (15, 21, 35, 63, 12), prime m (5, 7, 11) and
# m = 2 * odd (6, 10, 30); multiplying by k in MULTIPLIERS reaches each
# branch again from above.
BRANCH_CONDUCTORS = (5, 6, 7, 9, 10, 11, 12, 15, 21, 25, 27, 30, 35, 63)
MULTIPLIERS = (2, 3, 5, 7)
SPARSE = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def conductor_and_coeffs(draw):
    m = draw(st.sampled_from(BRANCH_CONDUCTORS))
    phi = euler_phi(m)
    return m, draw(st.lists(SPARSE, min_size=phi, max_size=phi))


@PROPERTY
@given(conductor_and_coeffs())
def test_descent_conductor_matches_field_of_values(mc):
    x = C(*mc)
    if not x.is_rational():
        assert field_of_values([x]).conductor == x.conductor


@PROPERTY
@given(conductor_and_coeffs())
def test_descent_lifts_back_to_the_input(mc):
    m, coeffs = mc
    x = C(m, coeffs)
    den, vec = x.den, _image(m, x._nz(), m // x.conductor)
    assert [Fraction(c, den) for c in vec] == coeffs


@PROPERTY
@given(conductor_and_coeffs(), st.sampled_from(MULTIPLIERS))
def test_descent_is_independent_of_the_starting_conductor(mc, k):
    m, coeffs = mc
    x = C(m, coeffs)
    y = sum((c * C.zeta(m * k, i * k) for i, c in enumerate(coeffs)), C.from_rational(0))
    assert (y.conductor, y.coeffs) == (x.conductor, x.coeffs)


# -- (den, ints) storage against the dense lift-and-schoolbook oracle -----------

@st.composite
def value(draw):
    return C(*draw(conductor_and_coeffs()))


@PROPERTY
@given(value())
def test_canonical_form_invariants(x):
    assert x.den >= 1 and gcd(x.den, *x.num) == 1
    assert len(x.num) == euler_phi(x.conductor)
    assert x.conductor == field_of_values([x]).conductor


@PROPERTY
@given(value(), value())
def test_add_and_mul_match_dense_oracle(x, y):
    for got, (M, want) in ((x + y, dense_add(x, y)), (x * y, dense_mul(x, y))):
        assert M % got.conductor == 0
        assert dense_lift(got, M) == want


@pytest.mark.parametrize("m", [1, 3, 9, 21, 63, 171])
def test_rational_factors_match_dense_oracle(m):
    rng = random.Random(m)
    for x in [rand_value(rng, m) for _ in range(4)] + [C.from_rational(0)]:
        for r in (0, 1, -1, Fraction(5, 3), Fraction(-7, 2)):
            for got in (x * r, r * x, x * C.from_rational(r), C.from_rational(r) * x):
                M, want = dense_mul(x, C.from_rational(r))
                assert dense_lift(got, M) == want
                assert got.den >= 1 and gcd(got.den, *got.num) == 1
                assert got.conductor == (x.conductor if r and not x.is_zero() else 1)


@PROPERTY
@given(value(), st.integers(min_value=1, max_value=10 ** 6))
def test_galois_matches_dense_oracle(x, r):
    m = x.conductor
    units = [k for k in range(1, m + 1) if gcd(k, m) == 1]
    k = units[r % len(units)]
    got = x.galois(k)
    assert got.conductor == m
    assert list(got.coeffs) == dense_galois(m, list(x.coeffs), k)


@PROPERTY
@given(value())
def test_to_json_matches_fraction_rendering(x):
    assert x.to_json() == {"conductor": x.conductor, "coeffs": [str(c) for c in x.coeffs]}


@PROPERTY
@given(value())
def test_inverse_property(x):
    if not x.is_zero():
        assert x * x.inverse() == 1


@PROPERTY
@given(value(), value())
def test_arithmetic_agrees_with_to_complex(x, y):
    a, b = to_complex(x), to_complex(y)
    assert abs(to_complex(x + y) - (a + b)) < 1e-9
    assert abs(to_complex(x * y) - a * b) < 1e-9
    assert abs(to_complex(complex_conjugate(x)) - a.conjugate()) < 1e-9


@PROPERTY
@given(st.lists(st.tuples(st.integers(-3, 3), value(), value()), max_size=3))
def test_weighted_dot_matches_term_by_term_sum(terms):
    want = sum((w * x * y for w, x, y in terms), C.from_rational(0))
    assert dot(terms) == want


# conductors with p^2 | m (9, 27, 25, 63), p || m (15, 21, 35, 63), m = 2 * odd
# (6, 10, 30, 42) and primes, in lists of one or two conductors whose lcm
# keeps the all-units oracle cheap, plus rational-only and mixed lists
FIELD_CONDUCTORS = (5, 6, 7, 9, 10, 15, 21, 25, 27, 30, 35, 42, 63)


def test_field_of_values_matches_all_units_on_random_lists():
    rng = random.Random(11)
    lists = [[C.from_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(3)]]
    while len(lists) < 120:
        ms = rng.sample(FIELD_CONDUCTORS, rng.randint(1, 2))
        if lcm(*ms) > 210:
            continue
        vals = [rand_value(rng, m) for m in ms]
        vals += [C.zeta(m, rng.randrange(m)) for m in ms if rng.random() < 0.5]
        if rng.random() < 0.5:  # mixed: rational entries and repeats
            vals += [C.from_rational(rng.randint(-3, 3)), vals[0]]
        # the trace over <k> lies in a proper subfield when k is not 1
        m = ms[0]
        k = rng.choice([k for k in range(1, m) if gcd(k, m) == 1])
        trace, u = vals[0], k
        while u != 1:
            trace, u = trace + vals[0].galois(u), u * k % m
        vals.append(trace)
        lists += [vals, [trace]]
    for vals in lists:
        assert field_of_values(vals) == field_of_values_all_units(vals), vals


# run in a fresh interpreter, so that the first half sees no Fraction type at all
COERCION = """
import operator, sys
from schurgate.cyclotomic import CyclotomicNumber as C
from schurgate.lseries import SymbolicPoly

def results():
    z, a = C.zeta(7), SymbolicPoly.var_a()
    return [str(z + 1), str(2 * z - True), str(True + z), str(3 - z), str(z * False), str(-1 * z),
            z == 1, C.from_rational(1) == True, str(a * 2 + True), str(1 - a), str(False * a)]

def refuses(operand):
    for x in (C.zeta(7), SymbolicPoly.var_a()):
        for op in (operator.add, operator.sub, operator.mul):
            for args in ((x, operand), (operand, x)):
                try:
                    op(*args)
                except TypeError:
                    continue
                raise AssertionError(f"{op.__name__}{args!r} did not raise TypeError")

before = results()
refuses(0.5)
refuses("1")
assert "fractions" not in sys.modules and "decimal" not in sys.modules
from decimal import Decimal
from fractions import Fraction
assert results() == before
refuses(Decimal(1))
z, a, half = C.zeta(7), SymbolicPoly.var_a(), Fraction(1, 2)
assert z * half == half * z == C(7, [0, half, 0, 0, 0, 0]) == C.from_rational(1, 2) * z
assert z + Fraction(4, 2) == z + 2 and Fraction(1, 3) - z == C.from_rational(1, 3) - z
print(*before, str(Fraction(-3, 2) * z + 1), str(a * half), str(Fraction(1, 3) + a), sep="|")
"""


def test_int_bool_and_fraction_operands_coerce_and_nothing_else():
    """int, bool and Fraction operands give the same values with or without fractions loaded;
    float, str and Decimal operands raise TypeError, as before."""
    out = subprocess.run([sys.executable, "-c", COERCION], capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("|") == [
        "1 + z7", "-1 + 2*z7", "1 + z7", "3 - z7", "0", "-z7", "False", "True", "1 + 2*a", "1 - a", "0",
        "1 - 3/2*z7", "1/2*a", "1/3 + a\n",
    ]
