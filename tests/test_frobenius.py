import random

import pytest
import sympy

from oracles import cyclotomic_exponent_walk, sympy_factor_degrees, sympy_is_squarefree
from schurgate.groups import GroupElement, is_prime, make_group
from schurgate.frobenius import (
    EXAMPLE_F1,
    cyclotomic_exponent,
    factor_pattern,
    frobenius_datum,
    poly_discriminant,
    resolve_field_poly,
)

G63 = make_group(7, 3, 2, 2)
G21 = make_group(7, 3, 1, 2)


def test_disc_of_builtin_polynomial():
    # polynomial discriminant = field discriminant 3^8 * 7^12 times a square
    d = poly_discriminant(EXAMPLE_F1)
    assert d == 3 ** 16 * 7 ** 12 * 37 ** 2
    ratio = d // (3 ** 8 * 7 ** 12)
    assert ratio == (3 ** 4 * 37) ** 2


def test_disc_simple_cases():
    assert poly_discriminant((-1, 0, 1)) == 4  # x^2 - 1
    assert poly_discriminant((1, 1, 1)) == -3  # x^2 + x + 1
    assert poly_discriminant((-2, 0, 0, 1)) == -108  # x^3 - 2


def test_factor_pattern_small():
    # x^2 + 1 mod 5 splits; mod 7 stays irreducible
    assert factor_pattern((1, 0, 1), 5) == (1, 1)
    assert factor_pattern((1, 0, 1), 7) == (2,)
    # x^3 - 2 mod 5: one root (since gcd(3, 4) = 1), quadratic cofactor
    assert factor_pattern((-2, 0, 0, 1), 5) == (1, 2)


def test_factor_pattern_ramified_rejected():
    with pytest.raises(ValueError, match="ramified"):
        factor_pattern(EXAMPLE_F1, 37)


def test_cyclotomic_exponent_basics():
    # v = 1 mod p^{n+1} means trivial class
    assert cyclotomic_exponent(109, 3, 2) == 0  # 109 = 1 mod 27
    assert cyclotomic_exponent(163, 3, 3) == 0  # 163 = 1 mod 81
    # the class of v has the order of v in (Z/p^{n+1})^x / torsion
    y = cyclotomic_exponent(2, 3, 2)
    assert y % 3 != 0  # 2 generates: order 9 in the quotient C_9
    # consistency across n: reduction mod p^k
    for v in (5, 11, 13, 23):
        y3 = cyclotomic_exponent(v, 3, 3)
        y2 = cyclotomic_exponent(v, 3, 2)
        assert y3 % 9 == y2


def test_cyclotomic_exponent_is_homomorphism():
    pairs = [(5, 11), (5, 13), (11, 13), (2, 23)]
    for v1, v2 in pairs:
        lhs = (cyclotomic_exponent(v1, 3, 2) + cyclotomic_exponent(v2, 3, 2)) % 9
        assert lhs == cyclotomic_exponent(v1 * v2, 3, 2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cyclotomic_exponent_matches_the_walk(p):
    for n in (1, 2, 3):
        for v in range(1, 2000):
            if v % p:
                assert cyclotomic_exponent(v, p, n) == cyclotomic_exponent_walk(v, p, n), (v, p, n)


def test_cyclotomic_exponent_rejects_ramified_v():
    with pytest.raises(ValueError, match="ramified"):
        cyclotomic_exponent(21, 3, 2)


def test_frobenius_at_an_18_digit_prime_matches_sympy():
    v = 10 ** 18 + 3
    degrees, repeated = sympy_factor_degrees(EXAMPLE_F1, v)
    assert not repeated and degrees == (1, 3, 3)
    d = frobenius_datum(EXAMPLE_F1, G21, v)
    assert d.pattern == degrees and d.cyclotomic_component == cyclotomic_exponent_walk(v, 3, 1)


def test_frobenius_order9_prime():
    d = frobenius_datum(EXAMPLE_F1, G63, 5)
    assert d.pattern == (1, 3, 3)
    assert d.conj_class is not None and d.conj_class.rep == GroupElement(0, 7)
    assert d.order_in_G == 9


def test_frobenius_order7_ambiguous():
    d = frobenius_datum(EXAMPLE_F1, G63, 53)  # 53 = -1 mod 27: trivial cyclotomic part
    assert d.pattern == (7,)
    assert d.cyclotomic_component == 0
    assert d.order_in_G == 7
    assert d.conj_class is None
    assert len(d.candidates) == 2  # the two H-orbits of order-7 classes
    assert {c.rep.x for c in d.candidates} == {1, 3}


def test_frobenius_order21():
    d = frobenius_datum(EXAMPLE_F1, G63, 17)
    assert d.pattern == (7,)
    assert d.order_in_G == 21
    assert len(d.candidates) == 2


def test_frobenius_split_prime():
    d = frobenius_datum(EXAMPLE_F1, G63, 397)
    assert d.pattern == (1,) * 7
    assert d.conj_class is not None
    assert d.conj_class.rep == GroupElement(0, 6)
    assert d.order_in_G == 3


def test_frobenius_rejects_structural_primes():
    with pytest.raises(ValueError):
        frobenius_datum(EXAMPLE_F1, G63, 7)
    with pytest.raises(ValueError):
        frobenius_datum(EXAMPLE_F1, G63, 3)
    with pytest.raises(ValueError, match="ramified"):
        frobenius_datum(EXAMPLE_F1, G63, 37)


def test_frobenius_rejects_wrong_degree():
    with pytest.raises(ValueError, match="degree"):
        frobenius_datum((1, 0, 1), G63, 5)


def test_frobenius_rejects_incompatible_polynomial():
    # x^7 - 2 has Galois group of order 42, not C7:C3; many primes expose it
    bad = (-2, 0, 0, 0, 0, 0, 0, 1)
    saw_error = False
    for v in (5, 11, 13, 17, 19, 23, 29, 31, 41, 43):
        try:
            frobenius_datum(bad, G21, v)
        except ValueError:
            saw_error = True
            break
    assert saw_error


def test_patterns_always_legal_for_builtin_field():
    count = 0
    for v in range(5, 500):
        if not is_prime(v) or v in (3, 7, 37):
            continue
        d = frobenius_datum(EXAMPLE_F1, G63, v)
        assert d.order_in_G % 1 == 0 and 63 % d.order_in_G == 0
        # cyclotomic component consistent with the order
        oy = G63.pn // __import__("math").gcd(G63.pn, d.cyclotomic_component)
        assert d.order_in_G % oy == 0
        count += 1
    assert count > 80


def test_resolve_field_poly():
    assert resolve_field_poly("example-F1") == EXAMPLE_F1
    assert resolve_field_poly("-2,0,0,1") == (-2, 0, 0, 1)
    with pytest.raises(ValueError):
        resolve_field_poly("not-a-field")


def _random_polynomials(seed, count):
    """Seeded integer polynomials of degree 2..9, squarefree over Q."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 9)
        coeffs = tuple(rng.randint(-30, 30) for _ in range(d)) + (rng.choice((1, 1, 2, 3, -5)),)
        if poly_discriminant(coeffs) != 0:
            out.append(coeffs)
    return out


PRIMES_2000 = [v for v in range(2, 2000) if is_prime(v)]


def test_factor_pattern_matches_sympy_on_the_example_field():
    for v in PRIMES_2000:
        degrees, repeated = sympy_factor_degrees(EXAMPLE_F1, v)
        if repeated:
            with pytest.raises(ValueError, match="ramified"):
                factor_pattern(EXAMPLE_F1, v)
        else:
            assert factor_pattern(EXAMPLE_F1, v) == degrees, v


def test_factor_pattern_matches_sympy_on_random_polynomials():
    rng = random.Random(11)
    for coeffs in _random_polynomials(7, 60):
        for v in rng.sample(PRIMES_2000[:60], 4) + rng.sample(PRIMES_2000[60:], 2):
            if coeffs[-1] % v == 0:
                with pytest.raises(ValueError, match="leading coefficient"):
                    factor_pattern(coeffs, v)
                continue
            degrees, repeated = sympy_factor_degrees(coeffs, v)
            if repeated:
                with pytest.raises(ValueError, match="ramified"):
                    factor_pattern(coeffs, v)
            else:
                assert factor_pattern(coeffs, v) == degrees, (coeffs, v)


def test_discriminant_squarefree_criterion_matches_gcd():
    # f mod v is squarefree iff v does not divide disc(f), when v does not divide lead(f)
    polys = [EXAMPLE_F1, (-2, 0, 0, 1), (0, 1, 2, 1)] + _random_polynomials(3, 4)
    ramified = 0
    for coeffs in polys:
        disc = poly_discriminant(coeffs)
        for v in PRIMES_2000:
            if coeffs[-1] % v == 0:
                continue
            assert (disc % v != 0) == sympy_is_squarefree(coeffs, v), (coeffs, v)
            ramified += disc % v == 0
    assert ramified > 10


def test_poly_discriminant_matches_sympy():
    x = sympy.Symbol("x")
    for coeffs in [EXAMPLE_F1, (0, 1, 2, 1)] + _random_polynomials(5, 20):
        expected = sympy.discriminant(sympy.Poly(list(reversed(coeffs)), x))
        assert poly_discriminant(coeffs) == expected, coeffs
