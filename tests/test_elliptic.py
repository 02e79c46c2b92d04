import random

import pytest

import schurgate.elliptic as elliptic
from oracles import naive_trace, point_count
from schurgate.cyclotomic import InternalCheckError
from schurgate.elliptic import NAIVE_COUNT_MAX, EllipticCurveQ, a_v
from schurgate.groups import is_prime

E_MINUS_X = EllipticCurveQ.from_list([0, 0, 0, -1, 0])  # y^2 = x^3 - x


def brute_count(E, v):
    """Independent recount by direct solution enumeration."""
    n = 1  # infinity
    for x in range(v):
        for y in range(v):
            lhs = (y * y + E.a1 * x * y + E.a3 * y) % v
            rhs = (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6) % v
            if lhs == rhs:
                n += 1
    return n


def test_a5_is_minus_two():
    assert point_count(E_MINUS_X, 5) == 8
    assert a_v(E_MINUS_X, 5) == -2


def test_a3_is_zero():
    assert a_v(E_MINUS_X, 3) == 0


def test_small_primes_match_brute_force():
    for v in (3, 5, 7, 11, 13, 17, 19):
        assert point_count(E_MINUS_X, v) == brute_count(E_MINUS_X, v)


def test_general_weierstrass_matches_brute_force():
    E = EllipticCurveQ.from_list([1, -1, 1, -10, -20])
    for v in (3, 7, 13, 23):
        if E.discriminant % v:
            assert point_count(E, v) == brute_count(E, v)


def test_hasse_bound_on_random_curves():
    rng = random.Random(99)
    primes = [v for v in range(3, 400) if is_prime(v)]
    done = 0
    while done < 100:
        E_coeffs = [rng.randint(-5, 5) for _ in range(5)]
        try:
            E = EllipticCurveQ.from_list(E_coeffs)
        except ValueError:
            continue
        v = rng.choice(primes)
        if v == 2 or E.discriminant % v == 0:
            continue
        t = a_v(E, v)
        assert t * t <= 4 * v
        done += 1


def test_bad_prime_rejected():
    with pytest.raises(ValueError, match="bad prime"):
        a_v(E_MINUS_X, 2)
    E = EllipticCurveQ.from_list([0, 0, 0, 0, 1])  # disc = -432
    with pytest.raises(ValueError, match="bad prime"):
        a_v(E, 3)


def test_large_prime_capped():
    with pytest.raises(ValueError, match="cap"):
        a_v(E_MINUS_X, 10 ** 6 + 3)


@pytest.mark.parametrize("v", [10 ** 16 + 61, 10 ** 18 + 3, 10 ** 18 + 4])
def test_cap_is_checked_before_the_primality_test(v):
    # trial division would take minutes at these sizes; composites are not called prime
    with pytest.raises(ValueError, match=f"^v = {v} exceeds the point-counting cap"):
        a_v(E_MINUS_X, v)


def test_nonprime_rejected():
    with pytest.raises(ValueError, match="not prime"):
        a_v(E_MINUS_X, 15)


def test_singular_curve_rejected():
    with pytest.raises(ValueError, match="singular"):
        EllipticCurveQ.from_list([0, 0, 0, 0, 0])


ORACLE_CURVES = ([0, 0, 0, -1, 0], [1, -1, 1, -10, -20], [0, 1, 1, -3, 5])


def test_a_v_matches_naive_count_at_every_good_prime_below_3000():
    for coeffs in ORACLE_CURVES:
        E = EllipticCurveQ.from_list(coeffs)
        for v in range(3, 3000):
            if is_prime(v) and E.discriminant % v:
                assert a_v(E, v) == naive_trace(E, v), (coeffs, v)


def test_a_v_matches_naive_count_at_seeded_large_primes():
    rng = random.Random(17)
    primes = [v for v in range(3000, 2 * 10 ** 4) if is_prime(v)]
    seen = set()
    done = 0
    while done < 40:
        try:
            E = EllipticCurveQ.from_list([rng.randint(-9, 9) for _ in range(5)])
        except ValueError:
            continue
        v = rng.choice(primes)
        if E.discriminant % v == 0:
            continue
        assert a_v(E, v) == naive_trace(E, v), (E, v)
        seen.add(v % 4)
        done += 1
    assert seen == {1, 3}


def test_naive_count_stays_below_the_mestre_bound(monkeypatch):
    # Mestre's argument needs v > 229, so the naive count covers at least that far
    assert NAIVE_COUNT_MAX >= 229
    E = EllipticCurveQ.from_list(ORACLE_CURVES[1])

    def refuse(E, v):
        raise AssertionError(f"naive count at v = {v}")

    monkeypatch.setattr(elliptic, "_naive_trace", refuse)
    for v in (233, 239, 241, 10007, 10009):  # both residues mod 4, above the crossover
        assert a_v(E, v) == naive_trace(E, v)


def test_non_unique_order_error_names_curve_and_prime(monkeypatch):
    monkeypatch.setattr(elliptic, "_orders_in_interval", lambda P, A, v, lo, hi: {lo, hi})
    with pytest.raises(InternalCheckError, match=r"at v = 1009 on the curve \[0,0,0,-1,0\]"):
        a_v(E_MINUS_X, 1009)
