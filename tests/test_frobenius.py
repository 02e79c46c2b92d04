import contextlib
import hashlib
import io
import random

import pytest
import sympy

from oracles import (
    cyclotomic_exponent_walk, frobenius_datum_by_factoring, sympy_factor_degrees,
    sympy_is_squarefree,
)
from schurgate.groups import GroupElement, conjugacy_classes, is_prime, make_group
from schurgate.frobenius import (
    EXAMPLE_F1,
    _distinct_degrees,
    _frobenius_map,
    _gf_gcd,
    cyclotomic_exponent,
    frobenius_datum,
    poly_discriminant,
    resolve_field_poly,
)

G63 = make_group(7, 3, 2, 2)
G21 = make_group(7, 3, 1, 2)


def factor_pattern(coeffs, v: int) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of f mod v (degree >= 2), by the datum's route;
    raises as _frobenius_map does for a vanishing leading coefficient or a ramified v."""
    return _distinct_degrees(_frobenius_map(coeffs, v))


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


# -- pins: every good v < 10^4, byte for byte through the CLI -------------------

PRIMES_10000 = [v for v in range(2, 10 ** 4) if is_prime(v)]


@pytest.fixture
def cli_run(monkeypatch):
    """cli.main on one argv, with stdout and stderr captured and one parser for all calls."""
    import schurgate.cli as cli

    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda *_: parser)

    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return run


@pytest.mark.parametrize("n, digest", [
    (1, "0d5a691c5facf46b0d032c4f19e32dbb145bd83c4c69c3d1928a2e7bf2b27574"),
    (2, "cb5c4f18bb0f23704eaa7a18ed4d481e0a46dddc3f7ec6db9d76b0270a9095d2"),
    (3, "537f47e0932ff141b220dcc6a3f6041ff792bda32269981e815c73fb998d4bf6"),
], ids=["C7:C3", "C7:C9", "C7:C27"])
def test_frobenius_json_pinned_at_every_good_prime_below_10000(cli_run, n, digest):
    disc = poly_discriminant(EXAMPLE_F1)
    h = hashlib.sha256()
    good = [v for v in PRIMES_10000 if v not in (3, 7) and disc % v]
    for v in good:
        code, out, err = cli_run("frobenius", "-q", "7", "-p", "3", "-n", str(n), "-v", str(v),
                                 "--format", "json")
        assert code == 0 and err == "", v
        h.update(out.encode())
    assert len(good) == 1226 and h.hexdigest() == digest


def _random_field(degree, seed, lead=1, span=9):
    """A seeded squarefree polynomial, lower coefficients in [-span, span]."""
    rng = random.Random(seed)
    while True:
        coeffs = tuple(rng.randint(-span, span) for _ in range(degree)) + (lead,)
        if poly_discriminant(coeffs) != 0:
            return coeffs


@pytest.mark.parametrize("coeffs, accepted, digest", [
    ((-2, 0, 0, 0, 0, 0, 0, 1), 334,
     "c345d1a097ec57ee07e368b3b06c14dc2bf83a5cd1e8e8b9941280c32046d0cd"),
    ((1, 0, 0, 0, 0, 0, 0, 1), 335,
     "b1b7b75873998ac16066610788bdee2ca48178b54558940377d6fcf48a5fce8d"),
    (_random_field(7, 15, lead=2, span=20), 106,
     "c80aab84e3b9d5f6b57fca4a0e7f21dc89000f8a6febda37104ff8339aab9a1b"),
], ids=["x^7-2", "x^7+1", "random"])
def test_frobenius_refusals_pinned_at_every_prime_below_10000(cli_run, coeffs, accepted, digest):
    # the (v, exit code, stderr) triples of fields that do not define a C7:C3 extension
    spec = ",".join(map(str, coeffs))
    h = hashlib.sha256()
    codes = []
    for v in PRIMES_10000:
        code, _, err = cli_run("frobenius", "-q", "7", "-p", "3", "-n", "1", "-v", str(v),
                               f"--field={spec}", "--format", "json")
        h.update(f"{v} {code} {err}".encode())
        codes.append(code)
    assert codes.count(0) == accepted and codes.count(2) == len(codes) - accepted
    assert h.hexdigest() == digest


@pytest.mark.parametrize("G", [G21, G63, make_group(7, 3, 3)], ids=["C7:C3", "C7:C9", "C7:C27"])
def test_datum_pattern_is_the_factor_pattern_on_the_example_field(G):
    disc = poly_discriminant(EXAMPLE_F1)
    for v in PRIMES_10000:
        if v not in (3, 7) and disc % v:
            assert frobenius_datum(EXAMPLE_F1, G, v).pattern == factor_pattern(EXAMPLE_F1, v), v


@pytest.mark.parametrize("G, coeffs, bound, shapes", [
    (G21, EXAMPLE_F1, 1000, {(1,) * 7, (7,), (1, 3, 3)}),
    (G63, EXAMPLE_F1, 1000, {(1,) * 7, (7,), (1, 3, 3)}),
    (make_group(7, 3, 3), (1, 0, 0, 0, 0, 0, 0, 1), 1000, {(1,) * 7, (1, 3, 3)}),
    (make_group(13, 3, 1), _random_field(13, 5), 1000, {(13,)}),
    (make_group(19, 3, 2, 4), _random_field(19, 11), 700, {(19,), (1, 9, 9)}),  # r = 2
], ids=["C7:C3", "C7:C9", "C7:C27-x^7+1", "C13:C3-random", "C19:C9-random"])
def test_certified_datum_matches_the_factoring_oracle(G, coeffs, bound, shapes):
    # every datum and every refusal message, at each unramified v below the bound
    disc = poly_discriminant(coeffs)
    accepted = set()
    for v in PRIMES_2000:
        if v > bound or v in (G.p, G.q) or disc % v == 0 or coeffs[-1] % v == 0:
            continue
        try:
            want = frobenius_datum_by_factoring(coeffs, G, v)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                frobenius_datum(coeffs, G, v)
            assert str(err.value) == str(exc)
            continue
        d = frobenius_datum(coeffs, G, v)
        assert (d.order_in_G, d.cyclotomic_component, d.conj_class, d.candidates, d.pattern) == want
        accepted.add(d.pattern)
    assert accepted == shapes


def test_datum_reads_no_class_list():
    G = make_group(7, 3, 8)
    disc = poly_discriminant(EXAMPLE_F1)
    primes = [v for v in PRIMES_2000 if v < 500 and v not in (3, 7) and disc % v]
    conjugacy_classes.cache_clear()
    data = [frobenius_datum(EXAMPLE_F1, G, v) for v in primes]
    assert conjugacy_classes.cache_info().misses == 0
    # the oracle reads the list, as an independent route to the same classes
    for v, d in zip(primes, data):
        want = frobenius_datum_by_factoring(EXAMPLE_F1, G, v)
        assert (d.order_in_G, d.cyclotomic_component, d.conj_class, d.candidates, d.pattern) == want
    assert {d.pattern for d in data} == {(1,) * 7, (7,), (1, 3, 3)}


def test_root_count_by_trace_is_the_gcd_degree():
    counted = 0
    for coeffs in _random_polynomials(13, 30):
        for v in PRIMES_2000[4:40]:  # v > 9, the largest degree
            if coeffs[-1] % v == 0 or poly_discriminant(coeffs) % v == 0:
                continue
            frob = _frobenius_map(coeffs, v)
            gcd_degree = len(_gf_gcd(frob.f, frob.minus_x(frob.rows[1]), v)) - 1
            assert frob.root_degree(frob.rows[1], 1) == gcd_degree == factor_pattern(coeffs, v).count(1)
            counted += gcd_degree > 0
    assert counted > 100
    # (x^5 - x)(x^2 + 2) has all five roots mod 5, where the trace reads 0
    frob = _frobenius_map((0, -2, 0, -1, 0, 2, 0, 1), 5)
    assert frob.root_degree(frob.rows[1], 1) == 5
