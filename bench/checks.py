"""Independent output checks for every schurgate job kind.

No check compares against stored output.  Each one recomputes what it needs
with the benchmark's own arithmetic (big integers, floats, naive point
counts, brute-force root counts) or tests a property the answer must have.
Every function takes the job's argument list and its parsed JSON payload and
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# x^7 - 42x^5 - 70x^4 + 168x^3 + 126x^2 - 84x - 45, ascending coefficients:
# the degree-7 field polynomial the CLI calls ``example-F1``.
EXAMPLE_F1 = (-45, -84, 126, 168, -70, -42, 0, 1)


# -- small number theory ------------------------------------------------------

def is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % d for d in range(2, math.isqrt(m) + 1))


def phi(m: int) -> int:
    out, t, d = m, m, 2
    while d * d <= t:
        if t % d == 0:
            out -= out // d
            while t % d == 0:
                t //= d
        d += 1
    if t > 1:
        out -= out // t
    return out


def vp(m: int, p: int) -> int:
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    return k


def mult_order(a: int, m: int) -> int:
    if m == 1:
        return 1
    k, x = 1, a % m
    while x != 1:
        x = x * a % m
        k += 1
    return k


def action_exponent(q: int, p: int, j: int) -> int:
    """r with ord(j mod q) = p^r."""
    t = mult_order(j, q)
    r = vp(t, p)
    if p ** r != t:
        raise ValueError(f"order of {j} mod {q} is not a power of {p}")
    return r


def class_count(q: int, p: int, n: int, r: int) -> int:
    """Conjugacy classes of C_q x| C_{p^n} with an action of order p^r."""
    return p ** n + p ** (n - r) * (q - 1) // p ** r


def faithful_count(q: int, p: int, n: int, r: int) -> int:
    return (q - 1) * phi(p ** (n - r)) // p ** r


def schur_index(q: int, p: int, n: int, r: int) -> int:
    """e / gcd(e, N/d) with d = p^{n-r}, f = ord(q mod d), N = q^f - 1, e = gcd(p^r, N)."""
    d = p ** (n - r)
    N = q ** mult_order(q, d) - 1
    e = math.gcd(p ** r, N)
    return e // math.gcd(e, N // d)


KNOWN_INDICES = {(7, 3, 1, 1): 1, (7, 3, 2, 1): 3, (19, 3, 4, 2): 9}


def valid_group_orders(max_order: int) -> list[int]:
    """Orders of every valid (q, p, n, j) with q p^n <= max_order, one per j."""
    orders = []
    for q in range(5, max_order // 3 + 1, 2):
        if not is_prime(q):
            continue
        for p in range(3, q, 2):
            if (q - 1) % p or not is_prime(p):
                continue
            n = 1
            while q * p ** n <= max_order:
                orders += [q * p ** n] * (p ** min(n, vp(q - 1, p)) - 1)
                n += 1
    return orders


def curve_discriminant(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def trace_of_frobenius(curve: tuple[int, ...], v: int) -> int:
    """v + 1 - #E(F_v), counting points with Euler's criterion (v odd, good)."""
    a1, a2, a3, a4, a6 = curve
    count = 1  # the point at infinity
    half = (v - 1) // 2
    for x in range(v):
        # y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6, completed to a square in y
        disc = ((a1 * x + a3) ** 2 + 4 * (x ** 3 + a2 * x * x + a4 * x + a6)) % v
        if disc == 0:
            count += 1
        elif pow(disc, half, v) == 1:
            count += 2
    return v + 1 - count


def poly_roots_mod(coeffs, v: int) -> int:
    return sum(1 for x in range(v) if sum(c * pow(x, i, v) for i, c in enumerate(coeffs)) % v == 0)


def _poly_mod(a: list[int], m: list[int], v: int) -> list[int]:
    a = [c % v for c in a]
    inv = pow(m[-1], -1, v)
    while len(a) >= len(m):
        c = a[-1] * inv % v
        for i in range(len(m)):
            a[len(a) - len(m) + i] = (a[len(a) - len(m) + i] - c * m[i]) % v
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def squarefree_mod(coeffs, v: int) -> bool:
    """Whether the monic polynomial has no repeated root mod v."""
    a = [c % v for c in coeffs]
    b = [i * c % v for i, c in enumerate(coeffs)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _poly_mod(a, b, v)
    return len(a) == 1


def field_is_unramified(v: int) -> bool:
    return squarefree_mod(EXAMPLE_F1, v)


def cyclotomic_component(v: int, p: int, n: int) -> int:
    """Exponent y in Z/p^n of v in the degree-p^n layer of Q(zeta_{p^{n+1}}).

    Discrete logarithm to a primitive root g mod p^{n+1}:  log(1+p) =
    (p-1) l with l a unit mod p^n, and v^{p-1} = (1+p)^e gives
    log(v) = e l mod p^n, so y = e / (p-1) = log(v) / (l (p-1)) mod p^n.
    """
    mod = p ** (n + 1)
    group = mod // p * (p - 1)
    g = next(x for x in range(2, mod) if x % p and mult_order(x, mod) == group)
    log = {}
    t = 1
    for k in range(group):
        log[t] = k
        t = t * g % mod
    pn = p ** n
    ell = log[1 + p] // (p - 1)
    return log[v % mod] * pow(ell * (p - 1), -1, pn) % pn


# -- parsing helpers ----------------------------------------------------------

def parse_args(argv) -> dict:
    """Flag values of a schurgate argument list (subcommand first)."""
    opts, i = {}, 1
    while i < len(argv):
        key = argv[i].lstrip("-")
        if "=" in key:
            key, value = key.split("=", 1)
            opts[key] = value
            i += 1
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else "-"
        if not nxt.startswith("-") or nxt[1:2].isdigit():  # a value, maybe negative
            opts[key] = nxt
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def _group_of(opts) -> tuple[int, int, int, int, int]:
    q, p, n = int(opts.get("q", 7)), int(opts.get("p", 3)), int(opts["n"])
    j = int(opts["j"]) if "j" in opts else None
    if j is None:
        # largest action: the smallest residue of order p^min(n, v_p(q-1))
        r = min(n, vp(q - 1, p))
        j = min(x for x in range(2, q) if mult_order(x, q) == p ** r)
    return q, p, n, j, action_exponent(q, p, j)


def _check_group(payload_group: dict, grp) -> list[str]:
    q, p, n, j, r = grp
    want = {"q": q, "p": p, "n": n, "j": j, "r": r}
    return [] if payload_group == want else [f"group {payload_group} != {want}"]


@lru_cache(maxsize=None)
def _zeta_powers(m: int, count: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(count) / m)


def to_complex(value: dict) -> complex:
    """Float embedding of a cyclotomic JSON value with zeta_m = exp(2 pi i / m)."""
    m, coeffs = value["conductor"], value["coeffs"]
    if m == 1:
        return complex(Fraction(coeffs[0]))
    pw = _zeta_powers(m, len(coeffs))
    acc = 0j
    for k, c in enumerate(coeffs):
        if c != "0":
            acc += float(Fraction(c)) * pw[k]
    return complex(acc)


def _close(a: complex, b: complex, scale: float = 1.0) -> bool:
    return abs(a - b) <= 1e-7 * max(1.0, scale, abs(b))


# -- per-kind checks ----------------------------------------------------------

def check_table(argv, payload) -> list[str]:
    opts = parse_args(argv)
    grp = _group_of(opts)
    q, p, n, j, r = grp
    order = q * p ** n
    errs = _check_group(payload["group"], grp)
    classes, chars = payload["classes"], payload["characters"]
    k = class_count(q, p, n, r)
    if payload["order"] != order:
        errs.append(f"order {payload['order']} != {order}")
    if len(classes) != k or len(chars) != k:
        errs.append(f"{len(classes)} classes and {len(chars)} characters, expected {k}")
    sizes = np.array([c["size"] for c in classes], dtype=float)
    if sizes.sum() != order:
        errs.append("class sizes do not sum to |G|")
    if sum(ch["degree"] ** 2 for ch in chars) != order:
        errs.append("sum of squared degrees != |G|")
    if errs:
        return errs
    V = np.array([[to_complex(v) for v in ch["values"]] for ch in chars])
    gram = (V * sizes) @ V.conj().T
    if not np.allclose(gram, order * np.eye(k), atol=1e-6 * order):
        errs.append("rows are not orthonormal")
    H = [t for t in range(1, q) if pow(t, p ** r, q) == 1]
    want_field = phi(p ** (n - r)) * (q - 1) // p ** r
    faithful = 0
    for ch, row in zip(chars, V):
        kind = ch["provenance"][0]
        if kind == "one_dimensional":
            e = ch["provenance"][1]
            want = [cmath.exp(2j * cmath.pi * e * c["rep"][1] / p ** n) for c in classes]
            if not all(_close(a, b) for a, b in zip(row, want)):
                errs.append(f"{ch['id']}: linear values are not zeta_(p^n)^(e y)")
        elif kind in ("induced", "lifted_from_quotient"):
            u = ch["provenance"][-2]
            for c, val in zip(classes, row):
                x, y = c["rep"]
                if y == 0 and x:
                    period = sum(cmath.exp(2j * cmath.pi * u * x * s / q) for s in H)
                    if not _close(val, period, p ** r):
                        errs.append(f"{ch['id']}: value at a^{x} is not the Gaussian period")
                        break
        kernel = [i for i, val in enumerate(row) if _close(val, ch["degree"])]
        is_faithful = kernel == [0]
        if ch["faithful"] != is_faithful:
            errs.append(f"{ch['id']}: faithful flag {ch['faithful']} but kernel classes {kernel}")
        fld = ch["field"]
        if phi(fld["conductor"]) // len(fld["stabilizer"]) != ch["field_degree"]:
            errs.append(f"{ch['id']}: field degree disagrees with its conductor and stabilizer")
        if is_faithful:
            faithful += 1
            if ch["field_degree"] != want_field:
                errs.append(f"{ch['id']}: field degree {ch['field_degree']} != {want_field}")
    if faithful != faithful_count(q, p, n, r) or payload["faithful_count"] != faithful:
        errs.append(f"faithful count {payload['faithful_count']} != {faithful_count(q, p, n, r)}")
    return errs


def check_schur(argv, payload) -> list[str]:
    opts = parse_args(argv)
    grp = _group_of(opts)
    q, p, n, j, r = grp
    errs = _check_group(payload["group"], grp)
    index = schur_index(q, p, n, r)
    if (index == 1) != ((q - 1) % p ** n == 0):
        errs.append("benchmark index contradicts p^n | q-1")
    known = KNOWN_INDICES.get((q, p, n, r))
    if known is not None and known != index:
        errs.append(f"benchmark index {index} != known {known}")
    reports = payload["reports"]
    want_reports = faithful_count(q, p, n, r) if opts.get("all") else 1
    if len(reports) != want_reports:
        errs.append(f"{len(reports)} reports, expected {want_reports}")
    for rep in reports:
        if rep["global"] != index:
            errs.append(f"{rep['character']}: index {rep['global']} != {index}")
        local = {e["place"]: e["index"] for e in rep["local"]}
        if local.get("q") != index or any(v != 1 for pl, v in local.items() if pl != "q"):
            errs.append(f"{rep['character']}: local indices {local}")
        if not rep["divides_dimension"] or p ** r % index:
            errs.append(f"{rep['character']}: index does not divide the degree")
    return errs


def check_predict(argv, payload) -> list[str]:
    opts = parse_args(argv)
    grp = _group_of(opts)
    q, p, n, j, r = grp
    errs = _check_group(payload["group"], grp)
    index = schur_index(q, p, n, r)
    if payload["schur_modulus"] != index:
        errs.append(f"schur_modulus {payload['schur_modulus']} != {index}")
    forced = index > 1
    if payload["forced_divisibility"] != forced:
        errs.append("forced_divisibility is wrong")
    kinds = {s["kind"]: s for s in payload["statements"]}
    if not forced:
        if list(kinds) != ["no_forced_divisibility"]:
            errs.append(f"unforced report has statements {list(kinds)}")
        return errs
    want = {
        "rank_divisibility": {"modulus": index},
        "selmer_multiplicity": {"modulus": index},
        "tower_rank_divisibility": {
            "modulus": p ** (n - r) * (p - 1) * (q - 1),
            "faithful_count": faithful_count(q, p, n, r),
        },
        "dirichlet_twist_reformulation": {"psi_order": q * p ** (n - r), "base_degree": p ** r},
    }
    if set(kinds) != set(want):
        errs.append(f"statement kinds {sorted(kinds)}")
        return errs
    for kind, fields in want.items():
        st = kinds[kind]
        if not st["assuming"]:
            errs.append(f"{kind}: forced statement carries no assumption")
        for key, val in fields.items():
            if st.get(key) != val:
                errs.append(f"{kind}: {key} {st.get(key)} != {val}")
    return errs


def check_frobenius(argv, payload) -> list[str]:
    opts = parse_args(argv)
    q, p, n, j, r = _group_of(opts)
    v = int(opts["v"])
    errs = []
    pattern = payload["pattern"]
    if sum(pattern) != len(EXAMPLE_F1) - 1:
        errs.append(f"pattern {pattern} does not sum to 7")
    roots = poly_roots_mod(EXAMPLE_F1, v)
    if pattern.count(1) != roots:
        errs.append(f"pattern {pattern} has {pattern.count(1)} ones, the polynomial has {roots} roots mod {v}")
    y = cyclotomic_component(v, p, n)
    if payload["cyclotomic_component"] != y:
        errs.append(f"cyclotomic component {payload['cyclotomic_component']} != {y}")
    return errs


def check_euler(argv, payload) -> list[str]:
    opts = parse_args(argv)
    if opts.get("symbolic"):
        q, p, n, j, r = _group_of(opts)
        poly = payload["poly"]
        errs = []
        if len(poly) != 2 * p ** r + 1 or poly[0] != "1" or poly[-1] != f"v^{p ** r}":
            errs.append(f"symbolic factor {poly} is not 1 + ... + v^{p ** r} of degree {2 * p ** r}")
        if payload["cube_of_quadratic"]["is_cube"]:
            errs.append("symbolic factor reported as a cube of a quadratic")
        return errs
    curve = tuple(int(t) for t in opts["curve"].split(","))
    v = int(opts["v"])
    av = trace_of_frobenius(curve, v)
    want = [{"conductor": 1, "coeffs": [str(c)]} for c in (1, -av, v)]
    if payload["a_v"] != av or payload["poly"] != want:
        return [f"a_{v} {payload['a_v']} != {av} or factor {payload['poly']} != 1 - a T + v T^2"]
    return []


def good_primes(curve, p: int, q: int, X: int) -> list[int]:
    disc = curve_discriminant(*curve)
    return [
        v for v in range(3, X + 1)
        if is_prime(v) and v not in (p, q) and disc % v and field_is_unramified(v)
    ]


def check_series(argv, payload) -> list[str]:
    opts = parse_args(argv)
    q, p, n, j, r = _group_of(opts)
    curve = tuple(int(t) for t in opts["curve"].split(","))
    X = int(opts["X"])
    spec = opts.get("character", "trivial")
    an = payload["an"]
    if payload["X"] != X or len(an) != X:
        return [f"series has X = {payload['X']} and {len(an)} coefficients, expected {X}"]
    a = [0j] + [to_complex(c) for c in an]
    errs = []
    if a[1] != 1:
        errs.append(f"a_1 = {a[1]}")
    # smallest prime factors, then a_N against the product over prime powers
    spf = list(range(X + 1))
    for d in range(2, math.isqrt(X) + 1):
        if spf[d] == d:
            for m in range(d * d, X + 1, d):
                if spf[m] == m:
                    spf[m] = d
    for N in range(2, X + 1):
        t, prod = N, 1 + 0j
        while t > 1:
            v, pk = spf[t], 1
            while t % v == 0:
                t //= v
                pk *= v
            prod *= a[pk]
        if pk != N and not _close(a[N], prod, abs(prod)):
            errs.append(f"a_{N} = {a[N]:.6g} is not multiplicative ({prod:.6g})")
            break
    good = set(good_primes(curve, p, q, X))
    degree = p ** r if spec.startswith("ind:") else 1
    if spec == "trivial":
        chi = {v: 1 for v in good}
    elif spec.startswith("lin:"):
        e = int(spec[4:])
        chi = {v: cmath.exp(2j * cmath.pi * e * cyclotomic_component(v, p, n) / p ** n) for v in good}
    else:
        chi = None
    for v in range(2, X + 1):
        if spf[v] != v:
            continue
        if v not in good:
            if any(a[v ** k] != 0 for k in range(1, int(math.log(X, v) + 1e-9) + 1)):
                errs.append(f"bad prime {v} has a non-zero coefficient")
            continue
        if abs(a[v]) > 2 * degree * math.sqrt(v) + 1e-9:
            errs.append(f"|a_{v}| = {abs(a[v]):.6g} breaks the Ramanujan bound")
        if chi is None:
            continue
        av = trace_of_frobenius(curve, v)
        prev, cur, vk, k = 1, av, v, 1  # Hecke recursion for E, twisted by chi(v)^k
        while vk <= X:
            if not _close(a[vk], cur * chi[v] ** k, abs(cur)):
                errs.append(f"a_{vk} = {a[vk]:.6g}, expected {cur * chi[v] ** k:.6g}")
                break
            prev, cur, vk, k = cur, av * cur - v * prev, vk * v, k + 1
    return errs[:5]


def check_identity(argv, payload) -> list[str]:
    opts = parse_args(argv)
    q, p, n, j, r = _group_of(opts)
    curve = tuple(int(t) for t in opts["curve"].split(","))
    X = int(opts["X"])
    series, vc = payload["series_identity"], payload["virtual_character_identity"]
    errs = []
    if not series["holds"] or series["first_mismatch"] is not None or not vc["equal"]:
        errs.append("the tower identity does not hold")
    primes = len(good_primes(curve, p, q, X))
    if series["X"] != X or series["primes_used"] != primes:
        errs.append(f"X = {series['X']}, {series['primes_used']} primes used, expected {primes}")
    return errs


def check_sweep(argv, payload) -> list[str]:
    opts = parse_args(argv)
    max_order = int(opts["max"])
    orders = valid_group_orders(max_order)
    errs = []
    if not payload["all_consistent"] or payload["inconsistent"]:
        errs.append("sweep reports inconsistent rows")
    if payload["groups"] != len(orders):
        errs.append(f"{payload['groups']} groups swept, expected {len(orders)}")
    if opts.get("tables"):
        want = sum(1 for o in orders if o <= int(opts["table-max"]))
        if payload["table_checked"] != want:
            errs.append(f"{payload['table_checked']} tables checked, expected {want}")
    return errs


CHECKS = {
    "table": check_table,
    "schur": check_schur,
    "predict": check_predict,
    "frobenius": check_frobenius,
    "euler": check_euler,
    "series": check_series,
    "identity": check_identity,
    "sweep": check_sweep,
}


def check(argv, payload) -> list[str]:
    return CHECKS[argv[0]](list(argv), payload)
