"""The three benchmark workloads, each a list of schurgate CLI argument lists.

Every list is a pure function of the workload name and the seed.  The seed
varies what the work is about (curves, characters, primes, group
presentations, which small groups are sampled) but not how much work there
is, so runs with different seeds measure the same cost.
"""

from __future__ import annotations

import random
from functools import lru_cache

from checks import curve_discriminant, field_is_unramified, is_prime, mult_order, vp

WORKLOADS = ("tables", "lseries", "reports")

# (q, p, n) for `table`; each gets a seeded j with the largest action.
TABLE_GROUPS = (
    (7, 3, 1), (7, 3, 2), (7, 3, 3), (13, 3, 2), (11, 5, 2),
    (19, 3, 3), (19, 3, 4), (31, 5, 2),
)
TABLE_SWEEP = ("sweep", "--max", "500", "--tables", "--table-max", "150")

# series lengths: X in the low thousands for n = 1; n = 2 twists pay for
# eigenvalue multiplicities at every prime, so they run shorter.
SERIES_X = {1: 1000, 2: 50}
IDENTITY_X = {1: 300, 2: 30}

# (q, p, n) for `reports`: every group below has forced divisibility, two
# sampled groups do not; all are small enough that `predict` stays near
# start-up cost.
REPORT_FORCED = ((7, 3, 2), (7, 3, 3), (11, 5, 2), (13, 3, 2))
REPORT_UNFORCED = (
    (7, 3, 1), (11, 5, 1), (13, 3, 1), (19, 3, 1), (19, 3, 2), (29, 7, 1),
    (31, 3, 1), (31, 5, 1), (37, 3, 1), (41, 5, 1), (43, 3, 1), (43, 7, 1),
    (61, 3, 1), (61, 5, 1), (73, 3, 1), (79, 3, 1),
)
SYMBOLIC_Q = (7, 13, 19)  # `euler --symbolic` on C_q x| C_{3^n} with a degree-3 action


def _seeded_j(rng: random.Random, q: int, p: int, n: int) -> int:
    """A random j of order p^min(n, v_p(q-1)) mod q: an isomorphic presentation."""
    order = p ** min(n, vp(q - 1, p))
    return rng.choice([x for x in range(2, q) if mult_order(x, q) == order])


def _group_args(q: int, p: int, n: int, j: int) -> list[str]:
    return ["-q", str(q), "-p", str(p), "-n", str(n), "-j", str(j)]


@lru_cache(maxsize=None)
def _series_primes(X: int) -> tuple[int, ...]:
    """Primes 5 <= v <= X, v != 7, at which the degree-7 field is unramified."""
    return tuple(v for v in range(5, X + 1) if is_prime(v) and v != 7 and field_is_unramified(v))


def random_curve(rng: random.Random, X: int = 0) -> str:
    """A seeded curve with good reduction at every prime a series up to X uses,
    so that the number of primes, and with it the work, does not depend on the seed."""
    while True:
        coeffs = [rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-1, 1),
                  rng.randint(-30, 30), rng.randint(-30, 30)]
        disc = curve_discriminant(*coeffs)
        if disc and all(disc % v for v in _series_primes(X)):
            return ",".join(map(str, coeffs))


def _random_good_prime(rng: random.Random, lo: int, hi: int, curve: str | None = None) -> int:
    disc = curve_discriminant(*map(int, curve.split(","))) if curve else 1
    while True:
        v = rng.randrange(lo, hi)
        if is_prime(v) and v not in (3, 7) and disc % v and field_is_unramified(v):
            return v


def tables(rng: random.Random) -> list[list[str]]:
    jobs = [["table", *_group_args(q, p, n, _seeded_j(rng, q, p, n))] for q, p, n in TABLE_GROUPS]
    return jobs + [list(TABLE_SWEEP)]


def lseries(rng: random.Random) -> list[list[str]]:
    jobs = []
    for n in (1, 2):
        pn, pmr = 3 ** n, 3 ** (n - 1)
        X = str(SERIES_X[n])
        e = rng.choice([k for k in range(1, pn) if k % 3])
        u = rng.randrange(1, 7)
        w = rng.choice([k for k in range(1, pmr) if k % 3]) if pmr > 1 else 0
        for character, extra in (("trivial", []), (f"lin:{e}", []), (f"ind:{u},{w}", ["--pick-first"])):
            jobs.append(["series", f"--curve={random_curve(rng, SERIES_X[n])}", "-n", str(n), "-X", X,
                         "--character", character, *extra])
    for n in (1, 2):
        jobs.append(["identity", f"--curve={random_curve(rng, IDENTITY_X[n])}", "-n", str(n),
                     "-X", str(IDENTITY_X[n])])
    return jobs


def reports(rng: random.Random) -> list[list[str]]:
    groups = list(REPORT_FORCED) + rng.sample(REPORT_UNFORCED, 2)
    jobs = []
    for q, p, n in groups:
        g = _group_args(q, p, n, _seeded_j(rng, q, p, n))
        jobs += [["schur", *g], ["schur", *g, "--all"], ["predict", *g]]
    # the symbolic factor needs a degree-3 character; its cost grows with q
    for q in SYMBOLIC_Q:
        n = rng.randint(1, 3)
        j = rng.choice([x for x in range(2, q) if mult_order(x, q) == 3])
        jobs.append(["euler", "--order7-class", "H", *_group_args(q, 3, n, j), "--symbolic"])
    for n in (1, 2, 3):
        g = _group_args(7, 3, n, _seeded_j(rng, 7, 3, n))
        jobs.append(["frobenius", *g, "-v", str(_random_good_prime(rng, 11, 5000))])
    for _ in range(3):
        curve = random_curve(rng)
        v = _random_good_prime(rng, 11, 3000, curve)
        jobs.append(["euler", f"--curve={curve}", "-v", str(v), "--trivial", "-n", "1"])
    return jobs + [["sweep", "--max", "10000"]]


def build(workload: str, seed: int) -> list[list[str]]:
    """The job argument lists of one pass (without --format json)."""
    return {"tables": tables, "lseries": lseries, "reports": reports}[workload](random.Random(seed))
