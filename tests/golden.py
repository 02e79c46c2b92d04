"""The golden set: every CLI command whose output is pinned, and one checker.

    python3 tests/golden.py --check    rerun every manifest line, list what differs
    python3 tests/golden.py --record   rewrite tests/golden/manifest.jsonl

Each manifest line holds a command's argv, the sha256 of its stdout and of its
stderr, and its exit code, from a fresh `python -m schurgate.cli` process.
--record runs with PYTHONHASHSEED=0 and --check with PYTHONHASHSEED=1, so
output that depends on hash order shows as a mismatch.  Run --check before
claiming that a change keeps every output; --record only for an intended
change of output, naming each changed argv in CHANGES.md.  tests/test_cli.py
reruns some lines in process and checks that the manifest lists commands()
in order.  Both modes run one process per CPU at a time and keep the
manifest order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "manifest.jsonl"

# Commands that tests/test_cli.py reruns in process, each pinned since the
# change named above its list; their digests were recorded then, and the
# manifest keeps them.  So does it for the README block: its JSON since the
# kernel moved to Galois descent over sparse Phi_m, its text since `schur`
# built its text lines from the encoded reports.

# y^2 = x^3 - x: since the local data moved to integer Fourier inversion and the
# multiplicative sieve (the first four), since every local factor read chi(g^s)
# for all s below the order of g (the next three), since every character was a
# full table of class values (the next two), and since the rhs of the identity
# was a value-wise sum of the faithful characters (the last four)
SERIES = [
    f"{command} --curve 0,0,0,-1,0 --format json" for command in (
        "series -n 2 -X 200 --character ind:1,1 --pick-first",
        "series -n 3 -X 60 --character lin:2",
        "identity -n 2 -X 120",
        "series -n 1 -X 8000",
        "series -n 8 -X 100",
        "series -n 4 -X 300 --character lin:5",
        "identity -n 3 -X 100",
        "series -n 9 -X 100 --character lin:1",
        "series -n 6 -X 100 --character ind:1,2 --pick-first",
        "identity -n 1 -X 100",
        "identity -n 2 -X 100",
        "identity -n 4 -X 100",
        "identity -n 5 -X 100",
    )
]
# twisted Euler factors in text, since every character was a full table of class values
EULER = [
    "euler --order7-class H -q 7 -p 3 -n 9 --symbolic",
    "euler --curve 0,0,0,-1,0 -v 53 -n 6 --pick-first",
    "euler --curve 0,0,0,-1,0 -v 53 -n 7 --pick-first",
]
# the two largest benchmark groups, since values moved to (den, ints) storage
TABLE = [
    "table -q 31 -p 5 -n 2 -j 16 --format json",
    "table -q 31 -p 5 -n 2 -j 16 --format text",
    "table -q 73 -p 3 -n 2 -j 8 --format json",
]
# the largest n whose p^n has at most 4,300 digits, since before n was capped
DIGIT_LIMIT = [
    "schur -q 7 -p 3 -n 9012 --format json",
    "schur -q 7 -p 3 -n 9012 --format text",
    "schur -q 19 -p 3 -n 9012 --format json",
    "schur -q 11 -p 5 -n 6151 --format json",
    "schur -q 11 -p 5 -n 6151 --format text",
]
# since orders were found by walking them: pins details.f and v_p_of_N
SWEEP = "sweep --max 20000 --verbose-rows --format json"

# euler --symbolic on C_q x| C_{3^n} with j of order 3, at the class of a, of
# the least a^x outside the orbit of a, and of a^0 (refused)
SYMBOLIC_Q = (7, 13, 19, 31, 37, 1009)
# the twisted factors on y^2 = x^3 - x at good primes
TWISTED_V = (5, 11, 13, 53, 101, 307)

# one command per exit-2 message
REFUSALS = [
    "series --curve 0,0,0,-1,0 -q 1009 -p 3 -n 1 -X 100 --character ind:1,0 --pick-first",  # field degree
    "euler --curve 0,0,0,-1,0 -v 53 -n 40 --pick-first",  # conductor cap, in zeta
    "euler --symbolic -q 1000003 -p 3 -n 1 --order7-class H",  # conductor cap, in Gaussian period
    "schur -q 7 -p 3 -n 9013",  # digit limit
    "predict -q 7 -p 3 -n 3000",  # the faithful walk of the count check
    "identity --curve 0,0,0,-1,0 -n 1 -X 0",  # X bounds
    "series --curve 0,0,0,-1,0 -n 1 -X 100001",
    "euler --curve 0,0,0,-1,0 -v 1000003 --trivial -n 1",  # v bounds
    "euler --curve 0,0,0,-1,0 -v 9 --trivial -n 1",
    "euler --curve nope -v 5 --trivial -n 1",  # bad curve
    "euler --curve 0,0,0,0,0 -v 5 --trivial -n 1",
    "series --curve 0,0,0,-1,0 -n 1 -X 10 --field x",  # field spec
    "series --curve 0,0,0,-1,0 -n 1 -X 10 --character ind:1",  # character spec
    "euler --symbolic -n 1 --order7-class foo",  # --order7-class
]
# the factored-pattern refusal, at v = 13 and at the series' first good prime; the
# "=" form reads a value that starts with "-"
PATTERN = [
    "frobenius -q 7 -p 3 -n 1 --field=-2,0,0,0,0,0,0,1 -v 13",
    "series --curve 0,0,0,-1,0 -n 1 -X 30 --field=-2,0,0,0,0,0,0,1",
]
# what the parser itself prints: help, and its exit-2 usage errors
PARSER = [
    "--help",
    "table --help",
    *(f"{command} --help" for command in ("schur", "predict", "frobenius", "euler", "series", "identity", "sweep")),
    "bogus -q 7 -p 3 -n 1",  # unknown command
    "schur -q 7 -p 3 -n 1 --bogus",  # unrecognized argument
    "schur -q 7 -p 3",  # missing -n
]
# well-formed lines in other spellings that argparse reads
SPELLINGS = [
    "series --curve 0,0,0,-1,0 -n 1 -X 30 --char lin:1",  # an abbreviation
    "schur -q7 -p3 -n1",  # attached short values
    "schur -q=7 -p=3 -n=1",
    "schur -q 7 -p 3 -n 1 --format=json",
    "series --curve 0,0,0,-1,0 -n 1 -X 10 -X 30",  # a repeated option keeps its last value
    "schur -q 7 -p 3 -n 1 -j -5",  # a negative value
]
# an X that is a prime power v^k, the last term of lseries._kmax: 243 = 3^5, where v = p is
# not a good prime, and 125 = 5^3; an identity prints no coefficient, so only the JSON series
# to 125 shows a_125, which a kmax one short would make 0
PRIME_POWER_X = [
    "series --curve 0,0,0,-1,0 -n 1 -X 243",
    "identity --curve 0,0,0,-1,0 -n 1 -X 125",
    "series --curve 0,0,0,-1,0 -n 1 -X 125",
]
# the faithful walk: schur --all lists every faithful descriptor in order (p = 5, n - r = 2)
# and predict counts them (p = 3, n - r = 7)
WALK = [
    "schur -q 11 -p 5 -n 3 --all",
    "predict -q 7 -p 3 -n 8",
]


def readme() -> list[str]:
    """The commands of the README's code blocks, without the program name."""
    commands, fenced = [], False
    for line in (ROOT / "README.md").read_text().splitlines():
        fenced ^= line.startswith("```")
        if fenced and line.startswith("schurgate "):
            commands.append(shlex.join(shlex.split(line, comments=True)[1:]))
    return commands


def _workload_jobs() -> list[list[str]]:
    """Every job of bench/workloads.py for seeds 1 to 3."""
    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)  # workloads imports its sibling module checks
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [job for name in workloads.WORKLOADS for s in (1, 2, 3) for job in workloads.build(name, s)]


def _symbolic_grid() -> list[str]:
    grid = []
    for q in SYMBOLIC_Q:
        j = next(x for x in range(2, q) if pow(x, 3, q) == 1)
        H = {1, j, j * j % q}
        for n in (1, 2, 3):
            for cls in ("H", min(set(range(1, q)) - H), 0):
                grid.append(f"euler --order7-class {cls} -q {q} -p 3 -n {n} -j {j} --symbolic")
    return grid


def _both_formats(argvs) -> list[list[str]]:
    return [[*argv, "--format", fmt] for argv in argvs for fmt in ("json", "text")]


def commands() -> list[list[str]]:
    """Every golden argv, once each, in a fixed order."""
    twisted = [f"euler --curve 0,0,0,-1,0 -v {v} -n {n} --pick-first" for v in TWISTED_V for n in (1, 2, 3)]
    argvs = [
        *_both_formats(map(shlex.split, readme())),
        *_both_formats(_workload_jobs()),
        *map(shlex.split, [*SERIES, *EULER, *TABLE, *DIGIT_LIMIT, SWEEP]),
        *_both_formats(map(shlex.split, _symbolic_grid() + twisted)),
        *(shlex.split(f"{command} --format json") for command in REFUSALS),
        *_both_formats(map(shlex.split, PATTERN)),
        *map(shlex.split, PARSER),
        *map(shlex.split, SPELLINGS),
        *_both_formats(map(shlex.split, PRIME_POWER_X)),
        *_both_formats(map(shlex.split, WALK)),
    ]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def read_manifest() -> list[dict]:
    with open(MANIFEST) as fh:
        return [json.loads(line) for line in fh]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], hash_seed: int) -> dict:
    """One command in a fresh process, as a manifest line."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "schurgate.cli", *argv], capture_output=True, env=env,
                         cwd=ROOT, timeout=60)
    return {"argv": argv, "stdout": _sha256(out.stdout), "stderr": _sha256(out.stderr), "exit": out.returncode}


def _run_all(argvs: list[list[str]], hash_seed: int) -> list[dict]:
    """_run on every argv, one process per CPU at a time, in the order given."""
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        return list(pool.map(lambda argv: _run(argv, hash_seed), argvs))


def record() -> int:
    lines = _run_all(commands(), 0)
    MANIFEST.write_text("".join(json.dumps(line) + "\n" for line in lines))
    print(f"recorded {len(lines)} commands in {MANIFEST.relative_to(ROOT)}")
    return 0


def check() -> int:
    want = read_manifest()
    bad = 0
    for old, new in zip(want, _run_all([line["argv"] for line in want], 1)):
        diff = [f"{key} {old[key]} -> {new[key]}" for key in ("exit", "stdout", "stderr") if old[key] != new[key]]
        if diff:
            bad += 1
            print(shlex.join(old["argv"]), *diff, sep="\n  ")
    print(f"{bad} of {len(want)} commands differ from {MANIFEST.relative_to(ROOT)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="rerun every manifest line and list what differs")
    mode.add_argument("--record", action="store_true", help="rewrite the manifest from commands()")
    args = ap.parse_args(argv)
    return record() if args.record else check()


if __name__ == "__main__":
    sys.exit(main())
