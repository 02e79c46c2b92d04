"""Planted faults: one-line changes to the package that the tests must notice.

    python3 tests/faults.py --check    plant each fault in a copy of the tree and run the checks there

Each entry of FAULTS is (module, exact old text, new text, why): the old text
occurs exactly once in src/schurgate/<module>.py, and the new text in its
place is a fault.  --check copies the tree (without .git) to a temporary
directory for each fault, plants it, then runs `pytest -x -q -p no:cacheprovider`
and `tests/golden.py --check` there.  It prints one row per fault: the first
failing test, or "SURVIVED", and the number of golden commands whose output
changed.  It exits 1 when a fault survives tier-1 and EQUIVALENT gives no
proof that it changes nothing.  A fault costs the tests up to its first
failure plus one golden check, about a minute on 2 cores.
tests/test_package.py checks that every old text matches its module once,
without running anything.  Whoever adds a mechanism adds its faults here.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schurgate"


class Fault(NamedTuple):
    module: str
    old: str
    new: str
    why: str


FAULTS = [
    Fault("lseries", "    while t <= X:", "    while t < X:",
          "_kmax one short when v^k = X"),
    Fault("elliptic", "    a = (lo + m) // (2 * m + 1)\n", "    a = (lo + m) // (2 * m + 1) + 1\n",
          "Shanks-Mestre giant steps start one block late"),
    Fault("lseries", "v != G.p and v != G.q and bad % v", "v != G.q and bad % v",
          "good_primes keeps v = p"),
    Fault("lseries", "acc if sign == k == 1 else", "acc if k == 1 else",
          "_newton skips the sign of c_1"),
    Fault("lseries", "for d in range(isqrt(X), 1, -1):", "for d in range(isqrt(X) - 1, 1, -1):",
          "_spf skips d = isqrt(X)"),
    Fault("characters", "_zeta(pmr, w * (y // pr) % pmr)", "_zeta(pmr, w * y % pmr)",
          "_induced_character reads w y for w (y / p^r)"),
    Fault("elliptic", "    while centre - m <= hi:", "    while centre + m <= hi:",
          "the giant-step loop stops a block short"),
    Fault("frobenius", "pow(unit * (p - 1), -1, pn)", "pow(unit, -1, pn)",
          "cyclotomic_exponent drops the (p - 1) factor"),
    Fault("groups", "self.pr if rep.x else 1", "self.pr if rep.x else 0",
          "a class of size 0"),
    Fault("predictions", "return (G.pn // G.pr) * (G.p - 1) * (G.q - 1)", "return G.pn * (G.p - 1) * (G.q - 1)",
          "the tower modulus without /p^r"),
    Fault("cyclotomic", "    if m > MAX_CONDUCTOR:", "    if m >= MAX_CONDUCTOR:",
          "the conductor cap refuses the cap itself"),
    Fault("groups", "psi.w % G.p != 0", "psi.w % G.q != 0",
          "psi_is_faithful tests w mod q, not mod p"),
    Fault("groups", "for u in _psi_orbit_reps(G) for w in ws)", "for w in ws for u in _psi_orbit_reps(G))",
          "the descriptor walk runs w before u"),
]

# faults that change no output, each with its proof; none so far
EQUIVALENT: dict[int, str] = {}


def _planted(fault: Fault, tree: Path) -> None:
    """Replace the fault's old text by its new text in the copy at tree."""
    path = tree / "src" / "schurgate" / f"{fault.module}.py"
    path.write_text(path.read_text().replace(fault.old, fault.new))


def _first_failure(tree: Path, env: dict) -> str | None:
    """The first test that tier-1 fails in tree, None when it passes."""
    out = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                         capture_output=True, text=True, cwd=tree, env=env)
    if out.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out.stdout, re.M)  # a node id may hold spaces
    return failed.group(1) if failed else f"pytest exit {out.returncode}"


def _golden_changed(tree: Path, env: dict) -> int:
    """How many golden commands print something else in tree."""
    out = subprocess.run([sys.executable, "tests/golden.py", "--check"], capture_output=True, text=True,
                         cwd=tree, env=env)
    return int(re.search(r"^(\d+) of \d+ commands differ", out.stdout, re.M).group(1))


def check() -> int:
    survivors = 0
    print(f"{'fault':<60} {'first failing test':<88} golden")
    for i, fault in enumerate(FAULTS):
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
            _planted(fault, tree)
            env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            failed = _first_failure(tree, env)
            changed = _golden_changed(tree, env)
        if failed is None and i not in EQUIVALENT:
            survivors += 1
        verdict = failed or ("equivalent" if i in EQUIVALENT else "SURVIVED")
        print(f"{f'{i:2} {fault.module}: {fault.why}':<60} {verdict:<88} {changed}", flush=True)
    print(f"{len(FAULTS) - survivors} of {len(FAULTS)} faults killed or equivalent")
    return 1 if survivors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", required=True,
                    help="plant each fault in a copy of the tree, run tier-1 and the golden set")
    ap.parse_args(argv)
    return check()


if __name__ == "__main__":
    sys.exit(main())
