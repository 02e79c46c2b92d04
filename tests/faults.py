"""Planted faults: one-line changes to the package that the tests must notice.

    python3 tests/faults.py --check    plant each fault in a copy of the tree and run the checks there

Each entry of FAULTS is (module, exact old text, new text, why): the old text
occurs exactly once in src/schurgate/<module>.py, and the new text in its
place is a fault.  --check copies the tree (without .git) to a temporary
directory for each fault, plants it, then runs `pytest -x -q -p no:cacheprovider`
(less the catalogue's own test, CATALOGUE_TEST) and `tests/golden.py --check`
there.  It prints one row per fault: the first failing test, or "SURVIVED",
and the number of golden commands whose output changed.  It exits 1 when a
fault survives tier-1 and EQUIVALENT gives no proof that it changes nothing.
A fault costs the tests up to its first failure plus one golden check, about
a minute on 2 cores.
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
    # planted by hand when the mechanism was written, and kept here since
    Fault("characters", "_gauss_period(G, u * x % G.q)", "_gauss_period(G, pow(u, -1, G.q) * x % G.q)",
          "_induced_character reads u^-1 x for u x"),
    Fault("lseries", "@lru_cache(maxsize=1 << 12)\ndef _value_at_power(",
          "@lambda f, c={}: lambda at, G, rep, s: c[G, rep, s] if (G, rep, s) in c else "
          "c.setdefault((G, rep, s), f(at, G, rep, s))\ndef _value_at_power(",
          "_value_at_power keyed without the evaluator"),
    Fault("lseries", "@lru_cache(maxsize=1 << 12)\ndef _value_at_power(",
          "@lambda f, c={}: lambda at, G, rep, s: c[at, G, s] if (at, G, s) in c else "
          "c.setdefault((at, G, s), f(at, G, rep, s))\ndef _value_at_power(",
          "_value_at_power keyed without the class"),
    Fault("cli_local", 'f"v = {args.v}: pattern', 'f"v = {args.v}; pattern',
          "the frobenius text separator"),
    Fault("cli", 'if value == "--" or not eq and', "if not eq and",
          'the exact parser reads "=--" as a value'),
    Fault("cli", 'if kwargs is None or eq and "action" in kwargs:', "if kwargs is None:",
          "the exact parser gives a flag a value"),
    Fault("cli", 'value == "--" or not eq and value.startswith("-"):', 'value == "--":',
          "the exact parser reads a value that starts with -"),
    Fault("cli", "return None if missing else SimpleNamespace(", "return SimpleNamespace(",
          "the exact parser lets a required option go missing"),
    Fault("cli", 'if value not in kwargs.get("choices", (value,)):', "if False:",
          "the exact parser reads any --format"),
    Fault("cli", 'print(f"internal invariant violation: {exc}", file=sys.stderr)\n        return 3',
          'print(f"internal invariant violation: {exc}", file=sys.stderr)\n        return 2',
          "an invariant violation exits 2"),
    Fault("cli", 'inner = nl + "  "', 'inner = nl + " "',
          "_dumps indents by one space"),
    # the shared index check, on both of its callers, and the cap on the faithful walk
    Fault("schur", "if G.pr % index != 0:", "if G.pn % index != 0:",
          "the index is checked against p^n, not the dimension p^r"),
    Fault("cli_tables", "        _check_index(G, idx)", "        pass",
          "the sweep writes rows without the index check"),
    Fault("predictions", "if count > MAX_FAITHFUL_WALK:", "if count > 2 * MAX_FAITHFUL_WALK:",
          "the count check walks up to twice its cap"),
    # one in each module that had none
    Fault("__init__", '"elliptic": "EllipticCurveQ EulerFactor a_v",', '"elliptic": "EulerFactor EllipticCurveQ a_v",',
          "two exports swap places in __all__"),
    Fault("cli_groups", "psis = faithful_descriptors(G) if args.all else [one_faithful_descriptor(G)]",
          "psis = [one_faithful_descriptor(G)]", "schur --all reports one character"),
    Fault("cli_local", "cls = datum.candidates[0]", "cls = datum.candidates[-1]",
          "--pick-first takes the last candidate"),
    Fault("cli_series", "range(1, min(series.X, 30) + 1)", "range(1, min(series.X, 30))",
          "the series text shows 29 coefficients"),
    Fault("identity", "if m % (pk // p) == 0 else 0", "if m % (pk // p) == 0 else 1",
          "_ramanujan_sum is 1 off the p^{k-1} multiples"),
    Fault("symbolic", "k = (i1 + i2, j1 + j2)", "k = (i1 + i2, j1 + i2)",
          "SymbolicPoly.__mul__ reads the v-degree of a product wrong"),
    Fault("tables", "pow(k, G.pr, G.q) == 1", "pow(k, G.p, G.q) == 1",
          "_eta_field takes H of order p, not p^r"),
    Fault("schur", "e_val = min(r, V)", "e_val = min(r, V0)",
          "qadic_class_order caps e by v_p(q - 1)"),
]

# faults that change no output, each with its proof
EQUIVALENT: dict[int, str] = {
    34: "j has order p^r mod q, so p^r | q - 1 and r <= V0 <= V: min(r, V0) = min(r, V) = r on every group",
}


def _planted(fault: Fault, tree: Path) -> None:
    """Replace the fault's old text by its new text in the copy at tree."""
    path = tree / "src" / "schurgate" / f"{fault.module}.py"
    path.write_text(path.read_text().replace(fault.old, fault.new))


# reads the catalogue against the source, where a planted fault's old text is gone by construction:
# run in a planted copy, it would fail for every fault that no real test kills
CATALOGUE_TEST = "tests/test_package.py::test_each_planted_fault_matches_its_module_once"


def _first_failure(tree: Path, env: dict) -> str | None:
    """The first test that tier-1, less CATALOGUE_TEST, fails in tree; None when it passes."""
    out = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          "--deselect", CATALOGUE_TEST], capture_output=True, text=True, cwd=tree, env=env)
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
