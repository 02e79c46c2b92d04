"""The reach check: every function of the package that the golden set runs, or a reason to keep it.

    python3 tests/reach.py --check    run the manifest in process, list each function never entered

--check installs a profiler (sys.setprofile) before it imports schurgate.cli,
then runs every argv of tests/golden/manifest.jsonl through cli.main in this
one process, with its output discarded.  Every `def` under src/schurgate,
named by module and qualified name (``lseries._kmax``,
``cyclotomic.CyclotomicNumber.inverse``, ``characters._induced_character.<locals>.at``),
that no command entered is listed.  It exits 1 when an unreached function has
no entry in KEPT, or when a KEPT entry was reached or no longer exists.  So a
function the CLI never runs is deleted, moved to tests/oracles.py, reached by
a new golden command, or kept here with its reason.  It takes about 20 s in
one process.  tests/test_package.py checks that each KEPT name still exists,
without running a command.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schurgate"
MANIFEST = ROOT / "tests" / "golden" / "manifest.jsonl"

_TRACER = "bench/tracer.py wraps it by name (KERNEL_METHODS)"
_EXPORT = "one of the 48 names of schurgate.__all__"
_REPR = "the repr of a value, for a reader at the prompt"

# the functions no golden command enters, each with why it stays
KEPT = {
    "cli.run": "the console entry point, which golden commands run in a subprocess of their own",
    "schurgate.__getattr__": "the lazy package namespace: the CLI imports the modules themselves",
    "schurgate.__dir__": "the lazy package namespace: the CLI imports the modules themselves",
    "characters.trivial_character": _EXPORT,
    "groups.subgroup_X": _EXPORT,
    "tables.is_faithful": _EXPORT,
    "schur._violation": "an error path: the message of an internal fault that no command reaches",
    "elliptic.EllipticCurveQ.__str__": "names the curve in the message of an internal fault that no command "
                                       "reaches",
    "cyclotomic.CyclotomicNumber.inverse": _TRACER,
    "cyclotomic.CyclotomicNumber.__truediv__": _TRACER,
    "cyclotomic.CyclotomicNumber.__rtruediv__": _TRACER,
    "cyclotomic.CyclotomicNumber.__pow__": _TRACER,
    "cyclotomic.CyclotomicNumber.__rsub__": _TRACER,
    "cyclotomic.CyclotomicNumber.__init__": "the public constructor from rational coordinates",
    "cyclotomic.CyclotomicNumber.coeffs": "the public read of rational coordinates",
    "cyclotomic._fmt": "prints a coordinate with a denominator: every value a command prints is an "
                       "algebraic integer, but an API value such as 1/3 is not",
    "cyclotomic.CyclotomicNumber.__repr__": _REPR,
    "characters.Character.__repr__": _REPR,
    "tables.AbelianField.__repr__": _REPR,
}


def _module(path: str | Path) -> str:
    """The name a function's module goes by here: its file's stem, "schurgate" for __init__.py."""
    stem = Path(path).stem
    return "schurgate" if stem == "__init__" else stem


def defined() -> dict[str, str]:
    """Every def under src/schurgate as {"module.qualname": "file:line"}, qualname as co_qualname spells it."""
    found = {}

    def walk(node, module: str, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found[f"{module}.{name}"] = f"{path.relative_to(ROOT)}:{child.lineno}"
                walk(child, module, name + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".", path)
            else:
                walk(child, module, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), _module(path), "", path)
    return found


def reached(argvs: list[list[str]]) -> set[str]:
    """The "module.qualname" of every package function that some argv enters, run in this process."""
    codes = set()
    prefix = str(PACKAGE) + os.sep

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path.insert(0, str(PACKAGE.parent))
    sys.setprofile(profile)  # before the import, so that what importing runs counts
    try:
        from schurgate.cli import main

        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    main(list(argv))
                except SystemExit:  # argparse's help and usage errors
                    pass
    finally:
        sys.setprofile(None)
    return {f"{_module(c.co_filename)}.{c.co_qualname}" for c in codes if c.co_filename.startswith(prefix)}


def check() -> int:
    argvs = [json.loads(line)["argv"] for line in MANIFEST.read_text().splitlines()]
    where = defined()
    unreached = sorted(set(where) - reached(argvs))
    bad = [f"{where[name]}: {name} is never entered and has no reason in KEPT"
           for name in unreached if name not in KEPT]
    bad += [f"KEPT names {name}, which {'no longer exists' if name not in where else 'a command enters'}"
            for name in KEPT if name not in unreached]
    for line in bad:
        print(line)
    print(f"{len(where)} functions: {len(where) - len(unreached)} entered by the {len(argvs)} golden commands, "
          f"{len(unreached)} not; {len(bad)} problems listed above")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", required=True,
                    help="run the manifest in process and list each function never entered")
    ap.parse_args(argv)
    return check()


if __name__ == "__main__":
    sys.exit(main())
