"""What the package and each CLI command import, and the lazy package namespace."""

import ast
import importlib
import importlib.util
import pathlib
import subprocess
import sys

import pytest

import schurgate

ARITHMETIC = {"schurgate.elliptic", "schurgate.frobenius", "schurgate.lseries"}
INTROSPECTION = {"dataclasses", "inspect"}
# the kernel keeps a rational as an integer pair, so no value job needs these
RATIONALS = {"fractions", "decimal"}
# what a closed-form answer never needs: the kernel, the tables and their imports
VALUE_LAYER = {"schurgate.cyclotomic", "schurgate.characters", "fractions", "decimal", "json"}

# a fresh interpreter runs one command and prints the modules it loaded
# (those that site loaded at start-up are not the package's doing)
PROBE = """
import sys
before = set(sys.modules)
import os
from schurgate.cli import main
assert main([*sys.argv[1:], "--out", os.devnull]) == 0
print(*sorted(set(sys.modules) - before))
"""


def _loaded_after(*argv) -> set[str]:
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                         timeout=30, check=True)
    return set(out.stdout.split())


def test_import_schurgate_loads_no_submodule():
    probe = "import sys, schurgate; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert not {m for m in out.stdout.split() if m.startswith("schurgate.")}


@pytest.mark.parametrize("argv", [
    ["schur", "-q", "7", "-p", "3", "-n", "2"],
    ["predict", "-q", "7", "-p", "3", "-n", "2"],
    ["table", "-q", "7", "-p", "3", "-n", "1"],
    ["sweep", "--max", "200"],
], ids=lambda argv: argv[0])
def test_group_commands_leave_the_arithmetic_side_out(argv):
    loaded = _loaded_after(*argv)
    if argv[0] == "table":
        assert not loaded & {"schurgate.schur", "schurgate.predictions"}
    else:
        assert "schurgate.schur" in loaded
    assert not loaded & (ARITHMETIC | INTROSPECTION)


def test_untwisted_euler_loads_only_the_curve_and_the_kernel():
    loaded = _loaded_after("euler", "--curve", "0,0,0,-1,0", "-v", "5", "--trivial", "-n", "1")
    package = {m for m in loaded if m.startswith("schurgate")}
    assert package == {"schurgate", "schurgate.cli", "schurgate.cli_local", "schurgate.groups",
                       "schurgate.elliptic", "schurgate.cyclotomic"}, sorted(package)
    assert not loaded & (INTROSPECTION | RATIONALS)


@pytest.mark.parametrize("argv", [
    ["frobenius", "-q", "7", "-p", "3", "-n", "2", "-v", "53"],
    ["euler", "--order7-class", "H", "-q", "7", "-p", "3", "-n", "2", "--symbolic"],
    ["euler", "--curve", "0,0,0,-1,0", "-v", "53", "-n", "2", "--pick-first"],
    ["euler", "--curve", "0,0,0,-1,0", "-v", "53", "-n", "2", "--pick-first", "--format", "json"],
    ["series", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30"],
    ["series", "--curve", "0,0,0,-1,0", "-n", "2", "-X", "30", "--character", "ind:1,1", "--pick-first",
     "--format", "json"],
    ["identity", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30"],
    ["identity", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30", "--format", "json"],
], ids=lambda argv: "-".join(argv[:2] + [a for a in argv[-1:] if a in ("--pick-first", "json")]))
def test_arithmetic_commands_load_no_introspection(argv):
    loaded = _loaded_after(*argv)
    if "--symbolic" in argv:  # the symbolic factor needs neither the curve nor Frobenius
        package = {m for m in loaded if m.startswith("schurgate")}
        assert package == {"schurgate", "schurgate.cli", "schurgate.cli_local", "schurgate.groups",
                           "schurgate.cyclotomic", "schurgate.characters", "schurgate.lseries",
                           "schurgate.symbolic"}, sorted(package)
    else:
        assert "schurgate.frobenius" in loaded
    assert not loaded & (INTROSPECTION | RATIONALS), sorted(loaded & (INTROSPECTION | RATIONALS))


@pytest.mark.parametrize("argv", [
    ["schur", "-q", "19", "-p", "3", "-n", "4"],
    ["schur", "-q", "7", "-p", "3", "-n", "2", "--all"],
    ["predict", "-q", "7", "-p", "3", "-n", "2"],
    ["sweep", "--max", "200"],
    ["frobenius", "-q", "7", "-p", "3", "-n", "2", "-v", "53"],
], ids=["schur", "schur-all", "predict", "sweep", "frobenius"])
def test_closed_form_commands_leave_the_value_layer_out(argv):
    loaded = _loaded_after(*argv, "--format", "json")
    assert "schurgate.groups" in loaded
    assert not loaded & VALUE_LAYER, sorted(loaded & VALUE_LAYER)


@pytest.mark.parametrize("argv", [
    ["table", "-q", "7", "-p", "3", "-n", "1"],
    ["sweep", "--max", "21", "--tables"],
], ids=["table", "sweep-tables"])
def test_table_commands_still_load_the_characters(argv):
    loaded = _loaded_after(*argv, "--format", "json")
    assert {"schurgate.characters", "schurgate.cyclotomic"} <= loaded


# what the series route never runs, each in modules of its own: the handlers of
# the other commands, the table side with the fields, the tower identity and the symbolic factor
HANDLERS = {"schurgate.cli_groups", "schurgate.cli_local", "schurgate.cli_series", "schurgate.cli_tables"}
TABLE_SIDE = {"schurgate.tables"}
IDENTITY = "schurgate.identity"
SYMBOLIC = "schurgate.symbolic"
SERIES = ["series", "--curve", "0,0,0,-1,0", "-n", "1"]


@pytest.mark.parametrize("argv", [
    SERIES,
    ["series", "--curve", "0,0,0,-1,0", "-n", "2", "-X", "30", "--character", "ind:1,1", "--pick-first"],
    ["identity", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30"],
    ["frobenius", "-q", "7", "-p", "3", "-n", "2", "-v", "53"],
    ["euler", "--curve", "0,0,0,-1,0", "-v", "53", "-n", "2", "--pick-first"],
    ["euler", "--curve", "0,0,0,-1,0", "-v", "53", "--trivial", "-n", "1"],
    ["euler", "--order7-class", "H", "-q", "7", "-p", "3", "-n", "2", "--symbolic"],
    ["table", "-q", "7", "-p", "3", "-n", "1"],
    ["sweep", "--max", "21", "--tables"],
    ["schur", "-q", "7", "-p", "3", "-n", "1"],
], ids=lambda argv: "-".join(argv[:1] + [a for a in argv if a in ("ind:1,1", "--trivial", "--symbolic",
                                                                   "--tables")]))
def test_a_job_loads_one_handler_module_and_only_what_its_command_runs(argv):
    loaded = _loaded_after(*argv)
    assert len(HANDLERS & loaded) == 1, sorted(HANDLERS & loaded)
    tables = argv[0] == "table" or "--tables" in argv
    assert (TABLE_SIDE & loaded) == (TABLE_SIDE if tables else set()), sorted(TABLE_SIDE & loaded)
    assert (IDENTITY in loaded) == (argv[0] == "identity")
    assert (SYMBOLIC in loaded) == ("--symbolic" in argv)


# what argparse costs a job: a line that the exact-match parser reads never loads them
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", [
    ["table", "-q", "7", "-p", "3", "-n", "1"],
    ["schur", "-q", "7", "-p", "3", "-n", "1", "--all"],
    ["predict", "-q=7", "-p", "3", "-n", "1", "--format=json"],
    ["frobenius", "-q", "7", "-p", "3", "-n", "1", "-v", "53", "--field", "example-F1"],
    ["euler", "--curve", "0,0,0,-1,0", "-v", "5", "--trivial", "-n", "1"],
    ["series", "--curve=0,0,0,-1,0", "-n", "1", "-X", "30", "--character", "lin:1"],
    ["identity", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30"],
    ["sweep", "--max", "200", "--verbose-rows"],
], ids=lambda argv: argv[0])
def test_a_well_formed_job_loads_no_argparse(argv):
    assert not _loaded_after(*argv) & ARGPARSE


# a line that only argparse reads, run in a fresh interpreter, with its output and exit discarded
FALLBACK_PROBE = """
import contextlib, io, sys
from schurgate.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print("argparse" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["schur", "--help"],
    ["series", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30", "--char", "lin:1"],
    ["schur", "-q", "7", "-p", "3"],
], ids=["help", "abbreviation", "usage-error"])
def test_help_an_abbreviation_and_a_usage_error_still_load_argparse(argv):
    out = subprocess.run([sys.executable, "-c", FALLBACK_PROBE, *argv], capture_output=True, text=True,
                         timeout=30, check=True)
    assert out.stdout == "True\n"


def _package_lines(loaded: set[str]) -> int:
    """Source lines of the schurgate modules loaded."""
    root = pathlib.Path(schurgate.__file__).parent
    names = [m.partition(".")[2] or "__init__" for m in loaded if m.partition(".")[0] == "schurgate"]
    return sum(len((root / f"{name}.py").read_text().splitlines()) for name in names)


@pytest.mark.parametrize("argv, budget", [(SERIES, 2400), (["schur", "-q", "7", "-p", "3", "-n", "1"], 950)],
                         ids=["series", "schur"])
def test_a_job_compiles_at_most_its_budget_of_package_lines(argv, budget):
    """Without bytecode (PYTHONDONTWRITEBYTECODE=1) a job compiles every module it loads from source."""
    assert _package_lines(_loaded_after(*argv)) <= budget


# the exports by export module, in the order of __all__
HOMES = {
    "cyclotomic": ["AbelianField", "ConductorOverflowError", "CyclotomicNumber", "euler_phi",
                   "field_of_values"],
    "groups": ["ConjClass", "GroupElement", "InternalCheckError", "MetacyclicParams",
               "PsiDescriptor", "Subgroup", "conjugacy_classes", "iter_valid_groups", "make_group",
               "subgroup_X", "tower_subgroups"],
    "characters": ["Character", "character_field",
                   "faithful_characters", "formula_field", "induce_from_X", "inner_product",
                   "irreducible_characters", "is_faithful", "one_faithful_character",
                   "permutation_character", "quotient_identity_virtual_character",
                   "tensor_decompose", "trivial_character"],
    "schur": ["GlobalIndexReport", "LocalIndexReport", "global_index", "local_index",
              "multiplicity_divisibility_check", "qadic_class_order"],
    "elliptic": ["EllipticCurveQ", "EulerFactor", "a_v"],
    "frobenius": ["EXAMPLE_F1", "FrobeniusDatum", "frobenius_datum"],
    "lseries": ["DirichletSeries", "dirichlet_partial", "identity_series_check",
                "symbolic_twisted_euler_factor", "twisted_euler_factor"],
    "predictions": ["PredictionReport", "prediction_report"],
}


def test_all_is_the_same_48_names():
    assert schurgate.__all__ == [name for names in HOMES.values() for name in names]
    assert len(schurgate.__all__) == 48 and schurgate.__version__ == "0.1.0"


# exports that their export module loads from the defining module on first use
DEFINED_IN = {
    "AbelianField": "tables", "field_of_values": "tables", "character_field": "tables", "formula_field": "tables",
    "faithful_characters": "tables", "inner_product": "tables", "irreducible_characters": "tables",
    "is_faithful": "tables", "tensor_decompose": "tables", "quotient_identity_virtual_character": "identity",
    "identity_series_check": "identity", "symbolic_twisted_euler_factor": "symbolic",
}


def test_each_name_is_the_object_its_module_defines():
    for mod, names in HOMES.items():
        module = importlib.import_module(f"schurgate.{mod}")
        for name in names:
            obj = getattr(schurgate, name)
            assert obj is getattr(module, name), name
            home = f"schurgate.{DEFINED_IN.get(name, mod)}"
            assert getattr(obj, "__module__", home) == home, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        schurgate.no_such_name
    assert getattr(schurgate, "is_prime", None) is None  # public in groups, not exported


def test_submodules_and_dir_as_with_eager_imports():
    assert schurgate.lseries is importlib.import_module("schurgate.lseries")
    assert set(schurgate.__all__) <= set(dir(schurgate))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from schurgate import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(schurgate.__all__)


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    """bench/tracer.py wraps the kernel methods and each module's __all__ by name.

    A name missing from the package fails every traced benchmark job (a
    KeyError on CyclotomicNumber.__dict__), so a method the package no longer
    calls, such as __pow__ or inverse, stays while the tracer names it.
    """
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("schurgate_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from schurgate.cyclotomic import CyclotomicNumber

    assert [attr for attr in tracer.KERNEL_METHODS if attr not in CyclotomicNumber.__dict__] == []
    for name in tracer.MODULES:
        module = importlib.import_module(f"schurgate.{name}")
        assert [attr for attr in module.__all__ if not hasattr(module, attr)] == [], name
    assert callable(importlib.import_module("schurgate.cli")._emit)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, as "name (line n)".

    An import whose first line carries `# noqa: F401`, a name listed in
    `__all__` and `from __future__` imports are exempt.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, exported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read | exported]


def test_unused_import_guard_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d, e  # noqa: F401\n"
        "from f import (g,\n    h)\n"
        "__all__ = ['h']\n"
        "def k():\n    from m import n, o\n    return os.path.join(n)\n"
    )
    assert _unused_imports(source) == ["g (line 4)", "o (line 8)"]


@pytest.mark.parametrize("path", sorted(pathlib.Path(schurgate.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert _unused_imports(path.read_text()) == []


def _private_kernel_imports(source: str) -> list[str]:
    """Underscore names a module imports from the cyclotomic kernel, as "name (line n)"."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "cyclotomic"
        for alias in node.names if alias.name.startswith("_")
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(pathlib.Path(schurgate.__file__).parent.glob("*.py")) if p.name != "cyclotomic.py"],
    ids=lambda p: p.name,
)
def test_only_the_kernel_reads_its_private_names(path):
    """How a value is stored, built and printed stays in cyclotomic.py: no other module imports its _names."""
    assert _private_kernel_imports(path.read_text()) == []


def _environment_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each read of the process environment: os.environ, os.getenv and their bytes forms."""
    names = {"environ", "environb", "getenv", "getenvb"}
    return sorted(
        (node.lineno, getattr(node, "attr", None) or node.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in names or isinstance(node, ast.Name) and node.id in names
    )


def test_environment_guard_flags_each_read():
    source = "import os\nfrom os import getenv\na = os.environ.get('A')\nb = getenv('B')\nc = os.devnull\n"
    assert _environment_reads(source) == [(3, "environ"), (4, "getenv")]


@pytest.mark.parametrize("path", sorted(pathlib.Path(schurgate.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    """Every setting is a constant in code: a command's output depends on its argv alone."""
    assert _environment_reads(path.read_text()) == []


def test_singular_curve_rejected_on_direct_construction():
    with pytest.raises(ValueError, match="singular"):
        schurgate.EllipticCurveQ(0, 0, 0, 0, 0)
    E = schurgate.EllipticCurveQ(0, 0, 0, -1, 0)
    assert repr(E) == "EllipticCurveQ(a1=0, a2=0, a3=0, a4=-1, a6=0)"
    assert hash(E) == hash((0, 0, 0, -1, 0))


def test_each_function_the_reach_check_keeps_exists_with_a_reason():
    """tests/reach.py --check runs the golden set; this reads only its KEPT table and the source."""
    import reach

    assert [name for name in reach.KEPT if name not in reach.defined()] == []
    assert all(reach.KEPT.values())


def test_each_planted_fault_matches_its_module_once():
    """tests/faults.py --check plants each fault and runs the checks; this reads only the catalogue and the source."""
    import faults

    assert [f for f in faults.FAULTS if (faults.PACKAGE / f"{f.module}.py").read_text().count(f.old) != 1] == []
    assert all(f.new != f.old and f.why for f in faults.FAULTS)
    assert set(faults.EQUIVALENT) <= set(range(len(faults.FAULTS)))
