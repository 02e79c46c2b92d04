"""What the package and each CLI command import, and the lazy package namespace."""

import importlib
import subprocess
import sys

import pytest

import schurgate

ARITHMETIC = {"schurgate.elliptic", "schurgate.frobenius", "schurgate.lseries"}
INTROSPECTION = {"dataclasses", "inspect"}
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
    assert "schurgate.schur" in loaded
    assert not loaded & (ARITHMETIC | INTROSPECTION)


@pytest.mark.parametrize("argv", [
    ["frobenius", "-q", "7", "-p", "3", "-n", "2", "-v", "53"],
    ["euler", "--curve", "0,0,0,-1,0", "-v", "5", "--trivial", "-n", "1"],
    ["euler", "--order7-class", "H", "-q", "7", "-p", "3", "-n", "2", "--symbolic"],
    ["series", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30"],
    ["identity", "--curve", "0,0,0,-1,0", "-n", "1", "-X", "30"],
], ids=lambda argv: "-".join(argv[:2]))
def test_arithmetic_commands_load_no_introspection(argv):
    loaded = _loaded_after(*argv)
    assert "schurgate.frobenius" in loaded
    assert not loaded & INTROSPECTION


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


# the exports by defining module, in the order of __all__
HOMES = {
    "cyclotomic": ["AbelianField", "ConductorOverflowError", "CyclotomicNumber", "euler_phi",
                   "field_of_values"],
    "groups": ["ConjClass", "GroupElement", "InternalCheckError", "MetacyclicParams",
               "PsiDescriptor", "Subgroup", "conjugacy_classes", "iter_valid_groups", "make_group",
               "subgroup_X", "tower_subgroups"],
    "characters": ["Character", "VirtualCharacter", "character_field",
                   "faithful_characters", "formula_field", "induce_from_X", "inner_product",
                   "irreducible_characters", "is_faithful", "one_faithful_character",
                   "permutation_character", "quotient_identity_virtual_character",
                   "regular_character", "tensor_decompose", "trivial_character"],
    "schur": ["GlobalIndexReport", "LocalIndexReport", "global_index", "local_index",
              "multiplicity_divisibility_check", "norm_criterion", "qadic_class_order"],
    "elliptic": ["EllipticCurveQ", "a_v"],
    "frobenius": ["EXAMPLE_F1", "FrobeniusDatum", "frobenius_datum"],
    "lseries": ["DirichletSeries", "EulerFactor", "dirichlet_partial", "identity_series_check",
                "symbolic_twisted_euler_factor", "twisted_euler_factor"],
    "predictions": ["PredictionReport", "prediction_report"],
}


def test_all_is_the_same_51_names():
    assert schurgate.__all__ == [name for names in HOMES.values() for name in names]
    assert len(schurgate.__all__) == 51 and schurgate.__version__ == "0.1.0"


def test_each_name_is_the_object_its_module_defines():
    for mod, names in HOMES.items():
        module = importlib.import_module(f"schurgate.{mod}")
        for name in names:
            obj = getattr(schurgate, name)
            assert obj is getattr(module, name), name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


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


def test_singular_curve_rejected_on_direct_construction():
    with pytest.raises(ValueError, match="singular"):
        schurgate.EllipticCurveQ(0, 0, 0, 0, 0)
    E = schurgate.EllipticCurveQ(0, 0, 0, -1, 0)
    assert repr(E) == "EllipticCurveQ(a1=0, a2=0, a3=0, a4=-1, a6=0)"
    assert hash(E) == hash((0, 0, 0, -1, 0))
