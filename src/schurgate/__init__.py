"""schurgate: exact character theory, Schur indices and twisted Euler factors
for the non-abelian metacyclic groups C_q x| C_{p^n} (p, q distinct odd primes).

The exports are loaded on first use (PEP 562): ``import schurgate`` imports no
submodule, and ``schurgate.NAME`` imports only the module that defines NAME.
"""

from importlib import import_module

_EXPORTS = {
    "cyclotomic": "AbelianField ConductorOverflowError CyclotomicNumber euler_phi field_of_values",
    "groups": "ConjClass GroupElement InternalCheckError MetacyclicParams PsiDescriptor Subgroup "
              "conjugacy_classes iter_valid_groups make_group subgroup_X tower_subgroups",
    "characters": "Character character_field faithful_characters "
                  "formula_field induce_from_X inner_product irreducible_characters is_faithful "
                  "one_faithful_character permutation_character "
                  "quotient_identity_virtual_character tensor_decompose "
                  "trivial_character",
    "schur": "GlobalIndexReport LocalIndexReport global_index local_index "
             "multiplicity_divisibility_check qadic_class_order",
    "elliptic": "EllipticCurveQ EulerFactor a_v",
    "frobenius": "EXAMPLE_F1 FrobeniusDatum frobenius_datum",
    "lseries": "DirichletSeries dirichlet_partial identity_series_check "
               "symbolic_twisted_euler_factor twisted_euler_factor",
    "predictions": "PredictionReport prediction_report",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
