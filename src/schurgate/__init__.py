"""schurgate: exact character theory, Schur indices and twisted Euler factors
for the non-abelian metacyclic groups C_q x| C_{p^n} (p, q distinct odd primes).
"""

from .cyclotomic import (
    AbelianField,
    ConductorOverflowError,
    CyclotomicNumber,
    InternalCheckError,
    euler_phi,
    field_of_values,
)
from .groups import (
    ConjClass,
    GroupElement,
    MetacyclicParams,
    Subgroup,
    conjugacy_classes,
    iter_valid_groups,
    make_group,
    subgroup_X,
    tower_subgroups,
)
from .characters import (
    Character,
    PsiDescriptor,
    VirtualCharacter,
    character_field,
    faithful_characters,
    formula_field,
    induce_from_X,
    inner_product,
    irreducible_characters,
    is_faithful,
    one_faithful_character,
    permutation_character,
    quotient_identity_virtual_character,
    regular_character,
    tensor_decompose,
    trivial_character,
)
from .schur import (
    GlobalIndexReport,
    LocalIndexReport,
    global_index,
    local_index,
    multiplicity_divisibility_check,
    norm_criterion,
    qadic_class_order,
)
from .elliptic import EllipticCurveQ, a_v
from .frobenius import EXAMPLE_F1, FrobeniusDatum, frobenius_datum
from .lseries import (
    DirichletSeries,
    EulerFactor,
    dirichlet_partial,
    identity_series_check,
    symbolic_twisted_euler_factor,
    twisted_euler_factor,
)
from .predictions import PredictionReport, prediction_report

__version__ = "0.1.0"
