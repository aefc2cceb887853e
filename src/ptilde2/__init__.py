"""Exact first-cohomology computations for the Lie superalgebra of
supermatrices (A B; C -A^T) in gl(2,2), over odd prime fields, with
coefficients in its Kac modules."""

from .linalg import FpMatrix, Subspace, check_odd_prime, modular_inverse
from .superalgebra import (
    Superalgebra,
    Weight,
    build_p_tilde_2,
    grade_zero_subalgebra,
    root_decomposition,
    superalgebra_from_json,
    superalgebra_to_json,
    supercommutator,
    validate_superalgebra,
)
from .modules import (
    GModule,
    KacModule,
    RepresentationError,
    build_kac_module,
    build_simple_module,
    case_table_weight_space,
    gmodule_from_json,
    gmodule_to_json,
    residue,
    residue_comparisons,
    residue_shift_table,
    root_target_weights,
    target_weight_space,
    weight_decomposition,
)
from .cohomology import (
    Cochain,
    CohomologyReport,
    RouteDisagreement,
    SolverFailure,
    analyze,
    derivation_residual,
    derivation_space,
    h1,
    inner_derivation,
    inner_space,
    outer_cocycles,
    predict_h1,
    weight_derivation_space,
)

__version__ = "0.1.0"
