"""Finite-truncation d-bar calculus on the quantum disk.

Elements of the shift algebra in Fourier-mode form, the weighted-commutator
operators D and D̄ with their polar splits and explicit right inverses,
spectral boundary conditions with kernel/cokernel counting (index = N + 1),
and the commutative flat-disk baseline for cross-validation.
"""

from .aps import (APSProjection, APSSolution, IndexCounts, NumericIndex,
                  index_analytic, index_numeric, project, solve_aps)
from .classical import (RadialModeFunction, apply_D_classical,
                        apply_Dbar_classical, boundary_term_classical,
                        index_classical, inner_product_classical,
                        integration_by_parts_classical, radial_grid)
from .element import (BoundaryFunction, ToeplitzElement, adjoint, element,
                      extend, from_mode, identity, multiply, power_UB,
                      random_element, restrict, u_power, ustar_power,
                      zero)
from .hilbert import (abel_identity_check, boundary_pairing,
                      inner_product_fourier, integration_by_parts_residual,
                      norm_fourier)
from .ncops import (apply_D, apply_Dbar, boundary_operator_check,
                    kernel_basis, polar_split, quantum_disk_structure_check)
from .parametrix import (BoundaryDecomposition, apply_Q, apply_Qbar,
                         boundary_value_decomposition, norm_bound_check)
from .report import (CheckResult, DecompositionError, IllConditionedError,
                     Report, TruncationWarning)
from .weights import (ClassicalWeight, WeightPair, check_conditions,
                      constant_classical_weight, custom_weights,
                      limit_diagnostics, quantum_disk_weights, table_weights,
                      weights_from_json)

__version__ = "0.1.0"

__all__ = [
    "APSProjection", "APSSolution", "IndexCounts", "NumericIndex",
    "index_analytic", "index_numeric", "project", "solve_aps",
    "RadialModeFunction", "apply_D_classical", "apply_Dbar_classical",
    "boundary_term_classical", "index_classical", "inner_product_classical",
    "integration_by_parts_classical", "radial_grid",
    "BoundaryFunction", "ToeplitzElement", "adjoint", "element", "extend",
    "from_mode", "identity", "multiply", "power_UB", "random_element",
    "restrict", "u_power", "ustar_power", "zero",
    "abel_identity_check", "boundary_pairing",
    "inner_product_fourier", "integration_by_parts_residual", "norm_fourier",
    "apply_D", "apply_Dbar", "boundary_operator_check", "kernel_basis",
    "polar_split", "quantum_disk_structure_check",
    "BoundaryDecomposition", "apply_Q", "apply_Qbar",
    "boundary_value_decomposition", "norm_bound_check",
    "CheckResult", "DecompositionError", "IllConditionedError", "Report",
    "TruncationWarning",
    "ClassicalWeight", "WeightPair", "check_conditions",
    "constant_classical_weight", "custom_weights", "limit_diagnostics",
    "quantum_disk_weights", "table_weights", "weights_from_json",
    "__version__",
]
