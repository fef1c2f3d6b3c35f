"""Numerical laboratory for coarse-graining lattice elliptic operators.

Computes the coarse-grained matrix pair (a, a_*) on triadic cubes, the J
functional and its exact discrete identities, multiscale Besov seminorms and
ellipticity constants, and a Monte Carlo renormalization flow of the
annealed contrast across scales.
"""

from .errors import (
    CapacityError,
    CgflowError,
    ConfigError,
    ConsistencyError,
    ConvergenceError,
    ParameterError,
    PigeonholeDiagnosticError,
    PreconditionError,
    ReliabilityError,
)
from .grid import (
    CoefficientField,
    EnsembleSpec,
    TriadicCube,
    dihedral_conjugate,
    generate,
    root_cube,
    subcubes,
)
from .solver import (
    BlockSolution,
    CubeOperator,
    harmonic_pool,
    solve_v,
)
from .coarse import (
    CoarseGrainedPair,
    coarse_pair,
    j_functional,
    subadditivity_defect,
)
from .multiscale import (
    ExponentSet,
    MultiscaleLadder,
    besov_positive,
    besov_ring,
    cg_poincare_check,
    ellipticity_constants,
    ladder,
    multiscale_defect,
    weak_norm_diagnostics,
)
from .flow import (
    FlowRecord,
    HomogenizationScale,
    PigeonholeResult,
    ScaleEstimate,
    contraction_diagnostics,
    pigeonhole_select,
    run_flow,
    scale_from_record,
    synthetic_record,
    tau_from_record,
)

__version__ = "0.1.0"
