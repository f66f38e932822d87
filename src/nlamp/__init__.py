"""Simulator and analysis toolkit for a heralded noiseless amplifier.

A weak coherent field is amplified nondeterministically by a
subtract-add-subtract sequence of three beam splitters conditioned on
photon-counter outcomes.  The package provides a truncated Fock-space
simulator of the pipeline as single-mode Kraus steps, the closed-form
predictions for the success branch, phase-space (Wigner) oracles for
cross-validation, and an exact optimizer for the gain-constrained success
probability, which reduces the four-parameter problem to a
one-dimensional search over a shared reflectivity.
"""

from .closed_forms import (
    SplitterTriple,
    detector_adjusted,
    f_eff_closed,
    f_eff_conjectured,
    g_eff_closed,
    p_succ_closed,
)
from .errors import (
    BoundaryMassError,
    DimensionMismatchError,
    GridMismatchError,
    InfeasibleError,
    NlampError,
    TruncationError,
    ZeroNormError,
    ZeroProbabilityError,
)
from .fock import (
    FockState,
    StateMetrics,
    annihilate,
    coherent_state,
    create,
    default_dim,
    fock_state,
    inner_product,
    metrics,
    normalized,
    pad,
)
from .optimize import (
    OptProblem,
    OptResult,
    maximize,
    sweep,
    verify_symmetry,
)
from .scheme import (
    BRANCH_ORDER,
    SUCCESS_OUTCOME,
    BranchResult,
    SchemeConfig,
    coherence_check,
    enumerate_single_photon_branches,
    gain_fidelity_sweep,
    kraus_step,
    operator_oracle,
    run_branch,
)
from .wigner import (
    DEFAULT_GRID,
    GridSpec,
    WignerGrid,
    expect_a_grid,
    export_grid,
    fidelity_grid,
    import_grid,
    integrate,
    wigner_coherent,
    wigner_fock,
    wigner_of_state,
)

__version__ = "0.1.0"
