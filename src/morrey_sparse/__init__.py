"""Sliding local Morrey-type norms, sparseness diagnostics, and dynamic
regularity criteria on periodic 3D vector fields."""

__version__ = "0.1.0"

from . import grid, morrey, nse, predual, sparseness, verify
from .grid import (
    BallKernel,
    Grid3,
    ParameterError,
    ScalarField,
    VectorField,
    ball_kernel,
    ball_lp_bruteforce,
    biot_savart,
    curl,
    divergence,
    gradient,
    leray_project,
    load_field,
    save_field,
    sliding_ball_lp,
    sup_norm,
)
from .morrey import MorreyParams, WeightSpec, classical_morrey, clm_norm, gm_norm, lm_norm
from .nse import (
    CriterionSpec,
    SolverConfig,
    Trajectory,
    criterion_exponent,
    detect_escape_times,
    dissipation_scale,
    evaluate_criteria,
    evaluate_criterion,
    simulate,
)
from .predual import dual_weight, predual_bound, stieltjes_predual_integral, weight_tail_norm
from .sparseness import (
    PairLD,
    VoxelSet,
    admissible_pair,
    cstar,
    eps_const,
    kappa,
    semi_mixed,
    sparse_3d,
    superlevel_sets,
    z_alpha_member,
)
from .verify import VerifyReport, check_lemma_gm, check_lemma_l2, counterexample_field, sweep
