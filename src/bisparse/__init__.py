"""Recovery of jointly low-rank and bisparse symmetric matrices.

Subpackages: `symcore` (symmetric-matrix primitives), `projections` (exact,
tail and head projections), `measurements` (measurement ensembles and RIP
estimators), `recovery` (the solvers), `bench` (the seeded experiment
harness), `cli` (command-line front end).
"""

from .symcore import project_rank, read_matrix, write_matrix
from .projections import (
    ProjectionOutcome,
    exact_project,
    head_anchor,
    head_joint,
    head_psd_lowrank,
    head_rowcol,
    head_shrink,
    head_square,
    head_square_variant,
    project_hierarchical,
    tail_bisparse,
    tail_joint,
)
from .measurements import (
    MeasurementMap,
    RipEstimate,
    check_rip_cross_term,
    estimate_rip,
    sample_map,
    sample_structured,
)
from .recovery import (
    RecoveryConfig,
    RecoveryResult,
    brute_force_decode,
    hihtp,
    iht_exact,
    iht_head_tail,
    iht_lowrank,
    iht_rank_one,
    two_step_factorized,
)
from .bench import ExperimentSpec, TrialRecord, run_phase_transition, run_rip_sweep

__version__ = "0.1.0"
