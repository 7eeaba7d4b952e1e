"""Two-channel Bell-inequality toolkit for atomic-cascade photon pairs.

Layers: domain types (:mod:`.model`), quantum predictions (:mod:`.qm`),
local-hidden-variable models (:mod:`.lhv`), inequality functionals
(:mod:`.inequalities`), finite-statistics simulation (:mod:`.montecarlo`),
angle optimization (:mod:`.optimize`) and a CLI (:mod:`.cli`).
"""

from .inequalities import (
    FUNCTIONALS,
    Functional,
    InequalityReport,
    TheoremPoint,
    TheoremReport,
    applicable_reports,
    eval_ch,
    eval_fc,
    make_report,
    normalize_functional_id,
    verify_theorem,
    z_value,
)
from .lhv import (
    CONSTRAINTS,
    BoundResult,
    LhvModel,
    ResponseFunction,
    check_gr,
    check_supplementary,
    ensemble_table,
    local_bound,
    sample_random_model,
    sample_response_function,
)
from .model import (
    AngleConfig,
    CountTable,
    EvaluationError,
    JointDistribution,
    MissingSettingError,
    Outcome,
    OUTCOMES,
    SettingLabel,
    SettingsTable,
    empirical_distribution,
    expectation,
    label_sides,
    reduce_angle,
)
from .montecarlo import (
    RunResult,
    RunSpec,
    run_reports,
    simulate,
)
from .optimize import OptimizationProblem, OptimizationResult, optimize
from .qm import (
    ExperimentParams,
    angular_correlation_g,
    depolarization_f,
    ideal_expectation,
    ideal_joint,
    quantum_cells,
    real_joint,
    settings_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
