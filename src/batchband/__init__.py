"""batchband: batched-feedback bandit simulation, certification, and replay."""

from .core import (
    BatchGrid,
    DecisionRule,
    GridError,
    Instance,
    PROB_TOL,
    derive_seed,
    make_grid,
    rule_value,
)
from .environments import (
    BernoulliEnv,
    LinearContextualEnv,
    LoggedData,
    make_linear_env,
    parse_env,
    preset,
    read_logged_csv,
    synth_logged_dataset,
    write_logged_csv,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    RegretTable,
    bound_reports,
    check_theorem_bounds,
    run_experiment,
)
from .meta import (
    MonotoneBound,
    approx_delayed_start_run,
    check_phase,
    delayed_start_run,
)
from .policies import (
    FixedArmPolicy,
    LinTsPolicy,
    LinUcbPolicy,
    ThompsonBetaPolicy,
    TwoPhaseSwitchPolicy,
    UcbPolicy,
    UniformPolicy,
    make_policy,
)
from .replay import ReplayResult, relative_cr, replay_evaluate
from .specifications import RunRecord, RunSet, run_batch, run_online, run_short

__version__ = "0.1.0"

__all__ = [
    "BatchGrid",
    "BernoulliEnv",
    "ConfigError",
    "DecisionRule",
    "ExperimentConfig",
    "FixedArmPolicy",
    "GridError",
    "Instance",
    "LinTsPolicy",
    "LinUcbPolicy",
    "LinearContextualEnv",
    "LoggedData",
    "MonotoneBound",
    "PROB_TOL",
    "RegretTable",
    "ReplayResult",
    "RunRecord",
    "RunSet",
    "ThompsonBetaPolicy",
    "TwoPhaseSwitchPolicy",
    "UcbPolicy",
    "UniformPolicy",
    "approx_delayed_start_run",
    "bound_reports",
    "check_phase",
    "check_theorem_bounds",
    "delayed_start_run",
    "derive_seed",
    "make_grid",
    "make_linear_env",
    "make_policy",
    "parse_env",
    "preset",
    "read_logged_csv",
    "relative_cr",
    "replay_evaluate",
    "rule_value",
    "run_batch",
    "run_experiment",
    "run_online",
    "run_short",
    "synth_logged_dataset",
    "write_logged_csv",
    "__version__",
]
