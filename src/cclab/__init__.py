"""Desk-scale laboratory for contrastive continual learning: exact
population losses over finite supports, provable test-loss bounds,
adaptive distillation coefficients, and toy-scale training runs."""

__version__ = "0.1.0"

from .core import (
    MixtureWeights,
    TaskDistribution,
    mixture,
    normalize_rows,
)
from .losses import (
    decomposition_residual,
    logistic_link,
    population_contrastive,
    population_distillation,
    population_test_loss,
)
from .bounds import (
    BoundConstants,
    BoundReport,
    ScheduleState,
    compute_U,
    constants,
    lemma1_slack,
    theorem1_lower,
    theorem1_upper,
    theorem2_step,
    turning_point,
)
from .trainer import (
    Encoder,
    SgdConfig,
    Temperatures,
    finite_diff_check,
    grad_total,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .continual import (
    ExperimentTrace,
    LambdaSchedule,
    ReplayBuffer,
    RunConfig,
    adaptive_lambda,
    linear_probe,
    run_sequence,
    run_task,
)
from .data import (
    ScenarioSpec,
    TaskData,
    example_weights,
    make_blob_sequence,
    monte_carlo_contrastive,
    scenario_train_losses,
    scenario_weights,
)
