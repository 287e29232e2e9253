"""Round-based collection of correlated Gaussian sensor data.

A base station estimates the vector of all node measurements from a subset of
uploads.  Each round it greedily requests the nodes whose values would shrink
the conditional MSE the most, uploads arrive over faded channels through
sequential polling or multichannel slotted ALOHA, and when the signal model is
unknown a softmax bandit picks among candidate Gaussian models.
"""

from . import access, bandit, config, engine, experiments, models, presets, validate
from .access import (
    RoundOutcome,
    aloha_round,
    crossover_check,
    delivered_law,
    expected_successes,
    mean_rounds_bound,
    optimal_q,
    polling_round,
    stop_round_moments,
    uploading_probability,
)
from .bandit import (
    BanditState,
    new_bandit_state,
    select_model,
    softmax_probs,
)
from .engine import (
    SensingState,
    ingest,
    initial_state,
    polling_order,
    select_nodes,
)
from .errors import DegenerateVarianceError, NumericalDegeneracyError
from .experiments import (
    BanditResult,
    Rounds,
    RunResult,
    Scenario,
    SweepResult,
    run_bandit_scenario,
    run_scenario,
    sweep,
)
from .models import (
    ConditionalState,
    GaussianModel,
    PosteriorStack,
    build_ar1_model,
    build_model_family,
    condition,
    dct_matrix,
    rank_one_condition,
)

__version__ = "0.1.0"
