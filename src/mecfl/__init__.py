"""Simulator of edge-assisted federated learning with energy-aware resource management.

The package couples a small one-vs-rest logistic-regression FL loop with a
per-round resource game: users pick how much data to offload to the edge
server and how much CPU to spend, the edge server splits the uplink
bandwidth, and closed-form best responses drive all three toward an
equilibrium that minimizes the synchronous round time under per-user
energy budgets. Brute-force numeric oracles certify every closed form.
"""

from .errors import (
    AllZeroWeights,
    BadMagic,
    CountMismatch,
    DegenerateDivisor,
    EmptyDataset,
    InconsistentSizes,
    InstanceTooLarge,
    NoFeasiblePoint,
    NoSignChange,
    OutOfRange,
    SimulationError,
    SumExceedsOne,
    TruncatedFile,
    ValidationError,
)
from .types import (
    AllocationState,
    ModelState,
    Population,
    RoundMetrics,
    SystemConfig,
    UserProfile,
    project_unit_interval,
    validate_allocation,
)
from .costs import (
    base_rate,
    edge_time_total,
    edge_time_user,
    local_time,
    total_energy,
)
from .learning import (
    Dataset,
    accuracy,
    aggregate,
    evaluate_loss,
    split_dataset,
    train,
    weight_dim,
)
from .optimizer import (
    LAMBDA_MIN,
    solve_delta,
    solve_gamma,
    solve_uplink,
    update_multipliers,
)
from .oracle import bisect_root, finite_diff, grid_minimize, simplex_minimize_maxtime
from .orchestrator import (
    ExperimentResult,
    run_centralized,
    run_proposed,
    run_traditional,
)
from .io import (
    ExperimentSpec,
    load_config,
    load_idx,
    parse_config,
    emit_config,
    run_experiment,
    run_sweep,
    synthesize_dataset,
    synthesize_users,
)

__version__ = "0.1.0"
