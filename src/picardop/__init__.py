"""picardop: fixed-point solvers for operator equations lambda*T(x) + f = x.

Concrete operators (affine, cubic attention, integral, graph aggregation),
the Picard iteration engine (damped updates included) with convergence
diagnostics, derivative and Lipschitz estimation, and an iterated
message-passing experiment on synthetic graphs.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DivergenceError, NonFiniteError
from .spaces import (
    Grid,
    GridFunction,
    Space,
    grid_uniform,
    grid_from_json,
    norm,
    lincomb,
    flatten_values,
    load_matrix_text,
)
from .operators import (
    Operator,
    AffineOperator,
    AttentionOperator,
    HammersteinOperator,
    Graph,
    GnnAggregateOperator,
    apply,
    make_kernel,
    graph_from_edgelist,
    neighborhood_membership_counts,
    operator_from_config,
)
from .picard import (
    PicardConfig,
    StepRecord,
    IterationTrace,
    BanachBoundRecord,
    picard_solve,
    residual,
    predicted_iterations,
    banach_bounds,
    uniqueness_check,
    trace_csv_text,
)
from .calculus import (
    LipschitzEstimate,
    FrechetDirectionalResult,
    GnnLipschitzReport,
    fd_directional,
    frechet_check,
    spectral_norm,
    lipschitz_sample,
    gnn_lipschitz_report,
    rescale_to_contraction,
)
from .pign import (
    PlantedPartitionDataset,
    PignResult,
    planted_partition,
    add_dropin_noise,
    pign_embed,
    train_logistic_readout,
    run_pign_experiment,
)
