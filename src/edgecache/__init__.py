"""Proactive edge-cloud caching toolkit.

Formulates content placement as a constrained optimization problem,
solves it exactly for training labels, encodes instances as grayscale
feature images, trains per-request convolutional classifiers, repairs
their combined output with a cost-guided search, and benchmarks the
whole pipeline against greedy baselines.
"""

__version__ = "0.1.0"

from .baselines import RgcConfig, gca, rgc
from .cnn import CnnModel, TrainConfig, TrainingSample, forward, gradient_check, predict_all, train
from .cost import (
    Assignment,
    CostBreakdown,
    FeasibilityReport,
    assignment_from_classes,
    caching_cost,
    check_feasibility,
    cost_breakdown,
    derive_routing,
    penalized_cost,
    total_cost,
    utilization,
)
from .encoder import (
    FeatureImage,
    NormConfig,
    encode,
    read_pgm,
    split_subimages,
    to_grayscale,
    update_residual,
    write_pgm,
)
from .harness import (
    Corpus,
    EvaluationReport,
    build_dataset,
    evaluate,
    evaluation_topology,
    load_corpus,
    recursive_allocate,
    train_models,
)
from .instance import (
    Instance,
    ParameterRanges,
    generate_instance,
    load_instance,
    ratios,
    save_instance,
)
from .lpfile import export_milp
from .pel import enhance
from .solver import OptimalSolution, solve_exact
from .topology import (
    Topology,
    TopologyConfig,
    build_topology,
    hop_matrix,
    incidence_tensor,
    load_topology,
    save_topology,
)
