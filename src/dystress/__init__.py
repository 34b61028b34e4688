"""Dynamically temperature-scaled contrastive learning, desk scale.

A library plus CLI for similarity-dependent temperature profiles in the
InfoNCE/NT-Xent loss: exact loss and gradient computation (with the
temperature either detached or differentiated through), closed-form ODE
slope verification of the profile-design argument, embedding-quality
metrics (uniformity, alignment, tolerance, interclass uniformity, kNN
probe), and a synthetic-data training harness with ablation sweeps.
"""

from .encoder import (
    EncoderParams,
    EncoderSpec,
    OptimizerSettings,
    OptimizerState,
    backward,
    encode,
    init_optimizer,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .errors import (
    BatchTooSmallError,
    DegenerateInputError,
    DomainError,
    DystressError,
    NumericError,
    ValidationError,
)
from .geometry import (
    EmbeddingBatch,
    LogitsBlock,
    PairKind,
    build_logits_block,
    classify_pairs,
    l2_normalize,
    read_embedding_dump,
    write_embedding_dump,
)
from .harness import (
    ExperimentConfig,
    RunResult,
    SweepSpec,
    load_config,
    load_sweep,
    metrics_from_dump,
    run_experiment,
    run_sweep,
)
from .loss import (
    GradientBundle,
    LossMode,
    forward,
    grad_wrt_embeddings,
    grad_wrt_similarity,
    loss_on_embeddings,
)
from .metrics import (
    Histogram,
    MetricsReport,
    alignment,
    interclass_uniformity,
    knn_probe,
    pair_histograms,
    tolerance,
    uniformity,
)
from .numeric import Rng, finite_difference_grad, max_relative_error, stable_row_softmax
from .synthetic import Dataset, SyntheticSpec, generate, make_batches
from .temperature import (
    OdeCurve,
    OdeParams,
    Proposition1Report,
    TemperatureProfile,
    boundary_constants,
    family_bounds,
    ode_curve,
    verify_proposition1,
)

__version__ = "0.1.0"
