"""Smoothness-constrained score-based diffusion for point clouds.

A compact generative pipeline: VP-SDE forward noising, a latent-variable
score model (point cloud encoder, conditional per-point score net, latent
prior score net), reverse-time sampling with an optional graph-Laplacian
smoothness constraint, and Chamfer-based set evaluation metrics. The hot
distance kernels (exact k-NN search and Chamfer) are row-blocked NumPy.
"""

__version__ = "0.1.0"

from ._kernels import backend_name
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    RunConfig,
    dump_run_config,
    load_run_config,
    parse_run_config,
    stage_config,
)
from .errors import (
    ConfigError,
    DataError,
    InvalidInputError,
    InvalidParameterError,
    NumericalAbortError,
    SingularTimeError,
    SmoothDiffError,
    UnsupportedModeError,
)
from .geometry import (
    KnnGraph,
    LaplacianMatrix,
    PointCloud,
    ShapeSpec,
    build_knn_graph,
    build_laplacian,
    generate_shape,
    smoothness,
    smoothness_gradient,
)
from .metrics import (
    MetricReport,
    chamfer,
    cov,
    evaluate_sets,
    mmd,
    one_nna,
    rs,
    write_metrics_csv,
)
from .pointio import read_cloud_dir, read_xyz, write_xyz
from .sampler import (
    SamplerConfig,
    Trajectory,
    constraint_gradient,
    generate,
    sample_latent,
    tweedie_denoise,
)
from .score_models import (
    GaussianMixtureScore,
    LatentScoreNet,
    MlpScoreNet,
    ModelBundle,
    ModelConfig,
    PointEncoder,
    ScoreField,
    build_models,
    reparameterize,
    time_embedding,
)
from .sde import EPS_T, DiffusionSchedule
from .training import (
    Adam,
    LossReport,
    TrainConfig,
    entropy_term,
    latent_dsm_loss,
    lr_factor,
    make_optimizers,
    recon_dsm_loss,
    train,
    train_step,
)

__all__ = [
    "__version__",
    "backend_name",
    "load_checkpoint",
    "save_checkpoint",
    "RunConfig",
    "dump_run_config",
    "load_run_config",
    "parse_run_config",
    "stage_config",
    "ConfigError",
    "DataError",
    "InvalidInputError",
    "InvalidParameterError",
    "NumericalAbortError",
    "SingularTimeError",
    "SmoothDiffError",
    "UnsupportedModeError",
    "KnnGraph",
    "LaplacianMatrix",
    "PointCloud",
    "ShapeSpec",
    "build_knn_graph",
    "build_laplacian",
    "generate_shape",
    "smoothness",
    "smoothness_gradient",
    "MetricReport",
    "chamfer",
    "cov",
    "evaluate_sets",
    "mmd",
    "one_nna",
    "rs",
    "write_metrics_csv",
    "read_cloud_dir",
    "read_xyz",
    "write_xyz",
    "SamplerConfig",
    "Trajectory",
    "constraint_gradient",
    "generate",
    "sample_latent",
    "tweedie_denoise",
    "GaussianMixtureScore",
    "LatentScoreNet",
    "MlpScoreNet",
    "ModelBundle",
    "ModelConfig",
    "PointEncoder",
    "ScoreField",
    "build_models",
    "reparameterize",
    "time_embedding",
    "EPS_T",
    "DiffusionSchedule",
    "Adam",
    "LossReport",
    "TrainConfig",
    "entropy_term",
    "latent_dsm_loss",
    "lr_factor",
    "make_optimizers",
    "recon_dsm_loss",
    "train",
    "train_step",
]
