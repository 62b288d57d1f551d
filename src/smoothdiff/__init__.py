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
from .config import RunConfig, dump_run_config, parse_run_config, stage_config
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
    LaplacianMatrix,
    PointCloud,
    ShapeSpec,
    build_knn_graph,
    build_laplacian,
    generate_shape,
    smoothness,
    smoothness_gradient,
)
from .metrics import cov, evaluate_sets, mmd, one_nna, rs
from .pointio import read_xyz, write_xyz
from .sampler import (
    SamplerConfig,
    constraint_gradient,
    generate,
    sample_latent,
    tweedie_denoise,
)
from .score_models import (
    GaussianMixtureScore,
    LatentScoreNet,
    MlpScoreNet,
    ModelConfig,
    PointEncoder,
    ScoreField,
    build_models,
)
from .sde import DiffusionSchedule
from .training import (
    TrainConfig,
    entropy_term,
    latent_dsm_loss,
    recon_dsm_loss,
    train,
)

__all__ = [
    "backend_name",
    "load_checkpoint",
    "save_checkpoint",
    "RunConfig",
    "dump_run_config",
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
    "LaplacianMatrix",
    "PointCloud",
    "ShapeSpec",
    "build_knn_graph",
    "build_laplacian",
    "generate_shape",
    "smoothness",
    "smoothness_gradient",
    "cov",
    "evaluate_sets",
    "mmd",
    "one_nna",
    "rs",
    "read_xyz",
    "write_xyz",
    "SamplerConfig",
    "constraint_gradient",
    "generate",
    "sample_latent",
    "tweedie_denoise",
    "GaussianMixtureScore",
    "LatentScoreNet",
    "MlpScoreNet",
    "ModelConfig",
    "PointEncoder",
    "ScoreField",
    "build_models",
    "DiffusionSchedule",
    "TrainConfig",
    "entropy_term",
    "latent_dsm_loss",
    "recon_dsm_loss",
    "train",
]
