"""Flat key = value run configuration with strict parsing.

One assignment per line, full-line # comments, blank lines ignored. Every
key must be a known field; unknown or duplicate keys fail loudly so a typo
cannot silently fall back to a default. Values are typed (int, float, bool,
str) from the field declarations and round-trip losslessly through
dump_run_config / parse_run_config.

Key K = <prefix><field> feeds that field of one stage dataclass (see
STAGE_PREFIXES and stage_config); the remaining keys are read by the
commands themselves.
"""

import math
import typing
from dataclasses import dataclass, fields

from .errors import ConfigError
from .geometry import ShapeSpec
from .sampler import SamplerConfig
from .score_models import ModelConfig
from .sde import EPS_T, DiffusionSchedule
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    """Every knob for the synth / train / sample / eval pipeline.

    A command-line flag overrides the key that is its argparse dest; the
    single seed feeds whichever stage runs. Desk-scale defaults throughout:
    clouds of 256 points, a 64-dimensional latent code, 200 sampling steps.
    Paper-scale values (N=2048, 1000 steps, latent 256) are reachable by
    overriding.
    """

    data_dir: str = ""
    output_dir: str = ""
    seed: int = 0

    shape_kind: str = "torus"
    shape_n_points: int = 256
    shape_n_clouds: int = 64
    shape_noise_std: float = 0.0
    shape_radius: float = 0.5
    shape_major_radius: float = 0.5
    shape_minor_radius: float = 0.15
    shape_extent: float = 1.0
    shape_height: float = 1.0
    shape_turns: float = 3.0

    beta_min: float = 0.1
    beta_max: float = 20.0

    model_latent_dim: int = 64
    model_encoder_width: int = 256
    model_decoder_width: int = 256
    model_decoder_blocks: int = 6
    model_temb_dim: int = 64
    model_latent_width: int = 128
    model_latent_blocks: int = 3

    train_epochs: int = 2000
    train_batch_size: int = 32
    train_lr_encoder: float = 2e-3
    train_lr_decoder: float = 2e-4
    train_lr_latent: float = 1e-4
    train_t_floor: float = 1e-3
    train_lr_constant_epochs: int = 1000
    train_lr_decay_epochs: int = 1000
    train_log_every: int = 100

    sample_n_steps: int = 200
    sample_n_clouds: int = 8
    sample_n_points: int = 256
    sample_alpha: float = 0.0
    sample_knn_k: int = 30
    sample_graph_refresh_stride: int = 1
    sample_constraint_mode: str = "off"
    sample_t_floor: float = EPS_T
    sample_t_constraint: float = 1.0
    sample_terminal_denoise: bool = False
    sample_record_trajectory: bool = False

    eval_knn_k: int = 30

    def __post_init__(self):
        # NaN fails every comparison, so a range check downstream would let it through
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"config key {f.name} must be finite, got {value!r}")


_TYPES = typing.get_type_hints(RunConfig)
_FIELD_ORDER = [f.name for f in fields(RunConfig)]


def _parse_value(key, raw, where):
    kind = _TYPES[key]
    if kind is bool:
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise ConfigError(f"{where}: {key} must be true or false, got {raw!r}")
    if kind is int:
        try:
            return int(raw, 10)
        except ValueError:
            raise ConfigError(f"{where}: {key} must be an integer, got {raw!r}") from None
    if kind is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: {key} must be a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"{where}: config key {key} must be finite, got {raw!r}")
        return value
    return raw


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_run_config(text, source="<config>"):
    """Parse config text; unknown keys, duplicates, and bad values raise."""
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate config key {key!r}")
        seen[key] = _parse_value(key, raw, f"{source}:{lineno}")
    return RunConfig(**seen)


def load_run_config(path):
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(text, source=str(path))


def dump_run_config(config):
    """Serialize every field; parse_run_config(dump_run_config(c)) == c."""
    lines = []
    for name in _FIELD_ORDER:
        lines.append(f"{name} = {_format_value(getattr(config, name))}")
    return "\n".join(lines) + "\n"


# The RunConfig key prefix of each stage dataclass: key = prefix + field name.
STAGE_PREFIXES = {
    DiffusionSchedule: "",
    ModelConfig: "model_",
    ShapeSpec: "shape_",
    TrainConfig: "train_",
    SamplerConfig: "sample_",
}


def stage_config(cls, config, **extras):
    """Build stage dataclass cls from the RunConfig keys under its prefix.

    Every field reads the key prefix + field name unless extras give it
    (seeds, or values a command sets itself). A field with neither raises
    AttributeError, so a renamed key cannot fall back to a stage default.
    """
    prefix = STAGE_PREFIXES[cls]
    values = {f.name: getattr(config, prefix + f.name)
              for f in fields(cls) if f.name not in extras}
    return cls(**values, **extras)
