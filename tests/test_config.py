"""Run-config parsing: strictness, typing, and lossless round trips."""

import dataclasses

import pytest

from smoothdiff import (
    ConfigError,
    DiffusionSchedule,
    ModelConfig,
    RunConfig,
    SamplerConfig,
    ShapeSpec,
    TrainConfig,
    dump_run_config,
    parse_run_config,
    stage_config,
)
from smoothdiff.config import STAGE_PREFIXES, load_run_config

# Keys that the commands read themselves rather than pass to a stage.
COMMAND_KEYS = {
    "data_dir", "output_dir", "seed", "shape_n_clouds", "sample_n_clouds",
    "sample_n_points", "train_log_every", "eval_knn_k",
}


def test_defaults_round_trip():
    cfg = RunConfig()
    assert parse_run_config(dump_run_config(cfg)) == cfg


def test_modified_values_round_trip():
    cfg = RunConfig(
        seed=99,
        shape_kind="helix",
        shape_noise_std=0.01875,
        train_lr_encoder=3.5e-4,
        sample_alpha=1e-4,
        sample_constraint_mode="frozen_score",
        sample_terminal_denoise=True,
        output_dir="runs/a",
    )
    assert parse_run_config(dump_run_config(cfg)) == cfg


def test_every_field_serialized():
    text = dump_run_config(RunConfig())
    keys = {line.split("=")[0].strip() for line in text.strip().splitlines()}
    assert keys == {f.name for f in dataclasses.fields(RunConfig)}


def test_comments_and_blank_lines_ignored():
    cfg = parse_run_config("# a comment\n\nseed = 5\n   \n# another\n")
    assert cfg.seed == 5


def test_unknown_key_rejected_with_location():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown config key 'sede'"):
        parse_run_config("seed = 1\nsede = 2\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate config key 'seed'"):
        parse_run_config("seed = 1\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
        parse_run_config("seed 1\n")


def test_typed_value_errors():
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_run_config("seed = 1.5\n")
    with pytest.raises(ConfigError, match="must be a number"):
        parse_run_config("sample_alpha = tiny\n")
    with pytest.raises(ConfigError, match="must be true or false"):
        parse_run_config("sample_terminal_denoise = yes\n")


def test_non_finite_value_rejected_with_location():
    # the config file's line, as for every other bad value; RunConfig built
    # in code keeps its own check
    for raw in ("inf", "-inf", "nan"):
        with pytest.raises(ConfigError,
                           match=rf"^run\.cfg:3: config key sample_alpha must be finite, got '{raw}'$"):
            parse_run_config(f"seed = 1\n# guided\nsample_alpha = {raw}\n", source="run.cfg")
    with pytest.raises(ConfigError, match=r"^config key beta_max must be finite, got nan$"):
        RunConfig(beta_max=float("nan"))


def test_bool_spelling():
    assert parse_run_config("sample_terminal_denoise = true\n").sample_terminal_denoise
    assert not parse_run_config("sample_terminal_denoise = false\n").sample_terminal_denoise


def test_file_round_trip(tmp_path):
    cfg = RunConfig(seed=12, beta_max=18.5, shape_kind="sphere")
    path = tmp_path / "run.cfg"
    path.write_text(dump_run_config(cfg))
    assert load_run_config(path) == cfg


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(tmp_path / "nope.cfg")


def test_factory_helpers():
    cfg = RunConfig(beta_min=0.2, beta_max=10.0, model_latent_dim=12, seed=7,
                    train_epochs=5)
    sched = stage_config(DiffusionSchedule, cfg)
    assert sched.beta_min == 0.2 and sched.beta_max == 10.0
    mc = stage_config(ModelConfig, cfg)
    assert mc.latent_dim == 12
    tc = stage_config(TrainConfig, cfg, seed=cfg.seed)
    assert tc.epochs == 5 and tc.seed == 7
    tc2 = stage_config(TrainConfig, cfg, epochs=9, seed=1)
    assert tc2.epochs == 9 and tc2.seed == 1


def test_every_key_feeds_one_stage_field_or_a_command():
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    fed, unfed = [], set()
    for cls, prefix in STAGE_PREFIXES.items():
        for f in dataclasses.fields(cls):
            if prefix + f.name in keys:
                fed.append(prefix + f.name)
            else:
                unfed.add((cls.__name__, f.name))
    assert len(fed) == len(set(fed))
    assert set(fed).isdisjoint(COMMAND_KEYS)
    assert set(fed) | COMMAND_KEYS == keys
    # The only stage fields no key feeds are the seeds each command passes.
    assert unfed == {("ShapeSpec", "rng_seed"), ("TrainConfig", "seed"),
                     ("SamplerConfig", "seed")}


def test_stage_config_requires_unfed_fields():
    with pytest.raises(AttributeError, match="sample_seed"):
        stage_config(SamplerConfig, RunConfig())
    spec = stage_config(ShapeSpec, RunConfig(shape_turns=4.5), rng_seed=3)
    assert spec.turns == 4.5 and spec.rng_seed == 3 and spec.kind == "torus"
