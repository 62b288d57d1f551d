"""Command-line entry points.

Subcommands: synth (synthetic shape datasets), train, sample, eval and
sweep-k (constraint-k sensitivity). Every command is deterministic under a
fixed --seed. A flag that overrides a config key has that key as its
argparse dest (--steps of sample is sample_n_steps); main merges the given
flags into the config, and the commands read only the merged config. Flags
override config-file values, which override defaults. Exit codes: 0 ok, 2
configuration or parameter error, 3 data error or an output that cannot be
written, 4 numerical abort.

Without --out, each command writes under <output_dir>/<command>, where
output_dir is the config key, or the current directory if it is empty.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import STAGE_PREFIXES, RunConfig, dump_run_config, load_run_config, stage_config
from .errors import (
    ConfigError,
    DataError,
    InvalidInputError,
    InvalidParameterError,
    NumericalAbortError,
    UnsupportedModeError,
)
from .geometry import ShapeSpec, generate_shape
from .metrics import _mean_smoothness, evaluate_sets, write_metrics_csv
from .pointio import _atomic_open, read_cloud_dir, write_xyz
from .sampler import SamplerConfig, generate
from .score_models import ModelConfig, build_models
from .sde import DiffusionSchedule
from .training import TrainConfig, train

MODE_FLAG_MAP = {"off": "off", "frozen": "frozen_score", "exact": "exact_chain"}


class _ModeFlag(argparse.Action):
    """--mode off|frozen|exact, stored as the constraint mode it names."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, MODE_FLAG_MAP[value])


def _resolve_out(args_out, cfg, command):
    return args_out or os.path.join(cfg.output_dir or ".", command)


def _out_file(args_out, cfg, command, name):
    """--out, or <root>/<command>/<name>; creates the file's directory."""
    path = args_out or os.path.join(_resolve_out(None, cfg, command), name)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _write_manifest(directory, command, cfg, payload):
    """manifest.json: payload plus the command, the config hash and the versions."""
    payload = dict(
        payload,
        command=command,
        config_sha256=hashlib.sha256(dump_run_config(cfg).encode("utf-8")).hexdigest(),
        versions={
            "numpy": np.__version__,
            "python": platform.python_version(),
            "smoothdiff": __version__,
        },
    )
    with _atomic_open(os.path.join(directory, "manifest.json")) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_synth(args, cfg):
    count = cfg.shape_n_clouds
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    out = _resolve_out(args.out, cfg, "synth")
    os.makedirs(out, exist_ok=True)
    names = []
    for i in range(count):
        spec = stage_config(ShapeSpec, cfg, rng_seed=cfg.seed + i)
        name = f"cloud_{i:04d}.xyz"
        write_xyz(os.path.join(out, name), generate_shape(spec))
        names.append(name)
    sizes = ("extent", "height", "major_radius", "minor_radius", "radius", "turns")
    _write_manifest(out, "synth", cfg, {
        "base_seed": cfg.seed,
        "count": count,
        "files": names,
        "kind": cfg.shape_kind,
        "noise_std": cfg.shape_noise_std,
        "points": cfg.shape_n_points,
        "shape_params": {name: getattr(cfg, "shape_" + name) for name in sizes},
    })
    print(f"wrote {count} {cfg.shape_kind} clouds ({cfg.shape_n_points} points each) "
          f"to {out}")
    return 0


def _check_resume_config(cfg, bundle, schedule):
    """Raise ConfigError naming each model or schedule key the checkpoint differs in."""
    conflicts = []
    for stored in (bundle.config, schedule):
        cls = type(stored)
        wanted = stage_config(cls, cfg)
        for f in dataclasses.fields(cls):
            value, kept = getattr(wanted, f.name), getattr(stored, f.name)
            if value != kept:
                conflicts.append(f"{STAGE_PREFIXES[cls]}{f.name} = {value!r} "
                                 f"(checkpoint: {kept!r})")
    if conflicts:
        raise ConfigError("resume config conflicts with the checkpoint: "
                          + "; ".join(conflicts))


def cmd_train(args, cfg):
    if not cfg.data_dir:
        raise ConfigError("no dataset: pass --data or set data_dir in the config")
    epochs = cfg.train_epochs
    out = _resolve_out(args.out, cfg, "train")
    os.makedirs(out, exist_ok=True)

    dataset = read_cloud_dir(cfg.data_dir)
    train_cfg = stage_config(TrainConfig, cfg, seed=cfg.seed)
    if args.resume:
        bundle, schedule, header = load_checkpoint(args.resume)
        _check_resume_config(cfg, bundle, schedule)
        start_epoch = header["trained_epochs"]
        if start_epoch >= epochs:
            raise ConfigError(
                f"checkpoint already has {start_epoch} epochs; raise --epochs "
                f"above {start_epoch} to continue"
            )
    else:
        bundle = build_models(stage_config(ModelConfig, cfg), seed=cfg.seed)
        schedule = stage_config(DiffusionSchedule, cfg)
        start_epoch = 0

    loss_path = os.path.join(out, "loss.csv")
    reports = train(
        bundle, dataset, schedule, train_cfg,
        loss_path=loss_path, start_epoch=start_epoch,
        log_every=cfg.train_log_every,
    )
    ckpt_path = os.path.join(out, "model.ckpt")
    save_checkpoint(ckpt_path, bundle, schedule, trained_epochs=epochs)
    _write_manifest(out, "train", cfg, {
        "data_dir": cfg.data_dir,
        "epochs": epochs,
        "n_clouds": len(dataset),
        "seed": cfg.seed,
        "start_epoch": start_epoch,
    })
    last = reports[-1]
    print(
        f"trained epochs {start_epoch}..{epochs - 1}; final recon={last.recon:.6f} "
        f"latent={last.latent:.6f} total={last.total:.6f}"
    )
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_sample(args, cfg):
    bundle, schedule, header = load_checkpoint(args.checkpoint)
    if cfg.sample_constraint_mode == "off" and cfg.sample_alpha > 0:
        raise ConfigError(
            "alpha > 0 conflicts with constraint mode 'off'; drop --alpha or "
            "pick --mode frozen/exact"
        )
    sampler_cfg = stage_config(SamplerConfig, cfg, seed=cfg.seed)
    count, points = cfg.sample_n_clouds, cfg.sample_n_points
    out = _resolve_out(args.out, cfg, "sample")
    os.makedirs(out, exist_ok=True)

    clouds, trajectories = generate(
        bundle.decoder, schedule, sampler_cfg, count, points,
        latent_field=bundle.latent,
    )
    names = []
    for i, cloud in enumerate(clouds):
        name = f"sample_{i:04d}.xyz"
        write_xyz(os.path.join(out, name), cloud)
        names.append(name)
    if trajectories is not None:
        for i, traj in enumerate(trajectories):
            traj.write_csv(os.path.join(out, f"trajectory_{i:04d}.csv"))
    _write_manifest(out, "sample", cfg, {
        "alpha": sampler_cfg.alpha,
        "checkpoint_trained_epochs": header["trained_epochs"],
        "constraint_mode": sampler_cfg.constraint_mode,
        "files": names,
        "knn_k": sampler_cfg.knn_k,
        "n_clouds": count,
        "n_points": points,
        "n_steps": sampler_cfg.n_steps,
        "seed": cfg.seed,
        "t_constraint": sampler_cfg.t_constraint,
    })
    print(f"wrote {count} sampled clouds to {out}")
    return 0


def cmd_eval(args, cfg):
    reference = read_cloud_dir(args.reference)
    generated = read_cloud_dir(args.generated)
    report = evaluate_sets(reference, generated, knn_k=cfg.eval_knn_k)
    out_path = _out_file(args.out, cfg, "eval", "metrics.csv")
    write_metrics_csv(out_path, report)
    for name in ("mmd", "cov", "one_nna", "rs", "gt_smoothness", "model_smoothness"):
        print(f"{name}={getattr(report, name)!r}")
    print(f"metrics: {out_path}")
    return 0


def _parse_k_values(raw):
    try:
        values = [int(part, 10) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--k-values must be comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigError("--k-values is empty")
    if any(k < 1 for k in values):
        raise ConfigError("every k in --k-values must be >= 1")
    return values


def cmd_sweep_k(args, cfg):
    bundle, schedule, _ = load_checkpoint(args.checkpoint)
    reference = read_cloud_dir(args.reference)
    k_values = _parse_k_values(args.k_values)
    eval_k, count, points = cfg.eval_knn_k, cfg.sample_n_clouds, cfg.sample_n_points
    alpha = args.alpha
    if alpha is None:
        alpha = cfg.sample_alpha if cfg.sample_alpha > 0 else SamplerConfig().alpha
    if alpha <= 0:
        raise ConfigError("sweep-k needs alpha > 0")
    for what, k in [("sweep k", k) for k in k_values] + [("eval k", eval_k)]:
        if k >= points:
            raise InvalidParameterError(f"{what}={k} must be below n_points={points}")

    def run(**chain):
        sc = stage_config(SamplerConfig, cfg, seed=cfg.seed, terminal_denoise=False,
                          record_trajectory=False, **chain)
        clouds, _ = generate(
            bundle.decoder, schedule, sc, count, points, latent_field=bundle.latent
        )
        return _mean_smoothness(clouds, eval_k)

    ref_mean = _mean_smoothness(reference, eval_k)
    baseline = run(alpha=0.0, knn_k=eval_k, constraint_mode="off")
    # Every chain runs before the file is opened, so an abort leaves any
    # earlier sweep.csv as it was.
    means = [run(alpha=alpha, knn_k=k, constraint_mode=args.mode) for k in k_values]

    out_path = _out_file(args.out, cfg, "sweep-k", "sweep.csv")
    with _atomic_open(out_path) as fh:
        fh.write("k,mean_smoothness,rs,baseline_smoothness\n")
        for k, mean_s in zip(k_values, means):
            rs_value = abs(mean_s - ref_mean)
            fh.write(f"{k},{mean_s!r},{rs_value!r},{baseline!r}\n")
            print(f"k={k}: mean_smoothness={mean_s:.6f} rs={rs_value:.6f} "
                  f"baseline={baseline:.6f}")
    print(f"sweep: {out_path}")
    return 0


def build_parser():
    """The CLI parser. A flag that overrides a config key uses that key as
    its dest; the other arguments belong to their command."""
    parser = argparse.ArgumentParser(
        prog="smoothdiff",
        description="Smoothness-constrained diffusion point cloud generation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run config file (flat key = value)")
    common.add_argument("--out", help="output directory (or file for eval/sweep-k)")
    common.add_argument("--seed", type=int, help="override the run seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic shape dataset")
    p.add_argument("--kind", dest="shape_kind",
                   choices=["sphere", "torus", "plane_grid", "helix"])
    p.add_argument("--count", dest="shape_n_clouds", type=int, help="number of clouds")
    p.add_argument("--points", dest="shape_n_points", type=int, help="points per cloud")
    p.add_argument("--noise-std", dest="shape_noise_std", type=float,
                   help="Gaussian jitter per coordinate")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train the generative model")
    p.add_argument("--data", dest="data_dir", help="directory of .xyz training clouds")
    p.add_argument("--epochs", dest="train_epochs", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", parents=[common], help="generate clouds from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", dest="sample_n_clouds", type=int, help="number of clouds")
    p.add_argument("--points", dest="sample_n_points", type=int, help="points per cloud")
    p.add_argument("--steps", dest="sample_n_steps", type=int,
                   help="reverse diffusion steps")
    p.add_argument("--alpha", dest="sample_alpha", type=float,
                   help="smoothness constraint weight")
    p.add_argument("--knn-k", dest="sample_knn_k", type=int, help="constraint graph k")
    p.add_argument("--stride", dest="sample_graph_refresh_stride", type=int,
                   help="graph refresh stride")
    p.add_argument("--mode", dest="sample_constraint_mode", action=_ModeFlag,
                   choices=list(MODE_FLAG_MAP))
    p.add_argument("--t-constraint", dest="sample_t_constraint", type=float,
                   help="apply the constraint only while t <= this")
    p.add_argument("--terminal-denoise", dest="sample_terminal_denoise",
                   action="store_const", const=True)
    p.add_argument("--record-trajectory", dest="sample_record_trajectory",
                   action="store_const", const=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", parents=[common], help="compare generated and reference sets")
    p.add_argument("--reference", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--knn-k", dest="eval_knn_k", type=int,
                   help="k for the smoothness metrics")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-k", parents=[common], help="constraint-k sensitivity sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--k-values", default="5,10,15,20,25,30,35")
    p.add_argument("--eval-k", dest="eval_knn_k", type=int,
                   help="fixed k for measuring smoothness")
    p.add_argument("--count", dest="sample_n_clouds", type=int)
    p.add_argument("--points", dest="sample_n_points", type=int)
    p.add_argument("--steps", dest="sample_n_steps", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mode", action=_ModeFlag, choices=["frozen", "exact"],
                   default=MODE_FLAG_MAP["frozen"])
    p.add_argument("--t-constraint", dest="sample_t_constraint", type=float,
                   help="apply the constraint only while t <= this")
    p.set_defaults(func=cmd_sweep_k)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if key in RunConfig.__dataclass_fields__ and value is not None}
    try:
        cfg = load_run_config(args.config) if args.config else RunConfig()
        return args.func(args, dataclasses.replace(cfg, **overrides))
    except (ConfigError, InvalidParameterError, UnsupportedModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalAbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
