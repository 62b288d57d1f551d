"""Command-line entry points.

Subcommands: synth (synthetic shape datasets), train, sample, eval,
sweep-k (constraint-k sensitivity), and denoise-demo (analytic-oracle
self-checks). Every command is deterministic under a fixed --seed. Flags
override config-file values, which override defaults. Exit codes: 0 ok,
2 configuration or parameter error, 3 data error, 4 numerical abort.

The default output root is the current directory, overridable with the
SMOOTHDIFF_OUTPUT_ROOT environment variable; each command writes under
<root>/<command> unless --out is given.
"""

import argparse
import hashlib
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    RunConfig,
    dump_run_config,
    load_run_config,
    make_model_config,
    make_schedule,
    make_train_config,
)
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
from .pointio import read_cloud_dir, write_xyz
from .sampler import SamplerConfig, generate, tweedie_denoise
from .score_models import GaussianMixtureScore, build_models
from .training import train

MODE_FLAG_MAP = {"off": "off", "frozen": "frozen_score", "exact": "exact_chain"}


def _pick(flag_value, config_value):
    return config_value if flag_value is None else flag_value


def _output_root():
    return os.environ.get("SMOOTHDIFF_OUTPUT_ROOT", ".")


def _resolve_out(args_out, cfg, command):
    if args_out:
        return args_out
    if cfg.output_dir:
        return os.path.join(cfg.output_dir, command)
    return os.path.join(_output_root(), command)


def _versions():
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "smoothdiff": __version__,
    }


def _config_hash(cfg):
    return hashlib.sha256(dump_run_config(cfg).encode("utf-8")).hexdigest()


def _write_manifest(directory, payload):
    with open(os.path.join(directory, "manifest.json"), "w", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_synth(args, cfg):
    kind = _pick(args.kind, cfg.shape_kind)
    count = _pick(args.count, cfg.shape_n_clouds)
    points = _pick(args.points, cfg.shape_n_points)
    noise_std = _pick(args.noise_std, cfg.shape_noise_std)
    seed = _pick(args.seed, cfg.seed)
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    out = _resolve_out(args.out, cfg, "synth")
    os.makedirs(out, exist_ok=True)
    names = []
    for i in range(count):
        spec = ShapeSpec(
            kind=kind,
            n_points=points,
            noise_std=noise_std,
            rng_seed=seed + i,
            radius=cfg.shape_radius,
            major_radius=cfg.shape_major_radius,
            minor_radius=cfg.shape_minor_radius,
            extent=cfg.shape_extent,
            height=cfg.shape_height,
            turns=cfg.shape_turns,
        )
        name = f"cloud_{i:04d}.xyz"
        write_xyz(os.path.join(out, name), generate_shape(spec))
        names.append(name)
    _write_manifest(out, {
        "base_seed": seed,
        "command": "synth",
        "config_sha256": _config_hash(cfg),
        "count": count,
        "files": names,
        "kind": kind,
        "noise_std": noise_std,
        "points": points,
        "shape_params": {
            "extent": cfg.shape_extent,
            "height": cfg.shape_height,
            "major_radius": cfg.shape_major_radius,
            "minor_radius": cfg.shape_minor_radius,
            "radius": cfg.shape_radius,
            "turns": cfg.shape_turns,
        },
        "versions": _versions(),
    })
    print(f"wrote {count} {kind} clouds ({points} points each) to {out}")
    return 0


def cmd_train(args, cfg):
    data_dir = args.data or cfg.data_dir
    if not data_dir:
        raise ConfigError("no dataset: pass --data or set data_dir in the config")
    seed = _pick(args.seed, cfg.seed)
    epochs = _pick(args.epochs, cfg.train_epochs)
    out = _resolve_out(args.out, cfg, "train")
    os.makedirs(out, exist_ok=True)

    dataset = read_cloud_dir(data_dir)
    train_cfg = make_train_config(cfg, epochs=epochs, seed=seed)
    if args.resume:
        bundle, schedule, header = load_checkpoint(args.resume)
        start_epoch = header["trained_epochs"]
        if start_epoch >= epochs:
            raise ConfigError(
                f"checkpoint already has {start_epoch} epochs; raise --epochs "
                f"above {start_epoch} to continue"
            )
    else:
        bundle = build_models(make_model_config(cfg), seed=seed)
        schedule = make_schedule(cfg)
        start_epoch = 0

    loss_path = os.path.join(out, "loss.csv")
    reports = train(
        bundle, dataset, schedule, train_cfg,
        loss_path=loss_path, start_epoch=start_epoch,
        log_every=cfg.train_log_every,
    )
    ckpt_path = os.path.join(out, "model.ckpt")
    save_checkpoint(ckpt_path, bundle, schedule, trained_epochs=epochs)
    _write_manifest(out, {
        "command": "train",
        "config_sha256": _config_hash(cfg),
        "data_dir": data_dir,
        "epochs": epochs,
        "n_clouds": len(dataset),
        "seed": seed,
        "start_epoch": start_epoch,
        "versions": _versions(),
    })
    last = reports[-1]
    print(
        f"trained epochs {start_epoch}..{epochs - 1}; final recon={last.recon:.6f} "
        f"latent={last.latent:.6f} total={last.total:.6f}"
    )
    print(f"checkpoint: {ckpt_path}")
    return 0


def _sampler_config_from(args, cfg, seed):
    mode_flag = getattr(args, "mode", None)
    mode = cfg.sample_constraint_mode if mode_flag is None else MODE_FLAG_MAP[mode_flag]
    alpha = _pick(getattr(args, "alpha", None), cfg.sample_alpha)
    if mode == "off" and alpha > 0:
        raise ConfigError(
            "alpha > 0 conflicts with constraint mode 'off'; drop --alpha or "
            "pick --mode frozen/exact"
        )
    return SamplerConfig(
        n_steps=_pick(getattr(args, "steps", None), cfg.sample_n_steps),
        alpha=alpha,
        knn_k=_pick(getattr(args, "knn_k", None), cfg.sample_knn_k),
        graph_refresh_stride=_pick(
            getattr(args, "stride", None), cfg.sample_graph_refresh_stride
        ),
        constraint_mode=mode,
        seed=seed,
        t_floor=cfg.sample_t_floor,
        t_constraint=_pick(getattr(args, "t_constraint", None), cfg.sample_t_constraint),
        terminal_denoise=bool(
            getattr(args, "terminal_denoise", False) or cfg.sample_terminal_denoise
        ),
        record_trajectory=bool(
            getattr(args, "record_trajectory", False) or cfg.sample_record_trajectory
        ),
    )


def cmd_sample(args, cfg):
    bundle, schedule, header = load_checkpoint(args.checkpoint)
    seed = _pick(args.seed, cfg.seed)
    sampler_cfg = _sampler_config_from(args, cfg, seed)
    count = _pick(args.count, cfg.sample_n_clouds)
    points = _pick(args.points, cfg.sample_n_points)
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
    _write_manifest(out, {
        "alpha": sampler_cfg.alpha,
        "checkpoint_trained_epochs": header["trained_epochs"],
        "command": "sample",
        "config_sha256": _config_hash(cfg),
        "constraint_mode": sampler_cfg.constraint_mode,
        "files": names,
        "knn_k": sampler_cfg.knn_k,
        "n_clouds": count,
        "n_points": points,
        "n_steps": sampler_cfg.n_steps,
        "seed": seed,
        "t_constraint": sampler_cfg.t_constraint,
        "versions": _versions(),
    })
    print(f"wrote {count} sampled clouds to {out}")
    return 0


def cmd_eval(args, cfg):
    reference = read_cloud_dir(args.reference)
    generated = read_cloud_dir(args.generated)
    knn_k = _pick(args.knn_k, cfg.eval_knn_k)
    report = evaluate_sets(reference, generated, knn_k=knn_k)
    if args.out:
        out_path = args.out
        parent = os.path.dirname(out_path)
    else:
        parent = _resolve_out(None, cfg, "eval")
        out_path = os.path.join(parent, "metrics.csv")
    if parent:
        os.makedirs(parent, exist_ok=True)
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
    seed = _pick(args.seed, cfg.seed)
    k_values = _parse_k_values(args.k_values)
    eval_k = _pick(args.eval_k, cfg.eval_knn_k)
    count = _pick(args.count, cfg.sample_n_clouds)
    points = _pick(args.points, cfg.sample_n_points)
    steps = _pick(args.steps, cfg.sample_n_steps)
    alpha = args.alpha
    if alpha is None:
        alpha = cfg.sample_alpha if cfg.sample_alpha > 0 else SamplerConfig().alpha
    if alpha <= 0:
        raise ConfigError("sweep-k needs alpha > 0")
    mode = MODE_FLAG_MAP[args.mode]
    for k in k_values:
        if k >= points:
            raise InvalidParameterError(
                f"sweep k={k} must be below n_points={points}"
            )

    def run(sc):
        clouds, _ = generate(
            bundle.decoder, schedule, sc, count, points, latent_field=bundle.latent
        )
        return _mean_smoothness(clouds, eval_k)

    common = dict(
        n_steps=steps, seed=seed, t_floor=cfg.sample_t_floor,
        t_constraint=_pick(args.t_constraint, cfg.sample_t_constraint),
        graph_refresh_stride=cfg.sample_graph_refresh_stride,
    )
    baseline = run(SamplerConfig(alpha=0.0, knn_k=eval_k, constraint_mode="off", **common))
    ref_mean = _mean_smoothness(reference, eval_k)

    if args.out:
        out_path = args.out
        parent = os.path.dirname(out_path)
    else:
        parent = _resolve_out(None, cfg, "sweep-k")
        out_path = os.path.join(parent, "sweep.csv")
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        fh.write("k,mean_smoothness,rs,baseline_smoothness\n")
        for k in k_values:
            mean_s = run(SamplerConfig(alpha=alpha, knn_k=k, constraint_mode=mode, **common))
            rs_value = abs(mean_s - ref_mean)
            fh.write(f"{k},{mean_s!r},{rs_value!r},{baseline!r}\n")
            print(f"k={k}: mean_smoothness={mean_s:.6f} rs={rs_value:.6f} "
                  f"baseline={baseline:.6f}")
    print(f"sweep: {out_path}")
    return 0


def cmd_denoise_demo(args, cfg):
    seed = _pick(args.seed, cfg.seed)
    schedule = make_schedule(cfg)
    rng = np.random.default_rng(seed)

    # Tweedie vs the conjugate-Gaussian posterior mean.
    worst = 0.0
    for _ in range(20):
        mu = 2.0 * rng.standard_normal(3)
        sigma0 = rng.uniform(0.2, 1.5)
        t = rng.uniform(0.05, 1.0)
        field = GaussianMixtureScore([mu], sigma0, [1.0], schedule)
        x0 = mu + sigma0 * rng.standard_normal((8, 3))
        a, b = schedule.drift_coef(t), schedule.diffusion_std(t)
        xt = a * x0 + b * rng.standard_normal((8, 3))
        xhat = tweedie_denoise(xt, field.evaluate(xt, None, t), t, schedule)
        var = a * a * sigma0 ** 2 + b * b
        bayes = (mu * b * b + a * xt * sigma0 ** 2) / var
        worst = max(worst, float(np.max(np.abs(xhat - bayes))))
    print(f"tweedie_vs_posterior_max_abs_error={worst!r}")

    # Mixture score vs central finite differences of the log density.
    means = rng.standard_normal((3, 3))
    weights = rng.uniform(0.2, 1.0, size=3)
    field = GaussianMixtureScore(means, 0.5, weights / weights.sum(), schedule)
    t = 0.4
    xt = rng.standard_normal((10, 3))
    score = field.evaluate(xt, None, t)
    h = 1e-5
    fd = np.zeros_like(xt)
    for i in range(xt.shape[0]):
        for c in range(3):
            for sign in (1.0, -1.0):
                probe = xt.copy()
                probe[i, c] += sign * h
                fd[i, c] += sign * _gmm_logpdf(field, probe[i], t)
    fd /= 2.0 * h
    rel = float(np.max(np.abs(score - fd))) / max(1.0, float(np.max(np.abs(fd))))
    print(f"gmm_score_vs_finite_difference_max_rel_error={rel!r}")

    # Short end-to-end chain on a two-component mixture.
    demo_field = GaussianMixtureScore(
        [(2.0, 0.0, 0.0), (-2.0, 0.0, 0.0)], 0.3, [0.5, 0.5], schedule
    )
    sampler_cfg = SamplerConfig(
        n_steps=args.steps, alpha=0.0, constraint_mode="off", seed=seed
    )
    clouds, _ = generate(demo_field, schedule, sampler_cfg, 1, args.samples)
    pts = clouds[0].points
    right = pts[pts[:, 0] > 0]
    left = pts[pts[:, 0] <= 0]
    occ_err = abs(len(right) / len(pts) - 0.5)
    mean_err = max(
        float(np.linalg.norm(right.mean(axis=0) - (2.0, 0.0, 0.0))),
        float(np.linalg.norm(left.mean(axis=0) - (-2.0, 0.0, 0.0))),
    )
    print(f"mixture_occupancy_abs_error={occ_err!r}")
    print(f"mixture_component_mean_error={mean_err!r}")
    return 0


def _gmm_logpdf(field, x, t):
    m, var = field._moments(t)
    diff = x[None, :] - m
    logits = np.log(field.weights) - np.sum(diff * diff, axis=1) / (2.0 * var) \
        - 1.5 * np.log(2.0 * np.pi * var)
    peak = logits.max()
    return float(peak + np.log(np.exp(logits - peak).sum()))


def build_parser():
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
    p.add_argument("--kind", choices=["sphere", "torus", "plane_grid", "helix"])
    p.add_argument("--count", type=int, help="number of clouds")
    p.add_argument("--points", type=int, help="points per cloud")
    p.add_argument("--noise-std", type=float, help="Gaussian jitter per coordinate")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train the generative model")
    p.add_argument("--data", help="directory of .xyz training clouds")
    p.add_argument("--epochs", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", parents=[common], help="generate clouds from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, help="number of clouds")
    p.add_argument("--points", type=int, help="points per cloud")
    p.add_argument("--steps", type=int, help="reverse diffusion steps")
    p.add_argument("--alpha", type=float, help="smoothness constraint weight")
    p.add_argument("--knn-k", type=int, help="constraint graph k")
    p.add_argument("--stride", type=int, help="graph refresh stride")
    p.add_argument("--mode", choices=["off", "frozen", "exact"])
    p.add_argument("--t-constraint", type=float, dest="t_constraint",
                   help="apply the constraint only while t <= this")
    p.add_argument("--terminal-denoise", action="store_true")
    p.add_argument("--record-trajectory", action="store_true")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", parents=[common], help="compare generated and reference sets")
    p.add_argument("--reference", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--knn-k", type=int, help="k for the smoothness metrics")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-k", parents=[common], help="constraint-k sensitivity sweep")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--k-values", default="5,10,15,20,25,30,35")
    p.add_argument("--eval-k", type=int, help="fixed k for measuring smoothness")
    p.add_argument("--count", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mode", choices=["frozen", "exact"], default="frozen")
    p.add_argument("--t-constraint", type=float, dest="t_constraint",
                   help="apply the constraint only while t <= this")
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("denoise-demo", parents=[common],
                       help="print analytic-oracle vs implementation errors")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=cmd_denoise_demo)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config) if args.config else RunConfig()
        return args.func(args, cfg)
    except (ConfigError, InvalidParameterError, UnsupportedModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalAbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
