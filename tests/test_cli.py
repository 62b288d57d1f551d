"""End-to-end command-line tests, run in-process via main(argv)."""

import argparse
import csv
import dataclasses
import filecmp
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import smoothdiff
import smoothdiff.cli as cli
from smoothdiff import (
    RunConfig,
    dump_run_config,
    load_checkpoint,
    load_run_config,
    save_checkpoint,
)
from smoothdiff.cli import build_parser, main
from smoothdiff.pointio import write_xyz
from smoothdiff.sampler import Trajectory

from conftest import tear_writes

TINY_CFG = """\
model_latent_dim = 8
model_encoder_width = 16
model_decoder_width = 16
model_decoder_blocks = 2
model_temb_dim = 8
model_latent_width = 16
model_latent_blocks = 2
train_epochs = 3
train_batch_size = 4
train_log_every = 0
shape_n_clouds = 6
shape_n_points = 32
sample_n_steps = 25
sample_n_clouds = 2
sample_n_points = 24
sample_knn_k = 6
eval_knn_k = 4
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny synth + train run shared by the sampling/eval tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    synth = root / "synth"
    train = root / "train"
    assert main(["synth", "--config", str(cfg), "--out", str(synth)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(synth),
                 "--out", str(train)]) == 0
    return {"root": root, "cfg": str(cfg), "synth": str(synth),
            "train": str(train), "ckpt": str(train / "model.ckpt")}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------------ synth


def test_synth_outputs_and_manifest(pipeline):
    synth = pipeline["synth"]
    files = sorted(os.listdir(synth))
    assert [f for f in files if f.endswith(".xyz")] == [
        f"cloud_{i:04d}.xyz" for i in range(6)
    ]
    manifest = json.load(open(os.path.join(synth, "manifest.json")))
    assert manifest["command"] == "synth"
    assert manifest["count"] == 6 and manifest["points"] == 32
    assert len(manifest["config_sha256"]) == 64
    assert set(manifest["versions"]) == {"numpy", "python", "smoothdiff"}


def test_synth_deterministic_across_runs(pipeline, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--config", pipeline["cfg"], "--out", str(out)]) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_synth_flags_override_config(pipeline, tmp_path):
    out = tmp_path / "s"
    assert main([
        "synth", "--config", pipeline["cfg"], "--out", str(out),
        "--kind", "sphere", "--count", "2", "--points", "10", "--seed", "3",
    ]) == 0
    xyz = [f for f in os.listdir(out) if f.endswith(".xyz")]
    assert len(xyz) == 2
    pts = np.loadtxt(out / "cloud_0000.xyz")
    assert pts.shape == (10, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 0.5, atol=1e-12)


def test_synth_rejects_bad_count(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"), "--count", "0"]) == 2


# ------------------------------------------------------------------ train


def test_train_outputs(pipeline):
    train = pipeline["train"]
    rows = _read_csv(os.path.join(train, "loss.csv"))
    assert rows[0] == ["epoch", "recon", "latent", "entropy", "total"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert os.path.exists(pipeline["ckpt"])
    manifest = json.load(open(os.path.join(train, "manifest.json")))
    assert manifest["epochs"] == 3 and manifest["start_epoch"] == 0
    assert manifest["n_clouds"] == 6


def test_train_deterministic(pipeline, tmp_path):
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    for out in (t1, t2):
        assert main(["train", "--config", pipeline["cfg"],
                     "--data", pipeline["synth"], "--out", str(out)]) == 0
    assert filecmp.cmp(t1 / "model.ckpt", t2 / "model.ckpt", shallow=False)
    assert filecmp.cmp(t1 / "loss.csv", t2 / "loss.csv", shallow=False)


def test_train_resume_continues_loss_csv(pipeline, tmp_path):
    out = tmp_path / "r"
    assert main(["train", "--config", pipeline["cfg"], "--data", pipeline["synth"],
                 "--out", str(out)]) == 0
    assert main(["train", "--config", pipeline["cfg"], "--data", pipeline["synth"],
                 "--out", str(out), "--resume", str(out / "model.ckpt"),
                 "--epochs", "5"]) == 0
    rows = _read_csv(out / "loss.csv")
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3", "4"]
    _, _, header = load_checkpoint(out / "model.ckpt")
    assert header["trained_epochs"] == 5
    # resuming past the target is a config error
    assert main(["train", "--config", pipeline["cfg"], "--data", pipeline["synth"],
                 "--out", str(out), "--resume", str(out / "model.ckpt"),
                 "--epochs", "5"]) == 2


def test_train_resume_rejects_a_different_architecture(pipeline, tmp_path, capsys):
    out = tmp_path / "r"
    assert main(["train", "--config", pipeline["cfg"], "--data", pipeline["synth"],
                 "--out", str(out)]) == 0
    kept = {name: (out / name).read_bytes() for name in ("model.ckpt", "loss.csv")}
    other = tmp_path / "other.cfg"
    other.write_text(TINY_CFG.replace("model_latent_dim = 8", "model_latent_dim = 32")
                     + "beta_max = 5.0\n")
    capsys.readouterr()
    assert main(["train", "--config", str(other), "--data", pipeline["synth"],
                 "--out", str(out), "--resume", str(out / "model.ckpt"),
                 "--epochs", "5"]) == 2
    err = capsys.readouterr().err
    assert "model_latent_dim = 32 (checkpoint: 8)" in err
    assert "beta_max = 5.0 (checkpoint: 20.0)" in err
    assert "model_decoder_width" not in err
    assert {name: (out / name).read_bytes() for name in kept} == kept


def test_train_requires_data():
    assert main(["train", "--out", "/tmp/unused-train-out"]) == 2


def test_train_missing_data_dir(tmp_path):
    assert main(["train", "--data", str(tmp_path / "nothing"),
                 "--out", str(tmp_path / "o")]) == 3


# ----------------------------------------------------------------- sample


def test_sample_writes_clouds(pipeline, tmp_path):
    out = tmp_path / "s"
    assert main(["sample", "--config", pipeline["cfg"], "--checkpoint",
                 pipeline["ckpt"], "--out", str(out)]) == 0
    xyz = sorted(f for f in os.listdir(out) if f.endswith(".xyz"))
    assert xyz == ["sample_0000.xyz", "sample_0001.xyz"]
    pts = np.loadtxt(out / "sample_0000.xyz")
    assert pts.shape == (24, 3)
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["constraint_mode"] == "off" and manifest["alpha"] == 0.0
    assert manifest["checkpoint_trained_epochs"] == 3


def test_sample_off_switches_equivalent(pipeline, tmp_path):
    """--alpha 0 and --mode off ask for the same unguided chain."""
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["sample", "--config", pipeline["cfg"], "--checkpoint", pipeline["ckpt"]]
    assert main(base + ["--out", str(a), "--alpha", "0"]) == 0
    assert main(base + ["--out", str(b), "--mode", "off"]) == 0
    for name in ("sample_0000.xyz", "sample_0001.xyz"):
        assert filecmp.cmp(a / name, b / name, shallow=False)


def test_sample_deterministic_per_seed(pipeline, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ["sample", "--config", pipeline["cfg"], "--checkpoint", pipeline["ckpt"]]
    assert main(base + ["--out", str(a), "--seed", "5"]) == 0
    assert main(base + ["--out", str(b), "--seed", "5"]) == 0
    assert main(base + ["--out", str(c), "--seed", "6"]) == 0
    assert filecmp.cmp(a / "sample_0000.xyz", b / "sample_0000.xyz", shallow=False)
    assert not filecmp.cmp(a / "sample_0000.xyz", c / "sample_0000.xyz", shallow=False)


def test_manifest_hash_covers_flags(pipeline, tmp_path):
    base = ["sample", "--config", pipeline["cfg"], "--checkpoint", pipeline["ckpt"],
            "--steps", "3"]
    hashes = []
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        assert main(base + ["--out", str(tmp_path / name), "--seed", seed]) == 0
        manifest = json.load(open(tmp_path / name / "manifest.json"))
        hashes.append(manifest["config_sha256"])
    assert hashes[0] == hashes[1] != hashes[2]
    effective = dataclasses.replace(load_run_config(pipeline["cfg"]), seed=5,
                                    sample_n_steps=3)
    assert hashes[0] == hashlib.sha256(dump_run_config(effective).encode()).hexdigest()


def test_sample_alpha_mode_conflict(pipeline, tmp_path, capsys):
    code = main(["sample", "--config", pipeline["cfg"], "--checkpoint",
                 pipeline["ckpt"], "--out", str(tmp_path / "x"),
                 "--alpha", "0.001"])
    assert code == 2
    assert "conflicts" in capsys.readouterr().err


def test_sample_guided_with_trajectories(pipeline, tmp_path):
    out = tmp_path / "g"
    assert main(["sample", "--config", pipeline["cfg"], "--checkpoint",
                 pipeline["ckpt"], "--out", str(out), "--alpha", "1e-4",
                 "--mode", "frozen", "--knn-k", "4", "--steps", "15",
                 "--record-trajectory"]) == 0
    rows = _read_csv(out / "trajectory_0000.csv")
    assert rows[0] == ["step", "t", "smoothness"]
    assert len(rows) == 17  # header + 15 steps + final row
    ts = [float(r[1]) for r in rows[1:]]
    assert all(x > y for x, y in zip(ts, ts[1:]))


def test_sample_t_constraint_window(pipeline, tmp_path):
    guided = ["sample", "--config", pipeline["cfg"], "--checkpoint",
              pipeline["ckpt"], "--alpha", "1e-3", "--mode", "frozen",
              "--knn-k", "4", "--steps", "12"]
    never, off, late = (tmp_path / n for n in ("never", "off", "late"))
    # window below the chain floor: guidance can never fire
    assert main(guided + ["--out", str(never), "--t-constraint", "1e-6"]) == 0
    assert main(["sample", "--config", pipeline["cfg"], "--checkpoint",
                 pipeline["ckpt"], "--mode", "off", "--steps", "12",
                 "--out", str(off)]) == 0
    assert main(guided + ["--out", str(late), "--t-constraint", "0.5"]) == 0
    read = lambda d: (d / "sample_0000.xyz").read_bytes()
    assert read(never) == read(off)
    assert read(late) != read(off)
    assert main(guided + ["--out", str(tmp_path / "bad"),
                          "--t-constraint", "0"]) == 2


def test_sample_missing_checkpoint(pipeline, tmp_path):
    assert main(["sample", "--checkpoint", str(tmp_path / "no.ckpt"),
                 "--out", str(tmp_path / "o")]) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sample_numerical_abort_exit_code(pipeline, tmp_path):
    bundle, schedule, _ = load_checkpoint(pipeline["ckpt"])
    bundle.decoder.params[:] = 1e308
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, bundle, schedule, trained_epochs=3)
    assert main(["sample", "--config", pipeline["cfg"], "--checkpoint", str(bad),
                 "--out", str(tmp_path / "o"), "--steps", "5"]) == 4


# ------------------------------------------------------------------- eval


def test_eval_identical_sets(pipeline, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--config", pipeline["cfg"],
                 "--reference", pipeline["synth"],
                 "--generated", pipeline["synth"], "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    values = dict(
        line.split("=", 1) for line in stdout.splitlines() if "=" in line and ":" not in line
    )
    assert float(values["mmd"]) == 0.0
    assert float(values["cov"]) == 1.0
    assert float(values["rs"]) == 0.0
    rows = _read_csv(out)
    assert rows[0] == ["metric", "value"]
    table = {r[0]: float(r[1]) for r in rows[1:]}
    assert table["mmd"] == 0.0 and table["cov"] == 1.0 and table["one_nna"] == 0.0


def test_eval_distinct_sets(pipeline, tmp_path):
    gen = tmp_path / "gen"
    assert main(["sample", "--config", pipeline["cfg"], "--checkpoint",
                 pipeline["ckpt"], "--out", str(gen), "--points", "32"]) == 0
    out = tmp_path / "m.csv"
    assert main(["eval", "--config", pipeline["cfg"], "--reference",
                 pipeline["synth"], "--generated", str(gen),
                 "--out", str(out)]) == 0
    table = {r[0]: float(r[1]) for r in _read_csv(out)[1:]}
    assert table["mmd"] > 0.0
    assert table["mmd_x100"] == pytest.approx(100.0 * table["mmd"], rel=1e-15)
    assert 0.0 <= table["cov"] <= 1.0 and 0.0 <= table["one_nna"] <= 1.0


def test_eval_missing_directory(pipeline, tmp_path):
    assert main(["eval", "--reference", str(tmp_path / "none"),
                 "--generated", pipeline["synth"],
                 "--out", str(tmp_path / "m.csv")]) == 3


# ---------------------------------------------------------------- sweep-k


def test_sweep_k_csv(pipeline, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-k", "--config", pipeline["cfg"],
                 "--checkpoint", pipeline["ckpt"],
                 "--reference", pipeline["synth"], "--out", str(out),
                 "--k-values", "3,5", "--eval-k", "4", "--count", "2",
                 "--points", "20", "--steps", "10", "--alpha", "1e-4",
                 "--t-constraint", "0.5"]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["k", "mean_smoothness", "rs", "baseline_smoothness"]
    assert [r[0] for r in rows[1:]] == ["3", "5"]
    baselines = {r[3] for r in rows[1:]}
    assert len(baselines) == 1
    for r in rows[1:]:
        assert float(r[1]) >= 0.0 and float(r[2]) >= 0.0


def test_sweep_k_abort_keeps_the_previous_csv(pipeline, tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    argv = ["sweep-k", "--config", pipeline["cfg"], "--checkpoint", pipeline["ckpt"],
            "--reference", pipeline["synth"], "--out", str(out), "--k-values", "3,5",
            "--count", "1", "--points", "20", "--steps", "5", "--alpha", "1e-4"]
    assert main(argv) == 0
    before = out.read_bytes()
    real, calls = cli.generate, []

    def abort_on_second_k(*args, **kwargs):
        calls.append(args[2].knn_k)
        if len(calls) == 3:  # the baseline chain, k = 3, then k = 5
            raise smoothdiff.NumericalAbortError("step 0, t=1.0: non-finite state")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "generate", abort_on_second_k)
    assert main(argv) == 4
    assert calls[1:] == [3, 5]
    assert out.read_bytes() == before


def test_sweep_k_validation(pipeline, tmp_path):
    base = ["sweep-k", "--config", pipeline["cfg"], "--checkpoint",
            pipeline["ckpt"], "--reference", pipeline["synth"],
            "--out", str(tmp_path / "s.csv")]
    assert main(base + ["--k-values", "30", "--points", "20",
                        "--steps", "5", "--count", "1"]) == 2
    assert main(base + ["--k-values", "abc"]) == 2
    assert main(base + ["--k-values", "3", "--alpha", "0",
                        "--points", "20", "--steps", "5"]) == 2


def test_sweep_k_checks_eval_k_before_sampling(pipeline, tmp_path, monkeypatch, capsys):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the k values were checked")

    monkeypatch.setattr(cli, "generate", no_chain)
    assert main(["sweep-k", "--config", pipeline["cfg"], "--checkpoint",
                 pipeline["ckpt"], "--reference", pipeline["synth"],
                 "--out", str(tmp_path / "s.csv"), "--k-values", "3",
                 "--eval-k", "40", "--points", "20", "--steps", "5"]) == 2
    assert "eval k=40 must be below n_points=20" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


# ------------------------------------------------------------- artifacts


def _artifact_writers(pipeline, out):
    """(path, write) for each artifact the CLI writes whole, other than the checkpoint."""
    common = ["--config", pipeline["cfg"], "--reference", pipeline["synth"]]
    metrics_argv = ["eval", *common, "--generated", pipeline["synth"],
                    "--out", str(out / "metrics.csv")]
    sweep_argv = ["sweep-k", *common, "--checkpoint", pipeline["ckpt"],
                  "--out", str(out / "sweep.csv"), "--k-values", "3", "--count", "1",
                  "--points", "20", "--steps", "4", "--alpha", "1e-4"]
    traj = Trajectory(step=np.arange(3), t=np.array([1.0, 0.5, 0.01]),
                      smoothness=np.array([3.0, 2.0, 1.0]))
    return {
        "xyz": (out / "cloud.xyz", lambda: write_xyz(out / "cloud.xyz", np.ones((4, 3)))),
        "manifest": (out / "manifest.json",
                     lambda: cli._write_manifest(str(out), {"command": "synth"})),
        "metrics": (out / "metrics.csv", lambda: main(metrics_argv)),
        "sweep": (out / "sweep.csv", lambda: main(sweep_argv)),
        "trajectory": (out / "trajectory_0000.csv",
                       lambda: traj.write_csv(out / "trajectory_0000.csv")),
    }


@pytest.mark.parametrize("artifact", ["xyz", "manifest", "metrics", "sweep", "trajectory"])
def test_failed_write_keeps_previous_artifact(pipeline, tmp_path, monkeypatch, artifact):
    # a write that fails halfway (ENOSPC) leaves the previous file whole and
    # no temp file beside it, as for the checkpoint
    path, write = _artifact_writers(pipeline, tmp_path)[artifact]
    write()
    before = path.read_bytes()
    names = sorted(os.listdir(tmp_path))
    with monkeypatch.context() as m:
        tear_writes(m)
        with pytest.raises(OSError, match="No space"):
            write()
    assert sorted(os.listdir(tmp_path)) == names
    assert path.read_bytes() == before


# ------------------------------------------------------------------- misc


# Arguments that are not config overrides: their meaning or default differs.
COMMAND_ARGS = {
    "help", "command", "config", "out", "checkpoint", "resume", "reference",
    "generated", "k_values", "alpha", "mode", "steps", "samples",
}


def test_flag_dests_are_config_keys_or_command_args():
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        for action in p._actions:
            assert action.dest in keys | COMMAND_ARGS, (name, action.dest)
            if action.dest in keys:
                # an absent flag must leave the config value alone
                assert action.default is None, (name, action.dest)


def test_denoise_demo_reports_small_errors(capsys):
    assert main(["denoise-demo", "--samples", "400", "--steps", "60",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(values["tweedie_vs_posterior_max_abs_error"]) < 1e-9
    assert float(values["gmm_score_vs_finite_difference_max_rel_error"]) < 1e-5
    assert float(values["mixture_occupancy_abs_error"]) < 0.1
    assert float(values["mixture_component_mean_error"]) < 0.2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_config_output_dir_used(pipeline, tmp_path):
    cfg = tmp_path / "o.cfg"
    cfg.write_text(TINY_CFG + f"output_dir = {tmp_path / 'routed'}\n")
    assert main(["synth", "--config", str(cfg), "--count", "1"]) == 0
    assert os.path.exists(tmp_path / "routed" / "synth" / "cloud_0000.xyz")


def test_bad_config_file_exits_two(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2


def test_cli_import_leaves_out_scipy_special(tmp_path):
    # no CLI stage computes anything with scipy: keep the package, with its
    # special functions and sparse matrices, off the import and off every
    # stage of the chain
    src = os.path.dirname(os.path.dirname(os.path.abspath(smoothdiff.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    c = ["--config", str(cfg)]
    stages = [
        ["synth", *c, "--out", "data"],
        ["train", *c, "--data", "data", "--out", "run", "--epochs", "1"],
        ["sample", *c, "--checkpoint", "run/model.ckpt", "--out", "gen", "--steps", "6",
         "--mode", "exact", "--alpha", "1e-4", "--t-constraint", "0.5",
         "--record-trajectory"],
        ["eval", *c, "--reference", "data", "--generated", "gen", "--out", "metrics.csv"],
        ["sweep-k", *c, "--checkpoint", "run/model.ckpt", "--reference", "data",
         "--out", "sweep.csv", "--k-values", "3", "--count", "1", "--steps", "4",
         "--alpha", "1e-4"],
    ]
    code = (
        "import json, sys\n"
        "import smoothdiff.cli\n"
        "def loaded():\n"
        "    return [m for m in ('scipy', 'scipy.special', 'scipy.sparse') if m in sys.modules]\n"
        "report = [('import', 0, loaded())]\n"
        f"for argv in {stages!r}:\n"
        "    rc = smoothdiff.cli.main(argv)\n"
        "    report.append((argv[0], rc, loaded()))\n"
        "print(json.dumps(report))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                            check=True, capture_output=True, text=True)
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert [name for name, _, _ in report] == ["import", "synth", "train", "sample",
                                                "eval", "sweep-k"]
    assert all(rc == 0 and not mods for _, rc, mods in report), report
    assert (tmp_path / "gen" / "trajectory_0000.csv").exists()
    assert (tmp_path / "sweep.csv").exists()
