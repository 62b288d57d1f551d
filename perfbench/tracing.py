"""Spans around smoothdiff's public functions, installed from outside.

Each function is wrapped at the name through which its caller looks it up
(a module global such as ``smoothdiff.sampler.build_knn_graph``, a module
attribute such as ``smoothdiff._kernels.chamfer``, or a method on its
class), so the program itself is unchanged. A span records its name, start,
end, parent span and run id, plus an optional measured quantity (rows,
bytes, FLOPs, set sizes). Spans stay in memory until the run writes them.
"""

import json
import os
import time


def _rows_and_flops(args):
    net, xt = args[0], args[1]
    w, rows = net.width, len(xt)
    per_row = (2 * (3 + net.temb_dim) * w
               + net.n_blocks * (2 * (w + net.latent_dim) * w + 2 * w * w)
               + 2 * w * 3)
    return (rows, rows * per_row)


def _file_bytes(args):
    return os.path.getsize(args[0])


def _set_sizes(args):
    return (len(args[0]), len(args[1]))


def span_points(sd):
    """(owner, attribute, span name, extra) for every traced call site."""
    cli, sampler, metrics = sd.cli, sd.sampler, sd.metrics
    models, training, kernels, pointio = sd.score_models, sd.training, sd._kernels, sd.pointio
    return [
        (cli, "cmd_synth", "cli.synth", None),
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_sample", "cli.sample", None),
        (cli, "cmd_eval", "cli.eval", None),
        (cli, "write_xyz", "pointio.write", _file_bytes),
        (pointio, "read_xyz", "pointio.read", _file_bytes),
        (cli, "save_checkpoint", "checkpoint.save", _file_bytes),
        (cli, "load_checkpoint", "checkpoint.load", _file_bytes),
        (cli, "generate", "sampler.generate", None),
        (cli, "evaluate_sets", "metrics.evaluate_sets", _set_sizes),
        (training, "train_step", "training.train_step", None),
        (training.Adam, "step", "training.adam_step", None),
        (models.MlpScoreNet, "forward", "score_models.decoder_forward", _rows_and_flops),
        (models.MlpScoreNet, "backward", "score_models.decoder_backward", None),
        (models.MlpScoreNet, "input_vjp", "score_models.decoder_input_vjp", None),
        (models.PointEncoder, "forward", "score_models.encoder_forward", None),
        (models.PointEncoder, "backward", "score_models.encoder_backward", None),
        (models.LatentScoreNet, "forward", "score_models.latent_forward", None),
        (sampler, "sample_latent", "sampler.sample_latent", None),
        (sampler, "constraint_gradient", "sampler.constraint_gradient", None),
        (sampler, "build_knn_graph", "geometry.build_knn_graph", None),
        (metrics, "build_knn_graph", "geometry.build_knn_graph", None),
        (kernels, "knn_neighbors", "geometry.knn_search", None),
        (sampler, "build_laplacian", "geometry.build_laplacian", None),
        (metrics, "build_laplacian", "geometry.build_laplacian", None),
        (sampler, "smoothness_gradient", "geometry.smoothness_gradient", None),
        (kernels, "chamfer", "metrics.chamfer", None),
        (metrics, "_mean_smoothness", "metrics.mean_smoothness", None),
    ]


class Tracer:
    """Records spans while installed; install() and uninstall() pair up."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, run id, extra]
        self.run_id = None
        self._stack = []
        self._undo = []

    def _wrap(self, owner, attr, name, extra):
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if extra is not None:
                    span[5] = extra(args)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self, sd, run_id):
        self.run_id = run_id
        for owner, attr, name, extra in span_points(sd):
            self._wrap(owner, attr, name, extra)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run", "extra"],
                       "spans": self.spans}, fh)


def _totals(spans, run_id):
    """Per-name wall time, self time, calls and summed extras for one run id."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    tot = {}
    for i, s in enumerate(spans):
        if s[4] != run_id:
            continue
        t = tot.setdefault(s[0], {"ns": 0, "self_ns": 0, "calls": 0, "extra": []})
        t["ns"] += s[2] - s[1]
        t["self_ns"] += s[2] - s[1] - child_ns[i]
        t["calls"] += 1
        if s[5] is not None:
            t["extra"].append(s[5])
    return tot


def layer_metrics(spans, run_id):
    """Every per-layer metric of one traced round, keyed by metric name."""
    tot = _totals(spans, run_id)
    empty = {"ns": 0, "self_ns": 0, "calls": 0, "extra": []}

    def busy(name):
        return tot.get(name, empty)["ns"] / 1e9

    def own(name):
        return tot.get(name, empty)["self_ns"] / 1e9

    def calls(name):
        return tot.get(name, empty)["calls"]

    def extra(name, i=None):
        values = tot.get(name, empty)["extra"]
        return sum(v if i is None else v[i] for v in values)

    pairs = sum((r + g) * (r + g - 1) // 2 for r, g in tot.get("metrics.evaluate_sets", empty)["extra"])
    fwd = "score_models.decoder_forward"
    return {
        "score_models.decoder_forward_s": busy(fwd),
        "score_models.decoder_forward_calls": calls(fwd),
        "score_models.decoder_forward_rows": extra(fwd, 0),
        "score_models.decoder_forward_gflop_per_s": extra(fwd, 1) / busy(fwd) / 1e9 if busy(fwd) else 0.0,
        "score_models.decoder_backward_s": busy("score_models.decoder_backward"),
        "score_models.decoder_input_vjp_s": busy("score_models.decoder_input_vjp"),
        "score_models.encoder_forward_s": busy("score_models.encoder_forward"),
        "score_models.encoder_backward_s": busy("score_models.encoder_backward"),
        "score_models.latent_forward_s": busy("score_models.latent_forward"),
        "score_models.latent_forward_calls": calls("score_models.latent_forward"),
        "training.train_step_s": busy("training.train_step"),
        "training.train_step_calls": calls("training.train_step"),
        "training.adam_step_s": busy("training.adam_step"),
        "sampler.generate_s": busy("sampler.generate"),
        "sampler.sample_latent_s": busy("sampler.sample_latent"),
        "sampler.constraint_gradient_s": busy("sampler.constraint_gradient"),
        "sampler.self_s": own("sampler.generate"),
        "geometry.build_knn_graph_s": busy("geometry.build_knn_graph"),
        "geometry.build_knn_graph_calls": calls("geometry.build_knn_graph"),
        "geometry.knn_search_s": busy("geometry.knn_search"),
        "geometry.edge_dedup_s": own("geometry.build_knn_graph"),
        "geometry.build_laplacian_s": busy("geometry.build_laplacian"),
        "geometry.smoothness_gradient_s": busy("geometry.smoothness_gradient"),
        "metrics.chamfer_s": busy("metrics.chamfer"),
        "metrics.chamfer_calls": calls("metrics.chamfer"),
        "metrics.chamfer_calls_per_pair": calls("metrics.chamfer") / pairs if pairs else 0.0,
        "metrics.mean_smoothness_s": busy("metrics.mean_smoothness"),
        "pointio.write_s": busy("pointio.write"),
        "pointio.read_s": busy("pointio.read"),
        "pointio.bytes": extra("pointio.write") + extra("pointio.read"),
        "checkpoint.save_s": busy("checkpoint.save"),
        "checkpoint.load_s": busy("checkpoint.load"),
        "checkpoint.bytes": extra("checkpoint.save") + extra("checkpoint.load"),
        "cli.synth_s": busy("cli.synth"),
        "cli.train_s": busy("cli.train"),
        "cli.sample_s": busy("cli.sample"),
        "cli.eval_s": busy("cli.eval"),
    }
