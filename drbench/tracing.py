"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install`` replaces every public function of the traced drnets
modules with a timing wrapper, in every drnets namespace that holds it, so
calls made through another module's import (``estimators`` calling
``lasso_fit``) and inside the defining module (``select_lambda`` calling
``lasso_fit``) are both seen.  ``CateData.subset`` and ``DteData.subset`` are
wrapped on their classes.  A span is ``[name, start, end, parent]``; spans stay
in memory and are written out when the run ends.

Some wrapped calls have an observer that checks the result independently
(KKT residual, finite losses, clamped predictions) and counts work done.  An
observer runs in its own ``bench.check`` span, so its cost is not charged to
the caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

import checks

LAYERS = ("cli", "estimators", "scores", "linmod", "nnet", "simlab", "_parallel")
SCORE_FUNCTIONS = ("cate_pseudo_outcome", "dte_stage2_pseudo_outcome", "dte_score", "cde_score")
GENERATORS = ("simlab.generate", "simlab.gen_dte", "simlab.gen_cate")


def _metric_layer(layer: str) -> str:
    # Metric names start with a letter, so the _parallel layer reports as "parallel".
    return layer.lstrip("_")


# Every per-layer metric with its unit, in the order a traced run prints them.
PER_LAYER_UNITS = {
    "trace.op_s": "s",
    "trace.unattributed_s": "s",
    "trace.check_s": "s",
    **{f"{_metric_layer(layer)}.self_s": "s" for layer in LAYERS},
    "cli.read_csv.s": "s",
    "cli.read_csv.rows": "count",
    "cli.write_csv.s": "s",
    "estimators.estimate_mu_dr.calls": "count",
    "estimators.estimate_mu_dr.s": "s",
    "scores.score.calls": "count",
    "scores.score.s": "s",
    "scores.subset.calls": "count",
    "scores.subset.rows": "count",
    "scores.subset.s": "s",
    "scores.make_folds.s": "s",
    "linmod.lasso_fit.calls": "count",
    "linmod.lasso_fit.s": "s",
    "linmod.lasso_fit.sweeps": "count",
    "linmod.logistic_lasso_fit.calls": "count",
    "linmod.logistic_lasso_fit.s": "s",
    "linmod.logistic_lasso_fit.iters": "count",
    "linmod.select_lambda.calls": "count",
    "linmod.select_lambda.self_s": "s",
    "linmod.kkt_residual_max": "1",
    "nnet.mlp_fit.calls": "count",
    "nnet.mlp_fit.s": "s",
    "nnet.epochs": "count",
    "nnet.steps": "count",
    "nnet.s_per_step": "s",
    "nnet.mlp_predict.calls": "count",
    "nnet.mlp_predict.s": "s",
    "simlab.generate.s": "s",
    "parallel.workers": "count",
    "parallel.speedup": "x",
    "parallel.cpu_utilization": "1",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.failures: list[str] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ recording

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                check = tracer.begin("bench.check")
                try:
                    observe(tracer, args, kwargs, result)
                finally:
                    tracer.end(check)
            return result

        return traced

    # --------------------------------------------------------- installation

    def install(self) -> None:
        modules = [importlib.import_module(f"drnets.{layer}") for layer in LAYERS]
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "drnets" or name.startswith("drnets."))]
        for module, layer in zip(modules, LAYERS):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn, OBSERVERS.get((layer, attr)))
                for ns in namespaces:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, ns_attr, wrapped)
                            self._undo.append((ns, ns_attr, fn))
        scores = modules[LAYERS.index("scores")]
        for cls in (scores.CateData, scores.DteData):
            original = cls.__dict__["subset"]
            cls.subset = self.wrap("scores.subset", original, _observe_subset)
            self._undo.append((cls, "subset", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- output

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-operation means over the ``bench.op`` spans.

        ``simlab.generate.s`` and ``cli.write_csv.s`` add the time of the
        set-up (the spans outside any operation), since the DTE workloads
        generate and write their data there.
        """
        n = len(self.spans)
        names = np.array([s[0] for s in self.spans], dtype=str)
        start = np.array([s[1] for s in self.spans], dtype=np.float64)
        dur = np.array([s[2] for s in self.spans], dtype=np.float64) - start
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        in_op = np.zeros(n, dtype=bool)
        for i in range(n):  # parents precede their children
            in_op[i] = names[i] == "bench.op" or (parent[i] >= 0 and in_op[parent[i]])
        n_ops = max(int(np.count_nonzero(names == "bench.op")), 1)
        layer = np.array([name.split(".", 1)[0] for name in names], dtype=str)

        def named(*wanted):
            return np.isin(names, wanted)

        def per_op(mask, values=dur):
            return float(values[mask & in_op].sum()) / n_ops

        def per_setup(mask):
            return float(dur[mask & ~in_op].sum())

        def calls(mask):
            return float(np.count_nonzero(mask & in_op)) / n_ops

        out = {}
        for name in LAYERS:
            out[f"{_metric_layer(name)}.self_s"] = per_op(layer == name, self_time)
        op = named("bench.op")
        out["trace.op_s"] = per_op(op)
        out["trace.unattributed_s"] = per_op(op, self_time)
        out["trace.check_s"] = per_op(named("bench.check"))
        attributed = sum(out[f"{_metric_layer(name)}.self_s"] for name in LAYERS)
        gap = out["trace.op_s"] - attributed - out["trace.unattributed_s"] - out["trace.check_s"]
        if abs(gap) > 1e-9 * max(out["trace.op_s"], 1.0):
            self.failures.append(f"layer self times miss the operation time by {gap:.3e} s")

        for fn in ("lasso_fit", "logistic_lasso_fit", "select_lambda"):
            out[f"linmod.{fn}.calls"] = calls(named(f"linmod.{fn}"))
        out["linmod.lasso_fit.s"] = per_op(named("linmod.lasso_fit"))
        out["linmod.logistic_lasso_fit.s"] = per_op(named("linmod.logistic_lasso_fit"))
        out["linmod.select_lambda.self_s"] = per_op(named("linmod.select_lambda"), self_time)
        for fn in ("mlp_fit", "mlp_predict"):
            out[f"nnet.{fn}.calls"] = calls(named(f"nnet.{fn}"))
            out[f"nnet.{fn}.s"] = per_op(named(f"nnet.{fn}"))
        score = named(*(f"scores.{fn}" for fn in SCORE_FUNCTIONS))
        out["scores.score.calls"] = calls(score)
        out["scores.score.s"] = per_op(score)
        out["scores.subset.calls"] = calls(named("scores.subset"))
        out["scores.subset.s"] = per_op(named("scores.subset"))
        out["scores.make_folds.s"] = per_op(named("scores.make_folds"))
        out["estimators.estimate_mu_dr.calls"] = calls(named("estimators.estimate_mu_dr"))
        out["estimators.estimate_mu_dr.s"] = per_op(named("estimators.estimate_mu_dr"))
        out["cli.read_csv.s"] = per_op(named("cli.read_csv"))
        generator = named(*GENERATORS)
        outermost = generator & ~(has_parent & generator[np.maximum(parent, 0)])
        out["simlab.generate.s"] = per_op(outermost) + per_setup(outermost)
        write = named("cli.write_csv")
        out["cli.write_csv.s"] = per_op(write) + per_setup(write)

        for key in ("linmod.lasso_fit.sweeps", "linmod.logistic_lasso_fit.iters",
                    "scores.subset.rows", "cli.read_csv.rows", "nnet.epochs", "nnet.steps"):
            out[key] = self.counts.get("op." + key, 0.0) / n_ops
        out["linmod.kkt_residual_max"] = self.counts.get("kkt_residual_max", 0.0)
        out["nnet.s_per_step"] = (out["nnet.mlp_fit.s"] / out["nnet.steps"]
                                  if out["nnet.steps"] else 0.0)
        return out

    def count(self, key: str, value: float) -> None:
        """Add to a work counter, keeping operation work apart from set-up."""
        in_op = any(self.spans[i][0] == "bench.op" for i in self.stack)
        self.counts[("op." if in_op else "setup.") + key] += value


# -------------------------------------------------------------- observers


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _observe_linear(key):
    def observe(tracer, args, kwargs, model):
        x, y, lam = args[0], args[1], _arg(args, kwargs, 2, "lam")
        weight = _arg(args, kwargs, 3, "sample_weight")
        residual = checks.kkt_residual(x, y, lam, weight, model.coefficients,
                                       model.intercept, model.link)
        tracer.counts["kkt_residual_max"] = max(tracer.counts.get("kkt_residual_max", 0.0),
                                                residual)
        if not residual <= checks.KKT_TOL:
            tracer.failures.append(f"{model.link} lasso returned KKT residual {residual:.3e}")
        # lasso_fit records one objective per sweep; the logistic trace also
        # holds the starting objective.
        steps = len(model.objective_trace) - (1 if key.endswith("iters") else 0)
        tracer.count(key, steps)
    return observe


def _observe_mlp_fit(tracer, args, kwargs, model):
    tracer.failures.extend(checks.mlp_fit_failures(model))
    x, cfg = args[0], _arg(args, kwargs, 2, "config")
    weight = _arg(args, kwargs, 3, "sample_weight")
    kept = np.shape(x)[0] if weight is None else int(np.count_nonzero(np.asarray(weight) > 0))
    n_train = kept - int(math.floor(kept * cfg.validation_fraction))
    epochs = len(model.training_loss)
    tracer.count("nnet.epochs", epochs)
    tracer.count("nnet.steps", epochs * math.ceil(n_train / cfg.batch_size))


def _observe_mlp_predict(tracer, args, kwargs, output):
    tracer.failures.extend(checks.mlp_predict_failures(args[0], output))


def _observe_subset(tracer, args, kwargs, data):
    tracer.count("scores.subset.rows", data.n)


def _observe_read_csv(tracer, args, kwargs, result):
    tracer.count("cli.read_csv.rows", result[1].shape[0])


OBSERVERS = {
    ("linmod", "lasso_fit"): _observe_linear("linmod.lasso_fit.sweeps"),
    ("linmod", "logistic_lasso_fit"): _observe_linear("linmod.logistic_lasso_fit.iters"),
    ("nnet", "mlp_fit"): _observe_mlp_fit,
    ("nnet", "mlp_predict"): _observe_mlp_predict,
    ("cli", "read_csv"): _observe_read_csv,
}
