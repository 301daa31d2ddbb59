"""The drbench workloads.

A workload draws its inputs in ``setup`` from the run's seed, then runs one
operation per input: ``execute`` is the timed part and ``check`` verifies its
output afterwards, outside the timing.  Dataset ``i`` of a run with seed ``s``
is drawn with seed ``1000 * s + i`` and no operation reuses a dataset, so no
cache inside the program can make a run look faster than a fresh input would.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import time
from pathlib import Path

import checks
from drnets import _parallel, cli, estimators, simlab

ALPHA = 0.05
K = 5


def data_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@contextlib.contextmanager
def _worker_cap(value):
    """Set DRNETS_THREADS to ``value`` (None unsets it) inside the block."""
    saved = os.environ.pop("DRNETS_THREADS", None)
    if value is not None:
        os.environ["DRNETS_THREADS"] = value
    try:
        yield
    finally:
        os.environ.pop("DRNETS_THREADS", None)
        if saved is not None:
            os.environ["DRNETS_THREADS"] = saved


def _report_doc(report) -> dict:
    return {"theta_hat": report.theta_hat, "sigma_hat": report.sigma_hat,
            "ci": [report.ci_lower, report.ci_upper], "n": report.n,
            "alpha": report.alpha, "per_fold": list(report.fold_means)}


class Workload:
    """One input per operation; ``reps_per_op`` replications per operation."""

    name = ""
    reps_per_op = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.inputs: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, i: int, traced: bool):
        raise NotImplementedError

    def check(self, i: int, output) -> tuple[list[str], float]:
        """Return the output's failures and its confidence-interval width."""
        raise NotImplementedError

    def finish_traced(self, op_walls: list[float]) -> tuple[dict, list[str]]:
        """Per-layer metrics the spans cannot give, and their checks' failures.

        Runs after the wrappers are removed.
        """
        return {"parallel.workers": 0.0, "parallel.speedup": 0.0,
                "parallel.cpu_utilization": 0.0}, []


class DteLassoCli(Workload):
    """``drnets estimate --estimand dte`` on CSVs from ``drnets simulate``.

    p = d1 + d2 = 50 covariates reach the stage-two nuisances, with the
    default lasso learners, so nearly all work is in linmod.
    """

    name = "dte-lasso-highdim"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        # The tiny size is 600, not 300: at n=300 the ~100-row stage-two
        # strata with p=50 stop lasso_fit short of stationarity and the
        # estimate exits 4.
        self.n = 600 if tiny else 2000
        self.pool = 1 if tiny else 10
        self.dgp_fields = {"d1": 40, "d2": 10, "q": 2, "noise_sd": 1.0}
        # The closed-form truth does not depend on the sample; compute it
        # before any tracing starts.
        config = simlab.DgpConfig(kind="dte_linear", **self.dgp_fields)
        self.theta = simlab.gen_dte(config, 1, 0)[1].theta

    def setup(self):
        config_path = self.workdir / "simulate-config.json"
        config_path.write_text(json.dumps({"dgp_fields": self.dgp_fields}))
        self.inputs = []
        for i in range(self.pool):
            ds = data_seed(self.seed, i)
            csv = self.workdir / f"dte-{ds}.csv"
            rc = cli.main(["simulate", "--dgp", "dte_linear", "--n", str(self.n),
                           "--seed", str(ds), "--out", str(csv),
                           "--config", str(config_path)])
            if rc != 0:
                raise RuntimeError(f"drnets simulate exited {rc} for seed {ds}")
            self.inputs.append((ds, csv))

    def execute(self, i, traced):
        ds, csv = self.inputs[i]
        out = self.workdir / f"report-{ds}.json"
        rc = cli.main(["estimate", "--estimand", "dte", "--data", str(csv),
                       "--K", str(K), "--alpha", str(ALPHA), "--seed", str(ds),
                       "--out", str(out)])
        return rc, out

    def check(self, i, output):
        rc, out = output
        ds, csv = self.inputs[i]
        if rc != 0:
            return checks.dte_report_failures({}, math.nan, 0, ALPHA, rc), math.nan
        report = json.loads(out.read_text())["report"]
        with open(csv) as fh:
            rows = sum(1 for _ in fh) - 1
        sidecar = json.loads(Path(f"{csv}.json").read_text())
        fails = checks.dte_report_failures(report, self.theta, rows, ALPHA)
        if sidecar["theta_true"] != self.theta:
            fails.append(f"sidecar theta_true {sidecar['theta_true']} differs from {self.theta}")
        return fails, report["ci"][1] - report["ci"][0]


class DteMlpNested(Workload):
    """``estimate_dte`` with MLP pi, rho, nu and the nested stage-one regression."""

    name = "dte-mlp-nested"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.n = 300 if tiny else 2000
        self.pool = 1 if tiny else 10
        self.config = simlab.DgpConfig(kind="dte_linear", d1=4, d2=2, noise_sd=1.0)

    def setup(self):
        self.inputs = []
        for i in range(self.pool):
            ds = data_seed(self.seed, i)
            data, truth = simlab.gen_dte(self.config, self.n, ds)
            self.inputs.append((ds, data, truth.theta))

    def execute(self, i, traced):
        ds, data, _ = self.inputs[i]
        net = estimators.default_final_config(self.n)
        learners = estimators.LearnerSpec(pi=net, rho=net, nu=net)  # mu unset: nested DR
        final = estimators.default_final_config(self.n, seed=ds)
        return estimators.estimate_dte(data, learners, final, n_folds=K, alpha=ALPHA, seed=ds)

    def check(self, i, report):
        ds, data, theta = self.inputs[i]
        fails = checks.dte_report_failures(_report_doc(report), theta, data.n, ALPHA)
        return fails, report.ci_upper - report.ci_lower


class CoverageLasso(Workload):
    """Criterion 6's coverage study with lasso nuisances, one study per operation."""

    name = "coverage-lasso"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.n = 300 if tiny else 1000
        self.reps_per_op = 100  # the fewest coverage_study accepts
        self.pool = 1 if tiny else 3
        self.serial_json: bytes | None = None

    def setup(self):
        config = simlab.DgpConfig(kind="dte_linear", noise_sd=1.0)
        self.inputs = [(data_seed(self.seed, i), config) for i in range(self.pool)]

    def _study(self, i):
        ds, config = self.inputs[i]
        return simlab.coverage_study(config, "lasso", reps=self.reps_per_op, n=self.n,
                                     alpha=ALPHA, seed=ds, n_folds=K)

    def execute(self, i, traced):
        # Timed runs use every CPU; the traced run is serial so that spans
        # recorded in forked workers are not lost.
        with _worker_cap("1" if traced else None):
            return self._study(i)

    def check(self, i, result):
        if i == 0:
            self.serial_json = json.dumps(result, sort_keys=True).encode()
        return checks.coverage_failures(result, self.reps_per_op), result["mean_ci_width"]

    def finish_traced(self, op_walls):
        """Re-run the first study on every CPU, untraced, against the serial one."""
        with _worker_cap(None):
            workers = _parallel.worker_count()
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            result = self._study(0)
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
        fails = checks.study_identity_failures(
            self.serial_json, json.dumps(result, sort_keys=True).encode())
        return {"parallel.workers": float(workers),
                "parallel.speedup": op_walls[0] / wall,
                "parallel.cpu_utilization": cpu / (workers * wall)}, fails


WORKLOADS = {w.name: w for w in (DteLassoCli, DteMlpNested, CoverageLasso)}
