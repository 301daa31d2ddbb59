"""End-to-end command tests: file round trips, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from refusals import no_work, refusal_tests

from drnets import estimators
from drnets._checks import MAX_SIZE
from drnets.cli import RunConfig, _read_data, main, read_csv, write_csv
from drnets.simlab import CATE_KINDS, DTE_KINDS, DgpConfig


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_rows_and_sidecar(tmp_path):
    out = str(tmp_path / "d.csv")
    assert run_cli("simulate", "--dgp", "dte_linear", "--n", "100",
                   "--seed", "7", "--out", out) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 101
    assert lines[0] == "a1,a2,a3,a4,t1,b1,b2,t2,y"
    sidecar = json.loads(Path(out + ".json").read_text())
    assert sidecar["n"] == 100
    assert sidecar["config"]["seed"] == 7
    assert np.isfinite(sidecar["theta_true"])


def test_simulate_twice_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert run_cli("simulate", "--dgp", "cate_sparse_smooth", "--n", "50",
                       "--seed", "3", "--out", out) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert Path(a + ".json").read_text().replace("a.csv", "b.csv") \
        == Path(b + ".json").read_text()


def test_simulate_unwritable_path_is_io_error():
    assert run_cli("simulate", "--dgp", "cate_linear", "--n", "5",
                   "--out", "/nonexistent_dir/x.csv") == 3


@settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(CATE_KINDS + DTE_KINDS), n=st.integers(1, 120),
       seed=st.integers(0, 2**32 - 1))
@example(kind="cde_binary", n=80, seed=9)
def test_csv_write_read_write_round_trip(tmp_path, kind, n, seed):
    out = str(tmp_path / "d.csv")
    assert run_cli("simulate", "--dgp", kind, "--n", str(n), "--seed", str(seed),
                   "--out", out) == 0
    names, matrix = read_csv(out)
    again = str(tmp_path / "again.csv")
    write_csv(again, names, matrix)
    assert Path(out).read_bytes() == Path(again).read_bytes()


def test_parse_rejects_wrong_schema(tmp_path):
    out = str(tmp_path / "c.csv")
    run_cli("simulate", "--dgp", "cate_linear", "--n", "30", "--seed", "1",
            "--out", out)
    with pytest.raises(Exception, match="column 1: expected 'a1'"):
        _read_data(out, "dte")
    data = _read_data(out, "ate")
    assert data.n == 30 and data.s.shape == (30, 4)


def test_estimate_ate_report_and_alpha_monotonicity(tmp_path):
    src = str(tmp_path / "c.csv")
    run_cli("simulate", "--dgp", "cate_linear", "--n", "250", "--seed", "2",
            "--out", src)
    wide, narrow = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for alpha, out in (("0.05", wide), ("0.2", narrow)):
        assert run_cli("estimate", "--estimand", "ate", "--data", src,
                       "--out", out, "--K", "3", "--seed", "4",
                       "--alpha", alpha) == 0
    a = json.loads(Path(wide).read_text())["report"]
    b = json.loads(Path(narrow).read_text())["report"]
    assert a["theta_hat"] == b["theta_hat"]
    assert b["ci"][1] - b["ci"][0] < a["ci"][1] - a["ci"][0]
    assert a["K"] == 3 and a["n"] == 250


def test_estimate_cate_probe_predictions(tmp_path):
    src = str(tmp_path / "c.csv")
    run_cli("simulate", "--dgp", "cate_linear", "--n", "200", "--seed", "6",
            "--out", src)
    probe = str(tmp_path / "p.csv")
    grid = np.array([[0.5, 0.1, -0.2, 0.0], [-0.5, 0.0, 0.0, 0.9]])
    write_csv(probe, ["s1", "s2", "s3", "s4"], grid)
    out = str(tmp_path / "cate.json")
    assert run_cli("estimate", "--estimand", "cate", "--data", src,
                   "--out", out, "--seed", "4", "--probe", probe) == 0
    doc = json.loads(Path(out).read_text())
    assert len(doc["probe"]["predictions"]) == 2
    assert "model_half1" in doc and "model_half2" in doc


def test_estimate_cde_runs_on_mediator_file(tmp_path):
    src = str(tmp_path / "m.csv")
    run_cli("simulate", "--dgp", "cde_binary", "--n", "300", "--seed", "5",
            "--out", src)
    assert Path(src).read_text().splitlines()[0] \
        == "a1,a2,a3,a4,t1,b1,b2,t2,m,y"
    out = str(tmp_path / "cde.json")
    assert run_cli("estimate", "--estimand", "cde", "--data", src,
                   "--out", out, "--K", "2", "--seed", "1") == 0
    assert json.loads(Path(out).read_text())["report"]["estimand"] == "cde_t1_m1"


def test_estimate_same_seed_reproduces_bytes(tmp_path):
    src = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_linear", "--n", "200", "--seed", "8",
            "--out", src)
    outs = [str(tmp_path / f"r{i}.json") for i in range(2)]
    for out in outs:
        assert run_cli("estimate", "--estimand", "dte", "--data", src,
                       "--out", out, "--K", "2", "--seed", "3") == 0
    a, b = (Path(o).read_text() for o in outs)
    assert a.replace("r0.json", "r1.json") == b


def test_config_file_merging_and_flag_precedence(tmp_path):
    cfg = str(tmp_path / "run.json")
    Path(cfg).write_text(json.dumps({"dgp": "cate_linear", "n": 40, "seed": 11}))
    out = str(tmp_path / "d.csv")
    assert run_cli("simulate", "--config", cfg, "--out", out,
                   "--seed", "12") == 0
    sidecar = json.loads(Path(out + ".json").read_text())
    assert sidecar["config"]["seed"] == 12  # flag beats file
    assert sidecar["config"]["n"] == 40    # file beats default
    assert len(Path(out).read_text().splitlines()) == 41


def test_rerun_from_embedded_config_reproduces(tmp_path):
    out = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_sparse_smooth", "--n", "60",
            "--seed", "4", "--out", out)
    replay_cfg = str(tmp_path / "replay.json")
    Path(replay_cfg).write_text(Path(out + ".json").read_text())
    out2 = str(tmp_path / "d2.csv")
    assert run_cli("simulate", "--config", replay_cfg, "--out", out2) == 0
    assert Path(out).read_bytes() == Path(out2).read_bytes()


def test_diagnose_orthogonality_zero_scale_passes(tmp_path):
    out = str(tmp_path / "o.json")
    assert run_cli("diagnose", "orthogonality", "--scale", "0",
                   "--n", "5000", "--out", out) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["result"]["mean_delta1"] == 0.0
    assert doc["passed"] is True


def test_diagnose_coverage_degenerate_is_out_of_band(tmp_path):
    """Zero-width intervals cover every time; 1.0 sits above the band, so
    the command reports the study yet signals a threshold failure."""
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps({"dgp": "dte_linear", "learner_family": "oracle",
                                     "dgp_fields": {"noise_sd": 0.0, "effect_scale": 0.0,
                                                    "baseline_scale": 0.0},
                                     "reps": 100, "n": 300}))
    out = str(tmp_path / "cov.json")
    assert run_cli("diagnose", "coverage", "--config", cfg,
                   "--out", out, "--seed", "2") == 5
    doc = json.loads(Path(out).read_text())
    assert doc["result"]["coverage"] == 1.0
    assert doc["result"]["mean_ci_width"] == 0.0
    assert doc["passed"] is False


def test_diagnose_coverage_oracle_in_band(tmp_path):
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps({"dgp": "dte_linear", "learner_family": "oracle",
                                     "reps": 200, "n": 400}))
    out = str(tmp_path / "cov.json")
    assert run_cli("diagnose", "coverage", "--config", cfg,
                   "--out", out, "--seed", "2") == 0
    doc = json.loads(Path(out).read_text())
    assert 0.92 <= doc["result"]["coverage"] <= 0.98


def test_diagnose_threshold_failure_exits_5(tmp_path):
    # One replication pins coverage to 0 or 1; alpha close to 1 forces a
    # miss, so the 0.03 band around 1 - alpha cannot hold.
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps({"dgp": "dte_linear", "learner_family": "oracle",
                                     "dgp_fields": {"noise_sd": 0.5},
                                     "reps": 100, "n": 200, "alpha": 0.9}))
    out = str(tmp_path / "cov.json")
    code = run_cli("diagnose", "coverage", "--config", cfg, "--out", out,
                   "--seed", "2")
    doc = json.loads(Path(out).read_text())
    assert code == 5
    assert doc["passed"] is False


def test_study_bytes_do_not_depend_on_worker_cap(tmp_path, monkeypatch):
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps({"dgp": "dte_linear", "learner_family": "oracle",
                                     "dgp_fields": {"noise_sd": 0.0, "effect_scale": 0.0,
                                                    "baseline_scale": 0.0},
                                     "reps": 100, "n": 200}))
    outs = []
    for i, cap in enumerate(("1", "3")):
        monkeypatch.setenv("DRNETS_THREADS", cap)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        out = str(tmp_path / f"o{i}.json")
        run_cli("diagnose", "coverage", "--config", cfg, "--out", out,
                "--seed", "3")
        outs.append(Path(out).read_text().replace(f"o{i}.json", "o.json"))
    assert outs[0] == outs[1]


def test_bad_thread_cap_exits_2_with_one_line(monkeypatch, capsys):
    monkeypatch.setenv("DRNETS_THREADS", "abc")
    assert run_cli("diagnose", "coverage", "--reps", "100", "--n", "200") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "DRNETS_THREADS" in err


def test_tiny_stratum_exits_4_naming_fold_and_role(tmp_path, capsys):
    src = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_linear", "--n", "20", "--seed", "3",
            "--out", src)
    code = run_cli("estimate", "--estimand", "dte", "--data", src,
                   "--out", str(tmp_path / "r.json"))
    err = capsys.readouterr().err
    assert code == 4
    assert re.search(r"fold \d+ (pi|rho|nu|mu)\b", err), err


def test_stdout_report_when_out_omitted(tmp_path, capsys):
    src = str(tmp_path / "c.csv")
    run_cli("simulate", "--dgp", "cate_linear", "--n", "120", "--seed", "2",
            "--out", src)
    capsys.readouterr()
    assert run_cli("estimate", "--estimand", "ate", "--data", src,
                   "--K", "2", "--seed", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert "report" in doc and doc["config"]["estimand"] == "ate"


def test_blank_line_in_body_leaves_report_unchanged(tmp_path):
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    run_cli("simulate", "--dgp", "dte_linear", "--n", "200", "--seed", "8", "--out", str(plain))
    lines = plain.read_text().splitlines(keepends=True)
    blank.write_text("".join(lines[:50] + ["\n"] + lines[50:]))
    reports = []
    for src in (plain, blank):
        out = tmp_path / f"{src.stem}.json"
        assert run_cli("estimate", "--estimand", "dte", "--data", str(src),
                       "--out", str(out), "--K", "2", "--seed", "3") == 0
        reports.append(out.read_text().replace(str(src), "data.csv").replace(str(out), "r.json"))
    assert reports[0] == reports[1]


def _run_capped(cwd, limit, argv):
    """Run the CLI on argv in a child capped at ``limit`` bytes of address
    space, so an allocation too large fails on any host instead of filling
    its memory."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            f"from drnets.cli import main\nsys.exit(main({argv.split()!r}))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(estimators.__file__).parents[1])}  # the drnets under test
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=cwd, env=env)


def test_simulate_with_n_too_large_to_allocate_exits_2_with_one_line(tmp_path):
    """Capped at 4 GiB, the draw fails to allocate."""
    proc = _run_capped(tmp_path, 4 << 30, "simulate --dgp dte_linear --n 1000000000000 --out x.csv")
    err = proc.stderr
    assert proc.returncode == 2 and err.count("\n") == 1 and err.startswith("error: "), err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("study", ["coverage", "rate_slope", "double_robustness"])
def test_diagnose_with_reps_too_large_to_list_exits_2_with_one_line(tmp_path, study):
    """A study builds its whole task list before any work, so reps is bounded
    above; in a child capped at 1 GiB of address space, an unbounded list
    would end in a MemoryError instead of the named bound."""
    proc = _run_capped(tmp_path, 1 << 30, f"diagnose {study} --reps {10**30} --out x.json")
    low = 100 if study == "coverage" else 1
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: reps must be an integer in [{low}, 100000], got {10**30}\n"
    assert not (tmp_path / "x.json").exists()


def test_estimate_with_columns_near_stratum_size_exits_0(tmp_path):
    """n=300 with p=50 at stage two leaves nu strata of about 50 training
    rows, so the lasso Gram matrices are singular; n=80 leaves about 16, so
    p > n.  The fits must still reach stationarity and each estimate land
    within 4 standard errors."""
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps({"dgp_fields": {"d1": 40, "d2": 10, "q": 2,
                                                    "noise_sd": 1.0}}))
    for n in ("300", "80"):
        src, out = str(tmp_path / f"d{n}.csv"), str(tmp_path / f"r{n}.json")
        assert run_cli("simulate", "--dgp", "dte_linear", "--n", n, "--seed", "3000",
                       "--config", cfg, "--out", src) == 0
        assert run_cli("estimate", "--estimand", "dte", "--data", src, "--out", out) == 0
        report = json.loads(Path(out).read_text())["report"]
        theta = json.loads(Path(src + ".json").read_text())["theta_true"]
        se = report["sigma_hat"] / np.sqrt(report["n"])
        assert abs(report["theta_hat"] - theta) <= 4.0 * se, n


# ------------------------------------------------ the contract under hostile input


def test_ate_with_outcomes_of_1e12_exits_0(tmp_path, capsys):
    """The lasso fits outcomes beyond 2**33 at a power-of-two scale; at unit
    scale the mu fit failed its intercept stationarity check (exit 4)."""
    src = tmp_path / "d.csv"
    assert run_cli("simulate", "--dgp", "cate_linear", "--n", "80", "--seed", "1",
                   "--out", str(src)) == 0
    header, *rows = src.read_text().splitlines()
    for i in (0, 1):
        rows[i] = rows[i].rsplit(",", 1)[0] + ",1e12"
    src.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "r.json"
    capsys.readouterr()
    assert run_cli("estimate", "--estimand", "ate", "--data", str(src), "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())["report"]
    assert np.isfinite([report["theta_hat"], report["sigma_hat"]]).all()


def test_mlp_estimate_with_outcomes_of_1e100_lets_no_warning_through(tmp_path, monkeypatch,
                                                                      capsys):
    """Networks fit to outcomes of 1e100 overflow when they predict; the clamp
    bounds each output, and no numpy warning reaches stderr."""
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--dgp", "cate_linear", "--n", "400", "--seed", "3",
                   "--out", "s.csv") == 0
    Path("s.csv").write_bytes(_hostile_file(Path("s.csv").read_bytes(),
                                            [(r, -1, "1e100") for r in range(3)], None))
    Path("mlp.json").write_text(json.dumps({"learner_family": "mlp"}))
    capsys.readouterr()
    assert run_cli("estimate", "--estimand", "ate", "--data", "s.csv", "--seed", "0",
                   "--config", "mlp.json", "--out", "r.json") == 0
    assert capsys.readouterr().err == ""


def test_diagnose_rate_slope_runs_and_records_its_learner_family(tmp_path, monkeypatch):
    """The study's family defaults to "mlp", and a configured one is the one it runs."""
    monkeypatch.chdir(tmp_path)
    docs = []
    for doc in ({}, {"learner_family": "lasso"}):
        Path("cfg.json").write_text(json.dumps({"n_grid": [100, 200, 400], "reps": 1, **doc}))
        code = run_cli("diagnose", "rate_slope", "--config", "cfg.json", "--out", "o.json")
        assert code in (0, 5)
        docs.append(json.loads(Path("o.json").read_text()))
    assert [doc["config"]["learner_family"] for doc in docs] == ["mlp", "lasso"]
    assert docs[0]["result"]["per_rep_mse"] != docs[1]["result"]["per_rep_mse"]


def test_diagnose_double_robustness_reports_each_misspecification_and_its_verdict(
        tmp_path, monkeypatch):
    """The verdict is README's rule applied to the written numbers, and the
    exit code follows it."""
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"n_grid": [100, 200], "reps": 1}))
    code = run_cli("diagnose", "double_robustness", "--config", "cfg.json", "--out", "o.json")
    doc = json.loads(Path("o.json").read_text())
    result, per_n = doc["result"], doc["result"]["both_wrong"]["per_n_mse"]
    assert sorted(result) == ["both_wrong", "mu_wrong", "pi_wrong"]
    rule = per_n[-1] >= 0.5 * per_n[0] and all(
        result[m]["share_decreasing"] >= 0.8 for m in ("mu_wrong", "pi_wrong"))
    assert doc["passed"] is rule and code == (0 if rule else 5)


_BASE_N = 60
_CELLS = ("nan", "inf", "1e400", "1e308", "-1e308", "1e100", "-1e100", "9.9e99", "1e20",
          "1e-300", "1.5", "-1", "2", "0", "1", "", "abc")
_VALUES = (0, -1, 10**30, 10**400, 1e308, float("nan"), True, None, "x", "mlp", [1], [])
_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "command") + tuple(
    f"dgp_fields.{f.name}" for f in fields(DgpConfig) if f.name != "kind")
_INTS = ("0", "-1", "1", "2", str(10**30), str(2**63 - 1))
_FLOATS = ("0", "-1", "1", "1e308", "-1e308", "1e100", "nan", "inf", "1e-300")
# The numeric flags each command takes; the property draws only values that
# parse, since argparse's own usage errors are rows of _REFUSED.
_FLAGS = {"simulate": {"--n": _INTS, "--seed": _INTS},
          "estimate": {"--K": _INTS, "--alpha": _FLOATS, "--seed": _INTS},
          "diagnose": {"--n": _INTS, "--alpha": _FLOATS, "--scale": _FLOATS, "--seed": _INTS}}
_DGPS = {"ate": "cate_linear", "cate": "cate_sparse_smooth", "dte": "dte_linear",
         "cde": "cde_binary"}


@pytest.fixture(scope="module")
def base_csvs(tmp_path_factory):
    """The directory of one small valid data file per estimand and of a probe
    file with two covariate columns."""
    root = tmp_path_factory.mktemp("base")
    for estimand, dgp in _DGPS.items():
        assert main(["simulate", "--dgp", dgp, "--n", str(_BASE_N), "--seed", "3",
                     "--out", str(root / f"{estimand}.csv")]) == 0
    write_csv(str(root / "probe.csv"), ["s1", "s2"], np.zeros((2, 2)))
    return root


def _hostile_file(data: bytes, cells, cut) -> bytes:
    """data with each (row, column, text) cell replaced, then cut at byte ``cut``."""
    header, *rows = data.decode().splitlines()
    table = [r.split(",") for r in rows]
    for r, c, text in cells:
        row = table[r % len(table)]
        row[c % len(row)] = text
    body = "\n".join([header] + [",".join(r) for r in table]) + "\n"
    return body.encode()[: None if cut is None else cut]


def _cells(*cells):
    """The edit of a data file that sets each (row, column, text) cell."""
    return lambda data: _hostile_file(data, cells, None)


_BIG = 10**400
_TOO_LARGE = " must be finite, got an integer too large for a float"
_STUDY = "study must be one of ('orthogonality', 'coverage', 'rate_slope', 'double_robustness')"
_ESTIMAND = "estimand must be one of ('ate', 'cate', 'dte', 'cde')"
_PROBE = "probe applies only to estimate --estimand cate"
_FAMILY = "learner_family applies only to estimate, diagnose coverage and diagnose rate_slope"
_UTF8 = ": not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)"
_ARMS = "fold 0: training data has a single t1 arm"  # the one refusal that exits 4
_JSON, _NOT_OBJECT = "invalid config JSON: ", "config file must hold a JSON object"
_NON_FINITE = _JSON + "non-finite number "
_Y, _CSV_ROW = "y row 1 lies outside [-1e+100, 1e+100]", "dte.csv: malformed numeric row (..."
_SIM, _ORTHO = "simulate --dgp dte_linear --out x.csv", "diagnose orthogonality --n 1000"
_DTE, _ATE = "estimate --estimand dte --data dte.csv", "estimate --estimand ate --data ate.csv"
_DTE_OUT, _ATE_OUT = _DTE + " --out o.json", _ATE + " --out r.json"
# Past Python's digit limit for parsing an int (4300), where it has one.
_DIGITS = (_JSON + "..." if hasattr(sys, "get_int_max_str_digits")
           else "perturbation_scale" + _TOO_LARGE)

# Every refused run, filed under the test that runs it: test name -> rows of
# (case, argv, message[, config[, edit]]), built into tests by tests/refusals.py.
# The config, a dict or raw bytes, is passed as --config cfg.json; the edit
# rewrites the base data file that --data names.  A message ending in "..." is
# a prefix of the stderr line, whose rest is numpy's or Python's text.  A new
# refusal is one row under test_refused_run_exits_with_one_line.
_REFUSED = {
    "test_simulate_rejects_unknown_dgp": [
        (None, "simulate --dgp nope --n 10 --out x.csv", "argument --dgp: invalid choice: 'nope' "
         f"(choose from {', '.join(map(repr, CATE_KINDS + DTE_KINDS))})")],
    "test_estimate_missing_t2_column_exits_2": [
        (None, _DTE, "column 8: expected 't2', found 'zz'", None,
         lambda data: data.replace(b"t2", b"zz", 1))],
    "test_probe_is_read_and_checked_before_any_fit": [
        (case, f"estimate --estimand cate --data cate.csv --probe {probe}", message)
        for case, probe, message in (
            ("trailing_column", "ate.csv", "column 5: unexpected trailing column 't'"),
            ("width", "probe.csv", "probe.csv: 2 covariate columns, the data has 4"),
            ("missing", "no.csv", "[Errno 2] No such file or directory: 'no.csv'"))],
    "test_probe_outside_cate_estimate_exits_2_before_any_data_is_read": [
        ("dte_flag", "estimate --estimand dte --data no.csv --probe no.csv --out r.json", _PROBE),
        ("ate_config", "estimate --estimand ate --data no.csv --out r.json", _PROBE,
         {"probe": "no.csv"}),
        ("simulate_config", "simulate --dgp dte_linear --out r.json", _PROBE,
         {"probe": "no.csv"})],
    "test_config_value_of_wrong_type_exits_2_before_any_fit": [
        ("doc0", _DTE, "config key 'alpha' must be float, got '0.05'", {"alpha": "0.05"}),
        ("doc1", _DTE, "config key 'n' must be int, got 'abc'", {"n": "abc"}),
        ("doc2", _DTE, "config key 'seed' must be int, got 'x'", {"seed": "x"}),
        ("doc3", _DTE, "config key 't_level' must be int, got '1'", {"t_level": "1"})],
    "test_config_file_unknown_key_exits_2": [
        (None, "simulate --out x.csv", "unknown config key 'banana'",
         {"dgp": "cate_linear", "banana": 1})],
    "test_diagnose_unknown_study_exits_2": [
        (None, "diagnose nonsense", _STUDY + ", got 'nonsense'"),
        (None, "diagnose", _STUDY + ", got None")],
    "test_bad_alpha_exits_2_before_any_fit": [
        (f"{e}-{dgp}", f"estimate --estimand {e} --data {e}.csv --alpha 1.5",
         "alpha must lie in (0, 1), got 1.5") for e, dgp in _DGPS.items() if e != "cate"],
    "test_estimate_requires_data_and_estimand": [
        (None, "estimate --estimand ate", "estimate requires --data"),
        (None, "estimate --data x.csv", _ESTIMAND + ", got None")],
    "test_hostile_config_file_exits_2_with_one_line": [
        ("non_utf8", _SIM, "cfg.json" + _UTF8, b'\xff\xfe{"n": 3}'),
        ("config_member_a_list", _SIM, _NOT_OBJECT, b'{"config": [1, 2]}'),
        ("config_member_null", _SIM, _NOT_OBJECT, b'{"config": null}'),
        ("nested_too_deep", _SIM, _JSON + "maximum recursion depth exceeded while decoding "
         "a JSON array from a unicode string", b"[" * 100_000 + b"]" * 100_000)],
    "test_hostile_data_file_exits_with_one_line": [
        ("nan", _DTE, "s1 contains non-finite values", None, _cells((0, 0, "nan"))),
        ("inf", _DTE, "y contains non-finite values", None, _cells((0, -1, "inf"))),
        ("covariate_1.5", _DTE, "s1 has entries outside the covariate support [-1, 1]", None,
         _cells((0, 0, "1.5"))),
        ("quoted_header", _DTE, "column 1: expected 'a1', found '\"a1\"'", None,
         lambda data: data.replace(b"a1", b'"a1"', 1)),
        ("duplicate_header", _DTE, "column 2: expected 't1', found 'a1'", None,
         lambda data: data.replace(b"a2", b"a1", 1)),
        ("ragged_row", _DTE, _CSV_ROW, None, _cells((1, -1, "0,0"))),
        ("text_cell", _DTE, _CSV_ROW, None, _cells((0, 1, "abc"))),
        ("header_only", _DTE, "dte.csv: no data rows", None,
         lambda data: data[:data.index(b"\n") + 1]),
        ("empty", _DTE, "dte.csv: no data rows", None, lambda data: b""),
        ("non_utf8", _DTE, "dte.csv" + _UTF8, None, lambda data: b"\xff" + data),
        ("all_treated_t1", _DTE, _ARMS, None, _cells(*((r, 4, "1") for r in range(_BASE_N))))],
    "test_bad_setting_exits_2_with_one_line": [
        (f"argv{i}-{'None' if len(row) == 2 else f'doc{i}'}", *row) for i, row in enumerate([
            (_SIM + " --seed -1", "seed must be an integer >= 0, got -1"),
            ("estimate --estimand dte --data no.csv --seed -1",
             "seed must be an integer >= 0, got -1"),
            ("diagnose coverage --reps 100 --n 50 --seed -3",
             "seed must be an integer >= 0, got -3"),
            ("diagnose orthogonality --n 0", "n must be an integer >= 2, got 0"),
            ("diagnose rate_slope --reps 0", "reps must be an integer in [1, 100000], got 0"),
            (_SIM, f"d1 must be an integer in [1, {MAX_SIZE}], got 2.5",
             {"dgp_fields": {"d1": 2.5}}),
            (_SIM, "q must be an integer, got 1.5", {"dgp_fields": {"q": 1.5}}),
            (_SIM, "coef_seed must be an integer >= 0, got 1.5",
             {"dgp_fields": {"coef_seed": 1.5}}),
            (_SIM, "coef_seed must be an integer >= 0, got -1", {"dgp_fields": {"coef_seed": -1}}),
            ("simulate --dgp cate_linear --n 50 --out x.csv", _NON_FINITE + "NaN",
             {"dgp_fields": {"propensity_offset": float("nan")}}),
            (_ORTHO + " --scale nan", "perturbation_scale must be finite, got nan"),
            (_ORTHO + " --scale inf", "perturbation_scale must be finite, got inf"),
            (_SIM, "noise_sd must be a number, got True", {"dgp_fields": {"noise_sd": True}}),
            (_SIM + f" --n {10**23}",
             f"n must be an integer in [0, {MAX_SIZE // 10}], got {10**23}"),
            (_ORTHO, "perturbation_scale" + _TOO_LARGE, {"scale": _BIG}),
            (_SIM, "noise_sd" + _TOO_LARGE, {"dgp_fields": {"noise_sd": _BIG}})])],
    "test_config_integer_too_large_exits_2_naming_the_fault": [
        ("scale", _ORTHO, "perturbation_scale" + _TOO_LARGE, b'{"scale": %d}' % _BIG),
        ("noise_sd", _SIM, "noise_sd" + _TOO_LARGE, b'{"dgp_fields": {"noise_sd": %d}}' % _BIG),
        ("digits", _ORTHO, _DIGITS, b'{"scale": 1' + b"0" * 5000 + b"}")],
    "test_size_and_extreme_value_faults_exit_2_naming_the_setting": [
        ("m_level", "estimate --estimand cde --data cde.csv",
         f"mediator level must be an integer in [{-2**53}, {2**53}], got {_BIG}",
         b'{"m_level": %d}' % _BIG),
        ("d", "diagnose orthogonality --n 2000",
         f"d must be an integer in [1, {MAX_SIZE}], got {10**30}", {"dgp_fields": {"d": 10**30}}),
        ("scale", "diagnose orthogonality --scale 1e308 --n 2000",
         "perturbation_scale must lie in [-1e+100, 1e+100], got 1e+308"),
        # y set in a row whose treatment columns hold 1, so that it would enter every score
        ("ate_y", _ATE, _Y, None, _cells((0, -2, "1"), (0, -1, "1e308"))),
        ("cde_y", "estimate --estimand cde --data cde.csv", _Y, None,
         _cells((0, 4, "1"), (0, 7, "1"), (0, -1, "-1e308")))],
    "test_unused_float_settings_are_checked_before_they_reach_the_report": [
        (None, "diagnose orthogonality --alpha nan --n 2000 --out o.json",
         "alpha must be finite, got nan")],
    "test_estimate_checks_dgp_fields_and_non_finite_json": [
        (f"{text}-{message}", _ATE_OUT, message, text.encode()) for text, message in [
            ('{"dgp_fields": {"noise_sd": NaN}}', _NON_FINITE + "NaN"),
            ('{"alpha": -Infinity}', _NON_FINITE + "-Infinity"),
            ('{"scale": 1e400}', _NON_FINITE + "1e400"),
            ('{"dgp_fields": {"noise_sd": -1}}', "noise_sd must lie in [0, 1e100], got -1"),
            ('{"dgp_fields": {"d": 3, "q": 4}}', "q must lie in [1, d], got 4"),
            ('{"dgp": "banana"}', "kind must be one of ('cate_linear', 'cate_sparse_smooth', "
             "'cate_rough_outcome', 'dte_linear', 'dte_sparse_smooth', 'cde_binary'), "
             "got 'banana'"),
            ('{"dgp_fields": {"colour": 1}}', "bad dgp_fields: DgpConfig.__init__() got an "
             "unexpected keyword argument 'colour'")]],
    "test_unread_integer_settings_are_checked_before_they_reach_the_output": [
        ("K", "estimate --estimand cate --data cate.csv --K -5 --out o.json",
         "n_folds must be an integer >= 2, got -5"),
        ("reps_flag", _ORTHO + " --reps -4 --out o.json",
         "reps must be an integer in [1, 100000], got -4"),
        ("n", _DTE_OUT, "n must be an integer >= 1, got -3", {"n": -3}),
        ("t_level", _DTE_OUT, "exposure level must be an integer in [0, 1], got 7",
         {"t_level": 7}),
        ("reps", _DTE_OUT, "reps must be an integer in [1, 100000], got 0", {"reps": 0}),
        ("n_grid", _DTE_OUT, "n_grid[0] must be an integer >= 1, got 0", {"n_grid": [0, -1]})],
    # string settings that a run does not take or read, checked before they are embedded
    "test_refused_run_exits_with_one_line": [
        ("simulate_estimand", _SIM, _ESTIMAND + ", got 'banana'", {"estimand": "banana"}),
        ("simulate_study", _SIM, _STUDY + ", got 'x'", {"study": "x"}),
        ("simulate_learner_family", _SIM, "learner family must be one of "
         "('lasso', 'mlp', 'oracle'), got 'y'", {"learner_family": "y"}),
        ("estimate_oracle_family", "estimate --estimand ate --data no.csv", "learner family must "
         "be one of ('lasso', 'mlp'), got 'oracle'", {"learner_family": "oracle"}),
        *((f"{case}_{family}_family", run, _FAMILY, {"learner_family": family})
          for case, run, family in (("simulate", _SIM, "mlp"),
                                    ("orthogonality", "diagnose orthogonality", "oracle"),
                                    ("double_robustness", "diagnose double_robustness", "mlp"))),
        # argparse's own usage errors
        ("flag_of_wrong_type", _ATE + " --K abc", "argument --K: invalid int value: 'abc'"),
        ("unknown_flag", "diagnose coverage --bogus 1", "unrecognized arguments: --bogus 1"),
        ("no_command", "", "the following arguments are required: command")],
}


def _refuse(request, argv, message, config=None, edit=None):
    """Run argv in a fresh directory holding the base files: it exits 2 (3 for
    a missing file, 4 for a fold with one t1 arm), does no work, and writes
    one stderr line and nothing else: no stdout and no file."""
    request.getfixturevalue("monkeypatch").chdir(
        tempfile.mkdtemp(dir=request.getfixturevalue("tmp_path")))
    for src in request.getfixturevalue("base_csvs").glob("*.csv"):
        Path(src.name).write_bytes(src.read_bytes())
    argv = argv.split()
    if edit is not None:
        data = Path(argv[argv.index("--data") + 1])
        data.write_bytes(edit(data.read_bytes()))
    if config is not None:
        text = config if type(config) is bytes else json.dumps(config).encode()
        Path("cfg.json").write_bytes(text)
        argv += ["--config", "cfg.json"]
    inputs = sorted(Path().iterdir())
    capsys = request.getfixturevalue("capsys")
    capsys.readouterr()
    with no_work():
        code = main(argv)
    out, err = capsys.readouterr()
    line = f"error: {message.removesuffix('...')}"
    assert code == (3 if message.startswith("[Errno") else 4 if message == _ARMS else 2), err
    assert err.startswith(line) if message.endswith("...") else err == line + "\n", err
    assert err.count("\n") == 1 and out == "" and sorted(Path().iterdir()) == inputs


refusal_tests(_REFUSED, globals(), _refuse)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(tuple(_FLAGS)), estimand=st.sampled_from(tuple(_DGPS)),
       cells=st.lists(st.tuples(st.integers(0, _BASE_N - 1),
                                st.just(-1) | st.integers(0, 12),  # y, or any column
                                st.sampled_from(_CELLS)), max_size=3),
       cut=st.none() | st.integers(0, 3000),
       config=st.dictionaries(st.sampled_from(_CONFIG_KEYS), st.sampled_from(_VALUES),
                              max_size=3),
       flags=st.lists(st.tuples(st.sampled_from(("--n", "--K", "--alpha", "--scale", "--seed")),
                                st.sampled_from(_INTS + _FLOATS)), max_size=2))
@example(command="estimate", estimand="cde", cells=[], cut=None, config={"m_level": 10**400},
         flags=[])
@example(command="diagnose", estimand="ate", cells=[], cut=None,
         config={"dgp_fields.d": 10**30}, flags=[])
@example(command="diagnose", estimand="ate", cells=[], cut=None, config={},
         flags=[("--scale", "1e308")])
@example(command="estimate", estimand="ate", cells=[(0, -1, "1e308")], cut=None, config={},
         flags=[])
@example(command="estimate", estimand="cde", cells=[(0, -1, "-1e308")], cut=None, config={},
         flags=[])
def test_every_run_keeps_the_exit_contract(tmp_path, monkeypatch, capsys, base_csvs, command,
                                           estimand, cells, cut, config, flags):
    """Whatever the data file, config file or numeric flags: the exit code is
    0, 2, 3, 4 or 5, a failure writes exactly one stderr line, no warning
    escapes (warnings are errors here), and no JSON output holds NaN or
    Infinity."""
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(run_dir)
    doc = {key: value for key, value in config.items() if "." not in key}
    nested = {key.split(".")[1]: value for key, value in config.items() if "." in key}
    if nested:
        doc["dgp_fields"] = nested
    Path("cfg.json").write_text(json.dumps(doc))
    argv = {"simulate": ["simulate", "--dgp", _DGPS[estimand], "--n", "40", "--out", "sim.csv"],
            "estimate": ["estimate", "--estimand", estimand, "--data", "data.csv", "--K", "2",
                         "--out", "report.json"],
            "diagnose": ["diagnose", "orthogonality", "--n", "2000", "--out", "study.json"],
            }[command] + ["--config", "cfg.json"]
    for flag, value in flags:
        if value in _FLAGS[command].get(flag, ()):
            argv.append(f"{flag}={value}")  # "=" keeps "-1e308" a value, not an option
    base = (base_csvs / f"{estimand}.csv").read_bytes()
    Path("data.csv").write_bytes(_hostile_file(base, cells, cut))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(*argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4, 5) and out == "", (argv, doc, code, err)
    assert (err == "") if code == 0 else (err.count("\n") == 1 and err.startswith("error: ")), \
        (argv, doc, code, err)
    for path in Path().glob("*.json"):
        if path.name != "cfg.json":
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, (argv, doc, path.name)
