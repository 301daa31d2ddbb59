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

from drnets import estimators
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


def test_simulate_rejects_unknown_dgp(tmp_path, capsys):
    code = run_cli("simulate", "--dgp", "nope", "--n", "10",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 2


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


def test_estimate_missing_t2_column_exits_2(tmp_path, capsys):
    src = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_linear", "--n", "60", "--seed", "2",
            "--out", src)
    text = Path(src).read_text().replace("t2", "zz")
    bad = str(tmp_path / "bad.csv")
    Path(bad).write_text(text)
    code = run_cli("estimate", "--estimand", "dte", "--data", bad,
                   "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert "expected 't2'" in capsys.readouterr().err


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


@pytest.mark.parametrize("doc", [{"alpha": "0.05"}, {"n": "abc"}, {"seed": "x"},
                                 {"t_level": "1"}])
def test_config_value_of_wrong_type_exits_2_before_any_fit(tmp_path, monkeypatch,
                                                           capsys, doc):
    src = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_linear", "--n", "200", "--seed", "1", "--out", src)
    cfg = str(tmp_path / "run.json")
    Path(cfg).write_text(json.dumps(doc))

    def no_fit(*args, **kwargs):
        raise AssertionError("a nuisance was fit before the config was checked")

    monkeypatch.setattr(estimators, "_fit_learner", no_fit)
    capsys.readouterr()
    assert run_cli("estimate", "--estimand", "dte", "--data", src,
                   "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(next(iter(doc))) in err, err


def test_config_file_unknown_key_exits_2(tmp_path):
    cfg = str(tmp_path / "run.json")
    Path(cfg).write_text(json.dumps({"dgp": "cate_linear", "banana": 1}))
    assert run_cli("simulate", "--config", cfg,
                   "--out", str(tmp_path / "x.csv")) == 2


def test_diagnose_orthogonality_zero_scale_passes(tmp_path):
    out = str(tmp_path / "o.json")
    assert run_cli("diagnose", "orthogonality", "--scale", "0",
                   "--n", "5000", "--out", out) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["result"]["mean_delta1"] == 0.0
    assert doc["passed"] is True


def test_diagnose_unknown_study_exits_2():
    assert run_cli("diagnose", "nonsense") == 2
    assert run_cli("diagnose") == 2


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


@pytest.mark.parametrize("estimand,dgp", [("ate", "cate_linear"),
                                          ("dte", "dte_linear"),
                                          ("cde", "cde_binary")])
def test_bad_alpha_exits_2_before_any_fit(tmp_path, monkeypatch, capsys,
                                          estimand, dgp):
    src = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", dgp, "--n", "200", "--seed", "1", "--out", src)

    def no_fit(*args, **kwargs):
        raise AssertionError("a nuisance was fit before alpha was checked")

    monkeypatch.setattr(estimators, "_fit_learner", no_fit)
    assert run_cli("estimate", "--estimand", estimand, "--data", src,
                   "--alpha", "1.5") == 2
    assert "alpha" in capsys.readouterr().err


def test_tiny_stratum_exits_4_naming_fold_and_role(tmp_path, capsys):
    src = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_linear", "--n", "20", "--seed", "3",
            "--out", src)
    code = run_cli("estimate", "--estimand", "dte", "--data", src,
                   "--out", str(tmp_path / "r.json"))
    err = capsys.readouterr().err
    assert code == 4
    assert re.search(r"fold \d+ (pi|rho|nu|mu)\b", err), err


def test_estimate_requires_data_and_estimand(tmp_path):
    assert run_cli("estimate", "--estimand", "ate") == 2
    assert run_cli("estimate", "--data", str(tmp_path / "x.csv")) == 2


def test_stdout_report_when_out_omitted(tmp_path, capsys):
    src = str(tmp_path / "c.csv")
    run_cli("simulate", "--dgp", "cate_linear", "--n", "120", "--seed", "2",
            "--out", src)
    capsys.readouterr()
    assert run_cli("estimate", "--estimand", "ate", "--data", src,
                   "--K", "2", "--seed", "1") == 0
    doc = json.loads(capsys.readouterr().out)
    assert "report" in doc and doc["config"]["estimand"] == "ate"


def _csv(header, rows):
    return ("\n".join([header] + [",".join(r) for r in rows]) + "\n").encode()


def _set_cell(r, c, value):
    def mutate(header, rows):
        rows[r][c] = value
        return _csv(header, rows)
    return mutate


# Hostile variants of a dte_linear file (a1..a4, t1, b1, b2, t2, y) with the
# message each must give.
_HOSTILE = {
    "nan": (_set_cell(0, 0, "nan"), "s1 contains non-finite values"),
    "inf": (_set_cell(0, -1, "inf"), "y contains non-finite values"),
    "covariate_1.5": (_set_cell(0, 0, "1.5"), "outside the covariate support"),
    "quoted_header": (lambda h, rows: _csv('"a1"' + h[2:], rows),
                      "column 1: expected 'a1', found '\"a1\"'"),
    "duplicate_header": (lambda h, rows: _csv(h.replace("a2", "a1"), rows),
                         "column 2: expected 't1', found 'a1'"),
    "ragged_row": (lambda h, rows: _csv(h, rows[:1] + [rows[1][:-1]] + rows[2:]),
                   "malformed numeric row"),
    "text_cell": (_set_cell(0, 1, "abc"), "malformed numeric row"),
    "header_only": (lambda h, rows: _csv(h, []), "no data rows"),
    "empty": (lambda h, rows: b"", "no data rows"),
    "non_utf8": (lambda h, rows: b"\xff" + _csv(h, rows), "not UTF-8 text"),
    "all_treated_t1": (lambda h, rows: _csv(h, [r[:4] + ["1"] + r[5:] for r in rows]),
                       "single t1 arm"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", list(_HOSTILE))
def test_hostile_data_file_exits_with_one_line(tmp_path, capsys, case):
    src = tmp_path / "d.csv"
    run_cli("simulate", "--dgp", "dte_linear", "--n", "60", "--seed", "2", "--out", str(src))
    header, *rows = src.read_text().splitlines()
    mutate, message = _HOSTILE[case]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(mutate(header, [r.split(",") for r in rows]))
    capsys.readouterr()
    code = run_cli("estimate", "--estimand", "dte", "--data", str(bad), "--K", "2")
    err = capsys.readouterr().err
    assert code in (2, 4) and err.count("\n") == 1 and message in err, (code, err)


# Hostile --config files: each must exit 2 with one line.
_HOSTILE_CONFIGS = {
    "non_utf8": b'\xff\xfe{"n": 3}',
    "config_member_a_list": b'{"config": [1, 2]}',
    "config_member_null": b'{"config": null}',
    "nested_too_deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("case", list(_HOSTILE_CONFIGS))
def test_hostile_config_file_exits_2_with_one_line(tmp_path, capsys, case):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(_HOSTILE_CONFIGS[case])
    code = run_cli("simulate", "--dgp", "dte_linear", "--config", str(cfg),
                   "--out", str(tmp_path / "x.csv"))
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1 and err.startswith("error: "), (code, err)


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


@pytest.mark.parametrize("argv,doc", [
    (["simulate", "--dgp", "dte_linear", "--seed", "-1"], None),
    (["estimate", "--estimand", "dte", "--data", "d.csv", "--seed", "-1"], None),
    (["diagnose", "coverage", "--reps", "100", "--n", "50", "--seed", "-3"], None),
    (["diagnose", "orthogonality", "--n", "0"], None),
    (["diagnose", "rate_slope", "--reps", "0"], None),
    (["simulate", "--dgp", "dte_linear"], {"dgp_fields": {"d1": 2.5}}),
    (["simulate", "--dgp", "dte_linear"], {"dgp_fields": {"q": 1.5}}),
    (["simulate", "--dgp", "dte_linear"], {"dgp_fields": {"coef_seed": 1.5}}),
    (["simulate", "--dgp", "dte_linear"], {"dgp_fields": {"coef_seed": -1}}),
    (["simulate", "--dgp", "cate_linear", "--n", "50"],
     {"dgp_fields": {"propensity_offset": float("nan")}}),
    (["diagnose", "orthogonality", "--scale", "nan", "--n", "1000"], None),
    (["diagnose", "orthogonality", "--scale", "inf", "--n", "1000"], None),
    (["simulate", "--dgp", "dte_linear"], {"dgp_fields": {"noise_sd": True}}),
    (["simulate", "--dgp", "dte_linear", "--n", "100000000000000000000000"], None),
    (["diagnose", "orthogonality", "--n", "1000"], {"scale": 10**400}),
    (["simulate", "--dgp", "dte_linear"], {"dgp_fields": {"noise_sd": 10**400}}),
])
def test_bad_setting_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, doc):
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        Path("cfg.json").write_text(json.dumps(doc))
        argv = argv + ["--config", "cfg.json"]
    if argv[0] == "simulate":
        argv = argv + ["--out", "x.csv"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: "), err



@pytest.mark.parametrize("argv,text,start", [
    (["diagnose", "orthogonality", "--n", "1000"], '{"scale": 1' + "0" * 400 + "}",
     "error: perturbation_scale must be finite, got an integer too large for a float\n"),
    (["simulate", "--dgp", "dte_linear", "--out", "x.csv"],
     '{"dgp_fields": {"noise_sd": 1' + "0" * 400 + "}}",
     "error: noise_sd must be finite, got an integer too large for a float\n"),
    # Past Python's digit limit for parsing an int (4300), where it has one.
    (["diagnose", "orthogonality", "--n", "1000"], '{"scale": 1' + "0" * 5000 + "}",
     "error: "),
], ids=["scale", "noise_sd", "digits"])
def test_config_integer_too_large_exits_2_naming_the_fault(tmp_path, monkeypatch, capsys,
                                                           argv, text, start):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(text)
    assert run_cli(*argv, "--config", "cfg.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1, err


def test_simulate_with_n_too_large_to_allocate_exits_2_with_one_line(tmp_path):
    """Run in a child capped at 4 GiB of address space, so the draw fails to
    allocate on any host instead of filling its memory."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from drnets.cli import main\n"
            "sys.exit(main(['simulate', '--dgp', 'dte_linear', '--n', '1000000000000',"
            " '--out', 'x.csv']))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(estimators.__file__).parents[1])}  # the drnets under test
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=env)
    err = proc.stderr
    assert proc.returncode == 2 and err.count("\n") == 1 and err.startswith("error: "), err
    assert not (tmp_path / "x.csv").exists()


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


def _with_treated_y(tmp_path, dgp, n, seed, value):
    """A simulated CSV with y set to ``value`` in the first row whose treatment
    columns all hold 1, so the cell enters every score; and that row's number."""
    src = tmp_path / f"{dgp}.csv"
    run_cli("simulate", "--dgp", dgp, "--n", str(n), "--seed", str(seed), "--out", str(src))
    header, *rows = src.read_text().splitlines()
    treated = [j for j, name in enumerate(header.split(",")) if name in ("t", "t1", "t2")]
    i = next(i for i, row in enumerate(rows) if all(row.split(",")[j] == "1" for j in treated))
    rows[i] = rows[i].rsplit(",", 1)[0] + "," + value
    bad = tmp_path / f"{dgp}_y_{value}.csv"
    bad.write_text("\n".join([header, *rows]) + "\n")
    return str(bad), i + 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["m_level", "d", "scale", "ate_y", "cde_y"])
def test_size_and_extreme_value_faults_exit_2_naming_the_setting(tmp_path, monkeypatch,
                                                                capsys, case):
    """Each run once ended in a traceback (exit 1) or behind numpy overflow
    warnings; each now stops at its check with one line."""
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text('{"m_level": 1' + "0" * 400 + "}")
    Path("d.json").write_text(json.dumps({"dgp_fields": {"d": 10**30}}))
    ate_y, ate_row = _with_treated_y(tmp_path, "cate_linear", 400, 2, "1e308")
    cde_y, cde_row = _with_treated_y(tmp_path, "cde_binary", 300, 1, "-1e308")
    argv, start = {
        "m_level": (["estimate", "--estimand", "cde", "--config", "m.json",
                     "--data", "cde_binary.csv"],  # the file before its y was set
                    f"error: mediator level must be an integer in [{-2**53}, {2**53}], got 1"),
        "d": (["diagnose", "orthogonality", "--config", "d.json", "--n", "2000"],
              f"error: d must be an integer in [1, {np.iinfo(np.intp).max // 8}], got {10**30}"),
        "scale": (["diagnose", "orthogonality", "--scale", "1e308", "--n", "2000"],
                  "error: perturbation_scale must lie in [-1e+100, 1e+100], got 1e+308"),
        "ate_y": (["estimate", "--estimand", "ate", "--data", ate_y],
                  f"error: y row {ate_row} lies outside [-1e+100, 1e+100]"),
        "cde_y": (["estimate", "--estimand", "cde", "--data", cde_y],
                  f"error: y row {cde_row} lies outside [-1e+100, 1e+100]"),
    }[case]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1, err


def test_unused_float_settings_are_checked_before_they_reach_the_report(tmp_path, capsys):
    """alpha and scale are embedded in every output, used or not."""
    out = tmp_path / "o.json"
    assert run_cli("diagnose", "orthogonality", "--alpha", "nan", "--n", "2000",
                   "--out", str(out)) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: alpha must be finite, got nan\n"


_BASE_N = 60
_CELLS = ("nan", "inf", "1e400", "1e308", "-1e308", "1e100", "-1e100", "9.9e99", "1e20",
          "1e-300", "1.5", "-1", "2", "0", "1", "", "abc")
_VALUES = (0, -1, 10**30, 10**400, 1e308, True, None, "x", "mlp", [1], [])
_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "command") + tuple(
    f"dgp_fields.{f.name}" for f in fields(DgpConfig) if f.name != "kind")
_INTS = ("0", "-1", "1", "2", str(10**30), str(2**63 - 1))
_FLOATS = ("0", "-1", "1", "1e308", "-1e308", "1e100", "nan", "inf", "1e-300")
# The numeric flags each command takes; the property draws only values that
# parse, since argparse's own usage errors lie outside the contract.
_FLAGS = {"simulate": {"--n": _INTS, "--seed": _INTS},
          "estimate": {"--K": _INTS, "--alpha": _FLOATS, "--seed": _INTS},
          "diagnose": {"--n": _INTS, "--alpha": _FLOATS, "--scale": _FLOATS, "--seed": _INTS}}
_DGPS = {"ate": "cate_linear", "cate": "cate_sparse_smooth", "dte": "dte_linear",
         "cde": "cde_binary"}


@pytest.fixture(scope="module")
def base_csvs(tmp_path_factory):
    """The directory of one small valid data file per estimand."""
    root = tmp_path_factory.mktemp("base")
    for estimand, dgp in _DGPS.items():
        assert main(["simulate", "--dgp", dgp, "--n", str(_BASE_N), "--seed", "3",
                     "--out", str(root / f"{estimand}.csv")]) == 0
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
