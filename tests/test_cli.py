"""End-to-end command tests: file round trips, exit codes, determinism."""

import json
import os
import re

import numpy as np
import pytest

from drnets import estimators
from drnets.cli import (
    _columns_for,
    _parse_cate_csv,
    _parse_dte_csv,
    main,
    read_csv,
    write_csv,
)


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_rows_and_sidecar(tmp_path):
    out = str(tmp_path / "d.csv")
    assert run_cli("simulate", "--dgp", "dte_linear", "--n", "100",
                   "--seed", "7", "--out", out) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 101
    assert lines[0] == "a1,a2,a3,a4,t1,b1,b2,t2,y"
    sidecar = json.load(open(out + ".json"))
    assert sidecar["n"] == 100
    assert sidecar["config"]["seed"] == 7
    assert np.isfinite(sidecar["theta_true"])


def test_simulate_twice_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        assert run_cli("simulate", "--dgp", "cate_sparse_smooth", "--n", "50",
                       "--seed", "3", "--out", out) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert open(a + ".json").read().replace("a.csv", "b.csv") \
        == open(b + ".json").read()


def test_simulate_rejects_unknown_dgp(tmp_path, capsys):
    code = run_cli("simulate", "--dgp", "nope", "--n", "10",
                   "--out", str(tmp_path / "x.csv"))
    assert code == 2


def test_simulate_unwritable_path_is_io_error():
    assert run_cli("simulate", "--dgp", "cate_linear", "--n", "5",
                   "--out", "/nonexistent_dir/x.csv") == 3


def test_csv_write_read_write_round_trip(tmp_path):
    out = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "cde_binary", "--n", "80", "--seed", "9",
            "--out", out)
    names, matrix = read_csv(out)
    again = str(tmp_path / "again.csv")
    write_csv(again, names, matrix)
    assert open(out, "rb").read() == open(again, "rb").read()


def test_parse_rejects_wrong_schema(tmp_path):
    out = str(tmp_path / "c.csv")
    run_cli("simulate", "--dgp", "cate_linear", "--n", "30", "--seed", "1",
            "--out", out)
    with pytest.raises(Exception, match="column 1: expected 'a1'"):
        _parse_dte_csv(out, mediator=False)
    data = _parse_cate_csv(out)
    assert data.n == 30 and data.s.shape == (30, 4)


def test_estimate_missing_t2_column_exits_2(tmp_path, capsys):
    src = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_linear", "--n", "60", "--seed", "2",
            "--out", src)
    text = open(src).read().replace("t2", "zz")
    bad = str(tmp_path / "bad.csv")
    open(bad, "w").write(text)
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
    a = json.load(open(wide))["report"]
    b = json.load(open(narrow))["report"]
    assert a["theta_hat"] == b["theta_hat"]
    assert b["ci"][1] - b["ci"][0] < a["ci"][1] - a["ci"][0]
    assert a["K"] == 3 and a["n"] == 250


def test_estimate_cate_probe_predictions(tmp_path):
    src = str(tmp_path / "c.csv")
    run_cli("simulate", "--dgp", "cate_linear", "--n", "200", "--seed", "6",
            "--out", src)
    probe = str(tmp_path / "p.csv")
    grid = np.array([[0.5, 0.1, -0.2, 0.0], [-0.5, 0.0, 0.0, 0.9]])
    write_csv(probe, _columns_for("ate", 4)[:-2], grid)
    out = str(tmp_path / "cate.json")
    assert run_cli("estimate", "--estimand", "cate", "--data", src,
                   "--out", out, "--seed", "4", "--probe", probe) == 0
    doc = json.load(open(out))
    assert len(doc["probe"]["predictions"]) == 2
    assert "model_half1" in doc and "model_half2" in doc


def test_estimate_cde_runs_on_mediator_file(tmp_path):
    src = str(tmp_path / "m.csv")
    run_cli("simulate", "--dgp", "cde_binary", "--n", "300", "--seed", "5",
            "--out", src)
    assert open(src).read().splitlines()[0] \
        == "a1,a2,a3,a4,t1,b1,b2,t2,m,y"
    out = str(tmp_path / "cde.json")
    assert run_cli("estimate", "--estimand", "cde", "--data", src,
                   "--out", out, "--K", "2", "--seed", "1") == 0
    assert json.load(open(out))["report"]["estimand"] == "cde_t1_m1"


def test_estimate_same_seed_reproduces_bytes(tmp_path):
    src = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_linear", "--n", "200", "--seed", "8",
            "--out", src)
    outs = [str(tmp_path / f"r{i}.json") for i in range(2)]
    for out in outs:
        assert run_cli("estimate", "--estimand", "dte", "--data", src,
                       "--out", out, "--K", "2", "--seed", "3") == 0
    a, b = (open(o).read() for o in outs)
    assert a.replace("r0.json", "r1.json") == b


def test_config_file_merging_and_flag_precedence(tmp_path):
    cfg = str(tmp_path / "run.json")
    json.dump({"dgp": "cate_linear", "n": 40, "seed": 11}, open(cfg, "w"))
    out = str(tmp_path / "d.csv")
    assert run_cli("simulate", "--config", cfg, "--out", out,
                   "--seed", "12") == 0
    sidecar = json.load(open(out + ".json"))
    assert sidecar["config"]["seed"] == 12  # flag beats file
    assert sidecar["config"]["n"] == 40    # file beats default
    assert len(open(out).read().splitlines()) == 41


def test_rerun_from_embedded_config_reproduces(tmp_path):
    out = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_sparse_smooth", "--n", "60",
            "--seed", "4", "--out", out)
    replay_cfg = str(tmp_path / "replay.json")
    open(replay_cfg, "w").write(open(out + ".json").read())
    out2 = str(tmp_path / "d2.csv")
    assert run_cli("simulate", "--config", replay_cfg, "--out", out2) == 0
    assert open(out, "rb").read() == open(out2, "rb").read()


@pytest.mark.parametrize("doc", [{"alpha": "0.05"}, {"n": "abc"}, {"seed": "x"},
                                 {"t_level": "1"}])
def test_config_value_of_wrong_type_exits_2_before_any_fit(tmp_path, monkeypatch,
                                                           capsys, doc):
    src = str(tmp_path / "d.csv")
    run_cli("simulate", "--dgp", "dte_linear", "--n", "200", "--seed", "1", "--out", src)
    cfg = str(tmp_path / "run.json")
    json.dump(doc, open(cfg, "w"))

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
    json.dump({"dgp": "cate_linear", "banana": 1}, open(cfg, "w"))
    assert run_cli("simulate", "--config", cfg,
                   "--out", str(tmp_path / "x.csv")) == 2


def test_diagnose_orthogonality_zero_scale_passes(tmp_path):
    out = str(tmp_path / "o.json")
    assert run_cli("diagnose", "orthogonality", "--scale", "0",
                   "--n", "5000", "--out", out) == 0
    doc = json.load(open(out))
    assert doc["result"]["mean_delta1"] == 0.0
    assert doc["passed"] is True


def test_diagnose_unknown_study_exits_2():
    assert run_cli("diagnose", "nonsense") == 2
    assert run_cli("diagnose") == 2


def test_diagnose_coverage_degenerate_is_out_of_band(tmp_path):
    """Zero-width intervals cover every time; 1.0 sits above the band, so
    the command reports the study yet signals a threshold failure."""
    cfg = str(tmp_path / "cfg.json")
    json.dump({"dgp": "dte_linear", "learner_family": "oracle",
               "dgp_fields": {"noise_sd": 0.0, "effect_scale": 0.0,
                              "baseline_scale": 0.0},
               "reps": 100, "n": 300}, open(cfg, "w"))
    out = str(tmp_path / "cov.json")
    assert run_cli("diagnose", "coverage", "--config", cfg,
                   "--out", out, "--seed", "2") == 5
    doc = json.load(open(out))
    assert doc["result"]["coverage"] == 1.0
    assert doc["result"]["mean_ci_width"] == 0.0
    assert doc["passed"] is False


def test_diagnose_coverage_oracle_in_band(tmp_path):
    cfg = str(tmp_path / "cfg.json")
    json.dump({"dgp": "dte_linear", "learner_family": "oracle",
               "reps": 200, "n": 400}, open(cfg, "w"))
    out = str(tmp_path / "cov.json")
    assert run_cli("diagnose", "coverage", "--config", cfg,
                   "--out", out, "--seed", "2") == 0
    doc = json.load(open(out))
    assert 0.92 <= doc["result"]["coverage"] <= 0.98


def test_diagnose_threshold_failure_exits_5(tmp_path):
    # One replication pins coverage to 0 or 1; alpha close to 1 forces a
    # miss, so the 0.03 band around 1 - alpha cannot hold.
    cfg = str(tmp_path / "cfg.json")
    json.dump({"dgp": "dte_linear", "learner_family": "oracle",
               "dgp_fields": {"noise_sd": 0.5},
               "reps": 100, "n": 200, "alpha": 0.9}, open(cfg, "w"))
    out = str(tmp_path / "cov.json")
    code = run_cli("diagnose", "coverage", "--config", cfg, "--out", out,
                   "--seed", "2")
    doc = json.load(open(out))
    assert code == 5
    assert doc["passed"] is False


def test_study_bytes_do_not_depend_on_worker_cap(tmp_path, monkeypatch):
    cfg = str(tmp_path / "cfg.json")
    json.dump({"dgp": "dte_linear", "learner_family": "oracle",
               "dgp_fields": {"noise_sd": 0.0, "effect_scale": 0.0,
                              "baseline_scale": 0.0},
               "reps": 100, "n": 200}, open(cfg, "w"))
    outs = []
    for i, cap in enumerate(("1", "3")):
        monkeypatch.setenv("DRNETS_THREADS", cap)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        out = str(tmp_path / f"o{i}.json")
        run_cli("diagnose", "coverage", "--config", cfg, "--out", out,
                "--seed", "3")
        outs.append(open(out).read().replace(f"o{i}.json", "o.json"))
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
