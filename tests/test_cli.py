"""Command line: config handling, reports, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from cltlab.cli import main

FIELD = {"basis": {"name": "const", "k": 1}, "driver": {"iid_normal": {"sigma": 1.0, "k": 1}}}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_bounds_prints_z_and_writes_report(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    code = main(["bounds", "--s", "2", "--v", "4", "--profile", "iid", "--out", out])
    text = capsys.readouterr().out
    assert code == 0
    assert "22.4499443206" in text
    assert "1008" in text
    rep = load_report(out)
    assert rep["command"] == "bounds"
    assert rep["results"]["a_s"] == 1008
    assert rep["results"]["ku_crossover"] == 10
    assert rep["seed_defaulted"] is True
    assert "seed defaulted" in text


def test_bounds_odd_order_reports_even_lift(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert main(["bounds", "--s", "3", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "effective order" in text and "4" in text
    assert load_report(out)["results"]["effective_s"] == 4


def test_bounds_beta_profile_flag(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    beta = '{"kind":"beta","decay":{"geometric":{"c":1.0,"rho":0.5}}}'
    assert main(["bounds", "--s", "2", "--beta-profile", beta, "--out", out]) == 0
    assert load_report(out)["results"]["k_n"] == 4.0


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"s": 2, "bogus": 1})
    assert main(["bounds", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


def test_malformed_profile_exits_2(tmp_path, capsys):
    assert main(["bounds", "--s", "2", "--profile", '{"kind":"alpha"}']) == 2
    assert main(["bounds", "--s", "2", "--profile", "dependent"]) == 2
    capsys.readouterr()


def test_missing_required_key_exits_2(tmp_path, capsys):
    assert main(["tail", "--w", "1"]) == 2
    capsys.readouterr()


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_tail_frozen_value(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert main(["tail", "--w", "1", "--s", "2", "--y", "10", "--out", out]) == 0
    assert "0.01" in capsys.readouterr().out
    rep = load_report(out)
    assert rep["results"]["tail"]["q_bound"] == [0.01]


def test_simulate_csv_and_report(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    csv_path = str(tmp_path / "norms.csv")
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"field": FIELD, "grid": {"uniform": 8}, "n": 32, "p": 2.0, "reps": 150},
    )
    code = main(["simulate", "--config", cfg, "--seed", "5", "--csv", csv_path, "--out", out])
    capsys.readouterr()
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rep", "n", "p", "s", "norm_value"]
    assert len(rows) == 151
    rep = load_report(out)
    assert rep["seed"] == 5 and rep["seed_defaulted"] is False
    assert rep["results"]["estimate"]["reps"] == 150


def test_simulate_zero_reps_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sim.json",
        {"field": FIELD, "grid": {"uniform": 8}, "n": 32, "p": 2.0, "reps": 0},
    )
    assert main(["simulate", "--config", cfg]) == 2
    capsys.readouterr()


def strip_timestamp(path):
    with open(path) as fh:
        return [line for line in fh if '"timestamp"' not in line]


def test_report_identical_across_runs_except_timestamp(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "clt.json",
        {
            "field": FIELD,
            "grid": {"uniform": 8},
            "p": 2.0,
            "reps": 150,
            "n_schedule": [16, 32],
            "seed": 11,
        },
    )
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["verify-clt", "--config", cfg, "--out", out1]) == 0
    assert main(["verify-clt", "--config", cfg, "--out", out2]) == 0
    capsys.readouterr()
    body1, body2 = strip_timestamp(out1), strip_timestamp(out2)
    assert body1 == body2
    assert load_report(out1)["config_hash"] == load_report(out2)["config_hash"]


def test_parallel_report_matches_serial(tmp_path, capsys):
    base = {
        "field": FIELD,
        "grid": {"uniform": 8},
        "s": 2,
        "v": 4.0,
        "reps": 300,
        "n_schedule": [16],
        "seed": 3,
    }
    cfg = write_config(tmp_path, "vb.json", base)
    out1, out4 = str(tmp_path / "r1.json"), str(tmp_path / "r4.json")
    assert main(["verify-bounds", "--config", cfg, "--out", out1]) == 0
    assert main(["verify-bounds", "--config", cfg, "--threads", "4", "--out", out4]) == 0
    capsys.readouterr()
    v1 = load_report(out1)["results"]["verdict"]
    v4 = load_report(out4)["results"]["verdict"]
    assert v1["empirical"] == v4["empirical"]
    assert v1["theoretical"] == v4["theoretical"]


def test_verify_clt_wrong_limit_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "clt.json",
        {
            "field": FIELD,
            "grid": {"uniform": 8},
            "p": 2.0,
            "reps": 200,
            "n_schedule": [16, 32],
        },
    )
    code = main(["verify-clt", "--config", cfg, "--limit-covariance-scale", "9.0"])
    text = capsys.readouterr().out
    assert code == 1
    assert "overridden" in text and "converged: False" in text


def test_verify_clt_covariance_csv_round_trip(tmp_path, capsys):
    dump = str(tmp_path / "cov.csv")
    cfg = write_config(
        tmp_path,
        "clt.json",
        {
            "field": FIELD,
            "grid": {"uniform": 8},
            "p": 2.0,
            "reps": 200,
            "n_schedule": [32],
            "seed": 2,
        },
    )
    assert main(["verify-clt", "--config", cfg, "--dump-covariance", dump, "--out", str(tmp_path / "a.json")]) == 0
    cov = np.loadtxt(dump, delimiter=",")
    assert cov.shape == (8, 8)
    code = main(
        ["verify-clt", "--config", cfg, "--limit-covariance-csv", dump, "--out", str(tmp_path / "b.json")]
    )
    capsys.readouterr()
    assert code == 0


def test_verify_clt_indefinite_covariance_csv_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "cov.csv"
    csv_path.write_text("1,2\n2,1\n")
    cfg = write_config(
        tmp_path,
        "clt.json",
        {"field": FIELD, "grid": {"uniform": 2}, "p": 2.0, "reps": 200, "n_schedule": [16]},
    )
    code = main(["verify-clt", "--config", cfg, "--limit-covariance-csv", str(csv_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "indefinite" in err


def test_verify_superstrong_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "vs.json",
        {
            "field": FIELD,
            "grid": {"uniform": 8},
            "s": 2,
            "reps": 200,
            "n_schedule": [16],
            "beta_profile": {"kind": "beta", "decay": {"geometric": {"c": 1.0, "rho": 0.5}}},
        },
    )
    out = str(tmp_path / "r.json")
    assert main(["verify-superstrong", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    rep = load_report(out)
    assert rep["results"]["verdict"]["theoretical"] == 16.0
    assert rep["results"]["verdict"]["satisfied"] is True


def test_infinity_serialized_as_string(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    beta = '{"kind":"beta","decay":{"polynomial":{"c":1.0,"theta":1.0}}}'
    assert main(["bounds", "--s", "4", "--beta-profile", beta, "--out", out]) == 0
    capsys.readouterr()
    rep = load_report(out)
    assert rep["results"]["k_n"] == "inf"


def test_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "b.json", {"s": 2, "profile": "iid"})
    out = str(tmp_path / "r.json")
    assert main(["bounds", "--config", cfg, "--s", "4", "--out", out]) == 0
    capsys.readouterr()
    rep = load_report(out)
    assert rep["results"]["effective_s"] == 4
    assert rep["config"]["s"] == 4.0
    assert "out" not in rep["config"]
