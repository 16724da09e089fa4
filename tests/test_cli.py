"""Command line: config handling, reports, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import cltlab
from cltlab import cli, montecarlo
from cltlab.cli import main
from cltlab.discretize import grid_from_config, uniform_grid
from cltlab.fieldgen import driver_from_dict, field_from_config
from cltlab.mixing import profile_from_dict

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


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    out = str(tmp_path / "r.json")
    assert main(["tail", "--w", "1", "--s", "2", "--y", "10", "--y", "30", "--out", out]) == 0
    assert load_report(out)["config"]["y"] == [10.0, 30.0]
    assert main(["tail", "--w", "1", "--s", "2", "--y", "20", "--out", out]) == 0
    assert load_report(out)["config"]["y"] == [20.0]
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
    code = main(["verify-clt", "--config", cfg, "--limit-covariance-scale", "9.0", "--out", str(tmp_path / "r.json")])
    text = capsys.readouterr().out
    assert code == 1
    assert "overridden" in text and "converged: False" in text


@pytest.mark.parametrize("sigma", [1.0, 1e-6])
def test_verify_clt_covariance_csv_round_trip(tmp_path, capsys, sigma):
    # the dumped model covariance, injected back, is the same limit law in any units
    dump = str(tmp_path / "cov.csv")
    field = {"basis": FIELD["basis"], "driver": {"iid_normal": {"sigma": sigma, "k": 1}}}
    cfg = write_config(
        tmp_path,
        "clt.json",
        {
            "field": field,
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


def test_verify_clt_unit_scale_is_the_model_limit_law(tmp_path, capsys):
    # scale 1 multiplies the model's exact factor by 1, so every draw and verdict is the
    # same; p = 3, because an L^2 norm on an orthonormal basis hides a rotated factor
    field = {"basis": {"name": "fourier", "k": 3}, "driver": {"iid_normal": {"sigma": 1.0, "k": 3}}}
    cfg = write_config(
        tmp_path,
        "clt.json",
        {"field": field, "grid": {"uniform": 8}, "p": 3.0, "reps": 200, "n_schedule": [16, 32], "seed": 4},
    )
    plain, scaled = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    # the exit code itself is a chance verdict; the subject is that both runs give the same one
    code = main(["verify-clt", "--config", cfg, "--out", plain])
    assert code in (0, 1)
    assert main(["verify-clt", "--config", cfg, "--limit-covariance-scale", "1", "--out", scaled]) == code
    capsys.readouterr()
    assert load_report(plain)["results"]["summary"] == load_report(scaled)["results"]["summary"]
    assert load_report(scaled)["results"]["limit_override"] == "scale:1"


def test_verify_clt_cli_holds_no_grid_by_grid_matrix(tmp_path, capsys):
    # a 4096 x 4096 covariance alone would be 128 MB; a run on 8 points first warms imports and caches
    field = {"basis": {"name": "fourier", "k": 3}, "driver": {"iid_normal": {"sigma": 1.0, "k": 3}}}
    argv = ["verify-clt", "--out", str(tmp_path / "r.json"), "--config"]
    config = {"field": field, "p": 2.0, "reps": 100, "n_schedule": [16], "seed": 0}
    assert main(argv + [write_config(tmp_path, "small.json", dict(config, grid={"uniform": 8}))]) in (0, 1)
    big = write_config(tmp_path, "big.json", dict(config, grid={"uniform": 4096}))
    tracemalloc.start()
    try:
        code = main(argv + [big])
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code in (0, 1)
    assert peak < 8.0, peak


def test_verify_clt_csv_and_scale_together_exit_2(tmp_path, capsys):
    dump = tmp_path / "cov.csv"
    np.savetxt(dump, np.eye(8), delimiter=",")
    code = run_config(tmp_path, "verify-clt", dict(CLT, limit_covariance_csv=str(dump), limit_covariance_scale=9.0))
    assert code == 2
    assert_one_config_error(capsys)
    assert not (tmp_path / "r.json").exists()


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


def test_iid_beta_profile_exits_2(tmp_path, capsys):
    # beta vanishes from lag 1, so K_N would be 0: a bound of 0 is no upper bound
    for command in ("verify-superstrong", "bounds"):
        config = dict(RUNNABLE[command], beta_profile="iid")
        assert run_config(tmp_path, command, config) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "K_N would be 0" in err, err
        assert not (tmp_path / "r.json").exists()


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


# --- input checking: every key is checked against its command's table ------------------

SIM = {"field": FIELD, "grid": {"uniform": 8}, "n": 32, "p": 2.0, "reps": 150}
CLT = {"field": FIELD, "grid": {"uniform": 8}, "p": 2.0, "reps": 100, "n_schedule": [16]}
VB = {"field": FIELD, "grid": {"uniform": 8}, "s": 2, "v": 4.0, "reps": 100, "n_schedule": [16]}
TAIL = {"w": 1, "s": 2, "y": [10]}
VS = {"field": FIELD, "grid": {"uniform": 8}, "s": 2, "reps": 100, "n_schedule": [16],
      "beta_profile": {"kind": "beta", "decay": {"m_dependent": {"m": 1}}}}
RUNNABLE = {"bounds": {"s": 2, "profile": "iid"}, "simulate": SIM, "verify-clt": CLT, "verify-bounds": VB,
            "verify-superstrong": VS, "tail": TAIL}


@pytest.fixture
def paths_only(monkeypatch):
    """Fail, rather than write, if the CLI opens a file descriptor number instead of a path."""

    def guarded(file, *args, **kwargs):
        if not isinstance(file, (str, bytes, os.PathLike)):
            raise AssertionError(f"opened {file!r}, not a path")
        return open(file, *args, **kwargs)

    for module in (cli, montecarlo):
        monkeypatch.setattr(module, "open", guarded, raising=False)


def run_config(tmp_path, command, config, *flags):
    argv = [command, "--config", write_config(tmp_path, "c.json", config)]
    if "out" not in config:
        argv += ["--out", str(tmp_path / "r.json")]
    return main(argv + list(flags))


def assert_one_config_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err



def test_grid_total_mass_overflow_exits_2(tmp_path, capsys):
    grid = {"custom": {"points": [0.25, 0.75], "weights": [1e308, 1e308]}}
    assert run_config(tmp_path, "verify-bounds", dict(VB, grid=grid)) == 2
    assert_one_config_error(capsys)
    assert not (tmp_path / "r.json").exists()


def test_allocation_past_the_address_space_exits_2(tmp_path, capsys):
    # 2^47 float64 time steps are 2^50 bytes, more than a 64-bit address space maps
    assert run_config(tmp_path, "simulate", dict(SIM, n=2**47)) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory: ") and err.count("\n") == 1, err
    assert not (tmp_path / "r.json").exists()


def field_with_sigma(sigma):
    return {"basis": {"name": "const", "k": 1}, "driver": {"iid_normal": {"sigma": sigma, "k": 1}}}


@pytest.mark.parametrize("command,base", [("simulate", SIM), ("verify-clt", CLT), ("verify-bounds", VB)])
def test_driver_variance_overflow_exits_2(tmp_path, capsys, command, base):
    # sigma^2 overflows a float
    assert run_config(tmp_path, command, dict(base, field=field_with_sigma(1e160))) == 2
    assert_one_config_error(capsys)


@pytest.mark.parametrize(
    "command,base",
    [("simulate", dict(SIM, s=4.0)), ("verify-bounds", dict(VB, s=4, v=8.0))],
)
def test_moments_that_overflow_exit_2(tmp_path, capsys, command, base):
    # finite variances, but ||S_n||^4 near (1e100)^4 overflows the estimate
    assert run_config(tmp_path, command, dict(base, field=field_with_sigma(1e100))) == 2
    assert_one_config_error(capsys)


def test_even_p_overflow_raises_as_the_grid_path_does(tmp_path, capsys):
    # sigma = 1e100: ||S_n||_p^p is near 1e200 at p = 2 and 1e300 at p = 3, and
    # overflows at p = 4, where the norm form evaluates it; no numpy warning escapes
    grid = uniform_grid(16)
    spec = cltlab.FieldSpec(basis=cltlab.basis_matrix("const", 1, grid), driver=cltlab.IidNormal(sigma=1e100))
    with pytest.raises(ValueError) as grid_path:
        cltlab.lp_norms(np.full((1, 16), 1e100), 4.0, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (2.0, 3.0):
            assert np.all(np.isfinite(montecarlo.replicate_norms(spec, 16, p, grid, 100, seed=0)))
        assert montecarlo.form_pays(1, grid.size, 4.0)
        with pytest.raises(ValueError) as form:
            montecarlo.replicate_norms(spec, 16, 4.0, grid, 100, seed=0)
        assert str(form.value) == str(grid_path.value)
        big = {"basis": {"name": "const", "k": 1}, "driver": {"iid_normal": {"sigma": 1e100, "k": 1}}}
        for command, base in (("verify-bounds", dict(VB, s=4, v=8.0)), ("simulate", dict(SIM, p=4.0, s=4.0))):
            assert run_config(tmp_path, command, dict(base, field=big)) == 2
            assert_one_config_error(capsys)


def test_sup_mode_is_an_unknown_key(tmp_path, capsys):
    # the sup-norm method follows the driver; there is no switch for it
    assert run_config(tmp_path, "verify-bounds", dict(VB, sup_mode="analytic")) == 2
    assert_one_config_error(capsys)


def test_tol_is_an_unknown_key(tmp_path, capsys):
    # the geometric series stop is a fixed constant of the engine, not an option
    for command in ("bounds", "verify-bounds", "verify-superstrong"):
        assert run_config(tmp_path, command, dict(RUNNABLE[command], tol=1e-10)) == 2
        assert_one_config_error(capsys)


def test_limit_factor_and_sup_reps_are_unknown_keys(tmp_path, capsys):
    # the limit sample size and the sup-norm replications are constants of the library
    cases = (("verify-clt", "limit_factor"), ("verify-bounds", "sup_reps"), ("verify-superstrong", "sup_reps"))
    for command, key in cases:
        assert run_config(tmp_path, command, dict(RUNNABLE[command], **{key: 4})) == 2
        assert_one_config_error(capsys)
        assert not (tmp_path / "r.json").exists()


PATH_CASES = {
    "out": ("tail", TAIL),
    "csv": ("simulate", SIM),
    "dump_covariance": ("verify-clt", CLT),
    "limit_covariance_csv": ("verify-clt", CLT),
}


@pytest.mark.parametrize("value", [1, True, ["a"]], ids=["int", "bool", "list"])
@pytest.mark.parametrize("key", sorted(PATH_CASES))
def test_path_keys_must_be_strings(tmp_path, capsys, paths_only, key, value):
    command, base = PATH_CASES[key]
    assert run_config(tmp_path, command, dict(base, **{key: value})) == 2
    assert_one_config_error(capsys)


INT_CASES = [
    ("verify-bounds", VB, "s", 2.5),
    ("simulate", SIM, "reps", 150.9),
    ("simulate", SIM, "n", 32.5),
    ("simulate", SIM, "seed", 1.5),
    ("simulate", SIM, "threads", True),
    ("verify-clt", CLT, "n_schedule", [16.5]),
    ("bounds", {"s": 2}, "seed", "abc"),
    ("bounds", {"s": 2}, "threads", "x"),
    ("tail", TAIL, "seed", "abc"),
    ("tail", TAIL, "threads", "x"),
    ("tail", TAIL, "seed", None),
]


@pytest.mark.parametrize("command,base,key,value", INT_CASES, ids=[f"{c}-{k}-{v!r}" for c, _, k, v in INT_CASES])
def test_integer_keys_reject_non_integral_values(tmp_path, capsys, command, base, key, value):
    assert run_config(tmp_path, command, dict(base, **{key: value})) == 2
    assert_one_config_error(capsys)


# moment powers s and norm orders p must be finite and at least 1 (JSON reads NaN and Infinity)
POWER_CASES = [
    ("simulate", SIM, "s", -1.0),
    ("simulate", SIM, "s", math.nan),
    ("simulate", SIM, "s", math.inf),
    ("simulate", SIM, "p", math.nan),
    ("simulate", SIM, "p", math.inf),
    ("verify-clt", dict(CLT, limit_covariance_scale=9.0), "p", math.inf),
]


@pytest.mark.parametrize("command,base,key,value", POWER_CASES, ids=[f"{c}-{k}-{v!r}" for c, _, k, v in POWER_CASES])
def test_powers_must_be_finite_and_at_least_one(tmp_path, capsys, command, base, key, value):
    assert run_config(tmp_path, command, dict(base, **{key: value})) == 2
    assert_one_config_error(capsys)
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_negative_threads_exit_2_for_every_command(tmp_path, capsys, command):
    assert run_config(tmp_path, command, RUNNABLE[command]) in (0, 1)
    (tmp_path / "r.json").unlink()
    capsys.readouterr()
    assert run_config(tmp_path, command, RUNNABLE[command], "--threads", "-3") == 2
    err = capsys.readouterr().err
    assert err == "config error: 'threads' must be nonnegative, not -3\n"
    assert not (tmp_path / "r.json").exists()


def test_integral_floats_accepted_for_integer_keys(tmp_path, capsys):
    assert run_config(tmp_path, "simulate", dict(SIM, n=32.0, reps=150.0, seed=5.0)) == 0
    capsys.readouterr()
    rep = load_report(str(tmp_path / "r.json"))
    assert rep["results"]["estimate"]["reps"] == 150 and rep["results"]["estimate"]["n"] == 32
    # the report records the config as given, not the coerced values
    assert isinstance(rep["config"]["reps"], float) and isinstance(rep["seed"], float)


def test_help_offers_iid_for_alpha_profiles_only(capsys):
    with pytest.raises(SystemExit):
        main(["verify-superstrong", "--help"])
    assert "(profile object, required)" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["bounds", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert '("iid" or profile object)' in text and "beta profile as inline JSON (profile object)" in text


def test_help_lists_config_only_keys(capsys):
    with pytest.raises(SystemExit):
        main(["verify-bounds", "--help"])
    text = capsys.readouterr().out
    assert "config-only keys" in text
    assert "n_schedule" in text and "list of ints" in text
    assert "--n-schedule" not in text and "--reps" in text


# wrong types inside nested config values: (config part, value)
NESTED_CASES = [
    ("driver", {"iid_normal": {"sigma": "a", "k": 1}}),
    ("driver", {"ma_q": {"weights": 5}}),
    ("driver", {"ar1": {"rho": 0.5, "k": math.inf}}),
    ("driver", {"iid_rademacher": {"k": [1]}}),
    ("profile", {"kind": "alpha", "decay": {"geometric": {"c": "a", "rho": 0.5}}}),
    ("profile", {"kind": "alpha", "decay": {"explicit": {"values": 5}}}),
    ("profile", {"kind": "alpha", "decay": {"m_dependent": {"m": [1]}}}),
    ("profile", {"kind": "alpha", "decay": {"polynomial": {"c": 1.0, "theta": True}}}),
    ("grid", {"uniform": 2.5}),
    ("grid", {"custom": {"points": {"a": 1}, "weights": [1.0]}}),
    ("field", {"basis": {"name": "const", "k": [1]}, "driver": FIELD["driver"]}),
    ("field", {"basis": {"rows": {"a": 1}}, "driver": FIELD["driver"]}),
    ("field", dict(FIELD, scale_decay="a")),
]
PARSERS = {
    "driver": driver_from_dict,
    "profile": profile_from_dict,
    "grid": grid_from_config,
    "field": lambda obj: field_from_config(obj, uniform_grid(8)),
}


@pytest.mark.parametrize("part, value", NESTED_CASES)
def test_parsers_raise_value_error_on_nested_types(part, value):
    with pytest.raises(ValueError):
        PARSERS[part](value)


@pytest.mark.parametrize("part, value", NESTED_CASES)
def test_nested_types_exit_2_with_one_line(tmp_path, capsys, part, value):
    if part == "profile":
        command, config = "bounds", {"s": 2, "profile": value}
    else:
        command, config = "simulate", dict(SIM, **({"field": dict(FIELD, driver=value)} if part == "driver" else {part: value}))
    assert run_config(tmp_path, command, config) == 2
    assert_one_config_error(capsys)


# --- fuzz: configs and flags drawn from each command's table ----------------------------

ALPHA = {"kind": "alpha", "decay": {"m_dependent": {"m": 1}}}
BETA = {"kind": "beta", "decay": {"m_dependent": {"m": 1}}}
FIELDS = [
    FIELD,
    {"basis": {"name": "fourier", "k": 2}, "driver": {"iid_rademacher": {"k": 2}}},
    {"basis": {"name": "const", "k": 1}, "driver": {"ma_q": {"weights": [1.0, 0.5], "sigma": 1.0, "k": 1}}},
]
ORDERS = {"verify-bounds": [2, 4], "simulate": [1.0, 2.0]}


def valid_values(command, tmp_path):
    """A strategy per key name for values the command should run with, at tiny sizes."""
    return {
        "seed": st.integers(0, 2**32),
        "threads": st.sampled_from([0, 1, 2]),
        "out": st.just(str(tmp_path / "report.json")),
        "field": st.sampled_from(FIELDS),
        "grid": st.sampled_from([{"uniform": 4}, {"uniform": 8}]),
        "reps": st.integers(100, 150),
        "n": st.integers(1, 32),
        "n_schedule": st.lists(st.integers(1, 32), min_size=1, max_size=2),
        "p": st.sampled_from([1.0, 2.0, 4.0]),
        "s": st.sampled_from(ORDERS.get(command, [2.0, 3.0, 4.0])),
        "v": st.sampled_from([8.0, 10.0]),
        "w": st.floats(0.0, 10.0),
        "y": st.one_of(st.floats(1.0, 100.0), st.lists(st.floats(1.0, 100.0), min_size=1, max_size=3)),
        "sup_v_norm": st.floats(0.5, 2.0),
        "significance": st.sampled_from([0.01, 0.05]),
        "limit_covariance_scale": st.sampled_from([0.5, 1.0, 4.0]),
        "limit_covariance_csv": st.sampled_from([str(tmp_path / "cov4.csv"), str(tmp_path / "missing.csv")]),
        "dump_covariance": st.just(str(tmp_path / "dump.csv")),
        "csv": st.just(str(tmp_path / "norms.csv")),
        "profile": st.sampled_from(["iid", ALPHA, json.dumps(ALPHA)]),
        # "iid" is an alpha shortcut only (test_iid_beta_profile_exits_2)
        "beta_profile": st.sampled_from([BETA, json.dumps(BETA)]),
    }


def invalid_values(key):
    """Wrong types, non-finite and out-of-range numbers; never a string for a path (it would be written)."""
    wrong = [None, True, [1], {"a": 1}, math.nan, math.inf, -math.inf, -1, 0, 2.5]
    if key.kind is not cli.PATH:
        wrong.append("x")
    return st.sampled_from(wrong)


def flag_args(key, value):
    """argv giving value by the key's flag, or None where argparse could not parse it."""
    flag = "--" + key.name.replace("_", "-")
    args = []
    for item in value if key.kind.repeat and isinstance(value, list) else [value]:
        if isinstance(item, dict) and key.kind in (cli.ALPHA_PROFILE, cli.BETA_PROFILE):
            item = json.dumps(item)
        if item is None or isinstance(item, (bool, list, dict)):
            return None
        if key.kind.arg_type is None and not isinstance(item, str):
            return None
        text = repr(item) if isinstance(item, float) else str(item)
        if key.kind.arg_type is not None:
            try:
                key.kind.arg_type(text)
            except ValueError:
                return None
        args.append(f"{flag}={text}")
    return args


@st.composite
def cli_inputs(draw, command, tmp_path):
    keys = cli.COMMON_KEYS + cli.COMMANDS[command].keys
    valid = valid_values(command, tmp_path)
    # out and n_schedule are always given: the default report lands in the working
    # directory and the default schedule runs up to n = 4096
    kept = {"out", "n_schedule"}
    values = {
        key.name: draw(valid[key.name])
        for key in keys
        if key.required or key.name in kept or draw(st.booleans())
    }
    for key in draw(st.sets(st.sampled_from(keys), max_size=2)):
        if key.name in kept or draw(st.booleans()):
            values[key.name] = draw(invalid_values(key))
        else:
            values.pop(key.name, None)
    config, flags = {}, []
    for key in keys:
        if key.name not in values:
            continue
        args = flag_args(key, values[key.name]) if key.flag else None
        if args is not None and draw(st.booleans()):
            flags += args
        else:
            config[key.name] = values[key.name]
    if draw(st.integers(0, 9)) == 0:
        config["bogus"] = 1
    return config, flags


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_inputs_exit_cleanly(tmp_path, capsys, paths_only, command, data):
    np.savetxt(tmp_path / "cov4.csv", np.eye(4), delimiter=",")
    config, flags = data.draw(cli_inputs(command, tmp_path))
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    argv = [command, "--config", write_config(tmp_path, "fuzz.json", config)] + flags
    code = main(argv)
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.count("\n") == 1, err
        return
    results = load_report(out)["results"]
    if code == 1:
        if command == "verify-clt":
            assert results["summary"]["converged"] is False
        else:
            assert results["verdict"]["satisfied"] is False


# Runs each command in turn in a fresh interpreter and prints the scipy modules loaded after each.
COLD_START = """
import json, sys
import cltlab, cltlab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    code = cltlab.cli.main(argv)
    if code not in (0, 1):
        sys.exit(f"{name} exited {code}")
    seen[name] = scipy_modules()
print(json.dumps(seen))
"""


def test_cold_start_loads_scipy_only_for_the_ks_p_value(tmp_path):
    out = str(tmp_path / "report.json")
    runs = [
        ("bounds", ["bounds", "--s", "2", "--v", "4", "--profile", "iid", "--out", out]),
        ("verify-bounds", ["verify-bounds", "--config", write_config(tmp_path, "vb.json", VB), "--out", out]),
        ("verify-clt", ["verify-clt", "--config", write_config(tmp_path, "clt.json", CLT), "--out", out]),
    ]
    src = str(Path(cltlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(runs)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["import"] == seen["bounds"] == seen["verify-bounds"] == []
    clt = seen["verify-clt"]
    assert "scipy.special" in clt
    assert not any(m.startswith(("scipy.signal", "scipy.stats")) for m in clt), clt
