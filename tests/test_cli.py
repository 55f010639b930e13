import json

import numpy as np
import pytest

from isac_mi import generate_scenario, scenario_from_json
from isac_mi.cli import (
    CONVERGENCE_HEADER,
    SWEEP_HEADER,
    TRADEOFF_HEADER,
    VERIFY_HEADER,
    ConfigError,
    load_config,
    main,
    parse_config,
    run_tradeoff,
)

TINY = {
    "scenario": {"n_t": 4, "n_r": 4, "n_u": 4, "num_scatter": 2, "seed": 11},
    "noise": {"snr_db_grid": [0.0, 10.0], "snr_db": 10.0},
    "run": {
        "trials": 300,
        "gap_threshold": 0.3,
        "antenna_counts": [2, 3],
        "rho_grid": [0.0, 0.5, 1.0],
        "pga": {"max_outer_iters": 8},
    },
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_default_config_parses():
    cfg = parse_config({})
    assert cfg.dims.n_t == 16 and cfg.dims.m == 16 and cfg.dims.n_s == 16
    assert cfg.p_t == 16.0
    assert cfg.rho == 0.8
    assert cfg.trials == 10000


def test_config_defaults_follow_dimension_chain():
    cfg = parse_config({"scenario": {"n_t": 8, "n_r": 8, "n_u": 6}})
    assert cfg.dims.m == 6 and cfg.dims.n_s == 6
    assert cfg.p_t == 8.0


@pytest.mark.parametrize(
    "doc,match",
    [
        ({"noise": {"snr_db_grid": []}}, "nonempty"),
        ({"run": {"rho": 1.5}}, "rho"),
        ({"run": {"trials": 1}}, "trials"),
        ({"bogus": {}}, "unknown config key"),
        ({"scenario": {"m": 9, "n_t": 4}}, "dimensions"),
        ({"output": {"formats": ["xml"]}}, "format"),
        ({"run": {"pga": {"beta": 1.0}}}, "beta"),
        ({"run": {"pga": {"beta": 1.5}}}, "beta"),
        ({"run": {"solver": {"max_iter": -1}}}, "max_iter"),
        ({"run": {"pga": {"lambda0": 0.0}}}, "lambda0"),
        ({"run": {"pga": {"step": "fixed", "lambda0": -0.5}}}, "lambda0"),
        ({"run": {"pga": {"init_seed": -1}}}, "init_seed"),
        ({"run": {"antenna_counts": [0]}}, "antenna_counts"),
        ({"noise": {"snr_db_grid": ["x"]}}, "invalid config value"),
        ({"run": {"gap_threshold": "a"}}, "invalid config value"),
        ({"output": {"formats": 5}}, "invalid config value"),
        ({"scenario": {"seed": -1}}, "seed"),
        ({"noise": {"sensing_offset_db": float("nan")}}, "finite"),
        ({"noise": {"snr_db_grid": [0.0, float("inf")]}}, "finite"),
        ({"run": {"gap_threshold": -1.0}}, "gap_threshold"),
    ],
)
def test_config_validation_errors(doc, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(path))


def test_scenario_gen_writes_pinned_json(tmp_path):
    cfg_path = _write_config(tmp_path, TINY)
    code = main(["scenario-gen", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 0
    text = (tmp_path / "out" / "scenario.json").read_text()
    stats = scenario_from_json(text)
    cfg = load_config(cfg_path)
    regenerated = generate_scenario(cfg.dims, cfg.rician_kappa, cfg.seed, cfg.geometry)
    assert np.array_equal(stats.comm.mean, regenerated.comm.mean)
    assert np.array_equal(stats.sensing[1].variance_profile, regenerated.sensing[1].variance_profile)


def test_verify_tiny_run_passes_and_is_reproducible(tmp_path):
    cfg_path = _write_config(tmp_path, TINY)
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "verify.csv").read_bytes()
    b = (tmp_path / "b" / "verify.csv").read_bytes()
    assert a == b
    lines = a.decode().strip().split("\n")
    assert lines[0] == VERIFY_HEADER
    assert len(lines) == 3  # header + one row per SNR


def test_verify_reproducible_across_worker_counts(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path, TINY)
    monkeypatch.setenv("ISAC_MI_THREADS", "1")
    main(["verify", "--config", cfg_path, "--out", str(tmp_path / "w1")])
    monkeypatch.setenv("ISAC_MI_THREADS", "3")
    main(["verify", "--config", cfg_path, "--out", str(tmp_path / "w3")])
    assert (tmp_path / "w1" / "verify.csv").read_bytes() == (
        tmp_path / "w3" / "verify.csv"
    ).read_bytes()


def test_verify_gap_failure_exits_two(tmp_path, capsys):
    doc = dict(TINY)
    doc["run"] = dict(TINY["run"], gap_threshold=1e-9)
    cfg_path = _write_config(tmp_path, doc)
    code = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "verify" in capsys.readouterr().err


def test_config_error_exits_one(tmp_path, capsys):
    doc = {"noise": {"snr_db_grid": []}}
    cfg_path = _write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg_path]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "run, match", [({"pga": {"beta": 1.0}}, "beta"), ({"solver": {"max_iter": -1}}, "max_iter")]
)
def test_step_and_iteration_limits_are_config_errors(tmp_path, capsys, run, match):
    # beta = 1 never shrinks the Armijo step and max_iter < 0 runs no iteration
    doc = dict(TINY, run=dict(TINY["run"], **run))
    cfg_path = _write_config(tmp_path, doc)
    assert main(["tradeoff", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and match in err


def test_negative_seed_override_exits_one(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, TINY)
    assert main(["scenario-gen", "--config", cfg_path, "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert "config error: seed must be >= 0" in capsys.readouterr().err


def test_solver_failure_exits_two(tmp_path, capsys):
    doc = dict(TINY)
    doc["run"] = dict(TINY["run"], solver={"tol": 1e-10, "max_iter": 1, "damping": 0.5})
    cfg_path = _write_config(tmp_path, doc)
    code = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure during verify" in err


def test_convergence_command_schema(tmp_path):
    cfg_path = _write_config(tmp_path, TINY)
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().strip().split("\n")
    assert lines[0] == CONVERGENCE_HEADER
    final = {}
    for line in lines[1:]:
        n, _, weighted_bits, _, _ = line.split(",")
        final[int(n)] = float(weighted_bits)
    assert set(final) == {2, 3}
    assert final[2] < final[3]  # optimized weighted MI grows with the array


def test_sweep_command_optimized_beats_baseline(tmp_path):
    cfg_path = _write_config(tmp_path, TINY)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == SWEEP_HEADER
    for line in lines[1:]:
        _, base, opt, _ = line.split(",")
        assert float(opt) >= float(base) - 1e-9


def test_tradeoff_command_monotone_frontier(tmp_path):
    cfg_path = _write_config(tmp_path, TINY)
    assert main(["tradeoff", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "tradeoff.csv").read_text().strip().split("\n")
    assert lines[0] == TRADEOFF_HEADER
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    i_s = [r[1] for r in rows]
    i_c = [r[2] for r in rows]
    assert all(b >= a - 1e-6 for a, b in zip(i_s, i_s[1:]))
    assert all(b <= a + 1e-6 for a, b in zip(i_c, i_c[1:]))


def test_tradeoff_endpoints_are_extremal(tmp_path):
    cfg = parse_config(TINY)
    csv_text = run_tradeoff(cfg)
    rows = [tuple(map(float, line.split(","))) for line in csv_text.strip().split("\n")[1:]]
    i_s = [r[1] for r in rows]
    i_c = [r[2] for r in rows]
    assert i_c[0] == max(i_c)  # rho = 0 maximizes communication
    assert i_s[-1] == max(i_s)  # rho = 1 maximizes sensing


def test_dat_format_emission(tmp_path):
    doc = dict(TINY)
    doc["output"] = {"directory": "out", "formats": ["csv", "dat"]}
    cfg_path = _write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    dat = (tmp_path / "out" / "sweep.dat").read_text()
    assert dat.startswith("# snr_db baseline_weighted_bits")


def test_fast_flag_sets_trials(tmp_path):
    from isac_mi.cli import _apply_overrides, _build_parser

    cfg = parse_config({})
    args = _build_parser().parse_args(["verify", "--fast"])
    assert _apply_overrides(cfg, args).trials == 2000
    args = _build_parser().parse_args(["verify", "--fast", "--trials", "123"])
    assert _apply_overrides(cfg, args).trials == 123
    args = _build_parser().parse_args(["verify", "--seed", "99"])
    assert _apply_overrides(cfg, args).seed == 99


def test_help_documents_csv_schemas(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert VERIFY_HEADER in out
    assert TRADEOFF_HEADER in out
    assert "ISAC_MI_THREADS" in out
