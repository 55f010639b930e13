import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from isac_mi import (
    GeometryConfig,
    NoiseConfig,
    PgaOptions,
    SolverOptions,
    SystemDims,
    generate_scenario,
    pga,
    scenario_from_json,
)
from isac_mi.cli import (
    CONVERGENCE_HEADER,
    SWEEP_HEADER,
    TRADEOFF_HEADER,
    VERIFY_HEADER,
    ConfigError,
    load_config,
    main,
    parse_config,
    run_convergence,
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


def test_cli_defaults_match_library_defaults():
    # the config defaults restate the dataclass defaults; they must not drift apart
    cfg = parse_config({})
    assert cfg.solver == SolverOptions()
    assert cfg.pga == PgaOptions()
    assert cfg.geometry == GeometryConfig()


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
        ({"output": {"formats": ["xml"]}}, "unknown config key 'output.formats'"),
        ({"run": {"solver": {"max_iter": -1}}}, "max_iter"),
        ({"run": {"pga": {"init_seed": -1}}}, "init_seed"),
        ({"run": {"antenna_counts": [0]}}, "antenna_counts"),
        ({"noise": {"snr_db_grid": ["x"]}}, "invalid config value"),
        ({"run": {"gap_threshold": "a"}}, "invalid config value"),
        ({"output": {"formats": 5}}, "unknown config key 'output.formats'"),
        ({"scenario": {"seed": -1}}, "seed"),
        ({"noise": {"sensing_offset_db": float("nan")}}, "finite"),
        ({"noise": {"snr_db_grid": [0.0, float("inf")]}}, "finite"),
        ({"run": {"gap_threshold": -1.0}}, "gap_threshold"),
        ({"run": {"trials": 2.9}}, "run.trials must be an integer"),
        ({"scenario": {"n_t": 16.5}}, "scenario.n_t must be an integer"),
        ({"scenario": {"seed": 7.9}}, "scenario.seed must be an integer"),
        ({"run": {"pga": {"init_seed": 0.5}}}, "run.pga.init_seed must be an integer"),
        ({"run": {"solver": {"max_iter": 3.5}}}, "run.solver.max_iter must be an integer"),
        ({"run": {"pga": {"max_outer_iters": 1.2}}}, "run.pga.max_outer_iters must be an integer"),
        ({"run": {"antenna_counts": [4.7]}}, "run.antenna_counts must be an integer"),
        ({"run": {"solver": {"tol": float("inf")}}}, "tol"),
        ({"run": {"solver": {"tol": float("nan")}}}, "tol"),
        ({"run": {"pga": {"epsilon": float("nan")}}}, "epsilon"),
        ({"run": {"pga": {"epsilon": float("inf")}}}, "epsilon"),
        ({"run": {"p_t": float("inf")}}, "run.p_t must be finite"),
        ({"run": {"p_t": float("nan")}}, "run.p_t must be finite"),
        ({"run": {"rho_grid": []}}, "run.rho_grid must be nonempty"),
        ({"run": {"pga": {"step": "fixed"}}}, "unknown config key 'run.pga.step'"),
        # the Picard damping and the Armijo step rule are module constants
        ({"run": {"solver": {"damping": 0.5}}}, "unknown config key 'run.solver.damping'"),
        ({"run": {"pga": {"lambda0": 1.0}}}, "unknown config key 'run.pga.lambda0'"),
        ({"run": {"pga": {"beta": 0.5}}}, "unknown config key 'run.pga.beta'"),
        ({"run": {"pga": {"slope": 1e-4}}}, "unknown config key 'run.pga.slope'"),
        # geometry directions are pairs of finite floats; JSON writes inf as Infinity
        ({"scenario": {"geometry": {"scatter_spread": float("inf")}}}, "invalid geometry"),
        ({"scenario": {"geometry": {"scatter_spread": float("nan")}}}, "invalid geometry"),
        ({"scenario": {"geometry": {"target_center": [0.1, 0.2, 0.3]}}}, "invalid geometry"),
        ({"scenario": {"geometry": {"target_center": []}}}, "invalid geometry"),
        ({"scenario": {"geometry": {"target_center": [float("nan"), 0.2]}}}, "invalid geometry"),
        ({"scenario": {"geometry": {"comm_departure": [0.1, 0.2, 0.3]}}}, "invalid geometry"),
        ({"scenario": {"geometry": {"comm_arrival": [float("inf"), 0.2]}}}, "invalid geometry"),
        ({"run": {"pga": {"max_outer_iters": -3}}}, "max_outer_iters must be >= 0"),
        # each value must have its default's JSON kind: true/false are not numbers,
        # a numeric string is not a number or a list, and null only replaces null
        ({"scenario": {"seed": True}}, "scenario.seed must be an integer"),
        ({"run": {"solver": {"max_iter": False}}}, "run.solver.max_iter must be an integer"),
        ({"output": {"directory": None}}, "output.directory must be a string"),
        ({"output": {"directory": 5}}, "output.directory must be a string"),
        ({"run": {"rho_grid": "10"}}, "run.rho_grid must be a list"),
        (
            {"scenario": {"geometry": {"comm_departure": "10"}}},
            "scenario.geometry.comm_departure must be a list",
        ),
        ({"run": {"trials": "10"}}, "run.trials must be an integer"),
        ({"noise": {"snr_db": "10"}}, "noise.snr_db must be a number"),
    ],
)
def test_config_validation_errors(doc, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)


# A valid non-default value for every config field of the option dataclasses
_NON_DEFAULT = {
    SystemDims: {"n_t": 20, "n_r": 5, "n_u": 12, "num_scatter": 3, "m": 8, "n_s": 9},
    SolverOptions: {"tol": 1e-9, "max_iter": 123},
    PgaOptions: {"epsilon": 1e-3, "max_outer_iters": 7, "init_seed": 9},
    GeometryConfig: {
        "comm_departure": (0.1, 0.2), "comm_arrival": (-0.3, 0.4),
        "target_center": (0.5, -0.6), "scatter_spread": 0.3,
    },
}
_SECTIONS = {
    SystemDims: (("scenario",), "dims"),
    SolverOptions: (("run", "solver"), "solver"),
    PgaOptions: (("run", "pga"), "pga"),
    GeometryConfig: (("scenario", "geometry"), "geometry"),
}


def _option_fields():
    for cls in _SECTIONS:
        for f in dataclasses.fields(cls):
            if not (cls is PgaOptions and f.name in ("init", "solver")):
                yield pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")


@pytest.mark.parametrize("cls, field", _option_fields())
def test_every_option_field_is_reachable_from_the_config(cls, field):
    path, attr = _SECTIONS[cls]
    if field.default is not dataclasses.MISSING:
        assert getattr(getattr(parse_config({}), attr), field.name) == field.default
    value = _NON_DEFAULT[cls][field.name]  # a KeyError here: the new field needs a value
    assert value != field.default
    section = {field.name: list(value) if isinstance(value, tuple) else value}
    for key in reversed(path):
        section = {key: section}
    parsed = getattr(parse_config(section), attr)
    assert getattr(parsed, field.name) == value
    assert type(getattr(parsed, field.name)) is type(value)


def test_integral_floats_are_accepted_as_integers():
    cfg = parse_config(
        {"scenario": {"n_t": 16.0, "seed": 7.0}, "run": {"trials": 300.0, "antenna_counts": [4.0]}}
    )
    assert (cfg.dims.n_t, cfg.seed, cfg.trials, cfg.antenna_counts) == (16, 7, 300, (4,))
    assert isinstance(cfg.dims.n_t, int) and isinstance(cfg.trials, int)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(str(path))


def test_load_config_rejects_an_integer_literal_too_long_to_read(tmp_path):
    # json raises ValueError, not JSONDecodeError, for an integer literal longer
    # than the interpreter's integer string conversion limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer literals of any length")
    path = tmp_path / "long.json"
    path.write_text('{"noise": {"snr_db": 1' + "0" * limit + "}}")
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


def test_verify_gap_failure_exits_two(tmp_path, capsys):
    doc = dict(TINY)
    doc["run"] = dict(TINY["run"], gap_threshold=1e-9)
    cfg_path = _write_config(tmp_path, doc)
    code = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "verify" in capsys.readouterr().err


def test_solver_tol_above_the_gradient_bound_is_rejected_only_for_pga_commands(tmp_path, capsys):
    # the gradient demands residuals <= 1e-6, which a solve stopped at tol = 1e-5 may not meet
    doc = dict(TINY, run=dict(TINY["run"], solver={"tol": 1e-5}))
    cfg_path = _write_config(tmp_path, doc)
    for command in ("convergence", "sweep", "tradeoff"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"config error: run.solver.tol must be <= 1e-06 for {command}" in err
    assert main(["verify", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0


def test_config_error_exits_one(tmp_path, capsys):
    doc = {"noise": {"snr_db_grid": []}}
    cfg_path = _write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg_path]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "run, match",
    [
        ({"pga": {"beta": 0.5}}, "unknown config key 'run.pga.beta'"),
        ({"solver": {"max_iter": -1}}, "max_iter"),
        ({"p_t": float("inf")}, "run.p_t"),
        ({"rho_grid": []}, "run.rho_grid"),
    ],
)
def test_step_and_iteration_limits_are_config_errors(tmp_path, capsys, run, match):
    # max_iter < 0 runs no iteration, p_t = inf (json writes Infinity) leaves the
    # random start unscaled, an empty rho_grid would write a header-only
    # frontier, and the Armijo factor beta is not a config key
    doc = dict(TINY, run=dict(TINY["run"], **run))
    cfg_path = _write_config(tmp_path, doc)
    assert main(["tradeoff", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and match in err


def test_negative_seed_override_exits_one(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, TINY)
    assert main(["scenario-gen", "--config", cfg_path, "--seed", "-1", "--out", str(tmp_path)]) == 1
    assert "config error: scenario.seed must be >= 0" in capsys.readouterr().err


def test_trials_override_below_two_exits_one(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, TINY)
    assert main(["verify", "--config", cfg_path, "--trials", "1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error: run.trials must be >= 2 for Monte Carlo experiments" in err


def test_solver_failure_exits_two(tmp_path, capsys):
    doc = dict(TINY)
    doc["run"] = dict(TINY["run"], solver={"tol": 1e-10, "max_iter": 1})
    cfg_path = _write_config(tmp_path, doc)
    code = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure during verify" in err


def test_non_finite_failure_names_the_noise_power(tmp_path, capsys):
    doc = dict(TINY, noise={"snr_db_grid": [3100.0], "snr_db": 10.0})
    cfg_path = _write_config(tmp_path, doc)
    code = main(["verify", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "sensing fixed point produced a non-finite evaluation at w = -1.000e-308" in err


def test_convergence_command_schema(tmp_path):
    cfg_path = _write_config(tmp_path, TINY)
    assert main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().strip().split("\n")
    # pinned literally: the PGA cost fields (evaluations, solver iterations) are not in it
    assert lines[0] == CONVERGENCE_HEADER == "n_antennas,iter,weighted_bits,step,grad_norm"
    final = {}
    for line in lines[1:]:
        n, _, weighted_bits, _, _ = line.split(",")
        final[int(n)] = float(weighted_bits)
    assert set(final) == {2, 3}
    assert final[2] < final[3]  # optimized weighted MI grows with the array


def test_convergence_rows_are_the_pga_trace():
    # one row per accepted PGA point: weighted MI in bits, the step and gradient
    # norm of the step that reached it, all at 12 significant digits
    cfg = parse_config(TINY)
    lines = run_convergence(cfg).strip().split("\n")[1:]
    expected = []
    for n in cfg.antenna_counts:
        dims = SystemDims(n_t=n, n_r=n, n_u=n, num_scatter=2, m=n, n_s=n)
        stats = generate_scenario(dims, cfg.rician_kappa, cfg.seed, cfg.geometry)
        noise = NoiseConfig(cfg.snr_db, cfg.sensing_offset_db)
        _, trace = pga(stats, noise, cfg.rho, float(n), cfg.pga)
        expected += [(n, r) for r in trace.rows]
    assert len(lines) == len(expected) > len(cfg.antenna_counts)
    for line, (n, row) in zip(lines, expected):
        fields = line.split(",")
        assert fields[:2] == [str(n), str(row.iteration)]
        values = [float(f) for f in fields[2:]]
        bits = row.weighted_mi / math.log(2.0)
        assert values == pytest.approx([bits, row.step_size, row.grad_norm], rel=1e-11)
    assert lines[0] == f"2,0,{expected[0][1].weighted_mi / math.log(2.0):.12g},0,0"


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


def test_tradeoff_solves_each_start_once_and_only_weighted_branches(monkeypatch):
    # Counts, not timings, on the pga-tradeoff scenario.  Each rho after the
    # first starts from the previous rho's solved evaluation: no solve of it is
    # cold and its row 0 counts no evaluation.  At rho = 0 and 1 each candidate
    # solves the weighted branch only, and the other branch is solved once.
    from isac_mi import cli
    import isac_mi.mi as mi_module

    log = []

    def recording(branch):
        solve = getattr(mi_module, f"solve_{branch}")

        def patched(stats, w_bf, point, opts, initial=None):
            log.append((branch, initial is not None))
            return solve(stats, w_bf, point, opts, initial=initial)

        return patched

    runs = []

    def recording_pga(stats, noise, rho, *args):
        first = len(log)
        best, trace = pga(stats, noise, rho, *args)
        runs.append((rho, log[first:], trace))
        return best, trace

    for branch in ("sensing", "comm"):
        monkeypatch.setattr(mi_module, f"solve_{branch}", recording(branch))
    monkeypatch.setattr(cli, "pga", recording_pga)
    scenario = {"n_t": 8, "n_r": 8, "n_u": 8, "num_scatter": 2, "m": 8, "n_s": 8, "seed": 7}
    run_tradeoff(parse_config({"scenario": scenario, "run": {"rho_grid": [0.0, 0.5, 1.0]}}))

    assert [rho for rho, _, _ in runs] == [0.0, 0.5, 1.0]
    for k, (rho, solves, trace) in enumerate(runs):
        evaluations = sum(row.evaluations for row in trace.rows) + trace.final_search_evaluations
        if k > 0:
            assert trace.rows[0].evaluations == 0
            assert all(warm for _, warm in solves)
        if rho == 0.5:
            assert len(solves) == 2 * evaluations
        else:
            weighted, other = ("sensing", "comm") if rho == 1.0 else ("comm", "sensing")
            assert [branch for branch, _ in solves] == [weighted] * evaluations + [other]


def test_fast_flag_sets_trials(tmp_path, monkeypatch):
    # --out, --trials/--fast and --seed are the config entries output.directory,
    # run.trials and scenario.seed, merged over the config file
    from isac_mi import cli

    seen = []

    def record(cfg):
        seen.append(cfg)
        return VERIFY_HEADER + "\n", True

    monkeypatch.setattr(cli, "run_verify", record)
    out = str(tmp_path / "out")
    for flags in (["--fast"], ["--fast", "--trials", "123"], ["--seed", "99"]):
        assert main(["verify", "--out", out, *flags]) == 0
    assert [(cfg.trials, cfg.seed) for cfg in seen] == [(2000, 7), (123, 7), (10000, 99)]
    assert all(cfg.out_dir == out for cfg in seen)


def test_help_documents_csv_schemas(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = capsys.readouterr().out
    for header in (VERIFY_HEADER, CONVERGENCE_HEADER, SWEEP_HEADER, TRADEOFF_HEADER):
        assert header in out


def test_unusable_output_path_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, TINY)
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    assert main(["scenario-gen", "--config", cfg_path, "--out", str(not_a_dir)]) == 1
    err = capsys.readouterr().err
    assert "config error: cannot create the output directory" in err
    assert "Traceback" not in err


def test_unusable_output_path_fails_before_the_work(tmp_path, capsys, monkeypatch):
    from isac_mi import cli

    def must_not_run(cfg):
        raise AssertionError("run_tradeoff called with an unusable output path")

    monkeypatch.setattr(cli, "run_tradeoff", must_not_run)
    cfg_path = _write_config(tmp_path, TINY)
    not_a_dir = tmp_path / "plain-file"
    not_a_dir.write_text("")
    assert main(["tradeoff", "--config", cfg_path, "--out", str(not_a_dir)]) == 1
    assert "config error: cannot create the output directory" in capsys.readouterr().err


def test_output_file_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, TINY)
    out = tmp_path / "out"
    (out / "scenario.json").mkdir(parents=True)
    assert main(["scenario-gen", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: cannot write {out / 'scenario.json'}" in err
    assert "Traceback" not in err


def test_unwritable_output_file_after_the_work_is_a_config_error(tmp_path, capsys, monkeypatch):
    from isac_mi import cli

    monkeypatch.setattr(cli, "run_tradeoff", lambda cfg: TRADEOFF_HEADER + "\n0,1,1,1\n")
    cfg_path = _write_config(tmp_path, TINY)
    out = tmp_path / "out"
    (out / "tradeoff.csv").mkdir(parents=True)
    assert main(["tradeoff", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: cannot write {out / 'tradeoff.csv'}" in err
    assert "Traceback" not in err


_FUZZ_BASE = {
    "scenario": {"n_t": 4, "n_r": 4, "n_u": 4, "num_scatter": 2, "seed": 11},
    "noise": {"snr_db_grid": [10.0]},
    "run": {"trials": 20, "rho_grid": [0.5], "pga": {"max_outer_iters": 1}},
}
_FUZZ_VALUES = (
    float("nan"), float("inf"), float("-inf"), 0, -1, "x", [], [1.0, 2.0, 3.0], None, True
)


def _config_paths(node, path=()):
    """Every node and leaf of a config tree, as key paths, parents first."""
    for key, value in node.items():
        yield (*path, key)
        if isinstance(value, dict) and value:
            yield from _config_paths(value, (*path, key))


def _with(doc: dict, path: tuple, value) -> dict:
    """A copy of doc with the entry at path set to value, creating sections on the way."""
    out = dict(doc)
    if len(path) == 1:
        out[path[0]] = value
    else:
        out[path[0]] = _with(doc.get(path[0], {}), path[1:], value)
    return out


def _failure(command: str, cfg_path: str, capsys) -> str | None:
    """None when `command` runs (exit 0), fails as a config error (1) or fails
    numerically by name (2); else what went wrong."""
    try:
        code = main([command, "--config", cfg_path])
    except Exception as exc:  # an uncaught exception is the finding
        return f"raised {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code and not ("config error:" in err or "numerical failure" in err):
        return f"exit {code} without a named failure: {err!r}"
    return None


def test_config_fuzz_runs_or_fails_by_name(tmp_path, capsys, monkeypatch):
    # Every node and leaf of the default config, set to each hostile value, must
    # run (exit 0), fail as a config error (1) or fail numerically by name (2):
    # never raise.  New config keys are fuzzed without editing this test.  JSON
    # writes NaN and inf as NaN and Infinity, which the config loader reads back.
    # Huge finite magnitudes such as run.trials = 1e300 are not fuzzed: the
    # parser accepts them and the run has no practical end.
    from isac_mi.cli import _DEFAULT_CONFIG

    monkeypatch.chdir(tmp_path)  # the output directory, fuzzed or default, is created here
    paths = list(_config_paths(_DEFAULT_CONFIG))
    assert ("run", "pga", "epsilon") in paths and ("scenario", "geometry") in paths
    failures = []
    for i, path in enumerate(paths):
        for j, value in enumerate(_FUZZ_VALUES):
            doc = _with(_FUZZ_BASE, path, value)
            cfg_path = _write_config(tmp_path, doc, name=f"fuzz-{i}-{j}.json")
            for command in ("verify", "tradeoff"):
                failure = _failure(command, cfg_path, capsys)
                if failure:
                    failures.append(f"{command} {'.'.join(path)}={value!r}: {failure}")
    assert not failures, "\n".join(failures)


def test_every_value_of_the_wrong_kind_is_rejected():
    # Every node and leaf of the default config, set to a JSON value of another
    # kind, is a config error: true and false are not numbers, "10" is not a
    # number or a list, and null is taken only where the default is null.  New
    # config keys are covered without editing this test.
    from isac_mi.cli import _DEFAULT_CONFIG

    accepted = []
    for path in _config_paths(_DEFAULT_CONFIG):
        default = functools.reduce(dict.__getitem__, path, _DEFAULT_CONFIG)
        for value in (True, False, None, "x", "10"):
            if (value is None and default is None) or (
                isinstance(value, str) and isinstance(default, str)
            ):
                continue
            try:
                parse_config(_with({}, path, value))
            except ConfigError:
                continue
            accepted.append(f"{'.'.join(path)}={value!r}")
    assert not accepted, accepted


def test_readme_config_block_is_the_default_config():
    from isac_mi.cli import _DEFAULT_CONFIG

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
    assert json.loads(block) == json.loads(json.dumps(_DEFAULT_CONFIG))


def test_integer_literals_beyond_the_float_range_are_config_errors(tmp_path, capsys):
    # JSON reads 1e400 as inf, which fails as non-finite, but reads a 401-digit
    # integer literal as a Python int that float() cannot convert.  Every float
    # leaf of the default config (p_t's default is null) is covered.
    from isac_mi.cli import _DEFAULT_CONFIG

    huge = 10**400
    leaves = [(("run", "p_t"), huge)]
    for path in _config_paths(_DEFAULT_CONFIG):
        default = functools.reduce(dict.__getitem__, path, _DEFAULT_CONFIG)
        if isinstance(default, float):
            leaves.append((path, huge))
        elif isinstance(default, (list, tuple)) and isinstance(default[0], float):
            leaves.append((path, [huge]))
    assert (("noise", "snr_db"), huge) in leaves
    assert (("scenario", "geometry", "target_center"), [huge]) in leaves
    for path, value in leaves:
        match = re.escape(".".join(path)) + " must be a number within the float range"
        with pytest.raises(ConfigError, match=match):
            parse_config(_with({}, path, value))

    cfg_path = _write_config(tmp_path, _with(TINY, ("noise", "snr_db"), huge))
    for command in ("scenario-gen", "verify"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "config error: invalid config value: noise.snr_db" in err
        assert "Traceback" not in err


_EXTREME_BASE = {
    "scenario": {"n_t": 4, "n_r": 4, "n_u": 4, "seed": 11},
    "noise": {"snr_db_grid": [10.0], "snr_db": 10.0},
    "run": {
        "trials": 20,
        "rho_grid": [0.5],
        "pga": {"max_outer_iters": 2},
        "solver": {"max_iter": 200},  # a solver crawl ends quickly
    },
}
_EXTREME_CASES = (  # each a list of (config path, value)
    *[[(("noise", "snr_db"), snr), (("noise", "snr_db_grid"), [snr])] for snr in (-300.0, 300.0)],
    *[[(("noise", "sensing_offset_db"), offset)] for offset in (-300.0, 300.0)],
    *[[(("noise", "snr_db_grid"), [snr])] for snr in (-4000.0, 4000.0)],  # sigma^2 over/underflows
    *[[(("noise", "sensing_offset_db"), offset)] for offset in (-4000.0, 4000.0)],
    *[[(("run", "p_t"), p_t)] for p_t in (1e-300, 1e-12, 3e7, 1e300)],
    *[[(("scenario", "rician_kappa"), kappa)] for kappa in (1e-300, 1e300)],
)


def test_extreme_finite_magnitudes_run_or_fail_by_name(tmp_path, capsys, monkeypatch):
    # The config fuzz above skips huge finite values; these reach the numerics:
    # a budget whose ||W||^2 rounds above it, a sensing noise power of 1e-31,
    # SNRs whose noise powers underflow or overflow.  Each must run, fail as a
    # config error or fail numerically by name: never raise.
    monkeypatch.chdir(tmp_path)
    failures = []
    for i, case in enumerate(_EXTREME_CASES):
        doc = functools.reduce(lambda d, entry: _with(d, *entry), case, _EXTREME_BASE)
        cfg_path = _write_config(tmp_path, doc, name=f"extreme-{i}.json")
        for command in ("verify", "tradeoff"):
            failure = _failure(command, cfg_path, capsys)
            if failure:
                failures.append(f"{command} {case}: {failure}")
    assert not failures, "\n".join(failures)
