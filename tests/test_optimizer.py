import dataclasses
import math

import numpy as np
import pytest

import isac_mi.mi as mi_module
import isac_mi.optimizer as optimizer_module
from isac_mi import (
    Beamformer,
    ConvergenceError,
    NoiseConfig,
    PgaAbort,
    PgaOptions,
    SolverOptions,
    SystemDims,
    default_beamformer,
    generate_scenario,
    gradient,
    pga,
    project,
    weighted_mi,
)
from isac_mi.fixedpoint import _comm_system, _sensing_system
from isac_mi.optimizer import PgaTrace
from helpers import fd_weighted_gradient, zero_scenario


@pytest.fixture(scope="module")
def interior_beamformer(dims4):
    rng = np.random.default_rng(2)
    w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w = 0.8 * 2.0 * w / np.linalg.norm(w)  # norm 1.6, strictly inside sqrt(p_t) = 2
    return Beamformer(w, 4.0)


def _patch_solvers(monkeypatch, wrap):
    """Route both solves of weighted_mi through wrap(solver)."""
    for name in ("solve_sensing", "solve_comm"):
        monkeypatch.setattr(mi_module, name, wrap(getattr(mi_module, name)))


def _recording(log, mode="warm"):
    """A solver wrapper that logs (initial, iterations) per call; mode "cold"
    drops the warm start, mode "fail" raises on every warm start."""

    def wrap(solve):
        def patched(stats, w_bf, point, opts, initial=None):
            log.append([initial, None])
            if mode == "fail" and initial is not None:
                raise ConvergenceError("patched", 0, 1.0)
            fp = solve(stats, w_bf, point, opts, initial=None if mode == "cold" else initial)
            log[-1][1] = fp.iterations
            return fp

        return patched

    return wrap


def test_gradient_vanishes_at_zero_beamformer(scenario4, dims4):
    noise = NoiseConfig(10.0)
    bf = Beamformer(np.zeros((4, 4)), 4.0)
    _, fs, fc = weighted_mi(scenario4, bf, noise, 0.8, return_fixed_points=True)
    g = gradient(scenario4, bf, noise, 0.8, fs, fc)
    assert np.all(g == 0.0)


@pytest.mark.parametrize("rho", [0.0, 0.8])
def test_gradient_matches_finite_differences(rho, scenario4, interior_beamformer):
    noise = NoiseConfig(10.0)
    _, fs, fc = weighted_mi(scenario4, interior_beamformer, noise, rho, return_fixed_points=True)
    g = gradient(scenario4, interior_beamformer, noise, rho, fs, fc)
    fd = fd_weighted_gradient(scenario4, interior_beamformer.w, 4.0, noise, rho)
    assert np.linalg.norm(fd - g) / np.linalg.norm(fd) < 1e-4


def test_wirtinger_convention_is_pinned(scenario4, interior_beamformer):
    # df/dRe(W_00) = 2 Re(grad_00), df/dIm(W_00) = 2 Im(grad_00)
    noise = NoiseConfig(10.0)
    rho = 0.5
    _, fs, fc = weighted_mi(scenario4, interior_beamformer, noise, rho, return_fixed_points=True)
    g = gradient(scenario4, interior_beamformer, noise, rho, fs, fc)
    w0 = interior_beamformer.w
    h = 1e-5
    e = np.zeros((4, 4))
    e[0, 0] = 1.0

    def value(w):
        return weighted_mi(scenario4, Beamformer(w, 4.0), noise, rho).weighted

    d_re = (value(w0 + h * e) - value(w0 - h * e)) / (2 * h)
    d_im = (value(w0 + 1j * h * e) - value(w0 - 1j * h * e)) / (2 * h)
    assert abs(d_re - 2.0 * g[0, 0].real) < 1e-6 * max(1.0, abs(d_re))
    assert abs(d_im - 2.0 * g[0, 0].imag) < 1e-6 * max(1.0, abs(d_im))


def test_gradient_rejects_unconverged_fixed_points(scenario4, interior_beamformer):
    noise = NoiseConfig(10.0)
    _, fs, fc = weighted_mi(scenario4, interior_beamformer, noise, 0.5, return_fixed_points=True)
    stale = dataclasses.replace(fs, residual=1.0)
    with pytest.raises(ValueError, match="converged"):
        gradient(scenario4, interior_beamformer, noise, 0.5, stale, fc)


def test_project_rescales_only_infeasible_points():
    w = np.ones((2, 2), dtype=complex)  # norm^2 = 4
    out = project(w, 1.0)
    assert abs(np.linalg.norm(out) ** 2 - 1.0) < 1e-12
    assert np.allclose(out, 0.5 * w)
    w_small = 0.5 * np.eye(2)
    assert project(w_small, 1.0) is w_small
    assert np.all(project(np.zeros((2, 2)), 1.0) == 0.0)


def test_pga_stationary_at_zero_channel():
    dims = SystemDims(n_t=3, n_r=3, n_u=3, num_scatter=1, m=3, n_s=3)
    stats = zero_scenario(dims)
    best, trace = pga(stats, NoiseConfig(0.0), 0.5, 3.0, PgaOptions(init_seed=4))
    assert len(trace.rows) == 1  # gradient is exactly zero at the start
    assert trace.rows[0].weighted_mi == 0.0


def test_pga_improves_baseline(scenario4, dims4):
    noise = NoiseConfig(10.0)
    baseline = default_beamformer(dims4, 4.0)
    base = weighted_mi(scenario4, baseline, noise, 0.8)
    best, trace = pga(scenario4, noise, 0.8, 4.0, PgaOptions(init=baseline))
    opt = weighted_mi(scenario4, best, noise, 0.8)
    assert opt.weighted > base.weighted
    values = [r.weighted_mi for r in trace.rows]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert best.power <= 4.0 + 1e-12


def test_pga_random_init_never_loses_to_start(scenario4):
    noise = NoiseConfig(5.0)
    best, trace = pga(scenario4, noise, 0.8, 4.0, PgaOptions(init_seed=6))
    opt = weighted_mi(scenario4, best, noise, 0.8)
    assert opt.weighted >= trace.rows[0].weighted_mi - 1e-12


def test_pga_single_iteration_budget(scenario4, dims4):
    opts = PgaOptions(max_outer_iters=1, init=default_beamformer(dims4, 4.0))
    _, trace = pga(scenario4, NoiseConfig(10.0), 0.8, 4.0, opts)
    assert len(trace.rows) == 2  # initial point plus one accepted step


def test_pga_solver_failure_carries_trace(scenario4):
    opts = PgaOptions(init_seed=3, solver=SolverOptions(max_iter=1))
    with pytest.raises(PgaAbort) as info:
        pga(scenario4, NoiseConfig(10.0), 0.8, 4.0, opts)
    assert isinstance(info.value.trace, PgaTrace)


def test_pga_options_validation(dims4):
    for epsilon in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            PgaOptions(epsilon=epsilon)
    with pytest.raises(ValueError, match="max_outer_iters"):
        PgaOptions(max_outer_iters=-3)
    # a float count is refused up front, not left to fail inside range() mid-ascent
    for count in (1.5, 2.0):
        with pytest.raises(ValueError, match=r"max_outer_iters must be an integer, got"):
            PgaOptions(max_outer_iters=count)
    for seed in (0.5, 1.2, float("nan"), True, False):
        with pytest.raises(ValueError, match=r"init_seed must be an integer, got"):
            PgaOptions(init_seed=seed)


@pytest.mark.parametrize("removed", ["step", "lambda0", "beta", "slope"])
def test_pga_options_have_no_step_rule_settings(removed):
    # one step rule, Armijo backtracking, whose first trial, factor and slope are constants
    with pytest.raises(TypeError, match=removed):
        PgaOptions(**{removed: 0.5})


@pytest.mark.parametrize("rejections", [0, 1, 3])
def test_pga_step_rule_constants(rejections, scenario4, interior_beamformer, monkeypatch):
    # The first trial is sqrt(p_t) / (1 + ||grad||_F), each rejection halves it,
    # and a candidate is accepted once it gains 1e-4 Re<grad, d>: the first
    # `rejections` candidates report one ulp less than that, the next exactly it.
    noise, rho, p_t = NoiseConfig(10.0), 0.8, 4.0
    start, fp_s, fp_c = weighted_mi(
        scenario4, interior_beamformer, noise, rho, return_fixed_points=True
    )
    grad = gradient(scenario4, interior_beamformer, noise, rho, fp_s, fp_c)
    grad_norm = float(np.linalg.norm(grad))
    candidates = []

    def patched(stats, w_bf, *args, **kwargs):
        report, cand_fs, cand_fc = weighted_mi(stats, w_bf, *args, **kwargs)
        if kwargs["initial"] is None:
            return report, cand_fs, cand_fc
        candidates.append(w_bf)
        predicted = float(np.vdot(grad, w_bf.w - interior_beamformer.w).real)
        threshold = start.weighted + 1e-4 * predicted
        if len(candidates) <= rejections:
            threshold = np.nextafter(threshold, -np.inf)
        return dataclasses.replace(report, weighted=threshold), cand_fs, cand_fc

    monkeypatch.setattr(optimizer_module, "weighted_mi", patched)
    opts = PgaOptions(init=interior_beamformer, max_outer_iters=1)
    _, trace = pga(scenario4, noise, rho, p_t, opts)

    assert len(candidates) == rejections + 1
    first = math.sqrt(p_t) / (1.0 + grad_norm)
    assert [row.iteration for row in trace.rows] == [0, 1]
    assert trace.rows[1].grad_norm == grad_norm
    assert trace.rows[1].step_size == pytest.approx(first * 0.5**rejections, rel=1e-14)
    assert trace.rows[1].evaluations == rejections + 1


def test_pga_warm_starts_every_solve_after_the_first(scenario4, dims4, monkeypatch):
    # the first candidate reports no gain, so the run backtracks
    noise = NoiseConfig(30.0)
    start = Beamformer(0.1 * default_beamformer(dims4, 4.0).w, 4.0)
    opts = PgaOptions(init=start)

    def first_candidate_gains_nothing():
        reports = []

        def patched(*args, **kwargs):
            report, fp_s, fp_c = weighted_mi(*args, **kwargs)
            reports.append(report)
            if len(reports) == 2:
                report = dataclasses.replace(report, weighted=reports[0].weighted)
            return report, fp_s, fp_c

        return patched

    runs = {}
    for mode in ("cold", "warm"):
        log = []
        with monkeypatch.context() as patch:
            _patch_solvers(patch, _recording(log, mode))
            patch.setattr(optimizer_module, "weighted_mi", first_candidate_gains_nothing())
            best, trace = pga(scenario4, noise, 0.8, 4.0, opts)
        runs[mode] = (best, trace, log)

    best, trace, log = runs["warm"]
    assert [initial for initial, _ in log[:2]] == [None, None]
    assert all(initial is not None for initial, _ in log[2:])
    assert any(row.evaluations > 1 for row in trace.rows)  # the run backtracked
    # the trace accounts for every solve: 2 per evaluation, iterations summed
    assert 2 * sum(row.evaluations for row in trace.rows) == len(log)
    warm_iters = sum(iters for _, iters in log)
    assert sum(row.solver_iterations for row in trace.rows) == warm_iters
    cold_iters = sum(iters for _, iters in runs["cold"][2])
    assert warm_iters < cold_iters
    assert abs(trace.best.weighted - runs["cold"][1].best.weighted) <= opts.epsilon
    assert abs(trace.best.weighted - weighted_mi(scenario4, best, noise, 0.8).weighted) < 1e-9


def test_pga_falls_back_to_cold_when_a_warm_solve_fails(scenario4, dims4, monkeypatch):
    noise = NoiseConfig(10.0)
    opts = PgaOptions(init=default_beamformer(dims4, 4.0), max_outer_iters=3)
    unpatched, _ = pga(scenario4, noise, 0.8, 4.0, opts)
    runs = {}
    for mode in ("cold", "fail"):
        log = []
        with monkeypatch.context() as patch:
            _patch_solvers(patch, _recording(log, mode))
            runs[mode] = pga(scenario4, noise, 0.8, 4.0, opts)
    best, trace = runs["fail"]
    # every failed warm solve is repeated cold, so the run is the all-cold run
    assert np.array_equal(best.w, runs["cold"][0].w)
    assert trace.rows == runs["cold"][1].rows
    assert np.allclose(best.w, unpatched.w, atol=1e-8)


def test_pga_abort_after_failed_cold_fallback_carries_trace(scenario4, dims4, monkeypatch):
    log = []

    def start_only(solve):
        def patched(stats, w_bf, point, opts, initial=None):
            log.append(initial)
            if initial is not None or len(log) > 2:  # only the two cold start solves succeed
                raise ConvergenceError("patched", 0, 1.0)
            return solve(stats, w_bf, point, opts)

        return patched

    _patch_solvers(monkeypatch, start_only)
    opts = PgaOptions(init=default_beamformer(dims4, 4.0))
    with pytest.raises(PgaAbort, match="fixed-point solve failed") as info:
        pga(scenario4, NoiseConfig(10.0), 0.8, 4.0, opts)
    assert log[0] is None and log[1] is None
    assert log[2] is not None and log[3] is None  # the warm solve, then its cold fallback
    trace = info.value.trace
    assert [row.iteration for row in trace.rows] == [0]
    assert trace.best.weighted == trace.rows[0].weighted_mi


def test_projected_step_is_an_ascent_step():
    # The Armijo test of pga predicts the gain Re<g, d> of the projected step
    # d = project(W + lam g) - W.  Projection onto the convex power ball gives
    # Re<g, d> >= ||d||^2 / lam, and Re<g, d> = lam ||g||^2 when it is inactive.
    rng = np.random.default_rng(5)
    p_t = 4.0
    for _ in range(200):
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        for radius in (rng.uniform(0.0, 1.0), 1.0):  # inside and on the power ball
            w = radius * math.sqrt(p_t) * z / np.linalg.norm(z)
            lam = 10.0 ** rng.uniform(-4.0, 2.0)
            d = project(w + lam * g, p_t) - w
            predicted = np.vdot(g, d).real
            assert predicted >= np.linalg.norm(d) ** 2 / lam - 1e-12
            lam_inside = (math.sqrt(p_t) - np.linalg.norm(w)) / (2.0 * np.linalg.norm(g))
            if lam_inside >= 1e-3:  # W + lam g stays strictly inside: no projection
                d = project(w + lam_inside * g, p_t) - w
                exact = lam_inside * np.linalg.norm(g) ** 2
                assert abs(np.vdot(g, d).real - exact) <= 1e-12 * exact


def test_pga_tradeoff_boundary_search_accepts_the_projected_step(monkeypatch):
    # The tradeoff scenario with continuation over rho: at rho = 0.5 the start
    # lies on the power-ball boundary with an almost radial gradient.  Testing
    # the unprojected gain lam ||g||^2 rejected 40 ascent steps there (44
    # solves); the projected-step test accepts each first trial.
    dims = SystemDims(n_t=8, n_r=8, n_u=8, num_scatter=2, m=8, n_s=8)
    stats = generate_scenario(dims, rician_kappa=1.0, seed=7)
    noise = NoiseConfig(10.0)
    log = []
    _patch_solvers(monkeypatch, _recording(log))
    # best weighted MI (nats) of the unprojected test, for rho = 0, 0.5, 1
    floor = {0.0: 30.7351872351, 0.5: 19.1239173023, 1.0: 7.7033002968}
    init = None
    for rho in (0.0, 0.5, 1.0):
        start = len(log)
        init, trace = pga(stats, noise, rho, 8.0, PgaOptions(init=init))
        evaluations = sum(row.evaluations for row in trace.rows)
        # one solve per weighted branch per evaluation; at rho = 0 or 1 the
        # zero-weight branch is solved once more, at the returned point
        weighted = 1 if rho in (0.0, 1.0) else 2
        completion = 2 - weighted
        solves = weighted * (evaluations + trace.final_search_evaluations) + completion
        assert solves == len(log) - start
        assert trace.final_search_evaluations == 0  # every solve belongs to a row
        assert trace.best.weighted >= floor[rho]
        if rho == 0.5:
            assert evaluations <= 8


@pytest.mark.parametrize("radial", [False, True])
def test_pga_counts_a_final_search_that_accepts_nothing(radial, scenario4, dims4, monkeypatch):
    # Every candidate reports less than the start, so the first line search
    # accepts nothing.  From inside the power ball it halves lam from its first
    # trial to the floor at 1e-12 of it.  With a radial gradient on the boundary
    # the projected step is zero, so the search stops before its first solve.
    log = []
    _patch_solvers(monkeypatch, _recording(log))
    reports = []

    def declining(*args, **kwargs):
        report, fp_s, fp_c = weighted_mi(*args, **kwargs)
        reports.append(report)
        if len(reports) > 1:
            report = dataclasses.replace(report, weighted=reports[0].weighted - 1e-9)
        return report, fp_s, fp_c

    monkeypatch.setattr(optimizer_module, "weighted_mi", declining)
    start = default_beamformer(dims4, 4.0)
    if radial:
        monkeypatch.setattr(optimizer_module, "gradient", lambda stats, w_bf, *rest: 3.0 * w_bf.w)
    else:
        start = Beamformer(0.5 * start.w, 4.0)
    opts = PgaOptions(init=start)
    _, trace = pga(scenario4, NoiseConfig(10.0), 0.8, 4.0, opts)
    assert [row.evaluations for row in trace.rows] == [1]
    floor = math.ceil(math.log(1e-12) / math.log(optimizer_module._BETA))  # halvings to the floor
    assert trace.final_search_evaluations == (0 if radial else floor)
    assert 2 * (trace.rows[0].evaluations + trace.final_search_evaluations) == len(log)


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_gradient_skips_a_zero_weight_branch(rho, scenario4, interior_beamformer):
    noise = NoiseConfig(10.0)
    w_bf = interior_beamformer
    _, fs, fc = weighted_mi(scenario4, w_bf, noise, rho, return_fixed_points=True)
    sensing = _sensing_system(scenario4, w_bf, -noise.sigma_s2).gradient_term(fs)
    comm = _comm_system(scenario4, w_bf, -noise.sigma_c2).gradient_term(fc)
    two_branch = rho * sensing + (1.0 - rho) * comm
    weighted_only = (fs, None) if rho == 1.0 else (None, fc)
    assert np.array_equal(gradient(scenario4, w_bf, noise, rho, *weighted_only), two_branch)
    unweighted_only = (None, fc) if rho == 1.0 else (fs, None)
    for at, fps in ((rho, unweighted_only), (0.5, weighted_only)):
        with pytest.raises(ValueError, match="gradient needs the .* fixed point"):
            gradient(scenario4, w_bf, noise, at, *fps)


@pytest.fixture(scope="module")
def tradeoff_scenario():
    # the pga-tradeoff benchmark scenario
    dims = SystemDims(n_t=8, n_r=8, n_u=8, num_scatter=2, m=8, n_s=8)
    return generate_scenario(dims, rician_kappa=1.0, seed=7)


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_endpoint_pga_solves_only_the_weighted_branch(rho, tradeoff_scenario, monkeypatch):
    # Solving only the weighted branch of each candidate accepts bitwise the
    # beamformers and rows of solving both (0 * x + y = y), and one solve of
    # the other branch at the returned point completes trace.best.
    noise = NoiseConfig(10.0)
    runs = {}
    for mode in ("one branch", "two branches"):
        accepted, reports = [], []

        def recording_gradient(stats, w_bf, *rest):
            accepted.append(w_bf.w)
            return gradient(stats, w_bf, *rest)

        def two_branch(stats, w_bf, noise, rho, solver, initial):
            out = weighted_mi(
                stats, w_bf, noise, rho, solver, return_fixed_points=True, initial=initial
            )
            reports.append(out[0])
            return out

        with monkeypatch.context() as patch:
            patch.setattr(optimizer_module, "gradient", recording_gradient)
            if mode == "two branches":
                patch.setattr(optimizer_module, "_evaluate", two_branch)
            best, trace = pga(tradeoff_scenario, noise, rho, 8.0)
        runs[mode] = best, trace, accepted, reports

    best, trace, accepted, _ = runs["one branch"]
    ref_best, ref_trace, ref_accepted, reports = runs["two branches"]
    assert np.array_equal(best.w, ref_best.w)
    assert len(accepted) == len(ref_accepted) > 1
    assert all(map(np.array_equal, accepted, ref_accepted))
    # the same rows, whose solver_iterations count only the weighted branch
    weighted = "iterations_s" if rho == 1.0 else "iterations_c"
    solves = iter(reports)
    expected = [
        dataclasses.replace(row, solver_iterations=sum(
            getattr(next(solves).diagnostics, weighted) for _ in range(row.evaluations)
        ))
        for row in ref_trace.rows
    ]
    assert trace.rows == expected
    assert trace.final_search_evaluations == ref_trace.final_search_evaluations
    assert trace.best.weighted == ref_trace.best.weighted
    assert all(fp is not None for fp in trace.fixed_points)
    zero_weight = "i_c" if rho == 1.0 else "i_s"
    check = getattr(weighted_mi(tradeoff_scenario, best, noise, rho), zero_weight)
    assert abs(getattr(trace.best, zero_weight) - check) <= 1e-10 * abs(check)


def test_pga_hands_on_a_solved_start(tradeoff_scenario, monkeypatch):
    # A start handed in with its evaluation is not re-solved: row 0 counts no
    # evaluation, and the ascent is the one that solves the start itself.
    noise = NoiseConfig(10.0)
    init = default_beamformer(tradeoff_scenario.dims, 8.0)
    solved = weighted_mi(tradeoff_scenario, init, noise, 0.0, return_fixed_points=True)
    opts = PgaOptions(init=init)
    best, trace = pga(tradeoff_scenario, noise, 0.5, 8.0, opts, start=solved)
    ref_best, ref_trace = pga(tradeoff_scenario, noise, 0.5, 8.0, opts)
    assert (trace.rows[0].evaluations, trace.rows[0].solver_iterations) == (0, 0)
    assert trace.rows[0].weighted_mi == ref_trace.rows[0].weighted_mi
    assert trace.rows[1:] == ref_trace.rows[1:]
    assert np.array_equal(best.w, ref_best.w)
    with pytest.raises(ValueError, match="start"):
        pga(tradeoff_scenario, noise, 0.5, 8.0, PgaOptions(), start=solved)
    with pytest.raises(ValueError, match="start"):
        pga(tradeoff_scenario, noise, 0.5, 8.0, opts, start=(solved[0], solved[1], None))
