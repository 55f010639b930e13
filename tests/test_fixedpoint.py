import dataclasses
import math
import warnings

import numpy as np
import pytest

from isac_mi import (
    Beamformer,
    ConvergenceError,
    NoiseConfig,
    SolverOptions,
    SpectralPoint,
    SystemDims,
    cauchy_comm,
    cauchy_sensing,
    default_beamformer,
    effective_los,
    estimate,
    generate_scenario,
    residual_comm,
    residual_sensing,
    solve_comm,
    solve_sensing,
)
from helpers import scalar_los_oracle, scalar_los_scenario, zero_scenario


def test_public_names_and_record_fields_are_pinned():
    # a removal from the public surface has to edit this test in plain view
    import isac_mi
    from isac_mi import FixedPoint

    assert isac_mi.__all__ == [
        "Beamformer", "ConvergenceError", "CorrelationOps", "DimensionError", "FixedPoint",
        "GeometryConfig", "McEstimate", "MiReport", "NoiseConfig", "NonRealShannonError",
        "PgaAbort", "PgaOptions", "PgaTrace", "ScenarioStats", "SingularMatrixError",
        "SolverOptions", "SpectralPoint", "SystemDims", "WeichselbergerStats", "cauchy_comm", "cauchy_sensing", "default_beamformer",
        "derivative_identity_check", "effective_los", "eigen_ecdf", "estimate",
        "finite_mi_comm", "finite_mi_sensing", "generate_scenario", "gradient", "mi_curves",
        "pga", "project", "residual_comm", "residual_sensing", "sample_channels",
        "sample_symbols", "scenario_from_json", "scenario_to_json", "shannon_comm",
        "shannon_sensing", "solve_comm", "solve_sensing", "upa_steering", "validate",
        "weighted_mi",
    ]
    assert [f.name for f in dataclasses.fields(FixedPoint)] == [
        "g", "g_tilde", "psi_tilde_blocks", "pi", "phi", "residual", "iterations", "history",
    ]


def test_spectral_point_must_be_negative():
    with pytest.raises(ValueError):
        SpectralPoint(0.5)
    assert SpectralPoint.from_noise_power(0.25).w == -0.25


def test_solver_options_validation():
    for tol in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tol"):
            SolverOptions(tol=tol)
    with pytest.raises(TypeError):
        SolverOptions(damping=0.5)  # the Picard damping is the constant fixedpoint._DAMPING
    with pytest.raises(ValueError, match=r"max_iter must be >= 0"):
        SolverOptions(max_iter=-1)
    # a float count is refused up front, not left to fail inside range() mid-solve
    for count in (2.5, 300.0, "300", True, False):
        with pytest.raises(ValueError, match=r"max_iter must be an integer, got"):
            SolverOptions(max_iter=count)
    assert SolverOptions(max_iter=np.int64(300)).max_iter == 300


def test_zero_channel_sensing_solution():
    dims = SystemDims(n_t=4, n_r=3, n_u=4, num_scatter=2, m=4, n_s=5)
    stats = zero_scenario(dims)
    bf = default_beamformer(dims, 4.0)
    point = SpectralPoint(-0.7)
    fp = solve_sensing(stats, bf, point)
    assert fp.iterations == 0
    assert fp.g_tilde.shape == (2, 3, 3)
    assert np.allclose(fp.g_tilde, np.eye(3) / -0.7, atol=1e-13)
    assert np.allclose(fp.g, np.eye(4), atol=1e-13)
    assert np.all(fp.pi - fp.phi * np.eye(4) == 0.0)  # psi = pi - phi I
    assert abs(fp.phi - 1.0) < 1e-13
    assert abs(cauchy_sensing(fp) - 1.0 / -0.7) < 1e-13
    assert residual_sensing(fp, stats, bf, point) < 1e-12


def test_zero_channel_comm_solution():
    dims = SystemDims(n_t=4, n_r=3, n_u=4, num_scatter=2, m=4, n_s=5)
    stats = zero_scenario(dims)
    bf = default_beamformer(dims, 4.0)
    point = SpectralPoint(-1.3)
    fp = solve_comm(stats, bf, point)
    assert fp.g_tilde.shape == (1, 4, 4)
    assert np.allclose(fp.g_tilde, np.eye(4) / -1.3, atol=1e-13)
    assert abs(cauchy_comm(fp) - 1.0 / -1.3) < 1e-13
    assert residual_comm(fp, stats, bf, point) < 1e-12


@pytest.mark.parametrize("sigma2", [0.03, 1.0])
def test_equal_variance_surrogate_is_exact_without_los_and_profile(sigma2):
    # zero LoS means, one constant variance profile for all scatter channels and
    # W'W proportional to I: every equation maps multiples of I to multiples of I,
    # so the surrogate's (a I, b I) is the fixed point and the cold solve starts on it
    from isac_mi import ScenarioStats, WeichselbergerStats
    from isac_mi.fixedpoint import _comm_system, _sensing_system

    dims = SystemDims(n_t=8, n_r=6, n_u=5, num_scatter=2, m=4, n_s=10)
    drawn = generate_scenario(dims, 1.0, seed=5)

    def flat(channel, level):
        zero = np.zeros_like(channel.mean)
        return WeichselbergerStats(zero, channel.left_unitary, channel.right_unitary, zero.real + level)

    stats = ScenarioStats(
        dims, flat(drawn.comm, 1.3), tuple(flat(s, 0.7) for s in drawn.sensing),
        drawn.rician_kappa, drawn.seed,
    )
    bf = default_beamformer(dims, 8.0)
    point = SpectralPoint.from_noise_power(sigma2)
    for system, solve in ((_sensing_system, solve_sensing), (_comm_system, solve_comm)):
        a, b = system(stats, bf, point.w).surrogate()
        fp = solve(stats, bf, point)
        assert a == pytest.approx(np.trace(fp.g).real / dims.m, rel=1e-10)
        assert b == pytest.approx(np.diagonal(fp.g_tilde, axis1=1, axis2=2).real.mean(), rel=1e-10)
        assert len(fp.history) <= 2


@pytest.mark.parametrize("sigma2", [0.3, 1.0, 4.0])
def test_scalar_pure_los_matches_bisection_oracle(sigma2):
    g = 1.3 - 0.4j
    stats = scalar_los_scenario(g)
    w_entry = 0.8
    bf = Beamformer(np.array([[w_entry]]), 1.0)
    point = SpectralPoint(-sigma2)
    fp = solve_sensing(stats, bf, point, SolverOptions(tol=1e-13))
    oracle = scalar_los_oracle(g * w_entry, sigma2)
    assert abs(fp.phi - oracle["phi"]) < 1e-10
    assert abs(complex(fp.g[0, 0]) - oracle["g_c"]) < 1e-10
    assert abs(complex(fp.g_tilde[0, 0, 0]) - oracle["g_c_tilde"]) < 1e-10
    g_dd = -fp.phi + fp.phi**2 * complex(fp.g[0, 0])  # -phi I + phi^2 g_c
    assert abs(g_dd - oracle["g_d"]) < 1e-10
    assert abs(cauchy_sensing(fp) - oracle["cauchy"].real) < 1e-10


@pytest.mark.parametrize("sigma2", [0.5, 2.0])
def test_scalar_with_scatter_feedback_matches_oracle(sigma2):
    # full scalar system: the variance profile couples psi_tilde back to g_c
    from helpers import scalar_general_oracle, scalar_general_scenario
    from isac_mi import effective_los, shannon_sensing

    g, profile, w_entry = 0.8 - 0.3j, 1.2, 0.9
    stats = scalar_general_scenario(g, profile)
    bf = Beamformer(np.array([[w_entry]]), 1.0)
    point = SpectralPoint(-sigma2)
    fp = solve_sensing(stats, bf, point, SolverOptions(tol=1e-13))
    oracle = scalar_general_oracle(g * w_entry, (w_entry * profile) ** 2, sigma2)
    assert abs(fp.phi - oracle["phi"]) < 1e-9
    assert abs(complex(fp.g[0, 0]) - oracle["g_c"]) < 1e-9
    assert abs(complex(fp.g_tilde[0, 0, 0]) - oracle["g_c_tilde"]) < 1e-9
    g_eff, _, _ = effective_los(stats, bf)
    value = shannon_sensing(fp, point, stats.dims, g_eff)
    assert abs(value - oracle["shannon"]) < 1e-9


def test_pure_los_comm_is_exact(dims4):
    from isac_mi import generate_scenario

    stats = generate_scenario(dims4, float("inf"), seed=3)
    bf = default_beamformer(dims4, 4.0)
    sigma2 = 0.5
    point = SpectralPoint(-sigma2)
    fp = solve_comm(stats, bf, point)
    _, h_eff, _ = effective_los(stats, bf)
    expected = np.linalg.inv(np.eye(4) + h_eff.conj().T @ h_eff / sigma2)
    assert np.allclose(fp.g, expected, atol=1e-12)
    assert np.allclose(fp.psi_tilde_blocks[0], -sigma2 * np.eye(4), atol=1e-13)
    assert np.allclose(fp.pi, np.eye(4), atol=1e-13)


def test_headline_scenario_matches_mc_resolvent(scenario16, beamformer16):
    # 0 dB keeps |w| = sigma2 away from the hard edge of the Gram spectrum,
    # where the empirical resolvent of a finite system fluctuates most.
    noise = NoiseConfig(0.0)
    fp_s = solve_sensing(scenario16, beamformer16, SpectralPoint(-noise.sigma_s2))
    fp_c = solve_comm(scenario16, beamformer16, SpectralPoint(-noise.sigma_c2))
    mc_s = estimate(scenario16, beamformer16, noise, "resolvent_s", trials=2000)
    mc_c = estimate(scenario16, beamformer16, noise, "resolvent_c", trials=2000)
    assert abs(cauchy_sensing(fp_s) - mc_s.mean) / abs(mc_s.mean) < 0.02
    assert abs(cauchy_comm(fp_c) - mc_c.mean) / abs(mc_c.mean) < 0.02


def test_converged_residual_meets_tolerance(scenario4, beamformer4):
    point = SpectralPoint(-0.1)
    fp = solve_sensing(scenario4, beamformer4, point)
    assert fp.residual <= 1e-10
    assert residual_sensing(fp, scenario4, beamformer4, point) <= 1e-10
    fc = solve_comm(scenario4, beamformer4, point)
    assert residual_comm(fc, scenario4, beamformer4, point) <= 1e-10


_BRANCHES = {"sensing": (solve_sensing, residual_sensing), "comm": (solve_comm, residual_comm)}


def _nudge(value):
    """value + 1e-3 max(1, ||value||) I, with I = 1 for a scalar; each block of a stack."""
    step = 1e-3 * max(1.0, float(np.linalg.norm(value)))
    return value + step * (np.eye(value.shape[-1]) if np.ndim(value) else 1.0)


@pytest.mark.parametrize(
    "branch, field",
    [
        ("sensing", "g"),
        ("sensing", "g_tilde"),
        ("sensing", "psi_tilde_blocks"),
        ("sensing", "pi"),
        ("sensing", "phi"),
        ("comm", "g"),
        ("comm", "g_tilde"),
        ("comm", "psi_tilde_blocks"),
        ("comm", "pi"),
        ("comm", "phi"),
    ],
)
def test_perturbed_state_has_large_residual(scenario4, beamformer4, branch, field):
    solve, residual = _BRANCHES[branch]
    point = SpectralPoint(-0.1)
    fp = solve(scenario4, beamformer4, point)
    value = getattr(fp, field)
    nudged = (_nudge(value[0]), *value[1:]) if field == "psi_tilde_blocks" else _nudge(value)
    perturbed = dataclasses.replace(fp, **{field: nudged})
    assert residual(perturbed, scenario4, beamformer4, point) > 1e-4


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_record_is_a_function_of_its_state(scenario4, beamformer4, branch):
    # every stored self-energy is bitwise the system's own at the stored (g, g_tilde)
    from isac_mi.fixedpoint import _comm_system, _sensing_system

    make_system = {"sensing": _sensing_system, "comm": _comm_system}[branch]
    point = SpectralPoint(-0.1)
    fp = _BRANCHES[branch][0](scenario4, beamformer4, point)
    psi_t_rhs, pi_rhs, phi_rhs = make_system(scenario4, beamformer4, point.w).self_energies(
        fp.g, fp.g_tilde
    )
    assert fp.psi_tilde_blocks.shape == psi_t_rhs.shape == fp.g_tilde.shape
    assert np.array_equal(fp.psi_tilde_blocks, psi_t_rhs)
    assert np.array_equal(fp.pi, pi_rhs)
    assert fp.phi == phi_rhs
    if branch == "comm":
        assert fp.phi == 1.0


def test_stored_matrices_are_hermitian(scenario4, beamformer4):
    fp = solve_sensing(scenario4, beamformer4, SpectralPoint(-0.2))
    for a in (*fp.g_tilde, fp.g, fp.pi, *fp.psi_tilde_blocks):
        assert np.linalg.norm(a - a.conj().T) < 1e-10
    fc = solve_comm(scenario4, beamformer4, SpectralPoint(-0.2))
    for a in (*fc.g_tilde, fc.g, fc.psi_tilde_blocks[0], fc.pi):
        assert np.linalg.norm(a - a.conj().T) < 1e-10


def test_resolvent_sign_structure(scenario4, beamformer4):
    fp = solve_sensing(scenario4, beamformer4, SpectralPoint(-0.2))
    assert np.linalg.eigvalsh(-fp.g_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp.g).min() > -1e-8
    assert fp.phi >= 1.0 - 1e-12
    fc = solve_comm(scenario4, beamformer4, SpectralPoint(-0.2))
    assert np.linalg.eigvalsh(-fc.g_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fc.g).min() > -1e-8


def test_resolvent_trace_decays_with_spectral_argument(scenario4, beamformer4):
    values = []
    for sigma2 in (0.2, 0.5, 1.0, 3.0, 10.0):
        fp = solve_sensing(scenario4, beamformer4, SpectralPoint(-sigma2))
        values.append(-cauchy_sensing(fp) / sigma2)  # (-1/w) * (1/Ln_r) Tr(-g_c_tilde)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_nonconvergence_raises_with_final_residual(scenario4, beamformer4):
    with pytest.raises(ConvergenceError) as info:
        solve_sensing(scenario4, beamformer4, SpectralPoint(-0.1), SolverOptions(max_iter=1))
    assert info.value.residual > 0.0
    assert "1 iterations" in str(info.value)


def test_two_initializations_agree(scenario4, beamformer4):
    # uniqueness regression: cold start vs warm start from a different point
    point = SpectralPoint(-0.15)
    cold = solve_sensing(scenario4, beamformer4, point)
    other = solve_sensing(scenario4, beamformer4, SpectralPoint(-2.0))
    warm = solve_sensing(scenario4, beamformer4, point, initial=other)
    assert np.allclose(cold.g, warm.g, atol=1e-8)
    assert np.allclose(cold.g_tilde, warm.g_tilde, atol=1e-8)
    cold_c = solve_comm(scenario4, beamformer4, point)
    other_c = solve_comm(scenario4, beamformer4, SpectralPoint(-2.0))
    warm_c = solve_comm(scenario4, beamformer4, point, initial=other_c)
    assert np.allclose(cold_c.g, warm_c.g, atol=1e-8)


@pytest.mark.parametrize(
    "branch, solve, received, expected",
    [
        ("sensing", solve_sensing, (2, 3, 3), (2, 4, 4)),
        ("comm", solve_comm, (1, 6, 6), (1, 4, 4)),
    ],
)
def test_mis_shaped_warm_start_names_branch_and_shapes(
    branch, solve, received, expected, scenario4, beamformer4
):
    # a fixed point of other dims is rejected before it is unpacked
    dims = SystemDims(n_t=4, n_r=3, n_u=6, num_scatter=2, m=4, n_s=5)
    stats = generate_scenario(dims, rician_kappa=1.0, seed=3)
    point = SpectralPoint(-0.5)
    other = solve(stats, default_beamformer(dims, 4.0), point)
    with pytest.raises(ValueError, match=rf"{branch} warm start") as info:
        solve(scenario4, beamformer4, point, initial=other)
    message = str(info.value)
    assert f"((4, 4), {received})" in message and f"expected ((4, 4), {expected})" in message


def test_iteration_trace_is_written(scenario4, beamformer4):
    fp = solve_sensing(scenario4, beamformer4, SpectralPoint(-0.5))
    assert isinstance(fp.history, tuple) and len(fp.history) > 1
    assert fp.history[-1] <= 1e-10


def test_convergence_error_carries_residual_history(scenario4, beamformer4):
    opts = SolverOptions(max_iter=5)
    with pytest.raises(ConvergenceError) as info:
        solve_comm(scenario4, beamformer4, SpectralPoint(-0.1), opts)
    history = info.value.history
    assert isinstance(history, tuple) and len(history) == 6  # iterations 0..max_iter
    assert history[-1] == info.value.residual
    assert all(np.isfinite(r) and r > 0.0 for r in history)
    assert str(info.value) == (
        f"comm fixed point did not converge after 5 iterations (final residual {history[-1]:.3e})"
    )


_CONTEXTS = {
    "sensing": ("sensing pi inverse", "sensing g_c_tilde equation",
                "sensing psi_tilde block inverse", "sensing g_c equation"),
    "comm": ("comm omega inverse", "comm g_e_tilde equation",
             "comm omega_tilde inverse", "comm g_e equation"),
}


def test_phi_without_a_real_root_ends_the_solve_by_name(scenario4, beamformer4):
    # far outside the sign cone b^2 + 4 Tr g / n_s < 0: phi is NaN, not a math domain error
    from isac_mi.fixedpoint import _sensing_system

    point = SpectralPoint(-0.1)
    system = _sensing_system(scenario4, beamformer4, point.w)
    assert math.isnan(system.phi(-1e3 * np.eye(system.m)))
    fp = solve_sensing(scenario4, beamformer4, point)
    far = dataclasses.replace(fp, g=-1e3 * np.eye(system.m))
    with pytest.raises(ConvergenceError, match="sensing fixed point produced a non-finite evaluation"):
        solve_sensing(scenario4, beamformer4, point, initial=far)


def _nan_pi(eigenvalues, pi):
    return eigenvalues, np.full_like(pi, np.nan)


def _zero_psi_tilde(eigenvalues, pi):
    return np.zeros_like(eigenvalues), pi  # every psi_tilde eigenvalue zero: w = d


def _singular_g_equation(eigenvalues, pi):
    # psi_tilde^-1 = 0, so LoS = 0 and pi - LoS = 0 is exactly singular
    return np.full_like(eigenvalues, np.inf), np.zeros_like(pi)


def _break_evaluations(monkeypatch, broken, first, last=math.inf):
    """Route the eigenbasis self-energies (psi_tilde eigenvalues, pi) of each
    branch's first..last-th iterate evaluation (counted from 1; `first` may map
    branch to count) through `broken`; returns the per-branch evaluation counts."""
    from isac_mi import fixedpoint

    original = fixedpoint._System.eigen_energies
    calls = {}

    def patched(self, x):
        calls[self.branch] = n = calls.get(self.branch, 0) + 1
        start = first[self.branch] if isinstance(first, dict) else first
        energies = original(self, x)
        return broken(*energies) if start <= n <= last else energies

    monkeypatch.setattr(fixedpoint._System, "eigen_energies", patched)
    return calls


def _assert_ends_non_finite(branch, broken, scenario4, beamformer4, monkeypatch):
    k = 3
    _break_evaluations(monkeypatch, broken, first=k)
    with pytest.raises(ConvergenceError) as info:
        _BRANCHES[branch][0](scenario4, beamformer4, SpectralPoint(-0.1))
    err = info.value
    assert err.branch == branch and err.iterations == k - 1
    assert f"{branch} fixed point produced a non-finite evaluation" in str(err)
    assert len(err.history) == k and math.isnan(err.history[-1])
    assert all(np.isfinite(r) for r in err.history[:-1])


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_non_finite_evaluation_ends_the_solve_by_name(branch, scenario4, beamformer4, monkeypatch):
    # NaN compares false in every residual test, so it must stop the iteration itself
    _assert_ends_non_finite(branch, _nan_pi, scenario4, beamformer4, monkeypatch)


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_zero_psi_tilde_eigenvalue_ends_the_solve_by_name(
    branch, scenario4, beamformer4, monkeypatch
):
    # psi_tilde is inverted as 1/eigenvalue, so a zero one is a non-finite evaluation
    _assert_ends_non_finite(branch, _zero_psi_tilde, scenario4, beamformer4, monkeypatch)


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_singular_iterate_raises_by_name(branch, scenario4, beamformer4, monkeypatch):
    from isac_mi import SingularMatrixError

    _break_evaluations(monkeypatch, _singular_g_equation, first=3)
    with pytest.raises(SingularMatrixError) as info:
        _BRANCHES[branch][0](scenario4, beamformer4, SpectralPoint(-0.1))
    assert info.value.context == _CONTEXTS[branch][3]  # the g equation: pi - LoS, the only inverse
    assert info.value.cond == math.inf


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_shannon_transform_and_gradient_guard_the_psi_tilde_inverses(
    branch, scenario4, beamformer4
):
    # both invert the stored psi_tilde blocks through the 1e14 condition guard
    from isac_mi import SingularMatrixError, shannon_comm, shannon_sensing, weighted_mi
    from isac_mi.optimizer import gradient

    noise = NoiseConfig(10.0)
    _, fp_s, fp_c = weighted_mi(scenario4, beamformer4, noise, 0.5, return_fixed_points=True)
    fps = {"sensing": fp_s, "comm": fp_c}
    blocks = fps[branch].psi_tilde_blocks
    zeroed = (np.zeros_like(blocks[0]), *blocks[1:])
    fps[branch] = dataclasses.replace(fps[branch], psi_tilde_blocks=zeroed)
    g_eff, h_eff, _ = effective_los(scenario4, beamformer4)
    shannon = {
        "sensing": lambda: shannon_sensing(
            fps["sensing"], SpectralPoint.from_noise_power(noise.sigma_s2), scenario4.dims, g_eff
        ),
        "comm": lambda: shannon_comm(
            fps["comm"], SpectralPoint.from_noise_power(noise.sigma_c2), scenario4.dims, h_eff
        ),
    }[branch]
    for call in (
        shannon,
        lambda: gradient(scenario4, beamformer4, noise, 0.5, fps["sensing"], fps["comm"]),
    ):
        with pytest.raises(SingularMatrixError) as info:
            call()
        assert info.value.context == _CONTEXTS[branch][2]
        assert info.value.cond == math.inf


@pytest.mark.parametrize("broken", [_nan_pi, _singular_g_equation], ids=["non-finite", "singular"])
def test_failed_warm_solve_falls_back_to_cold(broken, scenario4, beamformer4, monkeypatch):
    from isac_mi import weighted_mi

    noise = NoiseConfig(10.0)
    cold, fp_s, fp_c = weighted_mi(scenario4, beamformer4, noise, 0.8, return_fixed_points=True)
    calls = _break_evaluations(monkeypatch, broken, first=1, last=1)
    report = weighted_mi(scenario4, beamformer4, noise, 0.8, initial=(fp_s, fp_c))
    assert report == cold  # each branch's warm solve failed at once and was re-solved cold
    assert calls["sensing"] > 1 and calls["comm"] > 1


@pytest.mark.parametrize(
    "broken, cause",
    [
        (_nan_pi, ConvergenceError),
        (_zero_psi_tilde, ConvergenceError),
        (_singular_g_equation, np.linalg.LinAlgError),
    ],
    ids=["non-finite", "zero-psi-tilde", "singular"],
)
def test_failed_solves_inside_pga_abort(broken, cause, scenario4, dims4, monkeypatch):
    from isac_mi import PgaAbort, PgaOptions, pga, weighted_mi

    noise, opts = NoiseConfig(10.0), PgaOptions(init=default_beamformer(dims4, 4.0))
    with monkeypatch.context() as patch:  # count the evaluations of the cold start solve
        calls = _break_evaluations(patch, broken, first=math.inf)
        weighted_mi(scenario4, opts.init, noise, 0.8)
    _break_evaluations(monkeypatch, broken, first={b: n + 1 for b, n in calls.items()})
    with pytest.raises(PgaAbort, match="fixed-point solve failed") as info:
        pga(scenario4, noise, 0.8, 4.0, opts)
    assert isinstance(info.value.__cause__, cause)
    assert [row.iteration for row in info.value.trace.rows] == [0]


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_condition_guard_checks_the_returned_state(branch, scenario4, beamformer4, monkeypatch):
    # the iterates' inverses are unguarded; the guard at the returned state must
    # still reject it.  A zero beamformer column leaves pi = phi I + psi(g_tilde)
    # with the eigenvalue phi along that column, g_tilde = -1e20 I the others near 1e20.
    from isac_mi import SingularMatrixError, fixedpoint
    from isac_mi._linalg import COND_LIMIT

    w = beamformer4.w.copy()
    w[:, -1] = 0.0
    bf = Beamformer(w, beamformer4.p_t)
    num = {"sensing": 2, "comm": 1}[branch]
    crafted = (np.eye(4), np.broadcast_to(-1e20 * np.eye(4), (num, 4, 4)))
    monkeypatch.setattr(fixedpoint, "_iterate", lambda *args: (crafted, 0.0, 0, (0.0,)))
    with pytest.raises(SingularMatrixError) as info:
        _BRANCHES[branch][0](scenario4, bf, SpectralPoint(-0.1))
    assert info.value.context in _CONTEXTS[branch]
    assert COND_LIMIT < info.value.cond < math.inf


_HEADLINE = dict(n_t=16, n_r=16, n_u=16, num_scatter=2, m=16, n_s=16)
_RAYLEIGH_LIKE = dict(_HEADLINE, num_scatter=4, n_s=64)
_NON_SQUARE = dict(n_t=32, n_r=16, n_u=8, num_scatter=2, m=8, n_s=64)
_NARROW = dict(n_t=16, n_r=8, n_u=12, num_scatter=2, m=6, n_s=6)


@pytest.mark.parametrize(
    "shape, kappa, snr_db, expected",
    [
        # expected (i_s, i_c) in nats; the first two and non-square were pinned by the
        # damped Picard solver, the others by the Anderson solver with every iterate's
        # inverse behind the condition guard
        (_HEADLINE, 1.0, 20.0, (44.6575322041364, 105.3110563127183)),
        (_HEADLINE, 1.0, 30.0, (76.8855967925141, 141.61004621836318)),
        (_HEADLINE, 1.0, 40.0, (112.12151143746739, 178.2787840176005)),
        (_RAYLEIGH_LIKE, 0.05, 30.0, (147.37879719706262, 186.96646079242728)),
        (_RAYLEIGH_LIKE, 0.05, 40.0, (184.2181759151973, 223.76839392165274)),
        (_NON_SQUARE, 1.0, 30.0, (58.306593822666294, 77.19509736417898)),
        (_NARROW, 1.0, 30.0, (31.906257547386456, 62.229090837779715)),
        (_HEADLINE, 1.0, -20.0, (0.10060392615352493, 3.328385834000424)),
    ],
    ids=[
        "headline-20dB",
        "headline-30dB",
        "headline-40dB",
        "rayleigh-like-30dB",
        "rayleigh-like-40dB",
        "non-square-30dB",
        "narrow-30dB",
        "headline-minus20dB",
    ],
)
def test_hard_points_converge_to_a_consistent_fixed_point(shape, kappa, snr_db, expected):
    from isac_mi import generate_scenario, weighted_mi

    dims = SystemDims(**shape)
    stats = generate_scenario(dims, kappa, seed=7)
    bf = default_beamformer(dims, float(dims.n_t))
    noise = NoiseConfig(snr_db)
    report, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.8, return_fixed_points=True)
    assert np.linalg.eigvalsh(-fp_s.g_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp_s.g).min() > -1e-8
    assert fp_s.phi >= 1.0 - 1e-12
    assert np.linalg.eigvalsh(-fp_c.g_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp_c.g).min() > -1e-8
    point_s = SpectralPoint.from_noise_power(noise.sigma_s2)
    point_c = SpectralPoint.from_noise_power(noise.sigma_c2)
    assert residual_sensing(fp_s, stats, bf, point_s) <= 1e-10
    assert residual_comm(fp_c, stats, bf, point_c) <= 1e-10
    assert report.i_s == pytest.approx(expected[0], rel=1e-8)
    assert report.i_c == pytest.approx(expected[1], rel=1e-8)


def test_packing_round_trip_and_frobenius_distance():
    from isac_mi._linalg import rel_residual
    from isac_mi.fixedpoint import _Packing
    from helpers import random_hermitian

    rng = np.random.default_rng(3)
    m, num, n, w = 3, 2, 5, -0.3
    packing = _Packing(m, num, n, w)

    def state():
        return random_hermitian(m, rng), np.stack([random_hermitian(n, rng) for _ in range(num)])

    a, b = state(), state()
    for blocks in (a, b):
        for got, want in zip(packing.unpack(packing.pack(*blocks)), blocks):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # g as it is, g_tilde weighted by sigma^2 = -w
    distance = np.linalg.norm(packing.pack(*a) - packing.pack(*b))
    expected = np.hypot(np.linalg.norm(a[0] - b[0]), -w * np.linalg.norm(a[1] - b[1]))
    assert distance == pytest.approx(expected, rel=1e-12)
    # the residual is each block's rel_residual in unscaled units
    x, gx = packing.pack(*a), packing.pack(*b)
    expected = max(rel_residual(a[0], b[0]), rel_residual(a[1], b[1]))
    assert packing.residual(x, gx) == pytest.approx(expected, rel=1e-12)
    # a NaN in either block is not hidden by the finite residual of the other
    for block in range(2):
        broken = list(a)
        broken[block] = broken[block].copy()
        broken[block].flat[0] = np.nan
        assert math.isnan(packing.residual(packing.pack(*broken), gx)), block


def test_packing_residual_is_bitwise_the_norm_expression():
    # sqrt(v @ v) is numpy's 2-norm of a real vector, bit for bit; NaN in either
    # part propagates
    from isac_mi.fixedpoint import _Packing

    rng = np.random.default_rng(4)
    packing = _Packing(3, 2, 5, -0.3)
    k, size = packing.split, 2 * (3 * 3 + 2 * 5 * 5)

    def norm_expression(x, gx):
        return float(np.max([
            np.linalg.norm(x[:k] - gx[:k]) / (1.0 + np.linalg.norm(gx[:k])),
            np.linalg.norm(x[k:] - gx[k:]) / (packing.scale + np.linalg.norm(gx[k:])),
        ]))

    for scale in (1e-12, 1.0, 1e12):
        for _ in range(50):
            x, gx = scale * rng.standard_normal((2, size))
            assert packing.residual(x, gx) == norm_expression(x, gx)
    for index in (0, k - 1, k, size - 1):
        for vector in range(2):
            x, gx = rng.standard_normal((2, size))
            (x, gx)[vector][index] = np.nan
            assert math.isnan(packing.residual(x, gx)) and math.isnan(norm_expression(x, gx))


@pytest.mark.parametrize("broken", ["leaves-cone", "nan", "raises-residual"])
def test_a_failed_newton_step_falls_back_to_anderson(broken, monkeypatch):
    # a Jacobian whose step leaves the reduced cone (a step 1e6 (R(x) - x) long) or
    # is NaN is rejected before it is evaluated; one whose step points away from the
    # fixed point (x - R(x)) is evaluated and rejected on its residual.  Either way
    # the solve returns to Anderson and converges to the same fixed point.
    from isac_mi import fixedpoint, weighted_mi

    dims = SystemDims(**_HEADLINE)
    stats = generate_scenario(dims, 1.0, seed=7)
    bf = default_beamformer(dims, float(dims.n_t))
    noise = NoiseConfig(30.0)
    plain = weighted_mi(stats, bf, noise, 0.8)
    jacobians = {
        "leaves-cone": lambda size: (1.0 - 1e-6) * np.eye(size),
        "nan": lambda size: np.full((size, size), np.nan),
        "raises-residual": lambda size: 2.0 * np.eye(size),
    }
    monkeypatch.setattr(fixedpoint._System, "jacobian", lambda self, x, g: jacobians[broken](x.size))
    verdicts = []
    in_reduced_cone = fixedpoint._System.in_reduced_cone

    def recording(self, x):
        verdicts.append(in_reduced_cone(self, x))
        return verdicts[-1]

    monkeypatch.setattr(fixedpoint._System, "in_reduced_cone", recording)
    report, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.8, return_fixed_points=True)
    assert verdicts and all(verdicts) == (broken == "raises-residual")
    assert residual_sensing(fp_s, stats, bf, SpectralPoint.from_noise_power(noise.sigma_s2)) <= 1e-10
    assert residual_comm(fp_c, stats, bf, SpectralPoint.from_noise_power(noise.sigma_c2)) <= 1e-10
    assert report.i_s == pytest.approx(plain.i_s, rel=1e-9)
    assert report.i_c == pytest.approx(plain.i_c, rel=1e-9)


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_a_nan_in_a_later_stored_field_reads_nan(scenario4, beamformer4, branch):
    # pi is compared after the psi_tilde blocks, and only there, so a NaN in it must
    # not be dropped by the max over the equations
    solve, residual = _BRANCHES[branch]
    point = SpectralPoint(-0.1)
    fp = solve(scenario4, beamformer4, point)
    pi = fp.pi.copy()
    pi[0, 0] = np.nan
    assert math.isnan(residual(dataclasses.replace(fp, pi=pi), scenario4, beamformer4, point))


def test_sensing_without_symbol_block_is_the_comm_system():
    # one scatter channel equal to the uplink channel and n_s >> m: S S' -> I,
    # so the sensing Gram matrix is the communication one
    from isac_mi import ScenarioStats, generate_scenario, weighted_mi

    dims = SystemDims(n_t=6, n_r=4, n_u=4, num_scatter=1, m=3, n_s=10**6)
    s = generate_scenario(dims, 1.0, seed=11)
    stats = ScenarioStats(dims, s.comm, (s.comm,), s.rician_kappa, s.seed)
    bf = default_beamformer(dims, 6.0)
    noise = NoiseConfig(10.0, sensing_offset_db=0.0)
    report, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.5, return_fixed_points=True)
    assert abs(report.i_s - report.i_c) / report.i_c <= 1e-6
    assert np.abs(fp_s.g - fp_c.g).max() <= 1e-6
    assert np.abs(fp_s.g_tilde - fp_c.g_tilde).max() <= 1e-5
    assert 0.0 <= fp_s.phi - 1.0 <= 1e-5


@pytest.mark.parametrize("num_scatter", [1, 4])
def test_system_maps_match_the_dense_correlation_oracle(num_scatter):
    # psi_tilde_blocks, psi and gradient_term, of both branches, against E[X C X']
    # and E[X' C X] summed entry by entry and a per-block LoS term
    from isac_mi.fixedpoint import FixedPoint, _comm_system, _sensing_system
    from helpers import dense_correlation, random_hermitian, random_psd

    dims = SystemDims(n_t=32, n_r=16, n_u=8, num_scatter=num_scatter, m=8, n_s=16)
    stats = generate_scenario(dims, 1.0, seed=5)
    rng = np.random.default_rng(num_scatter)
    w = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
    bf = Beamformer(w / np.linalg.norm(w) * 4.0, 32.0)
    w, w_arg = bf.w, -0.3

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for system, channels in (
        (_sensing_system(stats, bf, w_arg), stats.sensing),
        (_comm_system(stats, bf, w_arg), (stats.comm,)),
    ):
        n = system.n_rx
        dense = [dense_correlation(s) for s in channels]
        g, g_tilde = random_psd(8, rng), np.stack([random_hermitian(n, rng) for _ in channels])
        blocks = system.psi_tilde_blocks(g)
        assert len(blocks) == len(channels)
        for block, k in zip(blocks, dense):
            assert close(block, w_arg * np.eye(n) - np.einsum("abcd,cd->ab", k, w @ g @ w.conj().T))
        raw = sum(np.einsum("abcd,ab->cd", k.conj(), block) for block, k in zip(g_tilde, dense))
        assert close(system.psi(g_tilde), -w.conj().T @ raw @ w)
        fp = FixedPoint(g, g_tilde, blocks, np.eye(8), 1.0, 0.0, 0, ())
        rows = system.h_raw.reshape(len(blocks), n, -1)
        los = sum(h_l.conj().T @ np.linalg.inv(b) @ h_l for h_l, b in zip(rows, blocks))
        los_w_g = los @ w @ g
        assert close(system.gradient_term(fp) + los_w_g, -raw @ w @ g)


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_rhs_inverts_only_one_m_by_m_matrix(branch, monkeypatch):
    from isac_mi import fixedpoint

    dims = SystemDims(**_NON_SQUARE)  # L n_r = 32, n_r = 16, n_u = 8, m = 8
    stats = generate_scenario(dims, 1.0, seed=7)
    bf = default_beamformer(dims, float(dims.n_t))
    make = {"sensing": fixedpoint._sensing_system, "comm": fixedpoint._comm_system}[branch]
    system = make(stats, bf, -0.1)
    num, n, m = system.num_channels, system.n_rx, system.m
    inverted = []

    def recording(a, context):
        inverted.append(np.shape(a))
        return original(a, context)

    original = fixedpoint._lu_inverse
    monkeypatch.setattr(fixedpoint, "_lu_inverse", recording)
    system.rhs(np.eye(m), np.broadcast_to(np.eye(n) / -0.1, (num, n, n)))
    # psi_tilde is diagonal in the eigenbasis: neither it, pi nor the (L n_r)^2 receive side
    assert inverted == [(m, m)]


@pytest.mark.parametrize("num_scatter", [1, 2, 4])
def test_each_guarded_reader_inverts_the_psi_tilde_stack_in_one_call(num_scatter, monkeypatch):
    # the final pass inverts pi, the receive side, the psi_tilde stack and pi - LoS,
    # in that order; the Shannon transform and the gradient invert the stack once each
    from isac_mi import fixedpoint, mi, shannon_comm, shannon_sensing
    from isac_mi.optimizer import gradient

    dims = SystemDims(n_t=8, n_r=4, n_u=3, num_scatter=num_scatter, m=2, n_s=8)
    stats = generate_scenario(dims, 1.0, seed=3)
    bf = default_beamformer(dims, 8.0)
    noise = NoiseConfig(10.0)
    g_eff, h_eff, _ = effective_los(stats, bf)
    seen = []

    def recording(original):
        def inv_herm(a, context):
            seen.append((np.shape(a), context))
            return original(a, context)
        return inv_herm

    for module in (fixedpoint, mi):
        monkeypatch.setattr(module, "inv_herm", recording(module.inv_herm))
    readers = {  # solver, transform, LoS mean, noise power, number and size of blocks
        "sensing": (solve_sensing, shannon_sensing, g_eff, noise.sigma_s2, num_scatter, dims.n_r),
        "comm": (solve_comm, shannon_comm, h_eff, noise.sigma_c2, 1, dims.n_u),
    }
    fps = {}
    for branch, (solve, shannon, h, sigma2, num, n) in readers.items():
        point, names = SpectralPoint.from_noise_power(sigma2), fixedpoint._CONTEXTS[branch]
        seen.clear()
        fps[branch] = solve(stats, bf, point)
        shapes = [(dims.m, dims.m), (num * n, num * n), (num, n, n), (dims.m, dims.m)]
        assert seen == list(zip(shapes, names))  # pi, g_tilde, psi_tilde, g
        seen.clear()
        shannon(fps[branch], point, dims, h)
        assert seen == [((num, n, n), names.psi_tilde)]
    for branch, rho in (("sensing", 1.0), ("comm", 0.0)):
        seen.clear()
        gradient(stats, bf, noise, rho, fps["sensing"], fps["comm"])
        num, n = readers[branch][4:]
        assert seen == [((num, n, n), fixedpoint._CONTEXTS[branch].psi_tilde)]


def test_a_record_with_psi_tilde_blocks_as_a_tuple_evaluates_bitwise_alike(
    scenario4, beamformer4
):
    # a record built with one (n_rx, n_rx) array per channel, not the stack, still evaluates
    from isac_mi import shannon_comm, shannon_sensing, weighted_mi
    from isac_mi.optimizer import gradient

    noise, dims = NoiseConfig(10.0), scenario4.dims
    point_s = SpectralPoint.from_noise_power(noise.sigma_s2)
    point_c = SpectralPoint.from_noise_power(noise.sigma_c2)
    g_eff, h_eff, _ = effective_los(scenario4, beamformer4)
    _, fp_s, fp_c = weighted_mi(scenario4, beamformer4, noise, 0.5, return_fixed_points=True)

    def values(fp_s, fp_c):
        return (
            shannon_sensing(fp_s, point_s, dims, g_eff),
            shannon_comm(fp_c, point_c, dims, h_eff),
            gradient(scenario4, beamformer4, noise, 0.5, fp_s, fp_c),
            residual_sensing(fp_s, scenario4, beamformer4, point_s),
            residual_comm(fp_c, scenario4, beamformer4, point_c),
        )

    old = [dataclasses.replace(fp, psi_tilde_blocks=tuple(fp.psi_tilde_blocks)) for fp in (fp_s, fp_c)]
    for stack, blocks in zip(values(fp_s, fp_c), values(*old)):
        assert np.array_equal(stack, blocks)


def test_non_finite_failure_names_the_spectral_point(scenario4, beamformer4):
    # sigma^2 = 1e-310 is a valid noise power, but 1/w overflows at the start; the
    # named error is the only report, with no numpy warning ahead of it
    for branch, (solve, _) in _BRANCHES.items():
        with warnings.catch_warnings(), pytest.raises(ConvergenceError) as info:
            warnings.simplefilter("error")
            solve(scenario4, beamformer4, SpectralPoint(-1e-310))
        assert f"{branch} fixed point produced a non-finite evaluation at w = -1.000e-310" in str(
            info.value
        )
