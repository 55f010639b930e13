import dataclasses

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
    residual_comm,
    residual_sensing,
    solve_comm,
    solve_sensing,
)
from helpers import scalar_los_oracle, scalar_los_scenario, zero_scenario


def test_spectral_point_must_be_negative():
    with pytest.raises(ValueError):
        SpectralPoint(0.5)
    assert SpectralPoint.from_noise_power(0.25).w == -0.25


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(damping=1.5)


def test_zero_channel_sensing_solution():
    dims = SystemDims(n_t=4, n_r=3, n_u=4, num_scatter=2, m=4, n_s=5)
    stats = zero_scenario(dims)
    bf = default_beamformer(dims, 4.0)
    point = SpectralPoint(-0.7)
    fp = solve_sensing(stats, bf, point)
    assert fp.iterations == 0
    assert np.allclose(fp.g_c_tilde, np.eye(6) / -0.7, atol=1e-13)
    assert np.allclose(fp.g_c, np.eye(4), atol=1e-13)
    assert np.all(fp.psi == 0.0)
    assert abs(fp.phi_scalar - 1.0) < 1e-13
    assert abs(cauchy_sensing(fp) - 1.0 / -0.7) < 1e-13
    assert residual_sensing(fp, stats, bf, point) < 1e-12


def test_zero_channel_comm_solution():
    dims = SystemDims(n_t=4, n_r=3, n_u=4, num_scatter=2, m=4, n_s=5)
    stats = zero_scenario(dims)
    bf = default_beamformer(dims, 4.0)
    point = SpectralPoint(-1.3)
    fp = solve_comm(stats, bf, point)
    assert np.allclose(fp.g_e_tilde, np.eye(4) / -1.3, atol=1e-13)
    assert abs(cauchy_comm(fp) - 1.0 / -1.3) < 1e-13
    assert residual_comm(fp, stats, bf, point) < 1e-12


@pytest.mark.parametrize("sigma2", [0.3, 1.0, 4.0])
def test_scalar_pure_los_matches_bisection_oracle(sigma2):
    g = 1.3 - 0.4j
    stats = scalar_los_scenario(g)
    w_entry = 0.8
    bf = Beamformer(np.array([[w_entry]]), 1.0)
    point = SpectralPoint(-sigma2)
    fp = solve_sensing(stats, bf, point, SolverOptions(tol=1e-13))
    oracle = scalar_los_oracle(g * w_entry, sigma2)
    assert abs(fp.phi_scalar - oracle["phi"]) < 1e-10
    assert abs(complex(fp.g_c[0, 0]) - oracle["g_c"]) < 1e-10
    assert abs(complex(fp.g_c_tilde[0, 0]) - oracle["g_c_tilde"]) < 1e-10
    assert abs(complex(fp.g_dd[0, 0]) - oracle["g_d"]) < 1e-10
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
    assert abs(fp.phi_scalar - oracle["phi"]) < 1e-9
    assert abs(complex(fp.g_c[0, 0]) - oracle["g_c"]) < 1e-9
    assert abs(complex(fp.g_c_tilde[0, 0]) - oracle["g_c_tilde"]) < 1e-9
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
    assert np.allclose(fp.g_e, expected, atol=1e-12)
    assert np.allclose(fp.omega_tilde, -sigma2 * np.eye(4), atol=1e-13)
    assert np.allclose(fp.omega, np.eye(4), atol=1e-13)


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


def test_perturbed_state_has_large_residual(scenario4, beamformer4):
    point = SpectralPoint(-0.1)
    fp = solve_sensing(scenario4, beamformer4, point)
    perturbed = dataclasses.replace(fp, g_c=fp.g_c + 1e-3 * np.eye(4))
    assert residual_sensing(perturbed, scenario4, beamformer4, point) > 1e-4


def test_stored_matrices_are_hermitian(scenario4, beamformer4):
    fp = solve_sensing(scenario4, beamformer4, SpectralPoint(-0.2))
    for a in (fp.g_c_tilde, fp.g_c, fp.g_dd, fp.psi, fp.pi, *fp.psi_tilde_blocks):
        assert np.linalg.norm(a - a.conj().T) < 1e-10
    fc = solve_comm(scenario4, beamformer4, SpectralPoint(-0.2))
    for a in (fc.g_e_tilde, fc.g_e, fc.omega_tilde, fc.omega):
        assert np.linalg.norm(a - a.conj().T) < 1e-10


def test_resolvent_sign_structure(scenario4, beamformer4):
    fp = solve_sensing(scenario4, beamformer4, SpectralPoint(-0.2))
    assert np.linalg.eigvalsh(-fp.g_c_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp.g_c).min() > -1e-8
    assert fp.phi_scalar >= 1.0 - 1e-12
    fc = solve_comm(scenario4, beamformer4, SpectralPoint(-0.2))
    assert np.linalg.eigvalsh(-fc.g_e_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fc.g_e).min() > -1e-8


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
    assert np.allclose(cold.g_c, warm.g_c, atol=1e-8)
    assert np.allclose(cold.g_c_tilde, warm.g_c_tilde, atol=1e-8)
    cold_c = solve_comm(scenario4, beamformer4, point)
    other_c = solve_comm(scenario4, beamformer4, SpectralPoint(-2.0))
    warm_c = solve_comm(scenario4, beamformer4, point, initial=other_c)
    assert np.allclose(cold_c.g_e, warm_c.g_e, atol=1e-8)


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


_HEADLINE = dict(n_t=16, n_r=16, n_u=16, num_scatter=2, m=16, n_s=16)
_RAYLEIGH_LIKE = dict(_HEADLINE, num_scatter=4, n_s=64)
_NON_SQUARE = dict(n_t=32, n_r=16, n_u=8, num_scatter=2, m=8, n_s=64)
_NARROW = dict(n_t=16, n_r=8, n_u=12, num_scatter=2, m=6, n_s=6)


@pytest.mark.parametrize(
    "shape, kappa, snr_db, expected",
    [
        # expected (i_s, i_c) in nats: the damped Picard solution, where that converges
        (_HEADLINE, 1.0, 20.0, (44.6575322041364, 105.3110563127183)),
        (_HEADLINE, 1.0, 30.0, (76.8855967925141, 141.61004621836318)),
        (_HEADLINE, 1.0, 40.0, None),
        (_RAYLEIGH_LIKE, 0.05, 30.0, None),
        (_RAYLEIGH_LIKE, 0.05, 40.0, None),
        (_NON_SQUARE, 1.0, 30.0, (58.306593822666294, 77.19509736417898)),
        (_NARROW, 1.0, 30.0, None),
        (_HEADLINE, 1.0, -20.0, None),
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
    assert np.linalg.eigvalsh(-fp_s.g_c_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp_s.g_c).min() > -1e-8
    assert fp_s.phi_scalar >= 1.0 - 1e-12
    assert np.linalg.eigvalsh(-fp_c.g_e_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp_c.g_e).min() > -1e-8
    point_s = SpectralPoint.from_noise_power(noise.sigma_s2)
    point_c = SpectralPoint.from_noise_power(noise.sigma_c2)
    assert residual_sensing(fp_s, stats, bf, point_s) <= 1e-10
    assert residual_comm(fp_c, stats, bf, point_c) <= 1e-10
    if expected is not None:
        assert report.i_s == pytest.approx(expected[0], rel=1e-8)
        assert report.i_c == pytest.approx(expected[1], rel=1e-8)


def test_packing_round_trip_and_frobenius_distance():
    from isac_mi.fixedpoint import _Packing

    rng = np.random.default_rng(3)
    sizes, scales = (3, 5, 1), (1.0, 0.3, 1.0)
    packing = _Packing(sizes, scales)

    def state():
        blocks = []
        for n in sizes[:-1]:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks.append(a + a.conj().T)
        return blocks + [float(rng.uniform(1.0, 2.0))]  # a real scalar block

    a, b = state(), state()
    for blocks in (a, b):
        for got, want in zip(packing.unpack(packing.pack(blocks)), blocks):
            np.testing.assert_allclose(got, np.atleast_2d(want), rtol=1e-14, atol=0.0)
    distance = np.linalg.norm(packing.pack(a) - packing.pack(b))
    expected = np.sqrt(
        sum((s * np.linalg.norm(np.atleast_2d(x - y))) ** 2 for s, x, y in zip(scales, a, b))
    )
    assert distance == pytest.approx(expected, rel=1e-12)


def test_stall_fallback_reaches_the_same_fixed_point(scenario4, beamformer4, monkeypatch):
    from isac_mi import fixedpoint, weighted_mi

    noise = NoiseConfig(30.0)
    plain, plain_s, plain_c = weighted_mi(
        scenario4, beamformer4, noise, 0.8, return_fixed_points=True
    )
    monkeypatch.setattr(fixedpoint, "_STALL", 2)
    forced, forced_s, forced_c = weighted_mi(
        scenario4, beamformer4, noise, 0.8, return_fixed_points=True
    )
    # damped Picard from the best iterate is far slower than Anderson here
    assert forced_s.iterations > plain_s.iterations
    assert forced_c.iterations > plain_c.iterations
    point_s = SpectralPoint.from_noise_power(noise.sigma_s2)
    point_c = SpectralPoint.from_noise_power(noise.sigma_c2)
    assert residual_sensing(forced_s, scenario4, beamformer4, point_s) <= 1e-10
    assert residual_comm(forced_c, scenario4, beamformer4, point_c) <= 1e-10
    assert forced.i_s == pytest.approx(plain.i_s, rel=1e-9)
    assert forced.i_c == pytest.approx(plain.i_c, rel=1e-9)
