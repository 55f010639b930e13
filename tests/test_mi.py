import dataclasses

import numpy as np
import pytest

import isac_mi.mi as mi_module
from isac_mi import (
    Beamformer,
    NoiseConfig,
    NonRealShannonError,
    SolverOptions,
    SpectralPoint,
    SystemDims,
    default_beamformer,
    derivative_identity_check,
    effective_los,
    generate_scenario,
    shannon_comm,
    shannon_sensing,
    solve_comm,
    solve_sensing,
    weighted_mi,
)
from helpers import scalar_los_oracle, scalar_los_scenario, zero_scenario


def test_shannon_transforms_vanish_on_zero_channel():
    dims = SystemDims(n_t=4, n_r=3, n_u=4, num_scatter=2, m=4, n_s=5)
    stats = zero_scenario(dims)
    bf = default_beamformer(dims, 4.0)
    point = SpectralPoint(-0.8)
    g_eff, h_eff, _ = effective_los(stats, bf)
    assert shannon_sensing(solve_sensing(stats, bf, point), point, dims, g_eff) == 0.0
    assert shannon_comm(solve_comm(stats, bf, point), point, dims, h_eff) == 0.0


def test_scalar_los_shannon_matches_oracle():
    g = 0.9 + 0.5j
    stats = scalar_los_scenario(g)
    w_entry = 0.75
    bf = Beamformer(np.array([[w_entry]]), 1.0)
    for sigma2 in (0.25, 1.0, 2.5):
        point = SpectralPoint(-sigma2)
        fp = solve_sensing(stats, bf, point)
        g_eff, _, _ = effective_los(stats, bf)
        value = shannon_sensing(fp, point, stats.dims, g_eff)
        oracle = scalar_los_oracle(g * w_entry, sigma2)
        assert abs(value - oracle["shannon"]) < 1e-10


def test_pure_los_comm_equals_logdet(dims4):
    stats = generate_scenario(dims4, float("inf"), seed=3)
    bf = default_beamformer(dims4, 4.0)
    for snr in np.linspace(-10.0, 35.0, 10):
        noise = NoiseConfig(float(snr))
        report = weighted_mi(stats, bf, noise, 0.5)
        _, h_eff, _ = effective_los(stats, bf)
        exact = np.linalg.slogdet(np.eye(4) + h_eff.conj().T @ h_eff / noise.sigma_c2)[1]
        assert abs(report.i_c - exact) < 1e-8


def test_weighted_extremes_and_affinity(scenario4, beamformer4):
    noise = NoiseConfig(5.0)
    r0 = weighted_mi(scenario4, beamformer4, noise, 0.0)
    r1 = weighted_mi(scenario4, beamformer4, noise, 1.0)
    r8 = weighted_mi(scenario4, beamformer4, noise, 0.8)
    assert r0.weighted == r0.i_c
    assert r1.weighted == r1.i_s
    # the branch solves do not depend on rho
    assert r0.i_s == r8.i_s and r1.i_c == r8.i_c
    assert r8.weighted == 0.8 * r8.i_s + (1.0 - 0.8) * r8.i_c


def test_weighted_mi_rejects_bad_rho(scenario4, beamformer4):
    with pytest.raises(ValueError, match="rho"):
        weighted_mi(scenario4, beamformer4, NoiseConfig(0.0), 1.2)


def test_mi_nonnegative_and_monotone_in_snr(scenario4, beamformer4):
    values = []
    for snr in (-10.0, -5.0, 0.0, 5.0, 10.0, 20.0):
        rep = weighted_mi(scenario4, beamformer4, NoiseConfig(snr), 0.5)
        assert rep.i_s >= -1e-8 and rep.i_c >= -1e-8
        values.append((rep.i_s, rep.i_c))
    assert all(b[0] >= a[0] and b[1] >= a[1] for a, b in zip(values, values[1:]))


def test_scaling_down_beamformer_never_increases_comm_mi(scenario4, beamformer4):
    noise = NoiseConfig(10.0)
    previous = -np.inf
    for c in (0.3, 0.7, 1.0):
        rep = weighted_mi(scenario4, Beamformer(c * beamformer4.w, 4.0), noise, 0.0)
        assert rep.i_c >= previous - 1e-9
        previous = rep.i_c


def test_derivative_identity_pure_los_comm(dims4):
    stats = generate_scenario(dims4, float("inf"), seed=3)
    bf = default_beamformer(dims4, 4.0)
    for snr in (0.0, 10.0):
        noise = NoiseConfig(snr)
        h = 1e-4 * noise.sigma_c2
        assert derivative_identity_check(stats, bf, noise, "comm", h) < 1e-8


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_derivative_identity_random_scenario(branch, scenario4, beamformer4):
    noise = NoiseConfig(2.0)
    sigma2 = noise.sigma_s2 if branch == "sensing" else noise.sigma_c2
    discrepancy = derivative_identity_check(scenario4, beamformer4, noise, branch, 1e-4 * sigma2)
    assert discrepancy < 1e-6


@pytest.mark.parametrize("branch", ["sensing", "comm"])
def test_derivative_identity_warm_starts_from_the_centre(branch, scenario4, beamformer4, monkeypatch):
    # every solve goes through the module's solver bindings, as a tracer sees them
    calls = []

    def recording(name):
        solve = getattr(mi_module, f"solve_{name}")

        def patched(stats, w_bf, point, opts, initial=None):
            fp = solve(stats, w_bf, point, opts, initial=initial)
            calls.append((name, point.w, initial, fp))
            return fp

        return patched

    for name in ("sensing", "comm"):
        monkeypatch.setattr(mi_module, f"solve_{name}", recording(name))
    noise = NoiseConfig(2.0)
    sigma2 = noise.sigma_s2 if branch == "sensing" else noise.sigma_c2
    derivative_identity_check(scenario4, beamformer4, noise, branch, 1e-4 * sigma2)
    assert [name for name, *_ in calls] == [branch] * 3
    (_, w0, first, centre), *sides = calls
    assert w0 == -sigma2 and first is None
    assert all(initial is centre for _, _, initial, _ in sides)


def test_derivative_identity_zero_channel():
    dims = SystemDims(n_t=3, n_r=3, n_u=3, num_scatter=1, m=3, n_s=3)
    stats = zero_scenario(dims)
    bf = default_beamformer(dims, 3.0)
    noise = NoiseConfig(0.0)
    assert derivative_identity_check(stats, bf, noise, "comm", 1e-4) < 1e-12


def test_derivative_identity_rejects_bad_args(scenario4, beamformer4):
    with pytest.raises(ValueError):
        derivative_identity_check(scenario4, beamformer4, NoiseConfig(0.0), "comm", -1.0)
    with pytest.raises(ValueError):
        derivative_identity_check(scenario4, beamformer4, NoiseConfig(0.0), "both", 1e-4)
    noise = NoiseConfig(0.0)
    with pytest.raises(ValueError, match="sigma2"):
        derivative_identity_check(scenario4, beamformer4, noise, "comm", noise.sigma_c2)


def test_corrupted_fixed_point_raises_non_real(scenario4, beamformer4):
    point = SpectralPoint(-0.5)
    fp = solve_sensing(scenario4, beamformer4, point)
    bad = dataclasses.replace(fp, g_tilde=fp.g_tilde + 1e-3j * np.eye(4))  # each block
    g_eff, _, _ = effective_los(scenario4, beamformer4)
    with pytest.raises(NonRealShannonError):
        shannon_sensing(bad, point, scenario4.dims, g_eff)


def test_nonsquare_dims_agree_with_monte_carlo():
    # every dimension distinct, so any transposed contraction would surface
    from isac_mi import mi_curves

    dims = SystemDims(n_t=6, n_r=3, n_u=5, num_scatter=2, m=4, n_s=7)
    stats = generate_scenario(dims, 1.0, seed=13)
    bf = default_beamformer(dims, 6.0)
    noise = NoiseConfig(10.0)
    rep = weighted_mi(stats, bf, noise, 0.8)
    mc_s, mc_c = mi_curves(stats, bf, [noise], trials=4000)
    assert abs(rep.i_s - mc_s[0].mean) / mc_s[0].mean < 0.02
    assert abs(rep.i_c - mc_c[0].mean) / mc_c[0].mean < 0.02
    for branch in ("sensing", "comm"):
        sigma2 = noise.sigma_s2 if branch == "sensing" else noise.sigma_c2
        assert derivative_identity_check(stats, bf, noise, branch, 1e-4 * sigma2) < 1e-6



@pytest.mark.parametrize("snr_db", [0.0, 20.0])
@pytest.mark.parametrize("n_t, n_r, n_u, m, n_s, num_scatter", [
    (8, 6, 5, 4, 9, 3), (16, 16, 16, 16, 16, 4),
])
def test_reversing_the_scatter_channels_leaves_the_mis(n_t, n_r, n_u, m, n_s, num_scatter, snr_db):
    # The sensing system is invariant under a permutation of its L channels;
    # only the order of the floating-point sums changes.  Both solves stop at a
    # residual <= tol and the Shannon transform is stationary, so the solver
    # contributes O(tol^2); the rest is rounding of the L n_r-row sums.
    # Communication does not read the scatter channels: bitwise equal.
    dims = SystemDims(n_t=n_t, n_r=n_r, n_u=n_u, num_scatter=num_scatter, m=m, n_s=n_s)
    stats = generate_scenario(dims, 1.0, seed=5)
    reversed_stats = dataclasses.replace(stats, sensing=stats.sensing[::-1])
    bf = default_beamformer(dims, float(n_t))
    noise = NoiseConfig(snr_db)
    report = weighted_mi(stats, bf, noise, 0.5)
    permuted = weighted_mi(reversed_stats, bf, noise, 0.5)
    bound = SolverOptions().tol ** 2 + 10 * num_scatter * n_r * np.finfo(float).eps
    assert abs(permuted.i_s - report.i_s) <= bound * report.i_s
    assert permuted.i_c == report.i_c


def test_extreme_profile_magnitudes_never_give_a_negative_mi(dims4, beamformer4):
    # At kappa = 1e-300 both solves converge, but the sensing Shannon total is
    # about -2.1e116 (each Tr(g~_l (wI - psi~_l)) term about -1.06e116) with an
    # imaginary part of 8.5e98: catastrophic cancellation, not an MI.  A reality
    # check scaled by the size of the terms would pass it as a negative MI, so
    # the point must fail by name or give a nonnegative value.
    stats = generate_scenario(dims4, 1e-300, seed=11)
    noise = NoiseConfig(10.0)
    g_eff, h_eff, _ = effective_los(stats, beamformer4)
    for solve, shannon, sigma2, mean in (
        (solve_sensing, shannon_sensing, noise.sigma_s2, g_eff),
        (solve_comm, shannon_comm, noise.sigma_c2, h_eff),
    ):
        point = SpectralPoint.from_noise_power(sigma2)
        fp = solve(stats, beamformer4, point)
        assert fp.residual <= SolverOptions().tol
        try:
            assert shannon(fp, point, dims4, mean) >= 0.0
        except NonRealShannonError:
            pass
    for rho in (0.0, 0.5, 1.0):
        try:
            report = weighted_mi(stats, beamformer4, noise, rho)
        except NonRealShannonError:
            continue
        assert min(report.i_s, report.i_c) >= 0.0
