import math

import numpy as np
import pytest

from isac_mi import (
    Beamformer,
    NoiseConfig,
    SpectralPoint,
    SystemDims,
    cauchy_comm,
    default_beamformer,
    eigen_ecdf,
    estimate,
    finite_mi_comm,
    finite_mi_sensing,
    generate_scenario,
    mi_curves,
    sample_channels,
    sample_symbols,
    solve_comm,
)
from isac_mi.montecarlo import _BLOCK
from helpers import zero_scenario


def test_zero_profiles_give_exact_los(dims4):
    stats = generate_scenario(dims4, float("inf"), seed=8)
    h_c, g_list = sample_channels(stats, trial=0)
    assert np.array_equal(h_c, stats.comm.mean)
    for g, s in zip(g_list, stats.sensing):
        assert np.array_equal(g, s.mean)


def test_channel_sampling_is_deterministic(scenario4):
    a = sample_channels(scenario4, trial=17)
    b = sample_channels(scenario4, trial=17)
    assert np.array_equal(a[0], b[0])
    assert all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
    c = sample_channels(scenario4, trial=18)
    assert not np.array_equal(a[0], c[0])


def test_fluctuation_variances_match_profile(scenario4, dims4):
    # rotate the sampled fluctuation back into the eigenbases: the entrywise
    # variance must be profile^2 / n_t
    trials = 100_000
    s = scenario4.comm
    acc = np.zeros((dims4.n_u, dims4.n_t))
    sq_acc = np.zeros((dims4.n_u, dims4.n_t))
    for t in range(trials):
        h_c, _ = sample_channels(scenario4, t)
        core = s.left_unitary.conj().T @ (h_c - s.mean) @ s.right_unitary
        p = np.abs(core) ** 2
        acc += p
        sq_acc += p**2
    mean = acc / trials
    se = np.sqrt(np.maximum(sq_acc / trials - mean**2, 0.0) / trials)
    target = s.variance_profile**2 / dims4.n_t
    assert np.all(np.abs(mean - target) <= 3.0 * se + 1e-12)


def test_symbols_have_identity_second_moment():
    dims = SystemDims(n_t=4, n_r=4, n_u=4, num_scatter=1, m=3, n_s=5)
    trials = 100_000
    acc = np.zeros((3, 3), dtype=complex)
    sq_acc = np.zeros((3, 3))
    for t in range(trials):
        s = sample_symbols(dims, t, seed=1)
        gram = s @ s.conj().T
        acc += gram
        sq_acc += np.abs(gram) ** 2
    mean = acc / trials
    se = np.sqrt(np.maximum(sq_acc / trials - np.abs(mean) ** 2, 0.0) / trials)
    assert np.all(np.abs(mean - np.eye(3)) <= 3.0 * se + 1e-12)


def test_scalar_symbol_unit_power():
    dims = SystemDims(n_t=1, n_r=1, n_u=1, num_scatter=1, m=1, n_s=1)
    values = np.array(
        [abs(sample_symbols(dims, t, seed=0)[0, 0]) ** 2 for t in range(100_000)]
    )
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - 1.0) <= 3.0 * se


def test_symbols_are_deterministic():
    dims = SystemDims(n_t=2, n_r=2, n_u=2, num_scatter=1, m=2, n_s=3)
    assert np.array_equal(sample_symbols(dims, 5, seed=9), sample_symbols(dims, 5, seed=9))


def test_symbols_reject_a_non_integral_seed():
    dims = SystemDims(n_t=2, n_r=2, n_u=2, num_scatter=1, m=2, n_s=3)
    with pytest.raises(ValueError, match=r"seed must be an integer, got 7\.9"):
        sample_symbols(dims, 0, seed=7.9)
    assert np.array_equal(sample_symbols(dims, 5, seed=9.0), sample_symbols(dims, 5, seed=9))


def test_a_non_integral_trial_index_is_refused():
    # a fractional trial index is refused, not truncated to the trial below it
    dims = SystemDims(n_t=2, n_r=2, n_u=2, num_scatter=1, m=2, n_s=3)
    stats = generate_scenario(dims, 1.0, seed=3)
    with pytest.raises(ValueError, match=r"trial must be an integer, got 2\.5"):
        sample_symbols(dims, 2.5, seed=1)
    with pytest.raises(ValueError, match=r"trial must be an integer, got 2\.5"):
        sample_channels(stats, 2.5)
    assert np.array_equal(sample_symbols(dims, 2.0, seed=1), sample_symbols(dims, 2, seed=1))
    (h_float, g_float), (h_int, g_int) = sample_channels(stats, 2.0), sample_channels(stats, 2)
    assert np.array_equal(h_float, h_int)
    assert all(np.array_equal(x, y) for x, y in zip(g_float, g_int))


@pytest.mark.parametrize(
    "call",
    [
        lambda s, bf, noise, trials: estimate(s, bf, noise, "mi_c", trials),
        lambda s, bf, noise, trials: mi_curves(s, bf, [noise], trials),
        lambda s, bf, noise, trials: eigen_ecdf(s, bf, noise, "comm", trials),
    ],
    ids=["estimate", "mi_curves", "eigen_ecdf"],
)
def test_a_non_integer_trial_count_is_refused(call, scenario4, beamformer4):
    # a float count is refused up front, not left to fail inside range()
    with pytest.raises(ValueError, match=r"trials must be an integer, got 3\.0"):
        call(scenario4, beamformer4, NoiseConfig(10.0), 3.0)


def test_finite_mi_sensing_trivials():
    bf = Beamformer(np.zeros((2, 2)), 1.0)
    s = np.eye(2, dtype=complex)
    assert finite_mi_sensing([np.eye(2)], s, bf, 1.0) == 0.0
    # scalar case: g = 1, s = 1, sigma2 = 1 -> log 2
    one = Beamformer(np.array([[1.0]]), 1.0)
    value = finite_mi_sensing([np.array([[1.0]])], np.array([[1.0]]), one, 1.0)
    assert abs(value - math.log(2.0)) < 1e-14


def test_finite_mi_sensing_ordering_identity(scenario4, beamformer4):
    _, g_list = sample_channels(scenario4, 3)
    s = sample_symbols(scenario4.dims, 3, seed=scenario4.seed)
    sigma2 = 0.4
    direct = finite_mi_sensing(g_list, s, beamformer4, sigma2)
    g_hat_s = np.vstack([g @ beamformer4.w for g in g_list]) @ s
    other = np.linalg.slogdet(
        np.eye(s.shape[1]) + g_hat_s.conj().T @ g_hat_s / sigma2
    )[1]
    assert abs(direct - other) <= 1e-9 * abs(other)


def test_finite_mi_comm_trivials():
    assert finite_mi_comm(np.eye(3), Beamformer(np.zeros((3, 3)), 1.0), 1.0) == 0.0
    value = finite_mi_comm(np.eye(3), Beamformer(np.eye(3), 3.0), 1.0)
    assert abs(value - 3.0 * math.log(2.0)) < 1e-12


def test_finite_mi_comm_sylvester_identity(scenario4, beamformer4):
    h_c, _ = sample_channels(scenario4, 4)
    sigma2 = 0.7
    direct = finite_mi_comm(h_c, beamformer4, sigma2)
    hw = h_c @ beamformer4.w
    other = np.linalg.slogdet(np.eye(4) + hw.conj().T @ hw / sigma2)[1]
    assert abs(direct - other) <= 1e-9 * abs(other)


def test_estimate_pure_los_comm_has_zero_variance(dims4):
    stats = generate_scenario(dims4, float("inf"), seed=8)
    bf = default_beamformer(dims4, 4.0)
    noise = NoiseConfig(10.0)
    est = estimate(stats, bf, noise, "mi_c", trials=16)
    assert est.std_error == 0.0
    assert abs(est.mean - finite_mi_comm(stats.comm.mean, bf, noise.sigma_c2)) < 1e-12


def test_estimate_matches_fixed_point_resolvent(scenario16, beamformer16):
    # asymptotic-regime cross-check; at tiny N the resolvent is edge-dominated
    noise = NoiseConfig(0.0)
    est = estimate(scenario16, beamformer16, noise, "resolvent_c", trials=800)
    fp = solve_comm(scenario16, beamformer16, SpectralPoint(-noise.sigma_c2))
    assert abs(cauchy_comm(fp) - est.mean) / abs(est.mean) < 0.02


def test_estimate_relative_error_at_headline_scale(scenario16, beamformer16):
    noise = NoiseConfig(10.0)
    mc_s, _ = mi_curves(scenario16, beamformer16, [noise], trials=10_000)
    assert mc_s[0].std_error / mc_s[0].mean < 0.01


def _full_side_resolvent(a: np.ndarray, sigma2: float) -> float:
    """-(1/n) Tr (A A' + sigma2 I)^-1: the resolvent trace at w = -sigma2 on the
    full n x n side of the Gram matrix."""
    n = a.shape[0]
    return -float(np.trace(np.linalg.inv(a @ a.conj().T + sigma2 * np.eye(n))).real) / n


@pytest.mark.parametrize(
    "dims",
    [
        SystemDims(n_t=4, n_r=4, n_u=4, num_scatter=2, m=3, n_s=5),  # L n_r > n_s
        SystemDims(n_t=4, n_r=2, n_u=3, num_scatter=2, m=3, n_s=6),  # L n_r < n_s
        SystemDims(n_t=4, n_r=3, n_u=5, num_scatter=1, m=2, n_s=4),  # n_u > m
    ],
    ids=["tall-sensing", "wide-sensing", "tall-comm"],
)
@pytest.mark.parametrize("trials", [_BLOCK + 1, 2 * _BLOCK + 3])
def test_estimate_matches_public_finite_mi(dims, trials):
    # the block path against a per-trial loop of the public MIs and full-side traces
    stats = generate_scenario(dims, 1.0, seed=5)
    bf = default_beamformer(dims, float(dims.m))
    noise = NoiseConfig(5.0)
    ref = {q: [] for q in ("mi_s", "mi_c", "resolvent_s", "resolvent_c")}
    for t in range(trials):
        h_c, g_list = sample_channels(stats, t)
        s = sample_symbols(dims, t, seed=stats.seed)
        ref["mi_s"].append(finite_mi_sensing(g_list, s, bf, noise.sigma_s2))
        ref["mi_c"].append(finite_mi_comm(h_c, bf, noise.sigma_c2))
        a_s = np.vstack([g @ bf.w for g in g_list]) @ s
        ref["resolvent_s"].append(_full_side_resolvent(a_s, noise.sigma_s2))
        ref["resolvent_c"].append(_full_side_resolvent(h_c @ bf.w, noise.sigma_c2))
    for quantity, values in ref.items():
        est = estimate(stats, bf, noise, quantity, trials=trials)
        assert est.trials == trials
        assert abs(est.mean - np.mean(values)) <= 1e-12 * abs(np.mean(values)), quantity
    for branch, n in (("sensing", dims.num_scatter * dims.n_r), ("comm", dims.n_u)):
        assert len(eigen_ecdf(stats, bf, noise, branch, trials).eigenvalues) == trials * n


def test_estimate_rejects_bad_args(scenario4, beamformer4):
    with pytest.raises(ValueError):
        estimate(scenario4, beamformer4, NoiseConfig(0.0), "mi_s", trials=1)
    with pytest.raises(ValueError, match="unknown quantity"):
        estimate(scenario4, beamformer4, NoiseConfig(0.0), "nope", trials=4)


def test_mi_curves_agree_with_per_snr_estimates(scenario4, beamformer4):
    grid = [NoiseConfig(0.0), NoiseConfig(10.0)]
    mc_s, mc_c = mi_curves(scenario4, beamformer4, grid, trials=50)
    for noise, ref_s, ref_c in zip(grid, mc_s, mc_c):
        est_s = estimate(scenario4, beamformer4, noise, "mi_s", trials=50)
        est_c = estimate(scenario4, beamformer4, noise, "mi_c", trials=50)
        assert abs(ref_s.mean - est_s.mean) < 1e-12
        assert abs(ref_c.mean - est_c.mean) < 1e-12


def test_eigen_ecdf_zero_channel(dims4):
    stats = zero_scenario(dims4)
    bf = default_beamformer(dims4, 4.0)
    ecdf = eigen_ecdf(stats, bf, NoiseConfig(0.0), "sensing", trials=3)
    assert np.allclose(ecdf.eigenvalues, 0.0, atol=1e-12)
    assert ecdf(0.0) == 1.0


def test_eigen_ecdf_shape_properties(scenario4, beamformer4):
    ecdf = eigen_ecdf(scenario4, beamformer4, NoiseConfig(0.0), "comm", trials=5)
    xs = np.linspace(ecdf.eigenvalues.min() - 1.0, ecdf.eigenvalues.max() + 1.0, 50)
    values = ecdf(xs)
    assert np.all(np.diff(values) >= 0.0)
    assert ecdf(float(ecdf.eigenvalues.max())) == 1.0
    assert ecdf(float(ecdf.eigenvalues.min()) - 1e-9) < 1.0


def test_ecdf_integral_equals_mean_finite_mi(scenario4, beamformer4):
    noise = NoiseConfig(10.0)
    trials = 40
    ecdf = eigen_ecdf(scenario4, beamformer4, noise, "sensing", trials=trials)
    integral = np.log1p(np.clip(ecdf.eigenvalues, 0.0, None) / noise.sigma_s2).mean()
    est = estimate(scenario4, beamformer4, noise, "mi_s", trials=trials)
    ln_r = scenario4.dims.num_scatter * scenario4.dims.n_r
    assert abs(integral - est.mean / ln_r) <= 1e-9 * abs(integral)


def test_ecdf_keeps_the_structural_zeros_exact(scenario4, beamformer4):
    # the sensing Gram is 8 x 8 of rank m = n_s = 4: half of every trial's spectrum
    # is the structural zero, which the full side returns as +-1e-14 roundoff
    dims = scenario4.dims
    assert dims.m >= min(dims.num_scatter * dims.n_r, dims.n_s)
    ecdf = eigen_ecdf(scenario4, beamformer4, NoiseConfig(0.0), "sensing", trials=200)
    assert ecdf.eigenvalues.min() == 0.0
    assert ecdf(0.0) == 0.5


def test_eigvalsh_never_sees_more_than_one_block(scenario4, beamformer4, monkeypatch):
    # the stacked Gram matrices of a run are held one block at a time
    original = np.linalg.eigvalsh
    leading = []

    def recording(a, *args, **kwargs):
        assert np.ndim(a) == 3
        leading.append(np.shape(a)[0])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    trials = 10 * _BLOCK
    mc_s, mc_c = mi_curves(scenario4, beamformer4, [NoiseConfig(10.0)], trials)
    assert mc_s[0].trials == mc_c[0].trials == trials
    assert sum(leading) == 2 * trials and max(leading) <= _BLOCK
