import json
import math

import numpy as np
import pytest

from isac_mi import (
    Beamformer,
    DimensionError,
    GeometryConfig,
    NoiseConfig,
    SystemDims,
    WeichselbergerStats,
    default_beamformer,
    effective_los,
    generate_scenario,
    project,
    scenario_from_json,
    scenario_to_json,
    upa_steering,
    validate,
)
from helpers import draw_channel_fluctuations


def test_validate_accepts_headline_dims():
    validate(SystemDims(n_t=16, n_r=16, n_u=16, num_scatter=2, m=16, n_s=16))


def test_validate_rejects_more_streams_than_antennas():
    with pytest.raises(DimensionError, match="M exceeds N_t"):
        SystemDims(n_t=4, n_r=4, n_u=4, num_scatter=1, m=8, n_s=4)


def test_validate_accepts_minimal_instance():
    validate(SystemDims(n_t=1, n_r=1, n_u=1, num_scatter=1, m=1, n_s=1))


@pytest.mark.parametrize("bad", [0, -1, True, False])
def test_validate_rejects_nonpositive_counts(bad):
    with pytest.raises(DimensionError):
        SystemDims(n_t=4, n_r=bad, n_u=4, num_scatter=1, m=2, n_s=4)


def test_upa_single_element_is_one():
    assert np.allclose(upa_steering(1, 1, 0.3, -0.2), [1.0])


def test_upa_broadside_is_all_ones():
    assert np.allclose(upa_steering(2, 2, 0.0, 0.0), np.ones(4))


def test_upa_phases_match_hand_formula():
    az, el = math.pi / 6, math.pi / 8
    a = upa_steering(4, 4, az, el)
    assert abs(np.linalg.norm(a) ** 2 - 16.0) < 1e-12
    # independent elementwise reconstruction of the half-wavelength phase model
    expected = []
    for p in range(4):
        for q in range(4):
            phase = math.pi * (p * math.sin(el) + q * math.cos(el) * math.sin(az))
            expected.append(complex(math.cos(phase), math.sin(phase)))
    assert np.allclose(a, expected, atol=1e-14)


def test_generate_scenario_is_deterministic(dims4):
    a = generate_scenario(dims4, 1.0, seed=5)
    b = generate_scenario(dims4, 1.0, seed=5)
    assert np.array_equal(a.comm.mean, b.comm.mean)
    assert np.array_equal(a.comm.variance_profile, b.comm.variance_profile)
    for sa, sb in zip(a.sensing, b.sensing):
        assert np.array_equal(sa.mean, sb.mean)
        assert np.array_equal(sa.left_unitary, sb.left_unitary)


def test_generate_scenario_infinite_kappa_is_pure_los(dims4):
    stats = generate_scenario(dims4, float("inf"), seed=5)
    assert np.all(stats.comm.variance_profile == 0.0)
    assert all(np.all(s.variance_profile == 0.0) for s in stats.sensing)


def test_generate_scenario_rejects_bad_kappa(dims4):
    for bad in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="kappa"):
            generate_scenario(dims4, bad, seed=1)


def test_power_split_identity(dims4):
    # (1/n_t) sum profile^2 == ||mean||_F^2 / kappa after rescaling
    for kappa in (0.5, 1.0, 3.0):
        stats = generate_scenario(dims4, kappa, seed=9)
        for ch in (stats.comm, *stats.sensing):
            lhs = np.sum(ch.variance_profile**2) / dims4.n_t
            rhs = np.linalg.norm(ch.mean) ** 2 / kappa
            assert abs(lhs - rhs) <= 1e-10 * rhs


def test_random_part_power_matches_profile_mc(dims4):
    # E||Htilde||_F^2 == (1/n_t) sum profile^2, sampled over 1e5 draws
    stats = generate_scenario(dims4, 1.0, seed=9)
    rng = np.random.default_rng(0)
    draws = draw_channel_fluctuations(stats.comm, dims4.n_t, 100_000, rng)
    powers = np.sum(np.abs(draws) ** 2, axis=(1, 2))
    target = np.sum(stats.comm.variance_profile**2) / dims4.n_t
    se = powers.std(ddof=1) / math.sqrt(len(powers))
    assert abs(powers.mean() - target) <= 3.0 * se


@pytest.mark.parametrize("seed", range(5))
def test_generated_stats_satisfy_invariants(dims4, seed):
    stats = generate_scenario(dims4, 1.0, seed=seed)
    for ch in (stats.comm, *stats.sensing):
        for u in (ch.left_unitary, ch.right_unitary):
            assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) < 1e-10
        assert ch.variance_profile.min() >= 0.0


def test_default_beamformer_square_case():
    dims = SystemDims(n_t=4, n_r=4, n_u=4, num_scatter=1, m=4, n_s=4)
    bf = default_beamformer(dims, 4.0)
    assert np.allclose(bf.w, np.eye(4))


def test_default_beamformer_tall_case():
    dims = SystemDims(n_t=8, n_r=4, n_u=4, num_scatter=1, m=4, n_s=4)
    bf = default_beamformer(dims, 8.0)
    assert np.allclose(bf.w[:4], math.sqrt(2.0) * np.eye(4))
    assert np.all(bf.w[4:] == 0.0)
    assert abs(bf.power - 8.0) < 1e-12


def test_default_beamformer_power_is_exact(dims4):
    for p_t in (0.5, 4.0, 16.0):
        assert abs(default_beamformer(dims4, p_t).power - p_t) < 1e-12


def test_effective_los_zero_beamformer(scenario4, dims4):
    g_eff, h_eff, _ = effective_los(scenario4, Beamformer(np.zeros((4, 4)), 4.0))
    assert np.all(g_eff == 0.0) and np.all(h_eff == 0.0)


def test_effective_los_identity_case():
    dims = SystemDims(n_t=3, n_r=3, n_u=3, num_scatter=1, m=3, n_s=3)
    ch = WeichselbergerStats(np.eye(3), np.eye(3), np.eye(3), np.zeros((3, 3)))
    from isac_mi import ScenarioStats

    stats = ScenarioStats(dims, ch, (ch,), float("inf"), 0)
    g_eff, _, _ = effective_los(stats, Beamformer(np.eye(3), 3.0))
    assert np.allclose(g_eff, np.eye(3))


def test_effective_los_matches_stack_then_multiply(scenario4, beamformer4):
    g_eff, h_eff, g_raw = effective_los(scenario4, beamformer4)
    manual = np.vstack([s.mean for s in scenario4.sensing])
    assert np.allclose(g_raw, manual)
    assert np.allclose(g_eff, manual @ beamformer4.w, atol=1e-14)
    assert np.allclose(h_eff, scenario4.comm.mean @ beamformer4.w, atol=1e-14)


def test_scenario_json_roundtrip_is_bit_identical(scenario4):
    text = scenario_to_json(scenario4)
    back = scenario_from_json(text)
    assert np.array_equal(back.comm.mean, scenario4.comm.mean)
    assert np.array_equal(back.comm.left_unitary, scenario4.comm.left_unitary)
    assert np.array_equal(back.comm.variance_profile, scenario4.comm.variance_profile)
    for a, b in zip(back.sensing, scenario4.sensing):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.right_unitary, b.right_unitary)
    assert back.rician_kappa == scenario4.rician_kappa
    assert back.seed == scenario4.seed
    # serializing again reproduces the same bytes
    assert scenario_to_json(back) == text


def test_weichselberger_invariants_are_enforced():
    with pytest.raises(ValueError, match="not unitary"):
        WeichselbergerStats(np.zeros((2, 2)), 2.0 * np.eye(2), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="negative"):
        WeichselbergerStats(np.zeros((2, 2)), np.eye(2), np.eye(2), -np.ones((2, 2)))
    with pytest.raises(DimensionError):
        WeichselbergerStats(np.zeros((2, 3)), np.eye(2), np.eye(3), np.zeros((3, 2)))


def test_beamformer_power_budget_is_enforced():
    with pytest.raises(ValueError, match="infeasible"):
        Beamformer(2.0 * np.eye(2), 1.0)
    Beamformer(np.eye(2) * math.sqrt(0.5), 1.0)  # feasible
    # NaN > p_t is False, so the budget test alone would pass a NaN matrix
    with pytest.raises(ValueError, match="finite"):
        Beamformer(np.full((2, 2), np.nan), 1.0)
    with pytest.raises(ValueError, match="finite"):
        Beamformer(np.array([[np.inf, 0.0], [0.0, 0.0]]), 1.0)
    dims = SystemDims(n_t=2, n_r=2, n_u=2, num_scatter=1, m=2, n_s=2)
    for p_t in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="finite and positive"):
            Beamformer(np.eye(2), p_t)
        with pytest.raises(ValueError, match="finite and positive"):
            default_beamformer(dims, p_t)  # sqrt(inf / m) * 0 would put NaN off the diagonal
        with pytest.raises(ValueError, match="finite and positive"):
            project(np.eye(2), p_t)


def test_power_budget_tolerance_scales_with_the_budget():
    # at large p_t the rounding of ||W||_F^2 exceeds any absolute tolerance, so the
    # library's own points (default beamformer, projection) must stay feasible
    rejected = []
    for m in range(1, 17):
        dims = SystemDims(n_t=16, n_r=1, n_u=1, num_scatter=1, m=m, n_s=m)
        for k in range(81):  # p_t = 1e6 ... 1e14 in 0.1-decade steps
            try:
                default_beamformer(dims, 10.0 ** (6 + k / 10))
            except ValueError:
                rejected.append((m, k))
    rng = np.random.default_rng(5)
    for i in range(2000):
        z = 1e6 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        try:
            Beamformer(project(z, 1e8), 1e8)
        except ValueError:
            rejected.append(i)
    assert not rejected, rejected
    for p_t in (1.0, 1e8, 1e300):
        with pytest.raises(ValueError, match="infeasible"):
            Beamformer(np.array([[math.sqrt(p_t * (1.0 + 1e-6))]]), p_t)
    with pytest.raises(ValueError, match="infeasible"):
        Beamformer(np.array([[math.sqrt(1e-3 + 2e-9)]]), 1e-3)  # no looser than 1e-9 below p_t = 1


@pytest.mark.parametrize("seed", [7.9, 0.5, math.nan, math.inf, "7", True, False, np.True_])
def test_generate_scenario_rejects_a_non_integral_seed(dims4, seed):
    with pytest.raises(ValueError, match=r"seed must be an integer, got"):
        generate_scenario(dims4, 1.0, seed=seed)


def test_scenario_json_rejects_a_non_integral_seed(scenario4):
    doc = json.loads(scenario_to_json(scenario4))
    doc["seed"] = 7.9
    with pytest.raises(ValueError, match=r"seed must be an integer, got 7\.9"):
        scenario_from_json(json.dumps(doc))


def test_generate_scenario_takes_integral_seeds_of_any_type(dims4):
    reference = scenario_to_json(generate_scenario(dims4, 1.0, seed=7))
    for seed in (7.0, np.int64(7)):
        stats = generate_scenario(dims4, 1.0, seed=seed)
        assert type(stats.seed) is int and scenario_to_json(stats) == reference


def test_noise_config_snr_mapping():
    noise = NoiseConfig(snr_bs_db=10.0)
    assert abs(noise.sigma_c2 - 0.1) < 1e-15
    assert abs(noise.sigma_s2 - 10.0) < 1e-12  # 20 dB offset: sensing SNR is -10 dB
    assert NoiseConfig(0.0, sensing_offset_db=0.0).sigma_s2 == 1.0
    assert 0.0 < NoiseConfig(3100.0).sigma_c2 < 1e-300  # subnormal, still positive


@pytest.mark.parametrize(
    "snr, offset", [(4000.0, 20.0), (-4000.0, 20.0), (10.0, -4000.0), (10.0, 4000.0)]
)
def test_noise_config_rejects_noise_powers_that_under_or_overflow(snr, offset):
    with pytest.raises(ValueError, match="noise powers must be finite and positive"):
        NoiseConfig(snr, offset)


def test_geometry_rejects_negative_spread():
    with pytest.raises(ValueError):
        GeometryConfig(scatter_spread=-0.1)


@pytest.mark.parametrize(
    "geometry",
    [
        {"scatter_spread": math.inf},
        {"scatter_spread": math.nan},
        {"target_center": (0.1, 0.2, 0.3)},
        {"target_center": ()},
        {"target_center": (math.nan, 0.2)},
        {"comm_departure": (0.1, 0.2, 0.3)},
        {"comm_arrival": (-math.inf, 0.2)},
    ],
)
def test_geometry_requires_finite_direction_pairs_and_spread(geometry):
    # each once reached the scenario draw: an OverflowError, an unpack error,
    # a LinAlgError or a silently dropped third entry
    with pytest.raises(ValueError, match="finite"):
        GeometryConfig(**geometry)
