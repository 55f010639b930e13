import numpy as np
import pytest

from isac_mi import Beamformer, ScenarioStats, SystemDims, WeichselbergerStats, generate_scenario
from isac_mi.correlation import CorrelationOps
from helpers import (
    check_operator_linearity,
    check_operator_mc_consistency,
    check_operator_positivity,
    check_trace_duality,
    draw_channel_fluctuations,
    mc_matches,
    random_hermitian,
)

# non-square dims exercise every shape path
DIMS = SystemDims(n_t=4, n_r=3, n_u=5, num_scatter=2, m=3, n_s=4)


@pytest.fixture(scope="module")
def stats():
    return generate_scenario(DIMS, rician_kappa=1.0, seed=21)


@pytest.fixture(scope="module")
def ops(stats):
    return CorrelationOps(stats)


def _ones_profile_stats() -> ScenarioStats:
    """Identity eigenbases and all-ones profiles, for hand-checkable values."""
    dims = SystemDims(n_t=4, n_r=3, n_u=5, num_scatter=1, m=3, n_s=4)
    comm = WeichselbergerStats(np.zeros((5, 4)), np.eye(5), np.eye(4), np.ones((5, 4)))
    sens = WeichselbergerStats(np.zeros((3, 4)), np.eye(3), np.eye(4), np.ones((3, 4)))
    return ScenarioStats(dims, comm, (sens,), 1.0, 0)


def test_eta_of_zero_is_zero(ops):
    assert np.all(ops.eta(0, np.zeros((3, 3))) == 0.0)
    assert np.all(ops.eta_tilde(1, np.zeros((4, 4))) == 0.0)
    assert np.all(ops.tau(np.zeros((5, 5))) == 0.0)


def test_eta_all_ones_profile_identity_bases():
    ops = CorrelationOps(_ones_profile_stats())
    # Pi diagonal entries all equal n_r, scaled by 1/n_t
    assert np.allclose(ops.eta(0, np.eye(3)), (3.0 / 4.0) * np.eye(4), atol=1e-14)
    # Pi~ entries all equal n_t, scaled by 1/n_t
    assert np.allclose(ops.eta_tilde(0, np.eye(4)), np.eye(3), atol=1e-14)
    assert np.allclose(ops.tau(np.eye(5)), (5.0 / 4.0) * np.eye(4), atol=1e-14)
    assert np.allclose(ops.tau_tilde(np.eye(4)), np.eye(5), atol=1e-14)


def test_eta_matches_monte_carlo(stats, ops):
    rng = np.random.default_rng(3)
    c = random_hermitian(DIMS.n_r, rng)
    g = draw_channel_fluctuations(stats.sensing[0], DIMS.n_t, 100_000, rng)
    samples = np.einsum("sji,jk,skl->sil", g.conj(), c, g)
    assert mc_matches(samples, ops.eta(0, c))


def test_eta_tilde_matches_monte_carlo(stats, ops):
    rng = np.random.default_rng(4)
    c = random_hermitian(DIMS.n_t, rng)
    g = draw_channel_fluctuations(stats.sensing[1], DIMS.n_t, 100_000, rng)
    samples = np.einsum("sij,jk,slk->sil", g, c, g.conj())
    assert mc_matches(samples, ops.eta_tilde(1, c))


def test_tau_pair_matches_monte_carlo(stats, ops):
    rng = np.random.default_rng(5)
    h = draw_channel_fluctuations(stats.comm, DIMS.n_t, 100_000, rng)
    e = random_hermitian(DIMS.n_u, rng)
    samples = np.einsum("sji,jk,skl->sil", h.conj(), e, h)
    assert mc_matches(samples, ops.tau(e))
    e_t = random_hermitian(DIMS.n_t, rng)
    samples = np.einsum("sij,jk,slk->sil", h, e_t, h.conj())
    assert mc_matches(samples, ops.tau_tilde(e_t))


def test_beamformed_variants_trivials(stats, ops):
    rng = np.random.default_rng(6)
    c = random_hermitian(DIMS.n_r, rng)
    zero_w = Beamformer(np.zeros((4, 3)), 1.0)
    assert np.all(ops.eta_w(0, c, zero_w) == 0.0)
    assert np.all(ops.tau_w(random_hermitian(5, rng), zero_w) == 0.0)

    # square case: W = I reduces to the unbeamformed operator
    dims = SystemDims(n_t=4, n_r=3, n_u=5, num_scatter=1, m=4, n_s=4)
    stats_sq = generate_scenario(dims, 1.0, seed=2)
    ops_sq = CorrelationOps(stats_sq)
    eye_w = Beamformer(np.eye(4), 4.0)
    c2 = random_hermitian(3, rng)
    assert np.allclose(ops_sq.eta_w(0, c2, eye_w), ops_sq.eta(0, c2), atol=1e-13)
    c3 = random_hermitian(4, rng)
    assert np.allclose(ops_sq.eta_tilde_w(0, c3, eye_w), ops_sq.eta_tilde(0, c3), atol=1e-13)


def test_eta_w_matches_monte_carlo(stats, ops):
    rng = np.random.default_rng(7)
    w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    w_bf = Beamformer(w, float(np.linalg.norm(w) ** 2) + 1.0)
    c = random_hermitian(DIMS.n_r, rng)
    g = draw_channel_fluctuations(stats.sensing[0], DIMS.n_t, 100_000, rng)
    gw = np.einsum("sij,jk->sik", g, w)
    samples = np.einsum("sji,jk,skl->sil", gw.conj(), c, gw)
    assert mc_matches(samples, ops.eta_w(0, c, w_bf))


def test_linearity(ops):
    check_operator_linearity(ops, np.random.default_rng(8))


def test_positivity(ops):
    check_operator_positivity(ops, np.random.default_rng(9))


def test_trace_duality(ops):
    check_trace_duality(ops, np.random.default_rng(10))


def test_full_mc_consistency_suite(stats):
    check_operator_mc_consistency(stats, np.random.default_rng(12))


def test_outputs_are_hermitian(ops):
    rng = np.random.default_rng(11)
    outs = [
        ops.eta(0, random_hermitian(3, rng)),
        ops.eta_tilde(0, random_hermitian(4, rng)),
        ops.tau(random_hermitian(5, rng)),
        ops.tau_tilde(random_hermitian(4, rng)),
    ]
    for out in outs:
        assert np.linalg.norm(out - out.conj().T) < 1e-12


def test_non_hermitian_input_is_rejected(ops):
    bad = np.eye(3) + 1e-6 * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        ops.eta(0, bad)


def test_shape_mismatch_is_rejected(ops):
    with pytest.raises(ValueError, match="expects"):
        ops.eta(0, np.eye(4))  # eta takes n_r x n_r = 3 x 3
    with pytest.raises(ValueError, match="expects"):
        ops.eta_tilde_w(0, np.eye(4), Beamformer(np.eye(4, 3), 3.0))  # takes m x m = 3 x 3
