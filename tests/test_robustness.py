"""Cold weighted-MI solves over the reachable parameter grid.

270 points: three shapes (square headline, wide non-square, m < n_t), L in
{1, 2, 4}, n_s in {m, 4m}, kappa from near-Rayleigh to pure LoS and SNR from
-20 to 40 dB, each with the default beamformer on scenario seed 7.  Every
point must converge to a fixed point with the resolvent sign structure and
self-consistent stored equations.  A few of these points also check that the
MIs are stationary in the solver residual, the derivative identity and the
closed form against Monte Carlo, and that the solved state meets its equations
evaluated in extended precision.  On every shape and L the iterates' eigenbasis
right-hand side, rotated back, must equal the direct form of the equations.
"""

import itertools
import math

import numpy as np
import pytest

from isac_mi import (
    ConvergenceError,
    NoiseConfig,
    SingularMatrixError,
    SolverOptions,
    SpectralPoint,
    SystemDims,
    default_beamformer,
    derivative_identity_check,
    generate_scenario,
    mi_curves,
    residual_comm,
    residual_sensing,
    solve_comm,
    solve_sensing,
    weighted_mi,
)
from isac_mi.fixedpoint import _cold_start, _comm_system, _iterate, _sensing_system

_SHAPES = ((16, 16, 16, 16), (32, 16, 8, 8), (16, 8, 12, 6))  # (n_t, n_r, n_u, m)


def _point(shape, num_scatter, n_s, kappa, snr_db):
    """One grid point as a pytest param with a readable id."""
    return pytest.param(
        shape, num_scatter, n_s, kappa, snr_db,
        id=f"{'/'.join(map(str, shape[:3]))},m={shape[3]},L={num_scatter},"
        f"n_s={n_s},kappa={kappa:g},snr={snr_db:g}dB",
    )


def _setup(shape, num_scatter, n_s, kappa, snr_db):
    """(scenario on seed 7, default beamformer, noise) of one grid point."""
    n_t, n_r, n_u, m = shape
    dims = SystemDims(n_t=n_t, n_r=n_r, n_u=n_u, num_scatter=num_scatter, m=m, n_s=n_s)
    return (
        generate_scenario(dims, kappa, seed=7),
        default_beamformer(dims, float(n_t)),
        NoiseConfig(snr_db),
    )


_GRID = [
    _point(shape, num_scatter, n_s_factor * shape[3], kappa, snr_db)
    for shape, num_scatter, n_s_factor, kappa, snr_db in itertools.product(
        _SHAPES, (1, 2, 4), (1, 4), (0.05, 1.0, math.inf), (-20.0, 0.0, 20.0, 30.0, 40.0)
    )
]

# high-SNR points of the solve-highsnr bench workload: headline at 40 dB,
# near-Rayleigh with L = 4, and m < n_t
_HARD = [
    _point((16, 16, 16, 16), 2, 16, 1.0, 40.0),
    _point((16, 16, 16, 16), 4, 64, 0.05, 30.0),
    _point((32, 16, 8, 8), 2, 64, 1.0, 30.0),
]

_PARAMS = "shape, num_scatter, n_s, kappa, snr_db"


@pytest.mark.parametrize(_PARAMS, _GRID)
def test_grid_point_converges_to_a_consistent_fixed_point(
    shape, num_scatter, n_s, kappa, snr_db
):
    stats, bf, noise = _setup(shape, num_scatter, n_s, kappa, snr_db)
    _, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.8, return_fixed_points=True)
    assert np.linalg.eigvalsh(-fp_s.g_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp_s.g).min() > -1e-8
    assert fp_s.phi >= 1.0 - 1e-12
    assert np.linalg.eigvalsh(-fp_c.g_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp_c.g).min() > -1e-8
    point_s = SpectralPoint.from_noise_power(noise.sigma_s2)
    point_c = SpectralPoint.from_noise_power(noise.sigma_c2)
    assert residual_sensing(fp_s, stats, bf, point_s) <= 1e-10
    assert residual_comm(fp_c, stats, bf, point_c) <= 1e-10


def _rotated(u: np.ndarray, g_tilde: np.ndarray) -> np.ndarray:
    """The eigenbasis stack U_l' g_tilde_l U_l."""
    return u.conj().swapaxes(-1, -2) @ g_tilde @ u


@pytest.mark.parametrize("num_scatter", [1, 2, 4])
@pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: f"{'/'.join(map(str, s[:3]))},m={s[3]}")
def test_woodbury_rhs_equals_the_direct_resolvents(shape, num_scatter):
    # the iterates' eigenbasis right-hand side, rotated back, against the direct
    # form that the guarded final pass and the residual check evaluate, at the
    # fixed point and at random states inside the sign cone (g > 0, every g_tilde
    # block < 0); the packed distances and residuals do not see the rotation
    from helpers import random_psd

    stats, bf, noise = _setup(shape, num_scatter, 4 * shape[3], 1.0, 30.0)
    _, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.5, return_fixed_points=True)
    rng = np.random.default_rng(num_scatter)
    for make, sigma2, fp in (
        (_sensing_system, noise.sigma_s2, fp_s),
        (_comm_system, noise.sigma_c2, fp_c),
    ):
        system = make(stats, bf, -sigma2)
        m, num, n = system.m, system.num_channels, system.n_rx
        u, packing = system.maps.receive, system.packing
        states = [(fp.g, fp.g_tilde)] + [
            (random_psd(m, rng), -np.stack([random_psd(n, rng) for _ in range(num)]) / sigma2)
            for _ in range(3)
        ]
        for g, g_tilde in states:
            assert system.in_cone(g, g_tilde)
            g_hat = _rotated(u, g_tilde)
            assert system.in_cone(g, g_hat)
            psi_t, pi, _ = system.self_energies(g, g_tilde)
            rhs_g, rhs_g_hat = system.rhs(g, g_hat)
            rotated_back = (rhs_g, u @ rhs_g_hat @ u.conj().swapaxes(-1, -2))
            for got, want in zip(rotated_back, system.resolvents(psi_t, pi)):
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), system.branch
        for (g_a, t_a), (g_b, t_b) in zip(states, states[1:]):
            plain = packing.pack(g_a, t_a), packing.pack(g_b, t_b)
            rotated = packing.pack(g_a, _rotated(u, t_a)), packing.pack(g_b, _rotated(u, t_b))
            distance = np.linalg.norm(plain[0] - plain[1])
            assert abs(np.linalg.norm(rotated[0] - rotated[1]) - distance) <= 1e-13 * distance
            residual = packing.residual(*plain)
            assert abs(packing.residual(*rotated) - residual) <= 1e-13 * residual


def _central_differences(system, x, step):
    """Central differences of the reduced map x -> reduce(*expand(x)) at x, column j
    taken with the step h_j = step * max(|x_j|, sigma^2)."""
    columns = []
    for j in range(x.size):
        h = step * max(abs(x[j]), -system.w)
        up, down = x.copy(), x.copy()
        up[j] += h
        down[j] -= h
        columns.append((system.reduce(*system.expand(up)) - system.reduce(*system.expand(down))) / (2 * h))
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("num_scatter", [1, 2, 4])
@pytest.mark.parametrize("shape", _SHAPES, ids=lambda s: f"{'/'.join(map(str, s[:3]))},m={s[3]}")
def test_reduced_jacobian_matches_central_differences(shape, num_scatter):
    # at the fixed point and at the second Picard iterate from the cold start; with
    # the relative step 1e-5 the central differences are accurate to about its square
    stats, bf, noise = _setup(shape, num_scatter, 4 * shape[3], 1.0, 30.0)
    _, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.5, return_fixed_points=True)
    for make, sigma2, fp in (
        (_sensing_system, noise.sigma_s2, fp_s),
        (_comm_system, noise.sigma_c2, fp_c),
    ):
        system = make(stats, bf, -sigma2)
        cold = (np.eye(system.m), np.broadcast_to(np.eye(system.n_rx) / system.w, system.packing.blocks))
        for g, g_hat in ((fp.g, system.to_eigenbasis(fp.g_tilde)), system.rhs(*system.rhs(*cold))):
            x = system.reduce(g, g_hat)
            jacobian = system.jacobian(x, system.expand(x)[0])
            assert jacobian.shape == (x.size, x.size) == (2 * system.num_channels * system.n_rx + 1,) * 2
            error = np.linalg.norm(jacobian - _central_differences(system, x, 1e-5))
            assert error <= 1e-8 * np.linalg.norm(jacobian), system.branch


@pytest.mark.parametrize(_PARAMS, _HARD)
def test_nearly_unitary_receive_bases_keep_the_equations(shape, num_scatter, n_s, kappa, snr_db):
    # the iterate assumes U_l' U_l = I; receive bases that the scenario validator
    # accepts at ||U'U - I|| = 5e-11 (its bound is 1e-10) still give a solved
    # state whose direct-form residuals meet the tolerance
    import dataclasses

    from isac_mi import ScenarioStats

    stats, bf, noise = _setup(shape, num_scatter, n_s, kappa, snr_db)
    rng = np.random.default_rng(1)

    def skewed(channel):
        n = channel.left_unitary.shape[0]
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = a + a.conj().T
        k *= 2.5e-11 / np.linalg.norm(k)  # U'U - I = 2 eps K + O(eps^2)
        u = channel.left_unitary @ (np.eye(n) + k)
        assert 4e-11 <= np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 6e-11
        return dataclasses.replace(channel, left_unitary=u)

    stats = ScenarioStats(
        stats.dims, skewed(stats.comm), tuple(map(skewed, stats.sensing)),
        stats.rician_kappa, stats.seed,
    )
    _, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.8, return_fixed_points=True)
    point_s = SpectralPoint.from_noise_power(noise.sigma_s2)
    point_c = SpectralPoint.from_noise_power(noise.sigma_c2)
    assert residual_sensing(fp_s, stats, bf, point_s) <= 1e-10
    assert residual_comm(fp_c, stats, bf, point_c) <= 1e-10


@pytest.mark.parametrize(
    _PARAMS,
    [_point((16, 16, 16, 16), 1, 16, 1.0, 20.0), _point((16, 16, 16, 16), 4, 64, 1.0, 0.0)],
)
def test_mi_is_second_order_in_the_solver_residual(shape, num_scatter, n_s, kappa, snr_db):
    # the Shannon transform is stationary at the fixed point, so a solve at the
    # default tolerance gives the MIs of a far tighter solve
    stats, bf, noise = _setup(shape, num_scatter, n_s, kappa, snr_db)
    default = weighted_mi(stats, bf, noise, 0.8)
    tight = weighted_mi(stats, bf, noise, 0.8, SolverOptions(tol=1e-13))
    assert abs(default.i_s - tight.i_s) <= 1e-12 * tight.i_s
    assert abs(default.i_c - tight.i_c) <= 1e-12 * tight.i_c


@pytest.mark.parametrize(_PARAMS, _HARD)
def test_derivative_identity_at_hard_points(shape, num_scatter, n_s, kappa, snr_db):
    # the discrepancy scales with 1/sigma2, so it is gated relative to it
    stats, bf, noise = _setup(shape, num_scatter, n_s, kappa, snr_db)
    for branch, sigma2 in (("sensing", noise.sigma_s2), ("comm", noise.sigma_c2)):
        discrepancy = derivative_identity_check(stats, bf, noise, branch, 1e-4 * sigma2)
        assert sigma2 * discrepancy <= 1e-8, branch


@pytest.mark.parametrize(_PARAMS, _HARD)
def test_closed_form_matches_monte_carlo_at_hard_points(
    shape, num_scatter, n_s, kappa, snr_db
):
    stats, bf, noise = _setup(shape, num_scatter, n_s, kappa, snr_db)
    report = weighted_mi(stats, bf, noise, 0.8)
    mc_s, mc_c = mi_curves(stats, bf, [noise], trials=2000)
    assert abs(report.i_s - mc_s[0].mean) / mc_s[0].mean < 0.02
    assert abs(report.i_c - mc_c[0].mean) / mc_c[0].mean < 0.02


# the grid's shapes, L, n_s and kappa at 50, 60 and 70 dB: 162 points, 324 solves
_ABOVE_40_DB = list(
    itertools.product(_SHAPES, (1, 2, 4), (1, 4), (0.05, 1.0, math.inf), (50.0, 60.0, 70.0))
)
# 300 of the 324 solves converge, at max_iter 500 and at the default 5,000 alike
_ABOVE_40_DB_CONVERGED = 300


def _converges_consistently(solve, residual, stats, bf, sigma2, kappa, opts) -> bool:
    """Whether one solve converges (to a state that meets its own test, the sign
    structure and, except at pure LoS, the direct-form residual); False when it
    raises a named ConvergenceError or SingularMatrixError."""
    point = SpectralPoint.from_noise_power(sigma2)
    try:
        fp = solve(stats, bf, point, opts)
    except ConvergenceError as err:
        assert err.branch in ("sensing", "comm") and len(err.history) == err.iterations + 1
        return False
    except SingularMatrixError as err:
        assert err.context
        return False
    assert fp.residual <= opts.tol
    assert np.linalg.eigvalsh(-fp.g_tilde).min() > -1e-8
    assert np.linalg.eigvalsh(fp.g).min() > -1e-8
    direct = residual(fp, stats, bf, point)
    assert math.isfinite(direct)
    if math.isfinite(kappa):
        assert direct <= 1e-10
    return True


def test_solves_above_40_db_converge_or_fail_by_name():
    # the direct-form residual is not asserted at pure LoS, where the Woodbury
    # g_tilde update cancels above 40 dB (65 solves read up to 8.8e-8 today).  The
    # budget of 500 gives the outcomes of the default 5,000: every converging solve
    # takes at most 190 evaluations, counting only the zero-channel re-solve of the
    # four comm points of `_FALLBACK_ONLY`; a budget of 5,000 would add seconds.  The
    # uplink channel and the default beamformer do not depend on L or n_s, so each
    # comm solve runs once and counts for its six points.
    opts = SolverOptions(max_iter=500)
    converged, comm = 0, {}
    for shape, num_scatter, n_s_factor, kappa, snr_db in _ABOVE_40_DB:
        stats, bf, noise = _setup(shape, num_scatter, n_s_factor * shape[3], kappa, snr_db)
        converged += _converges_consistently(
            solve_sensing, residual_sensing, stats, bf, noise.sigma_s2, kappa, opts
        )
        key = (shape, kappa, snr_db)
        if key not in comm:
            outcome = _converges_consistently(
                solve_comm, residual_comm, stats, bf, noise.sigma_c2, kappa, opts
            )
            comm[key] = (stats.comm.mean, outcome)
        assert np.array_equal(comm[key][0], stats.comm.mean)
        converged += comm[key][1]
    assert converged >= _ABOVE_40_DB_CONVERGED


@pytest.mark.parametrize(
    _PARAMS,
    [_point((16, 16, 16, 16), 1, 16, 0.05, 60.0), _point((16, 16, 16, 16), 1, 16, 0.05, 70.0)],
)
def test_stalling_sensing_solves_converge_within_the_default_budget(
    shape, num_scatter, n_s, kappa, snr_db
):
    # from the zero-channel start Anderson stalls on these two solves for over 100
    # iterations (302 and 3,028 evaluations), and a driver that switched to damped
    # Picard there spent all 5,000 and failed; from the surrogate's start they take
    # 7 and 8
    stats, bf, noise = _setup(shape, num_scatter, n_s, kappa, snr_db)
    assert _converges_consistently(
        solve_sensing, residual_sensing, stats, bf, noise.sigma_s2, kappa, SolverOptions()
    )


# comm points whose iterates from the surrogate's start stall near 1e-7 (down to
# 5.5e-8, up to 9.0e-7) and that converge only through the zero-channel re-solve
_FALLBACK_ONLY = [
    _point(shape, 1, shape[3], 0.05, snr_db)
    for shape in ((16, 16, 16, 16), (32, 16, 8, 8))
    for snr_db in (60.0, 70.0)
]


@pytest.mark.parametrize(_PARAMS, _FALLBACK_ONLY)
def test_a_cold_solve_that_runs_out_is_solved_again_from_the_zero_channel_state(
    shape, num_scatter, n_s, kappa, snr_db
):
    stats, bf, noise = _setup(shape, num_scatter, n_s, kappa, snr_db)
    point, opts = SpectralPoint.from_noise_power(noise.sigma_c2), SolverOptions(max_iter=500)
    system = _comm_system(stats, bf, point.w)
    start, scaled = _cold_start(system)
    assert scaled
    with pytest.raises(ConvergenceError, match="did not converge after 500 iterations") as info:
        _iterate(system, start, opts)
    assert len(info.value.history) == info.value.iterations + 1
    fp = solve_comm(stats, bf, point, opts)
    assert fp.iterations < opts.max_iter and len(fp.history) == fp.iterations + 1
    assert residual_comm(fp, stats, bf, point) <= 1e-10


# the points of the solve-highsnr bench workload
_SOLVE_HIGHSNR = [
    _point((16, 16, 16, 16), 2, 16, 1.0, 20.0),
    _point((16, 16, 16, 16), 2, 16, 1.0, 30.0),
    *_HARD,
]
# evaluations of their ten cold solves: 75 from the surrogate's start, 320 from the
# zero-channel state
_SOLVE_HIGHSNR_BUDGET = 100


def test_solve_highsnr_points_stay_within_their_evaluation_budget():
    total = 0
    for param in _SOLVE_HIGHSNR:
        stats, bf, noise = _setup(*param.values)
        _, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.8, return_fixed_points=True)
        total += fp_s.iterations + fp_c.iterations
    assert total <= _SOLVE_HIGHSNR_BUDGET


# the solve-highsnr bench points, and the pure-LoS 40 dB point of each grid shape
_EXACT = [
    *_SOLVE_HIGHSNR,
    *(_point(shape, 1, shape[3], math.inf, 40.0) for shape in _SHAPES),
]


def _refined_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of the clongdouble matrix a: the double LU inverse refined by two
    Newton steps X <- X + X (I - A X) in extended precision."""
    eye = np.eye(len(a), dtype=np.clongdouble)
    x = np.linalg.inv(a.astype(complex)).astype(np.clongdouble)
    for _ in range(2):
        x = x + x @ (eye - a @ x)
    return x


def _exact_rhs(system, g, g_tilde):
    """(rhs_g, rhs_g_tilde) of the system evaluated in clongdouble, with the resolvent
    pair ((B - sum_l h_l' A_l^-1 h_l)^-1, (blockdiag A - h B^-1 h')^-1) written out in
    the direct form; rhs_g_tilde is the stack of the latter's diagonal blocks."""
    g, g_tilde = (np.asarray(a, dtype=np.clongdouble) for a in (g, g_tilde))
    psi_t, pi, _ = system.self_energies(g, g_tilde)
    h = system.h_eff.astype(np.clongdouble)
    n = psi_t[0].shape[0]
    a = np.zeros((len(psi_t) * n,) * 2, dtype=np.clongdouble)
    los = np.zeros_like(pi)
    for l, block in enumerate(psi_t):
        a[l * n : (l + 1) * n, l * n : (l + 1) * n] = block
        h_l = h[l * n : (l + 1) * n]
        los += h_l.conj().T @ _refined_inverse(block) @ h_l
    g_tilde_rhs = _refined_inverse(a - h @ _refined_inverse(pi) @ h.conj().T)
    diagonal = [g_tilde_rhs[l * n : (l + 1) * n, l * n : (l + 1) * n] for l in range(len(psi_t))]
    return _refined_inverse(pi - los), np.stack(diagonal)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double here"
)
@pytest.mark.parametrize(_PARAMS, _EXACT)
def test_solution_meets_its_equations_in_extended_precision(
    shape, num_scatter, n_s, kappa, snr_db
):
    # the solver's own residual re-evaluates the right-hand side with its own
    # inverses, so it cannot see their rounding error; this check can
    stats, bf, noise = _setup(shape, num_scatter, n_s, kappa, snr_db)
    _, fp_s, fp_c = weighted_mi(stats, bf, noise, 0.8, return_fixed_points=True)
    systems = (
        (_sensing_system(stats, bf, -noise.sigma_s2), fp_s),
        (_comm_system(stats, bf, -noise.sigma_c2), fp_c),
    )
    for system, fp in systems:
        for solved, exact in zip((fp.g, fp.g_tilde), _exact_rhs(system, fp.g, fp.g_tilde)):
            error = np.linalg.norm((solved - exact).astype(complex))
            assert error / (1.0 + np.linalg.norm(exact.astype(complex))) <= 1e-10, system.branch
