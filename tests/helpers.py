"""Shared oracles and property checkers used by the unit and acceptance suites.

Everything here is deliberately independent of the library's solution paths:
the scalar fixed point is solved by bisection on a hand-derived 1-D root
problem, gradients are checked by central finite differences with a full
re-solve per probe, operator expectations are estimated by direct
Monte Carlo sampling of the channel law, and the correlation maps are summed
entry by entry from the channel statistics (`dense_correlation`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from isac_mi import Beamformer, NoiseConfig, ScenarioStats, SystemDims, WeichselbergerStats
from isac_mi import generate_scenario, weighted_mi
from isac_mi.correlation import ChannelMaps, CorrelationOps, assemble


def zero_scenario(dims: SystemDims) -> ScenarioStats:
    """All-zero means and variance profiles (the no-signal limit)."""
    comm = WeichselbergerStats(
        np.zeros((dims.n_u, dims.n_t)),
        np.eye(dims.n_u),
        np.eye(dims.n_t),
        np.zeros((dims.n_u, dims.n_t)),
    )
    sensing = tuple(
        WeichselbergerStats(
            np.zeros((dims.n_r, dims.n_t)),
            np.eye(dims.n_r),
            np.eye(dims.n_t),
            np.zeros((dims.n_r, dims.n_t)),
        )
        for _ in range(dims.num_scatter)
    )
    return ScenarioStats(dims, comm, sensing, 1.0, 0)


def scalar_los_scenario(g: complex) -> ScenarioStats:
    """L = n_t = n_r = m = n_s = 1 pure-LoS sensing scenario with LoS gain g."""
    dims = SystemDims(n_t=1, n_r=1, n_u=1, num_scatter=1, m=1, n_s=1)
    ch = WeichselbergerStats(
        np.array([[g]], dtype=complex), np.eye(1), np.eye(1), np.zeros((1, 1))
    )
    return ScenarioStats(dims, ch, (ch,), float("inf"), 0)


def scalar_los_oracle(g_eff: complex, sigma2: float, tol: float = 1e-14) -> dict:
    """Bisection solution of the scalar pure-LoS sensing system.

    With delta = |g_eff|^2 / sigma2, the scalar chain collapses to the root
    of q(phi) = phi^2 - phi - delta on [1, inf); every other quantity
    follows in closed form, including the per-dimension Shannon transform
    V = log(delta + phi) - delta / (delta + phi).
    """
    w = -sigma2
    delta = abs(g_eff) ** 2 / sigma2

    lo, hi = 1.0, 2.0 + delta  # q(lo) <= 0 < q(hi)
    q = lambda phi: phi * phi - phi - delta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    phi = 0.5 * (lo + hi)

    g_c = 1.0 / (delta + phi)
    g_c_tilde = 1.0 / (w - abs(g_eff) ** 2 / phi)
    g_d = -phi * delta / (delta + phi)
    shannon = np.log(delta + phi) - delta / (delta + phi)
    return {
        "phi": phi,
        "g_c": g_c,
        "g_c_tilde": g_c_tilde,
        "g_d": g_d,
        "shannon": shannon,
        "cauchy": g_c_tilde,
    }


def scalar_general_scenario(g: complex, profile: float) -> ScenarioStats:
    """All-scalar sensing scenario with LoS gain g and variance profile entry."""
    dims = SystemDims(n_t=1, n_r=1, n_u=1, num_scatter=1, m=1, n_s=1)
    ch = WeichselbergerStats(
        np.array([[g]], dtype=complex), np.eye(1), np.eye(1), np.array([[profile]])
    )
    return ScenarioStats(dims, ch, (ch,), 1.0, 0)


def scalar_general_oracle(
    g_eff: complex, n_eff2: float, sigma2: float, tol: float = 1e-14
) -> dict:
    """Bisection solution of the full scalar sensing system (profile feedback on).

    n_eff2 is |w|^2 * profile^2, the beamformed squared variance entry.  The
    chain forces phi = 1/sqrt(y) for y = g_c; given y, the g_c_tilde value x
    is the negative root of a quadratic, and the defining equation for y
    becomes a 1-D root problem solved by bisection on (0, 1].
    """
    w = -sigma2
    g2 = abs(g_eff) ** 2

    def x_of(y: float, phi: float, psi_t: float) -> float:
        # x * (psi_t - g2 / (phi - n_eff2 * x)) = 1, negative root
        a = -n_eff2 * psi_t
        b = psi_t * phi - g2 + n_eff2
        c = -phi
        if n_eff2 == 0.0:
            return c / b if b != 0.0 else -np.inf
        disc = math.sqrt(b * b - 4.0 * a * c)
        roots = ((-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a))
        return min(roots)  # the resolvent-type root is the negative one

    def residual(y: float) -> float:
        phi = 1.0 / math.sqrt(y)
        psi_t = w - n_eff2 * y
        x = x_of(y, phi, psi_t)
        return y - 1.0 / (-n_eff2 * x - g2 / psi_t + phi)

    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    y = 0.5 * (lo + hi)
    phi = 1.0 / math.sqrt(y)
    psi_t = w - n_eff2 * y
    x = x_of(y, phi, psi_t)
    shannon = math.log(psi_t / w) - math.log(y) + x * n_eff2 * y + (phi * y - 1.0)
    return {"phi": phi, "g_c": y, "g_c_tilde": x, "shannon": shannon}


def fd_weighted_gradient(
    stats: ScenarioStats,
    w0: np.ndarray,
    p_t: float,
    noise: NoiseConfig,
    rho: float,
    h: float = 1e-4,
) -> np.ndarray:
    """Central-difference Wirtinger gradient of the weighted MI.

    Each probe re-solves both fixed points from scratch.  Entry (i, j) is
    0.5 * (d/dRe + i d/dIm), which matches the conjugate-derivative
    convention of the closed form.
    """

    def value(w):
        return weighted_mi(stats, Beamformer(w, p_t), noise, rho).weighted

    n_t, m = w0.shape
    out = np.zeros((n_t, m), dtype=complex)
    for i in range(n_t):
        for j in range(m):
            e = np.zeros((n_t, m))
            e[i, j] = 1.0
            d_re = (value(w0 + h * e) - value(w0 - h * e)) / (2.0 * h)
            d_im = (value(w0 + 1j * h * e) - value(w0 - 1j * h * e)) / (2.0 * h)
            out[i, j] = 0.5 * (d_re + 1j * d_im)
    return out


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def random_psd(n: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x @ x.conj().T / n


def draw_channel_fluctuations(
    s: WeichselbergerStats, n_t: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count i.i.d. draws of the random channel part, shape (count, n_rx, n_tx)."""
    shape = (count,) + s.mean.shape
    p = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0 * n_t)
    return np.einsum("ab,sbc,dc->sad", s.left_unitary, s.variance_profile * p, s.right_unitary.conj())


def mc_matches(samples: np.ndarray, target: np.ndarray, n_sigma: float = 3.0) -> bool:
    """Entrywise |mean(samples) - target| <= n_sigma standard errors (+ float slack)."""
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    se_re = samples.real.std(axis=0, ddof=1) / np.sqrt(n)
    se_im = samples.imag.std(axis=0, ddof=1) / np.sqrt(n)
    slack = 1e-12
    ok_re = np.all(np.abs(mean.real - np.asarray(target).real) <= n_sigma * se_re + slack)
    ok_im = np.all(np.abs(mean.imag - np.asarray(target).imag) <= n_sigma * se_im + slack)
    return bool(ok_re and ok_im)


def dense_correlation(s: WeichselbergerStats) -> np.ndarray:
    """K[a, b, c, d] = E[X_ac conj(X_bd)] for the random part X = U (M o Q) V' of
    channel s, Q i.i.d. CN(0, 1/n_t): sum_ij U_ai conj(U_bi) (M_ij^2 / n_t)
    conj(V_cj) V_dj.  Then E[X C X']_ab = sum_cd K_abcd C_cd and
    E[X' C X]_cd = sum_ab conj(K_abcd) C_ab."""
    u, v = s.left_unitary, s.right_unitary
    rx = np.einsum("ai,bi->abi", u, u.conj())
    tx = np.einsum("cj,dj->cdj", v.conj(), v)
    return np.einsum("abi,ij,cdj->abcd", rx, s.variance_profile**2 / v.shape[0], tx, optimize=True)


# --- operator property suite (shared with the acceptance gate) ---


def _stacked_maps(ops: CorrelationOps, rng: np.random.Generator):
    """The solver's stacked maps over L = 4 sensing channels of the shape of `ops`,
    in a random beamformed basis W'[V_1 ... V_4]: the receive side
    g (m x m) -> blockdiag_l E[X_l W g W' X_l'] and the transmit side
    c (4 n_r x 4 n_r) -> W' (sum_l E[X_l' c_l X_l]) W of its diagonal blocks c_l."""
    dims = dataclasses.replace(ops.dims, num_scatter=4)
    maps = ChannelMaps(generate_scenario(dims, 1.0, seed=ops.stats.seed).sensing)
    w = rng.standard_normal((dims.n_t, dims.m)) + 1j * rng.standard_normal((dims.n_t, dims.m))
    basis, n = w.conj().T @ maps.transmit, dims.n_r
    eye = np.eye(4)

    def receive(g):
        blocks = maps.receive_side(basis, g)
        return np.einsum("kl,kij->kilj", eye, blocks).reshape(4 * n, 4 * n)

    def transmit(c):
        blocks = np.stack([c[k * n : (k + 1) * n, k * n : (k + 1) * n] for k in range(4)])
        return assemble(basis, maps.transmit_diag(blocks), basis)

    return receive, transmit, dims.m, 4 * n


def check_operator_linearity(ops: CorrelationOps, rng: np.random.Generator, tol: float = 1e-12):
    d = ops.dims
    alpha, beta = rng.standard_normal(2)
    receive, transmit, m, n_stack = _stacked_maps(ops, rng)
    cases = [
        (lambda x: ops.eta(0, x), d.n_r),
        (lambda x: ops.eta_tilde(0, x), d.n_t),
        (ops.tau, d.n_u),
        (ops.tau_tilde, d.n_t),
        (receive, m),
        (transmit, n_stack),
    ]
    for op, n in cases:
        a, b = random_hermitian(n, rng), random_hermitian(n, rng)
        lhs = op(alpha * a + beta * b)
        rhs = alpha * op(a) + beta * op(b)
        err = np.linalg.norm(lhs - rhs)
        assert err <= tol * max(1.0, np.linalg.norm(rhs)), f"linearity violated: {err:.2e}"


def check_operator_positivity(ops: CorrelationOps, rng: np.random.Generator, floor: float = -1e-10):
    d = ops.dims
    receive, transmit, m, n_stack = _stacked_maps(ops, rng)
    cases = [
        (lambda x: ops.eta(0, x), d.n_r),
        (lambda x: ops.eta_tilde(0, x), d.n_t),
        (ops.tau, d.n_u),
        (ops.tau_tilde, d.n_t),
        (receive, m),
        (transmit, n_stack),
    ]
    for op, n in cases:
        out = op(random_psd(n, rng))
        lam = float(np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min())
        assert lam >= floor, f"positivity violated: min eig {lam:.2e}"


def check_trace_duality(ops: CorrelationOps, rng: np.random.Generator, tol: float = 1e-10):
    d = ops.dims
    receive, transmit, m, n_stack = _stacked_maps(ops, rng)
    pairs = [
        (lambda x: ops.eta(0, x), lambda x: ops.eta_tilde(0, x), d.n_r, d.n_t),
        (ops.tau, ops.tau_tilde, d.n_u, d.n_t),
        (transmit, receive, n_stack, m),
    ]
    for fwd, bwd, n_in, n_out in pairs:
        b = random_hermitian(n_in, rng)
        a = random_hermitian(n_out, rng)
        lhs = np.trace(a @ fwd(b))
        rhs = np.trace(b @ bwd(a))
        assert abs(lhs - rhs) <= tol * (1.0 + abs(rhs)), f"trace duality violated: {lhs} vs {rhs}"


def check_operator_mc_consistency(
    stats: ScenarioStats, rng: np.random.Generator, draws: int = 100_000
):
    """Every operator matches its defining expectation within 3 standard errors."""
    ops = CorrelationOps(stats)
    d = stats.dims

    g_tilde = draw_channel_fluctuations(stats.sensing[0], d.n_t, draws, rng)
    c_r = random_hermitian(d.n_r, rng)
    samples = np.einsum("sji,jk,skl->sil", g_tilde.conj(), c_r, g_tilde)
    assert mc_matches(samples, ops.eta(0, c_r)), "eta does not match E[G' C G]"

    c_t = random_hermitian(d.n_t, rng)
    samples = np.einsum("sij,jk,slk->sil", g_tilde, c_t, g_tilde.conj())
    assert mc_matches(samples, ops.eta_tilde(0, c_t)), "eta_tilde does not match E[G C G']"

    h_tilde = draw_channel_fluctuations(stats.comm, d.n_t, draws, rng)
    e_u = random_hermitian(d.n_u, rng)
    samples = np.einsum("sji,jk,skl->sil", h_tilde.conj(), e_u, h_tilde)
    assert mc_matches(samples, ops.tau(e_u)), "tau does not match E[H' E H]"

    e_t = random_hermitian(d.n_t, rng)
    samples = np.einsum("sij,jk,slk->sil", h_tilde, e_t, h_tilde.conj())
    assert mc_matches(samples, ops.tau_tilde(e_t)), "tau_tilde does not match E[H E H']"
