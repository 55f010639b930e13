"""Coupled deterministic-equivalent fixed points for the two Gram matrices.

The sensing branch characterizes the limiting spectrum of
B1 = Ghat S S' Ghat' (Ghat stacking the beamformed scatter channels) through
a coupled system in (g_c, g_c_tilde, scalar chain); the communication branch
does the same for B2 = H W W' H' through (g_e, g_e_tilde).  Both systems are
evaluated at a negative real spectral argument w = -sigma^2, where the
resolvent (wI - B)^-1 of a PSD matrix is well defined.

Both systems share one two-sided form (Hachem, Loubaton & Najim, Ann. Appl.
Probab. 2007), written once in `_resolvent_pair`: around a LoS mean h, the
receive-side resolvent (blockdiag A - h B^-1 h')^-1 and the transmit-side
resolvent (B - h' A^-1 h)^-1.  Sensing has A = psi_tilde blocks, B = pi and
h = g_eff; communication has A = omega_tilde, B = omega and h = h_eff.  Their
LoS term LoS = sum_l h_l' A_l^-1 h_l (`_los_term`) also serves the sensing
Shannon transform and the PGA gradient.

Both are solved by one driver, `_iterate`, from the exact zero-channel
solution (or a warm start).  The driver runs type-II Anderson acceleration
(Walker & Ni, SIAM J. Numer. Anal. 2011) on the system's state packed into
one real vector (the real view of each complex block), in which the
resolvent-type block is stored times sigma^2 so that every block starts from
(minus) the identity.  It is safeguarded in the manner of Zhang, O'Donoghue &
Boyd (SIAM J. Optim. 2020):

* an extrapolated iterate is used only if it lies in the sign cone below and
  its residual is at most `_SAFEGUARD` times that of the last accepted
  iterate; otherwise the driver takes the damped Picard step
  x + damping * (f(x) - x) from the last accepted iterate, so
  `SolverOptions.damping` sets the fallback step;
* after `_STALL` iterations without a new best residual the driver switches
  to plain damped Picard iteration from the best iterate;
* on convergence the undamped polish step x <- f(x) is kept only when it does
  not raise the residual.

Sign structure at w < 0 (enforced on return): g_c_tilde and g_e_tilde are
negative definite resolvent-type blocks, g_c and g_e are positive definite
E[SS']-type blocks, and the scalar chain satisfies phi >= 1.  The right-hand
sides map this cone into itself, so damped steps never leave it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import herm, inv_herm, min_eigval, rel_residual
from .correlation import CorrelationOps
from .model import Beamformer, ScenarioStats, effective_los

SIGN_EIG_FLOOR = -1e-8

_MEMORY = 10  # Anderson history length
_SAFEGUARD = 3.0  # largest accepted residual growth of an extrapolated iterate
_STALL = 100  # iterations without a new best residual before plain damped Picard


class ConvergenceError(RuntimeError):
    """The fixed-point iteration did not reach a valid converged state.

    `history` holds the residual of every iteration, in order.
    """

    def __init__(
        self,
        branch: str,
        iterations: int,
        residual: float,
        reason: str = "did not converge",
        history: tuple[float, ...] = (),
    ):
        super().__init__(
            f"{branch} fixed point {reason} after {iterations} iterations "
            f"(final residual {residual:.3e})"
        )
        self.branch = branch
        self.iterations = iterations
        self.residual = residual
        self.history = tuple(history)


@dataclass(frozen=True)
class SpectralPoint:
    """Negative real spectral argument w = -sigma^2."""

    w: float

    def __post_init__(self):
        if not self.w < 0.0:
            raise ValueError(f"spectral argument must be negative, got {self.w}")

    @classmethod
    def from_noise_power(cls, sigma2: float) -> "SpectralPoint":
        return cls(-float(sigma2))


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 5000
    damping: float = 0.5

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")


@dataclass(frozen=True)
class SensingFixedPoint:
    """Converged sensing system.  Scalar-multiple-of-identity blocks are stored
    as scalars: g_d_tilde = g_d_scalar * I_{n_s}, phi_tilde = phi_tilde_scalar * I_m,
    phi = phi_scalar * I_{n_s}."""

    g_c_tilde: np.ndarray  # (L n_r, L n_r) Hermitian, negative definite
    g_c: np.ndarray  # (m, m) Hermitian, positive definite
    g_d_scalar: float
    g_dd: np.ndarray  # (m, m) Hermitian
    psi_tilde_blocks: tuple[np.ndarray, ...]  # L blocks (n_r, n_r)
    psi: np.ndarray  # (m, m)
    phi_tilde_scalar: float
    phi_scalar: float
    pi: np.ndarray  # (m, m)
    residual: float
    iterations: int
    history: tuple[float, ...]  # residual of every iteration, in order


@dataclass(frozen=True)
class CommFixedPoint:
    g_e_tilde: np.ndarray  # (n_u, n_u) Hermitian, negative definite
    g_e: np.ndarray  # (m, m) Hermitian, positive definite
    omega_tilde: np.ndarray  # (n_u, n_u)
    omega: np.ndarray  # (m, m)
    residual: float
    iterations: int
    history: tuple[float, ...]  # residual of every iteration, in order


def _diag_block(a: np.ndarray, l: int, n: int) -> np.ndarray:
    return a[l * n : (l + 1) * n, l * n : (l + 1) * n]


def _block_diag(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


def _is_pd(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


class _Packing:
    """A system's state as one real vector: the real view of the complex
    entries of square blocks of the given sizes (a real scalar is a block of
    size 1), block b multiplied by scales[b].  The vector norm of a block is
    therefore its Frobenius norm."""

    def __init__(self, sizes, scales):
        self.sizes = sizes
        self.scales = scales
        self.bounds = np.cumsum([0] + [2 * n * n for n in sizes])

    def pack(self, blocks) -> np.ndarray:
        parts = [(s * np.asarray(b, dtype=complex)).ravel() for b, s in zip(blocks, self.scales)]
        return np.concatenate(parts).view(float)

    def unpack(self, x: np.ndarray) -> list[np.ndarray]:
        return [
            x[a:b].view(complex).reshape(n, n) / s
            for a, b, n, s in zip(self.bounds, self.bounds[1:], self.sizes, self.scales)
        ]

    def residual(self, x: np.ndarray, gx: np.ndarray) -> float:
        """Max over blocks of rel_residual(block, rhs block), in unscaled units."""
        return max(
            float(np.linalg.norm(x[a:b] - gx[a:b]) / (s + np.linalg.norm(gx[a:b])))
            for a, b, s in zip(self.bounds, self.bounds[1:], self.scales)
        )


def _iterate(system, start, opts: SolverOptions):
    """Safeguarded Anderson iteration of `system.rhs` from the blocks `start`.

    Returns (blocks, derived, residual, iterations, history) at the first
    iterate whose residual meets opts.tol, after the conditional polish step.
    """
    packing = system.packing
    x = packing.pack(start)
    # ring buffers of the differences of f(x) - x and of f(x) between accepted iterates
    d_f = np.empty((_MEMORY, x.size))
    d_g = np.empty((_MEMORY, x.size))
    stored = slot = 0
    alpha = opts.damping
    history: list[float] = []
    last = best = None  # (x, f(x) - x, residual) of the last accepted / best iterate
    since_best = 0
    extrapolated = picard = False

    def evaluate(x):
        blocks = packing.unpack(x)
        rhs, derived = system.rhs(*blocks)
        gx = packing.pack(rhs)
        return blocks, derived, gx, packing.residual(x, gx)

    for it in range(opts.max_iter + 1):
        blocks, derived, gx, residual = evaluate(x)
        history.append(residual)
        if residual <= opts.tol:
            polished = evaluate(gx)
            if polished[3] <= residual:
                blocks, derived, _, residual = polished
            return blocks, derived, residual, it, tuple(history)
        if it == opts.max_iter:
            break
        if extrapolated and residual > _SAFEGUARD * last[2]:
            x, extrapolated = last[0] + alpha * last[1], False
            continue
        f = gx - x
        if last is not None:
            d_f[slot] = f - last[1]
            d_g[slot] = d_f[slot] + (x - last[0])
            slot, stored = (slot + 1) % _MEMORY, min(stored + 1, _MEMORY)
        last = (x, f, residual)
        if best is None or residual < best[2]:
            best, since_best = last, 0
        else:
            since_best += 1
        if not picard and since_best >= _STALL:
            picard, last = True, best
        if picard:
            x = last[0] + alpha * last[1]
            continue
        candidate = gx
        if stored:
            df = d_f[:stored]
            gamma = np.linalg.lstsq(df @ df.T, df @ f, rcond=None)[0]
            candidate = gx - gamma @ d_g[:stored]
        extrapolated = system.in_cone(*packing.unpack(candidate))
        x = candidate if extrapolated else x + alpha * f

    raise ConvergenceError(system.branch, opts.max_iter, residual, history=history)


def _los_term(h: np.ndarray, a_blocks, context: str) -> np.ndarray:
    """sum_l h_l' A_l^-1 h_l over the row blocks h_l of h, each as tall as A_l."""
    rows = np.cumsum([0] + [a.shape[0] for a in a_blocks])
    return sum(
        h[i:j].conj().T @ inv_herm(a, context) @ h[i:j]
        for i, j, a in zip(rows, rows[1:], a_blocks)
    )


def _resolvent_pair(a_blocks, b: np.ndarray, h: np.ndarray, contexts):
    """Receive- and transmit-side resolvents around the LoS mean h:
    ((blockdiag A - h B^-1 h')^-1, (B - h' A^-1 h)^-1).  `contexts` names the
    inverses of B, of the receive side, of the A blocks and of the transmit side."""
    b_inverse, receive, a_inverse, transmit = contexts
    h_b_h = h @ inv_herm(b, b_inverse) @ h.conj().T
    rx = herm(inv_herm(_block_diag(a_blocks) - h_b_h, receive))
    tx = herm(inv_herm(b - _los_term(h, a_blocks, a_inverse), transmit))
    return rx, tx


def _check_signs(branch: str, fp, g_tilde: np.ndarray, g: np.ndarray) -> None:
    if min_eigval(-g_tilde) < SIGN_EIG_FLOOR or min_eigval(g) < SIGN_EIG_FLOOR:
        raise ConvergenceError(
            branch,
            fp.iterations,
            fp.residual,
            reason="violated the resolvent sign structure",
            history=fp.history,
        )


class _SensingSystem:
    """Right-hand sides of the sensing equations at fixed (stats, W, w)."""

    branch = "sensing"
    contexts = ("sensing pi inverse", "sensing g_c_tilde equation",
                "sensing psi_tilde block inverse", "sensing g_c equation")

    def __init__(self, stats: ScenarioStats, w_bf: Beamformer, w: float):
        self.ops = CorrelationOps(stats)
        self.w_bf = w_bf
        self.w = w
        self.dims = stats.dims
        self.g_eff, _, self.g_raw = effective_los(stats, w_bf)
        ln_r = self.dims.num_scatter * self.dims.n_r
        self.packing = _Packing((self.dims.m, ln_r, 1), (1.0, -w, 1.0))

    def psi_tilde_blocks(self, g_c: np.ndarray) -> list[np.ndarray]:
        eye = np.eye(self.dims.n_r)
        return [
            self.w * eye - self.ops.eta_tilde_w(l, g_c, self.w_bf)
            for l in range(self.dims.num_scatter)
        ]

    def psi_raw(self, g_c_tilde: np.ndarray) -> np.ndarray:
        """Transmit-side self-energy before beamforming, -sum_l eta_l(block l), (n_t, n_t)."""
        n_r = self.dims.n_r
        return -sum(
            self.ops.eta(l, _diag_block(g_c_tilde, l, n_r)) for l in range(self.dims.num_scatter)
        )

    def psi(self, g_c_tilde: np.ndarray) -> np.ndarray:
        w = self.w_bf.w
        return herm(w.conj().T @ self.psi_raw(g_c_tilde) @ w)

    def in_cone(self, g_c, g_c_tilde, phi) -> bool:
        return phi[0, 0].real >= 1.0 and _is_pd(g_c) and _is_pd(-g_c_tilde)

    def inverse_equations(self, psi_t_blocks, psi: np.ndarray, phi: float):
        """(pi, g_c_tilde, g_c, g_dd) from (psi_tilde blocks, psi, phi)."""
        eye = np.eye(self.dims.m)
        pi = psi + phi * eye  # psi - phi_tilde^-1 with phi_tilde = -(1/phi) I
        g_c_tilde, g_c = _resolvent_pair(psi_t_blocks, pi, self.g_eff, self.contexts)
        # Woodbury: g_dd = (phi_tilde - (psi - LoS)^-1)^-1
        #                = phi_tilde^-1 + phi_tilde^-1 g_c phi_tilde^-1 = -phi I + phi^2 g_c,
        # as g_c = (pi - LoS)^-1 = (psi - LoS - phi_tilde^-1)^-1 and phi_tilde^-1 = -phi I
        g_dd = herm(-phi * eye + phi**2 * g_c)
        return pi, g_c_tilde, g_c, g_dd

    def rhs(self, g_c, g_c_tilde, phi):
        """One Picard evaluation: returns ((rhs_g_c, rhs_g_c_tilde, rhs_phi), derived)."""
        phi = float(phi[0, 0].real)
        psi_t = self.psi_tilde_blocks(g_c)
        psi = self.psi(g_c_tilde)
        pi, rhs_g_c_tilde, rhs_g_c, g_dd = self.inverse_equations(psi_t, psi, phi)
        rhs_phi = 1.0 - float(np.trace(g_dd).real) / self.dims.n_s
        return (rhs_g_c, rhs_g_c_tilde, rhs_phi), (psi_t, psi, pi, g_dd)


def solve_sensing(
    stats: ScenarioStats,
    w_bf: Beamformer,
    point: SpectralPoint,
    opts: SolverOptions = SolverOptions(),
    initial: SensingFixedPoint | None = None,
) -> SensingFixedPoint:
    """Solve the sensing deterministic-equivalent system at w = point.w < 0.

    Starts from the exact zero-channel solution, or warm-starts from the
    state of a previous solve when `initial` is given.
    """
    dims = stats.dims
    system = _SensingSystem(stats, w_bf, point.w)
    if initial is not None:
        start = (initial.g_c, initial.g_c_tilde, initial.phi_scalar)
    else:
        ln_r = dims.num_scatter * dims.n_r
        start = (np.eye(dims.m), np.eye(ln_r) / point.w, 1.0)

    (g_c, g_c_tilde, phi), derived, residual, it, history = _iterate(system, start, opts)
    phi = float(phi[0, 0].real)
    psi_t, psi, pi, g_dd = derived
    fp = SensingFixedPoint(
        g_c_tilde=g_c_tilde,
        g_c=g_c,
        g_d_scalar=1.0 / phi,
        g_dd=g_dd,
        psi_tilde_blocks=tuple(psi_t),
        psi=psi,
        phi_tilde_scalar=-1.0 / phi,
        phi_scalar=phi,
        pi=pi,
        residual=residual,
        iterations=it,
        history=history,
    )
    _check_signs("sensing", fp, fp.g_c_tilde, fp.g_c)
    return fp


def residual_sensing(
    fp: SensingFixedPoint, stats: ScenarioStats, w_bf: Beamformer, point: SpectralPoint
) -> float:
    """Max relative residual of every stored sensing equation at the stored state."""
    system = _SensingSystem(stats, w_bf, point.w)
    dims = stats.dims

    psi_t_rhs = system.psi_tilde_blocks(fp.g_c)
    psi_rhs = system.psi(fp.g_c_tilde)
    pi_rhs, gct_rhs, gc_rhs, gdd_rhs = system.inverse_equations(
        fp.psi_tilde_blocks, fp.psi, -1.0 / fp.phi_tilde_scalar
    )

    residuals = [
        max(rel_residual(fp.psi_tilde_blocks[l], psi_t_rhs[l]) for l in range(dims.num_scatter)),
        rel_residual(fp.psi, psi_rhs),
        rel_residual(fp.phi_tilde_scalar, -fp.g_d_scalar),
        rel_residual(fp.phi_scalar, 1.0 - float(np.trace(fp.g_dd).real) / dims.n_s),
        rel_residual(fp.pi, pi_rhs),
        rel_residual(fp.g_c_tilde, gct_rhs),
        rel_residual(fp.g_c, gc_rhs),
        rel_residual(fp.g_d_scalar, 1.0 / fp.phi_scalar),
        rel_residual(fp.g_dd, gdd_rhs),
    ]
    return float(max(residuals))


class _CommSystem:
    """Right-hand sides of the communication equations at fixed (stats, W, w)."""

    branch = "comm"
    contexts = ("comm omega inverse", "comm g_e_tilde equation",
                "comm omega_tilde inverse", "comm g_e equation")

    def __init__(self, stats: ScenarioStats, w_bf: Beamformer, w: float):
        self.ops = CorrelationOps(stats)
        self.w_bf = w_bf
        self.w = w
        self.dims = stats.dims
        _, self.h_eff, _ = effective_los(stats, w_bf)
        self.packing = _Packing((self.dims.m, self.dims.n_u), (1.0, -w))

    def omega_tilde(self, g_e: np.ndarray) -> np.ndarray:
        return self.w * np.eye(self.dims.n_u) - self.ops.tau_tilde_w(g_e, self.w_bf)

    def omega(self, g_e_tilde: np.ndarray) -> np.ndarray:
        return np.eye(self.dims.m) - self.ops.tau_w(g_e_tilde, self.w_bf)

    def in_cone(self, g_e, g_e_tilde) -> bool:
        return _is_pd(g_e) and _is_pd(-g_e_tilde)

    def inverse_equations(self, om_t: np.ndarray, om: np.ndarray):
        """(g_e, g_e_tilde) from (omega_tilde, omega)."""
        g_e_tilde, g_e = _resolvent_pair((om_t,), om, self.h_eff, self.contexts)
        return g_e, g_e_tilde

    def rhs(self, g_e, g_e_tilde):
        om_t = self.omega_tilde(g_e)
        om = self.omega(g_e_tilde)
        return self.inverse_equations(om_t, om), (om_t, om)


def solve_comm(
    stats: ScenarioStats,
    w_bf: Beamformer,
    point: SpectralPoint,
    opts: SolverOptions = SolverOptions(),
    initial: CommFixedPoint | None = None,
) -> CommFixedPoint:
    """Solve the communication deterministic-equivalent system at w = point.w < 0."""
    dims = stats.dims
    system = _CommSystem(stats, w_bf, point.w)
    if initial is not None:
        start = (initial.g_e, initial.g_e_tilde)
    else:
        start = (np.eye(dims.m), np.eye(dims.n_u) / point.w)

    (g_e, g_e_tilde), (om_t, om), residual, it, history = _iterate(system, start, opts)
    fp = CommFixedPoint(
        g_e_tilde=g_e_tilde,
        g_e=g_e,
        omega_tilde=om_t,
        omega=om,
        residual=residual,
        iterations=it,
        history=history,
    )
    _check_signs("comm", fp, fp.g_e_tilde, fp.g_e)
    return fp


def residual_comm(
    fp: CommFixedPoint, stats: ScenarioStats, w_bf: Beamformer, point: SpectralPoint
) -> float:
    """Max relative residual of the four stored communication equations."""
    system = _CommSystem(stats, w_bf, point.w)
    om_t_rhs = system.omega_tilde(fp.g_e)
    om_rhs = system.omega(fp.g_e_tilde)
    ge_rhs, get_rhs = system.inverse_equations(fp.omega_tilde, fp.omega)
    return float(
        max(
            rel_residual(fp.omega_tilde, om_t_rhs),
            rel_residual(fp.omega, om_rhs),
            rel_residual(fp.g_e_tilde, get_rhs),
            rel_residual(fp.g_e, ge_rhs),
        )
    )
