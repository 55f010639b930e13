"""Coupled deterministic-equivalent fixed points for the two Gram matrices.

The sensing Gram matrix B1 = Ghat S S' Ghat' (Ghat stacking the beamformed
scatter channels, S the m x n_s symbol block) becomes the communication Gram
matrix B2 = H W W' H' once the symbol block drops out (S S' -> I as
n_s -> inf).  Both are therefore one system, `_System`, in the state
(g, g_tilde): `_sensing_system` passes the L scatter channels and n_s,
`_comm_system` the one uplink channel and n_s = inf.  The system is evaluated
at a negative real spectral argument w = -sigma^2, where the resolvent
(wI - B)^-1 of a PSD matrix is well defined.  Its equations have the
two-sided Rician form of Hachem, Loubaton & Najim (Ann. Appl. Probab. 2007):

    psi_tilde_l = wI - E[X_l W g W' X_l']           (one block per channel)
    psi         = -W' (sum_l E[X_l' g_tilde_l X_l]) W
    pi          = psi + phi I
    g, g_tilde  = (pi - h' psi_tilde^-1 h)^-1, (blockdiag psi_tilde - h pi^-1 h')^-1

around the beamformed LoS mean h (`_System.resolvents`).  The L channels have
equal receive sizes n_rx: h is L row blocks h_l and g_tilde is L x L blocks of
n_rx x n_rx.  Every equation reads only the diagonal blocks g_tilde_l, so the
state stores g_tilde as their (L, n_rx, n_rx) stack.  With D = blockdiag
psi_tilde the Woodbury identity gives them directly,

    g_tilde_l = D_l^-1 + (D_l^-1 h_l) g (D_l^-1 h_l)',

so an iterate (`_System.rhs`) inverts only the psi_tilde stack and the m x m
matrix pi - LoS, never pi or the (L n_rx)^2 receive-side matrix.  The LoS term
sum_l h_l' psi_tilde_l^-1 h_l under the guard is `_los_term`, which also serves
the Shannon transform of both branches and the PGA gradient.  The symbol-block variables are closed-form
functions of phi and g: g_d = 1/phi, phi_tilde = -1/phi and g_dd = -phi I + phi^2 g,
so the scalar chain phi = 1 - Tr(g_dd)/n_s has the closed form
phi = 2 / (b + sqrt(b^2 + 4 Tr g / n_s)), b = 1 - m/n_s, its positive root, which is
exactly 1 for communication.  Both solvers return one record, `FixedPoint`:
the state (g, g_tilde) and the self-energies at it (psi_tilde blocks, pi, phi),
nothing derived from them (psi = pi - phi I).  In the paper's names its fields
are G_c, G~_c, Psi~_l, Pi and phi for sensing and G_e, G~_e, Omega~, Omega and
phi = 1 for communication.

The system is solved by one driver, `_iterate`, from the exact zero-channel
solution (or a warm start).  The driver runs type-II Anderson acceleration
(Walker & Ni, SIAM J. Numer. Anal. 2011) on the state (g, g_tilde) packed into
one real vector (`_Packing`: the real view of g and of the g_tilde stack), in which
g_tilde is stored times sigma^2 so that both blocks start from (minus) the
identity.  It is safeguarded in the manner of Zhang, O'Donoghue &
Boyd (SIAM J. Optim. 2020):

* an extrapolated iterate is used only if it lies in the sign cone below and
  its residual is at most `_SAFEGUARD` times that of the last accepted
  iterate; otherwise the driver takes the damped Picard step
  x + `_DAMPING` * (f(x) - x) from the last accepted iterate;
* after `_STALL` iterations without a new best residual the driver switches
  to plain damped Picard iteration from the best iterate;
* on convergence the undamped polish step x <- f(x) is kept only when it does
  not raise the residual.

The iterates evaluate the right-hand side through plain LU inverses, which
raise `SingularMatrixError` only on an exactly singular matrix; a non-finite
residual ends the iteration at once with a `ConvergenceError`.  The 1e14
condition guard of `inv_herm` runs once per solve, on one evaluation of the
direct form at the returned state (pi, the receive-side matrix, each psi_tilde_l
and pi - LoS), and again in the Shannon transform (`_los_term`) and the PGA
gradient (`gradient_term`).

Sign structure at w < 0 (enforced on return, block by block): each g_tilde_l
is a negative definite resolvent-type block and g a positive definite
E[SS']-type block.  That cone needs nothing of phi beyond phi > 0, which the
closed form gives whenever Tr g > 0: psi is positive semidefinite, so
pi = psi + phi I is positive definite.  With g > 0 every psi_tilde_l is
negative definite, and so is the full (blockdiag psi_tilde - h pi^-1 h')^-1,
whose diagonal blocks are the stored ones.  The right-hand sides map this cone into
itself, so damped steps never leave it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linalg import SingularMatrixError, herm, inv_herm, min_eigval, rel_residual
from .correlation import ChannelMaps, assemble
from .model import Beamformer, ScenarioStats, _check_count, effective_los

SIGN_EIG_FLOOR = -1e-8

_MEMORY = 10  # Anderson history length
_SAFEGUARD = 3.0  # largest accepted residual growth of an extrapolated iterate
_STALL = 100  # iterations without a new best residual before plain damped Picard
_DAMPING = 0.5  # Picard step of a rejected extrapolation and of the stall fallback


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

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        _check_count(self.max_iter, "max_iter", 0)


@dataclass(frozen=True)
class FixedPoint:
    """Converged system of either branch: the state (g, g_tilde) and the
    self-energies at it, nothing derived from them.

    Sensing: g = G_c (m, m), g_tilde the (L, n_r, n_r) stack of the diagonal
    blocks of G~_c (its off-diagonal blocks enter no equation and are not
    formed), psi_tilde_blocks the L blocks Psi~_l (n_r, n_r), pi = Pi and
    phi = phi (phi I_{n_s} as a scalar).  The other symbol-block variables are
    functions of phi and g and are not stored: g_d = (1/phi) I_{n_s},
    phi_tilde = (-1/phi) I_m, g_dd = -phi I + phi^2 g and psi = pi - phi I.
    Communication: g = G_e (m, m), g_tilde = G~_e as a (1, n_u, n_u) stack,
    psi_tilde_blocks = (Omega~,), pi = Omega and phi = 1 (n_s = inf).
    """

    g: np.ndarray  # (m, m) Hermitian, positive definite
    g_tilde: np.ndarray  # (L, n_rx, n_rx), each block Hermitian, negative definite
    psi_tilde_blocks: tuple[np.ndarray, ...]  # one (n_rx, n_rx) block per channel
    pi: np.ndarray  # (m, m)
    phi: float
    residual: float
    iterations: int
    history: tuple[float, ...]  # residual of every iteration, in order


class _Contexts(NamedTuple):
    """Names of one branch's inverses, as `SingularMatrixError.context` reports them."""

    pi: str
    g_tilde: str  # the g_tilde equation
    psi_tilde: str  # each psi_tilde block
    g: str  # the g equation


_CONTEXTS = {
    "sensing": _Contexts("sensing pi inverse", "sensing g_c_tilde equation",
                         "sensing psi_tilde block inverse", "sensing g_c equation"),
    "comm": _Contexts("comm omega inverse", "comm g_e_tilde equation",
                      "comm omega_tilde inverse", "comm g_e equation"),
}


def _diagonal_blocks(a: np.ndarray, num: int) -> np.ndarray:
    """Writable (num, n, n) view of the num equal diagonal blocks of the square `a`."""
    n = a.shape[0] // num
    return np.einsum("kikj->kij", a.reshape(num, n, num, n))


def _is_pd(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


class _Packing:
    """The state (g, g_tilde), g (m, m) and the g_tilde stack (num, n, n), as one
    real vector: the real view of the complex entries of g and of sigma^2 g_tilde
    (sigma^2 = -w).  The vector norm of each part is therefore its Frobenius
    norm, g_tilde's weighted by sigma^2."""

    def __init__(self, m: int, num: int, n: int, w: float):
        self.m, self.blocks, self.scale = m, (num, n, n), -w
        self.split = 2 * m * m  # reals of g

    def pack(self, g, g_tilde) -> np.ndarray:
        parts = (np.asarray(g, dtype=complex), self.scale * np.asarray(g_tilde, dtype=complex))
        return np.concatenate([a.ravel() for a in parts]).view(float)

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(g, g_tilde) of `x`; g is a view of x."""
        g = x[: self.split].view(complex).reshape(self.m, self.m)
        return g, x[self.split :].view(complex).reshape(self.blocks) / self.scale

    def residual(self, x: np.ndarray, gx: np.ndarray) -> float:
        """Max of rel_residual(g, rhs_g) and rel_residual(g_tilde, rhs_g_tilde), in
        unscaled units; NaN when either is."""
        k = self.split
        return float(np.max([
            np.linalg.norm(x[:k] - gx[:k]) / (1.0 + np.linalg.norm(gx[:k])),
            np.linalg.norm(x[k:] - gx[k:]) / (self.scale + np.linalg.norm(gx[k:])),
        ]))


def _lu_inverse(a: np.ndarray, context: str) -> np.ndarray:
    """LU inverse of the Hermitian part of `a`, or of each matrix of a stack, with
    no condition guard: the iterates' inverse.  Only an exactly singular matrix
    raises, by name."""
    try:
        return np.linalg.inv(herm(a))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(context, math.inf) from None


def _iterate(system, start, opts: SolverOptions):
    """Safeguarded Anderson iteration of `system.rhs` from the state `start`.

    Returns (state, residual, iterations, history) at the first iterate whose
    residual meets opts.tol, after the conditional polish step.  The right-hand
    side is evaluated through unguarded LU inverses (`_solve` guards the
    returned state); a non-finite residual ends the iteration at once.
    """
    packing = system.packing
    x = packing.pack(*start)
    # ring buffers of the differences of f(x) - x and of f(x) between accepted iterates
    d_f = np.empty((_MEMORY, x.size))
    d_g = np.empty((_MEMORY, x.size))
    stored = slot = 0
    history: list[float] = []
    last = best = None  # (x, f(x) - x, residual) of the last accepted / best iterate
    since_best = 0
    extrapolated = picard = False

    def evaluate(x):
        state = packing.unpack(x)
        gx = packing.pack(*system.rhs(*state))
        return state, gx, packing.residual(x, gx)

    for it in range(opts.max_iter + 1):
        state, gx, residual = evaluate(x)
        history.append(residual)
        if not math.isfinite(residual):
            reason = "produced a non-finite evaluation"
            raise ConvergenceError(system.branch, it, residual, reason, history)
        if residual <= opts.tol:
            polished = evaluate(gx)
            if polished[2] <= residual:
                state, _, residual = polished
            return state, residual, it, tuple(history)
        if it == opts.max_iter:
            break
        if extrapolated and residual > _SAFEGUARD * last[2]:
            x, extrapolated = last[0] + _DAMPING * last[1], False
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
            x = last[0] + _DAMPING * last[1]
            continue
        candidate = gx
        if stored:
            df = d_f[:stored]
            gamma = np.linalg.lstsq(df @ df.T, df @ f, rcond=None)[0]
            candidate = gx - gamma @ d_g[:stored]
        extrapolated = system.in_cone(*packing.unpack(candidate))
        x = candidate if extrapolated else x + _DAMPING * f

    raise ConvergenceError(system.branch, opts.max_iter, residual, history=history)


def _los_term(h: np.ndarray, a_blocks, context: str) -> np.ndarray:
    """sum_l h_l' A_l^-1 h_l over the L equal row blocks h_l of h, L = len(a_blocks),
    each A_l^-1 through the guarded `inv_herm`."""
    rows = h.reshape(len(a_blocks), -1, h.shape[1])
    return sum(h_l.conj().T @ inv_herm(a, context) @ h_l for h_l, a in zip(rows, a_blocks))


class _System:
    """Right-hand sides of one deterministic-equivalent system at fixed (W, w).

    `channels` holds the statistics of each channel X_l, `h_raw` stacks their
    LoS means and h_eff = h_raw W; `_CONTEXTS[branch]` names its inverses.  The
    correlation maps are the channels' `ChannelMaps`, taken in the beamformed
    transmit basis W'[V_1 ... V_L].
    """

    def __init__(self, branch, channels, h_raw, h_eff, n_s, w_bf, w):
        self.branch, self.contexts = branch, _CONTEXTS[branch]
        self.h_raw, self.h_eff, self.n_s = h_raw, h_eff, n_s
        self.w_bf, self.w = w_bf, w
        self.m = h_eff.shape[1]
        self.num_channels = len(channels)
        self.n_rx = h_raw.shape[0] // self.num_channels
        self.maps = ChannelMaps(channels)
        self.beamformed = w_bf.w.conj().T @ self.maps.transmit  # [W'V_1 ... W'V_L]
        self.packing = _Packing(self.m, self.num_channels, self.n_rx, w)

    def psi_tilde_blocks(self, g: np.ndarray) -> np.ndarray:
        """wI - E[X_l W g W' X_l'] of every channel, stacked (L, n_rx, n_rx)."""
        return self.w * np.eye(self.n_rx) - self.maps.receive_side(self.beamformed, g)

    def psi(self, g_tilde: np.ndarray) -> np.ndarray:
        """-W' (sum_l E[X_l' g_tilde_l X_l]) W of the g_tilde stack."""
        return -assemble(self.beamformed, self.maps.transmit_diag(g_tilde), self.beamformed)

    def phi(self, g: np.ndarray) -> float:
        """Positive root of phi = 1 - Tr(g_dd)/n_s with g_dd = -phi I + phi^2 g
        (Woodbury on g_dd = (phi_tilde - (psi - LoS)^-1)^-1, phi_tilde = -(1/phi) I).
        NaN when the root is not real (an iterate far outside the sign cone), so that
        the solve ends on its non-finite residual."""
        b = 1.0 - self.m / self.n_s
        discriminant = b * b + 4.0 * float(np.trace(g).real) / self.n_s
        if discriminant < 0.0:
            return math.nan
        return 2.0 / (b + math.sqrt(discriminant))

    def in_cone(self, g, g_tilde) -> bool:
        return _is_pd(g) and _is_pd(-g_tilde)

    def resolvents(self, psi_t_blocks, pi: np.ndarray):
        """(g, g_tilde) = ((pi - LoS(h, psi_tilde))^-1, the diagonal blocks of
        (blockdiag psi_tilde - h pi^-1 h')^-1) around h = h_eff, in the direct form
        and through the guarded `inv_herm`: the equations' reference, which `_solve`
        and `residual` evaluate."""
        h, contexts = self.h_eff, self.contexts
        receive = -(h @ inv_herm(pi, contexts.pi) @ h.conj().T)
        blocks = _diagonal_blocks(receive, self.num_channels)
        blocks += psi_t_blocks
        g_tilde = herm(_diagonal_blocks(inv_herm(receive, contexts.g_tilde), self.num_channels))
        los = _los_term(h, psi_t_blocks, contexts.psi_tilde)
        return herm(inv_herm(pi - los, contexts.g)), g_tilde

    def self_energies(self, g, g_tilde):
        """(psi_tilde blocks, pi, phi) at the state (g, g_tilde), phi taken from
        the closed form at g."""
        phi = self.phi(g)
        return self.psi_tilde_blocks(g), self.psi(g_tilde) + phi * np.eye(self.m), phi

    def rhs(self, g, g_tilde):
        """One Picard evaluation of an iterate, (rhs_g, rhs_g_tilde), by Woodbury on
        D = blockdiag psi_tilde through `_lu_inverse`: the psi_tilde stack and
        pi - LoS are its only inverses."""
        psi_t, pi, _ = self.self_energies(g, g_tilde)
        d_inv = _lu_inverse(psi_t, self.contexts.psi_tilde)
        d_inv_h = d_inv @ self.h_eff.reshape(self.num_channels, self.n_rx, self.m)  # D_l^-1 h_l
        los = self.h_eff.conj().T @ d_inv_h.reshape(-1, self.m)  # sum_l h_l' D_l^-1 h_l
        g = herm(_lu_inverse(pi - los, self.contexts.g))
        return g, herm(d_inv + d_inv_h @ g @ d_inv_h.conj().swapaxes(-1, -2))

    def residual(self, fp: FixedPoint) -> float:
        """Max relative residual of a stored state: the psi_tilde blocks, pi, g_tilde,
        g and the phi chain phi = 1 - Tr(g_dd)/n_s with g_dd = -phi I + phi^2 g taken
        at the resolvent g, each against its equation."""
        phi = fp.phi
        pi_rhs = self.psi(fp.g_tilde) + phi * np.eye(self.m)
        g_rhs, g_tilde_rhs = self.resolvents(fp.psi_tilde_blocks, pi_rhs)
        tr_g_dd = phi * (phi * float(np.trace(g_rhs).real) - self.m)
        pairs = [
            *zip(fp.psi_tilde_blocks, self.psi_tilde_blocks(fp.g)),
            (fp.pi, pi_rhs), (fp.g_tilde, g_tilde_rhs), (fp.g, g_rhs),
            (phi, 1.0 - tr_g_dd / self.n_s),
        ]
        return max(rel_residual(a, b) for a, b in pairs)

    def gradient_term(self, fp: FixedPoint) -> np.ndarray:
        """(psi_raw(g_tilde) - LoS(h_raw, psi_tilde)) W g at a converged state, where
        psi_raw W = -sum_l E[X_l' g_tilde_l X_l] W is the transmit-side self-energy
        before its left beamformer."""
        t = self.maps.transmit_diag(fp.g_tilde)
        psi_raw_w = -assemble(self.maps.transmit, t, self.beamformed)
        los = _los_term(self.h_raw, fp.psi_tilde_blocks, self.contexts.psi_tilde)
        return (psi_raw_w - los @ self.w_bf.w) @ fp.g


def _sensing_system(stats: ScenarioStats, w_bf: Beamformer, w: float) -> _System:
    """The L scatter channels behind the n_s-sample symbol block."""
    g_eff, _, g_raw = effective_los(stats, w_bf)
    return _System("sensing", stats.sensing, g_raw, g_eff, stats.dims.n_s, w_bf, w)


def _comm_system(stats: ScenarioStats, w_bf: Beamformer, w: float) -> _System:
    """The uplink channel with no symbol block: n_s = inf, so phi = 1."""
    _, h_eff, _ = effective_los(stats, w_bf)
    return _System("comm", (stats.comm,), stats.comm.mean, h_eff, math.inf, w_bf, w)


def _solve(system: _System, initial: FixedPoint | None, opts: SolverOptions) -> FixedPoint:
    """Iterate `system` from the state of `initial` (None: the zero-channel
    solution), guard every inverse of one evaluation at the returned state and
    check the sign structure."""
    blocks = system.packing.blocks
    if initial is None:
        start = (np.eye(system.m), np.broadcast_to(np.eye(system.n_rx) / system.w, blocks))
    else:
        start = (initial.g, initial.g_tilde)
    shapes, expected = tuple(np.shape(b) for b in start), ((system.m, system.m), blocks)
    if shapes != expected:
        branch = system.branch
        raise ValueError(f"{branch} warm start has (g, g_tilde) shapes {shapes}, expected {expected}")
    (g, g_tilde), residual, it, history = _iterate(system, start, opts)
    psi_t, pi, phi = system.self_energies(g, g_tilde)
    system.resolvents(psi_t, pi)  # guarded: an ill-conditioned inverse raises
    if min_eigval(-g_tilde) < SIGN_EIG_FLOOR or min_eigval(g) < SIGN_EIG_FLOOR:
        reason = "violated the resolvent sign structure"
        raise ConvergenceError(system.branch, it, residual, reason, history)
    return FixedPoint(g, g_tilde, tuple(psi_t), pi, phi, residual, it, history)


def solve_sensing(
    stats: ScenarioStats,
    w_bf: Beamformer,
    point: SpectralPoint,
    opts: SolverOptions = SolverOptions(),
    initial: FixedPoint | None = None,
) -> FixedPoint:
    """Solve the sensing deterministic-equivalent system at w = point.w < 0.

    Starts from the exact zero-channel solution, or warm-starts from the
    state of a previous solve when `initial` is given.
    """
    return _solve(_sensing_system(stats, w_bf, point.w), initial, opts)


def residual_sensing(
    fp: FixedPoint, stats: ScenarioStats, w_bf: Beamformer, point: SpectralPoint
) -> float:
    """Max relative residual of every stored sensing equation at the stored state."""
    return _sensing_system(stats, w_bf, point.w).residual(fp)


def solve_comm(
    stats: ScenarioStats,
    w_bf: Beamformer,
    point: SpectralPoint,
    opts: SolverOptions = SolverOptions(),
    initial: FixedPoint | None = None,
) -> FixedPoint:
    """Solve the communication deterministic-equivalent system at w = point.w < 0."""
    return _solve(_comm_system(stats, w_bf, point.w), initial, opts)


def residual_comm(
    fp: FixedPoint, stats: ScenarioStats, w_bf: Beamformer, point: SpectralPoint
) -> float:
    """Max relative residual of the stored communication equations (phi = 1)."""
    return _comm_system(stats, w_bf, point.w).residual(fp)
