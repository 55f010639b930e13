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

and the iterate runs in each channel's receive eigenbasis U_l (X_l = U_l (M_l o
Q_l) V_l'), where psi_tilde_l = U_l diag(w - P_l diag(B_l' g B_l)) U_l' is
diagonal: on the state (g, g_hat), g_hat_l = U_l' g_tilde_l U_l, around the
rotated LoS means h_hat_l = U_l' h_l, an evaluation (`_System.rhs`) takes
e_l = 1/eig(psi_tilde_l) and

    g, g_hat_l = (pi - sum_l h_hat_l' diag(e_l) h_hat_l)^-1,
                 diag(e_l) + (e_l o h_hat_l) g (e_l o h_hat_l)',

with pi read from the diagonals of g_hat.  One m x m LU inverse, of pi - LoS, is
all it inverts.  The rotation is unitary, so the cone test, the residual and
Anderson's least squares see the same iteration as in the original basis;
`_solve` rotates a warm start in and the result out.  The direct form in the
original basis, with the LoS term sum_l h_l' psi_tilde_l^-1 h_l written once
(`_los`, from a stack of inverses), is what the guarded final pass, `residual`,
the Shannon transform of both branches and the PGA gradient evaluate, each with
one guarded inverse of the psi_tilde stack, so they check the iterate
independently.  The symbol-block variables are closed-form
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
(Walker & Ni, SIAM J. Numer. Anal. 2011) on the state (g, g_hat) packed into
one real vector (`_Packing`: the real view of g and of the g_hat stack), in which
g_hat is stored times sigma^2 so that both blocks start from (minus) the
identity.  It keeps the Gram matrix of its residual differences beside them and
updates one row and column of it per accepted iterate.  It is safeguarded in
the manner of Zhang, O'Donoghue & Boyd (SIAM J. Optim. 2020):

* an extrapolated iterate is used only if it lies in the sign cone below and
  its residual is at most `_SAFEGUARD` times that of the last accepted
  iterate; otherwise the driver takes the damped Picard step
  x + `_DAMPING` * (f(x) - x) from the last accepted iterate;
* after `_STALL` iterations without a new best residual the driver switches
  to plain damped Picard iteration from the best iterate;
* on convergence the undamped polish step x <- f(x) is kept only when it does
  not raise the residual.

An evaluation reads its input only through the reduced state x = (d, s, Tr g)
(`_System.reduce`), 2 L n_rx + 1 reals: the psi_tilde eigenvalue shifts
d_l = P_l diag(B_l' g B_l), the diagonals s_l = diag(g_hat_l) and Tr g.  So the
fixed point is also one of the reduced map R(x) = reduce(expand(x)), whose real
Jacobian J has a closed form (`_System.jacobian`).  Once an accepted Anderson
residual is at most `_NEWTON`, the driver takes undamped Newton steps
x <- x + (I - J)^-1 (R(x) - x) from that evaluation (Kelley, *Solving Nonlinear
Equations with Newton's Method*, SIAM 2003), guarded like the extrapolation:

* a step is evaluated only inside the reduced cone d > w, s < 0, Tr g > 0,
  where the evaluation lands in the sign cone, and kept only if its reduced
  residual is finite and at most `_NEWTON_DECREASE` times the last;
* the phase ends at a reduced residual of `_NEWTON_TOL` or at the first failed
  step, and hands the evaluation F(x) of its last kept step to the loop above,
  which tests, polishes and returns it like any iterate (with no kept step it
  goes on with Anderson from its last accepted iterate);
* a failed phase is retried once Anderson has cut the residual by
  `_NEWTON_RETRY`, and none runs once the Picard mode has engaged.

Newton evaluations count as iterations, with their reduced residual in the
history, and max_iter bounds them together with Anderson's.

The iterates invert pi - LoS through a plain LU inverse, which raises
`SingularMatrixError` only on an exactly singular matrix; a non-finite residual
(a zero psi_tilde eigenvalue among its causes) ends the iteration at once with a
`ConvergenceError` (numpy's floating-point warnings are silenced up to then,
since the error names the failure).  The 1e14 condition guard of `inv_herm`
runs once per solve, on one evaluation of the direct form at the returned state
(pi, the receive-side matrix, the psi_tilde stack and pi - LoS), and again on
the psi_tilde stack in the Shannon transform and the PGA gradient
(`gradient_term`).

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
from .correlation import ChannelMaps, assemble, rotated_diag
from .model import Beamformer, ScenarioStats, _check_count, effective_los

SIGN_EIG_FLOOR = -1e-8

_MEMORY = 10  # Anderson history length
_SAFEGUARD = 3.0  # largest accepted residual growth of an extrapolated iterate
_STALL = 100  # iterations without a new best residual before plain damped Picard
_DAMPING = 0.5  # Picard step of a rejected extrapolation and of the stall fallback
_NEWTON = 1e-2  # accepted residual at which the Newton finish takes over from Anderson
_NEWTON_RETRY = 0.1  # residual decrease after a Newton phase before the next one starts
_NEWTON_DECREASE = 0.5  # largest residual ratio of a kept Newton step
_NEWTON_TOL = 1e-12  # reduced residual at which the Newton finish stops


class ConvergenceError(RuntimeError):
    """The fixed-point iteration did not reach a valid converged state.

    `history` holds the residual of every iteration, in order (of a Newton
    evaluation, its reduced residual).
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
    formed), psi_tilde_blocks the (L, n_r, n_r) stack of Psi~_l, pi = Pi and
    phi = phi (phi I_{n_s} as a scalar).  The other symbol-block variables are
    functions of phi and g and are not stored: g_d = (1/phi) I_{n_s},
    phi_tilde = (-1/phi) I_m, g_dd = -phi I + phi^2 g and psi = pi - phi I.
    Communication: g = G_e (m, m), g_tilde = G~_e and psi_tilde_blocks = Omega~,
    each as a (1, n_u, n_u) stack, pi = Omega and phi = 1 (n_s = inf).
    """

    g: np.ndarray  # (m, m) Hermitian, positive definite
    g_tilde: np.ndarray  # (L, n_rx, n_rx), each block Hermitian, negative definite
    psi_tilde_blocks: np.ndarray  # (L, n_rx, n_rx), one block per channel
    pi: np.ndarray  # (m, m)
    phi: float
    residual: float
    iterations: int
    history: tuple[float, ...]  # residual of every iteration, in order (Newton's: reduced)


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
    """The state (g, g_tilde), g (m, m) and the g_tilde stack (num, n, n), in
    either basis (the iterate packs g_hat), as one real vector: the real view of
    the complex entries of g and of sigma^2 g_tilde (sigma^2 = -w).  The vector
    norm of each part is therefore its Frobenius norm, g_tilde's weighted by
    sigma^2."""

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
        d, g, g_tilde = x - gx, gx[:k], gx[k:]
        first = math.sqrt(d[:k] @ d[:k]) / (1.0 + math.sqrt(g @ g))
        second = math.sqrt(d[k:] @ d[k:]) / (self.scale + math.sqrt(g_tilde @ g_tilde))
        return math.nan if math.isnan(first + second) else max(first, second)


def _lu_inverse(a: np.ndarray, context: str) -> np.ndarray:
    """LU inverse of the Hermitian part of `a` with no condition guard: the
    iterate's inverse of pi - LoS.  Only an exactly singular matrix raises, by
    name."""
    try:
        return np.linalg.inv(herm(a))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(context, math.inf) from None


def _newton(system, x, g, g_hat, history: list, max_iter: int):
    """Undamped Newton steps x <- x + (I - J)^-1 (R(x) - x) on the reduced state x
    of an evaluated iterate, (g, g_hat) its evaluation, R = `system.reduce` after
    `system.expand` and J = `system.jacobian`.

    A step is taken only into the reduced cone and kept only if its evaluation cuts
    the reduced residual by `_NEWTON_DECREASE` (NaN does not); the phase stops at
    the first step that fails, at `_NEWTON_TOL`, or before the evaluation budget of
    `max_iter` (each evaluation appends its reduced residual to `history`).  Returns
    the evaluation (g, g_hat) = F(x) at the last kept step, None if no step was kept.
    """
    r = system.reduce(g, g_hat)
    residual = system.reduced_residual(x, r)
    kept = None
    while residual > _NEWTON_TOL and len(history) < max_iter:
        trial = x + np.linalg.solve(np.eye(x.size) - system.jacobian(x, g), r - x)
        if not system.in_reduced_cone(trial):
            break
        g, g_hat = system.expand(trial)
        r_trial = system.reduce(g, g_hat)
        trial_residual = system.reduced_residual(trial, r_trial)
        history.append(trial_residual)
        if not trial_residual <= _NEWTON_DECREASE * residual:
            break
        x, r, residual, kept = trial, r_trial, trial_residual, (g, g_hat)
    return kept


def _iterate(system, start, opts: SolverOptions):
    """Safeguarded Anderson iteration of `system.rhs` from the eigenbasis state
    `start` (g, g_hat), with a Newton finish (`_newton`) on the reduced state.

    Returns (state, residual, iterations, history) at the first iterate whose
    residual meets opts.tol, after the conditional polish step; iterations and
    history count every evaluation, Anderson's and Newton's, and opts.max_iter
    bounds them together.  The right-hand side is evaluated through an unguarded
    LU inverse (`_solve` guards the returned state); a non-finite residual ends the
    iteration at once, naming the spectral point w = -sigma^2.
    """
    packing = system.packing
    x = packing.pack(*start)
    # ring buffers of the differences of f(x) - x and of f(x) between accepted iterates,
    # and of the Gram matrix of the former, updated by one row and column per iterate
    d_f = np.empty((_MEMORY, x.size))
    d_g = np.empty((_MEMORY, x.size))
    gram = np.empty((_MEMORY, _MEMORY))
    stored = slot = 0
    history: list[float] = []
    last = best = None  # (x, f(x) - x, residual) of the last accepted / best iterate
    since_best = 0
    extrapolated = picard = False
    newton_below = _NEWTON  # accepted residual at which the next Newton phase starts

    def evaluate(x):
        state = packing.unpack(x)
        gx = packing.pack(*system.rhs(*state))
        return state, gx, packing.residual(x, gx)

    while True:
        state, gx, residual = evaluate(x)
        it = len(history)
        history.append(residual)
        if not math.isfinite(residual):
            reason = f"produced a non-finite evaluation at w = {system.w:.3e}"
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
            stored = min(stored + 1, _MEMORY)
            gram[slot, :stored] = gram[:stored, slot] = d_f[:stored] @ d_f[slot]
            slot = (slot + 1) % _MEMORY
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
        if residual <= newton_below:
            newton_below = _NEWTON_RETRY * residual
            finish = _newton(system, system.reduce(*state), *packing.unpack(gx), history, opts.max_iter)
            if finish is not None:  # checked by the next evaluation like an extrapolation
                x, extrapolated = packing.pack(*finish), True
                continue
        candidate = gx
        if stored:
            df = d_f[:stored]
            gamma = np.linalg.lstsq(gram[:stored, :stored], df @ f, rcond=None)[0]
            candidate = gx - gamma @ d_g[:stored]
        extrapolated = system.in_cone(*packing.unpack(candidate))
        x = candidate if extrapolated else x + _DAMPING * f

    raise ConvergenceError(system.branch, opts.max_iter, residual, history=history)


def _los(h: np.ndarray, d_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_l h_l' D_l^-1 h_l, the D_l^-1 h_l stack) over the L equal row blocks h_l
    of h, from the (L, n, n) stack of inverses D_l^-1."""
    d_inv_h = d_inv @ h.reshape(len(d_inv), -1, h.shape[1])
    return h.conj().T @ d_inv_h.reshape(-1, h.shape[1]), d_inv_h


class _System:
    """Right-hand sides of one deterministic-equivalent system at fixed (W, w).

    `channels` holds the statistics of each channel X_l, `h_raw` stacks their
    LoS means and h_eff = h_raw W; `_CONTEXTS[branch]` names its inverses.  The
    correlation maps are the channels' `ChannelMaps`, taken in the beamformed
    transmit basis W'[V_1 ... V_L].  The iterate runs on (g, g_hat), g_hat_l =
    U_l' g_tilde_l U_l in each channel's receive eigenbasis U_l, around the
    rotated LoS means h_hat_l = U_l' h_l.
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
        self.u_adj = self.maps.receive.conj().swapaxes(-1, -2)  # U_l'
        self.h_hat = self.u_adj @ h_eff.reshape(self.num_channels, self.n_rx, self.m)
        self.packing = _Packing(self.m, self.num_channels, self.n_rx, w)
        # the reduced state: P = blockdiag(P_l), (L n_rx, L n_t), and [B, h_hat'], whose
        # Gram matrix through g holds K1 = B'gB, K2 = B'g h_hat' and K3 = h_hat g h_hat'
        num, n_t = self.num_channels, self.maps.profile.shape[-1]
        self.profile = np.zeros((num * self.n_rx, num * n_t))
        self.profile.reshape(num, self.n_rx, num, n_t)[range(num), :, range(num)] = self.maps.profile
        self.frame = np.hstack([self.beamformed, self.h_hat.reshape(-1, self.m).conj().T])
        self.frame_adj = self.frame.conj().T
        n = num * self.n_rx
        self.parts = (slice(0, n), slice(n, 2 * n), slice(2 * n, None))  # d, s and Tr g

    def to_eigenbasis(self, g_tilde: np.ndarray) -> np.ndarray:
        """The g_hat stack herm(U_l' g_tilde_l U_l) of a g_tilde stack."""
        return herm(self.u_adj @ g_tilde @ self.maps.receive)

    def from_eigenbasis(self, g_hat: np.ndarray) -> np.ndarray:
        """The g_tilde stack herm(U_l g_hat_l U_l') of a g_hat stack."""
        return herm(self.maps.receive @ g_hat @ self.u_adj)

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
        return self.phi_of_trace(float(np.trace(g).real))

    def phi_of_trace(self, tr_g: float) -> float:
        """`phi` at Tr g = tr_g."""
        b = 1.0 - self.m / self.n_s
        discriminant = b * b + 4.0 * tr_g / self.n_s
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
        los, _ = _los(h, inv_herm(psi_t_blocks, contexts.psi_tilde))
        return herm(inv_herm(pi - los, contexts.g)), g_tilde

    def self_energies(self, g, g_tilde):
        """(psi_tilde blocks, pi, phi) at the state (g, g_tilde), phi taken from
        the closed form at g."""
        phi = self.phi(g)
        return self.psi_tilde_blocks(g), self.psi(g_tilde) + phi * np.eye(self.m), phi

    def reduce(self, g, g_hat) -> np.ndarray:
        """The reduced state x = (d, s, Tr g) of an eigenbasis state, all that an
        evaluation reads of it: the psi_tilde eigenvalue shifts d_l = P_l diag(B_l' g B_l)
        and the diagonals s_l = diag(g_hat_l), each stacked over l, then Tr g;
        2 L n_rx + 1 reals."""
        d, s, tr_g = self.parts
        x = np.empty(tr_g.start + 1)
        x[d] = self.profile @ rotated_diag(self.beamformed, g)
        x[s].reshape(self.num_channels, -1)[:] = np.diagonal(g_hat, axis1=1, axis2=2).real
        x[tr_g] = np.trace(g).real
        return x

    def reduced_residual(self, x: np.ndarray, r: np.ndarray) -> float:
        """Max over the parts d, s and Tr g of ||x - r|| / (1 + ||r||); NaN when any is."""
        v = x - r
        parts = [math.sqrt(v[k] @ v[k]) / (1.0 + math.sqrt(r[k] @ r[k])) for k in self.parts]
        return math.nan if math.isnan(sum(parts)) else max(parts)

    def in_reduced_cone(self, x: np.ndarray) -> bool:
        """d > w, s < 0 and Tr g > 0: then e < 0 and pi > 0, so an evaluation lands in
        the sign cone."""
        d, s, tr_g = self.parts
        return bool((x[d] > self.w).all() and (x[s] < 0.0).all() and x[tr_g] > 0.0)

    def eigen_energies(self, x: np.ndarray):
        """(psi_tilde eigenvalues, pi) at the reduced state x = (d, s, Tr g):
        psi_tilde_l = U_l diag(w - d_l) U_l', the eigenvalues an (L, n_rx) real array,
        and pi from s."""
        d, s, _ = self.parts
        pi = -assemble(self.beamformed, x[s] @ self.profile, self.beamformed)
        pi += self.phi_of_trace(x[-1]) * np.eye(self.m)
        return self.w - x[d].reshape(self.num_channels, -1), pi

    def expand(self, x: np.ndarray):
        """The evaluation (g, g_hat) at the reduced state x: with e_l =
        1/eig(psi_tilde_l), LoS = sum_l h_hat_l' diag(e_l) h_hat_l and
        g_hat_l = diag(e_l) + (e_l o h_hat_l) g (e_l o h_hat_l)', so that pi - LoS is
        the only inverse (`_lu_inverse`)."""
        eigenvalues, pi = self.eigen_energies(x)
        e = 1.0 / eigenvalues
        e_h = e[..., None] * self.h_hat
        los = self.frame[:, self.profile.shape[1]:] @ e_h.reshape(-1, self.m)  # h_hat' diag(e) h_hat
        g = herm(_lu_inverse(pi - los, self.contexts.g))
        g_hat = e_h @ g @ e_h.conj().swapaxes(-1, -2)
        g_hat.reshape(len(e), -1)[:, :: self.n_rx + 1] += e  # the block diagonals
        return g, herm(g_hat)

    def rhs(self, g, g_hat):
        """One Picard evaluation of an eigenbasis iterate, (rhs_g, rhs_g_hat)."""
        return self.expand(self.reduce(g, g_hat))

    def jacobian(self, x: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Jacobian J of the reduced map R: x -> reduce(*expand(x)) at x, real
        (2 L n_rx + 1)^2, from g = expand(x)[0].  With e = 1/(w - d), t = P's and
        K1, K2, K3 = B'gB, B'g h_hat', h_hat g h_hat' (|K|^2 entrywise),
        u = diag(B'g^2 B), v = diag(h_hat g^2 h_hat') and phi' = dphi/dTr g:

            dq   = |K1|^2 dt - phi' u dTr g + |K2|^2 (e^2 o dd),   dd' = P dq
            ds'  = e^2 (1 + 2 e o diag K3) o dd
                   + e^2 o (|K2|^2' dt - phi' v dTr g + |K3|^2 (e^2 o dd))
            dTr g' = u.dt - phi' Tr(g^2) dTr g + v.(e^2 o dd)
        """
        n, cols = self.profile.shape
        e = 1.0 / (self.w - x[:n])
        e2 = e * e
        phi = self.phi_of_trace(x[-1])
        slope = -phi * phi / (self.n_s - self.m + 2.0 * phi * x[-1])  # of n_s phi = n_s + m phi - phi^2 Tr g
        g_frame = g @ self.frame
        gram = self.frame_adj @ g_frame  # [[K1, K2], [K2', K3]]
        k = gram.real**2 + gram.imag**2
        uv = (g_frame.real**2 + g_frame.imag**2).sum(axis=0)  # (u, v)
        p_k = self.profile @ k[:cols]  # P [|K1|^2, |K2|^2]; k is symmetric
        jac = np.empty((2 * n + 1, 2 * n + 1))
        jac[:n, :n] = p_k[:, cols:] * e2
        jac[:n, n:-1] = p_k[:, :cols] @ self.profile.T
        jac[n:-1, :n] = e2[:, None] * k[cols:, cols:] * e2
        jac[n:-1, n:-1] = e2[:, None] * p_k[:, cols:].T
        i = np.arange(n)
        jac[n + i, i] += e2 * (1.0 + 2.0 * e * np.diagonal(gram)[cols:].real)
        p_u = self.profile @ uv[:cols]
        jac[:n, -1] = -slope * p_u
        jac[n:-1, -1] = -slope * e2 * uv[cols:]
        jac[-1, :n] = uv[cols:] * e2
        jac[-1, n:-1] = p_u
        jac[-1, -1] = -slope * np.vdot(g, g).real
        return jac

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
        return float(np.max([rel_residual(a, b) for a, b in pairs]))  # NaN in any part propagates

    def gradient_term(self, fp: FixedPoint) -> np.ndarray:
        """(psi_raw(g_tilde) - LoS(h_raw, psi_tilde)) W g at a converged state, where
        psi_raw W = -sum_l E[X_l' g_tilde_l X_l] W is the transmit-side self-energy
        before its left beamformer."""
        t = self.maps.transmit_diag(fp.g_tilde)
        psi_raw_w = -assemble(self.maps.transmit, t, self.beamformed)
        los, _ = _los(self.h_raw, inv_herm(fp.psi_tilde_blocks, self.contexts.psi_tilde))
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
    """Iterate `system` in the receive eigenbasis from the state of `initial`
    (None: the zero-channel solution), rotate the result back, guard every
    inverse of one direct-form evaluation at it and check the sign structure."""
    blocks = system.packing.blocks
    # a non-finite residual ends the iteration by name, so numpy's warnings up to it are noise
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if initial is None:  # the zero-channel solution, diagonal in every basis
            start = (np.eye(system.m), np.broadcast_to(np.eye(system.n_rx) / system.w, blocks))
        else:
            start = (initial.g, initial.g_tilde)
        shapes, expected = tuple(np.shape(b) for b in start), ((system.m, system.m), blocks)
        if shapes != expected:
            branch = system.branch
            raise ValueError(f"{branch} warm start has (g, g_tilde) shapes {shapes}, expected {expected}")
        if initial is not None:
            start = (initial.g, system.to_eigenbasis(initial.g_tilde))
        (g, g_hat), residual, it, history = _iterate(system, start, opts)
        g_tilde = system.from_eigenbasis(g_hat)
    psi_t, pi, phi = system.self_energies(g, g_tilde)
    system.resolvents(psi_t, pi)  # guarded: an ill-conditioned inverse raises
    if min_eigval(-g_tilde) < SIGN_EIG_FLOOR or min_eigval(g) < SIGN_EIG_FLOOR:
        reason = "violated the resolvent sign structure"
        raise ConvergenceError(system.branch, it, residual, reason, history)
    return FixedPoint(g, g_tilde, psi_t, pi, phi, residual, it, history)


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
