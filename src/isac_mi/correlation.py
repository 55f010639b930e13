"""One-sided correlation operators of the Weichselberger channel family.

For a random channel Gtilde = R (N o Q) T' with Q i.i.d. CN(0, 1/N_t), the
two maps

    eta(C)       = E[Gtilde' C Gtilde]   (n_rx x n_rx -> n_tx x n_tx)
    eta_tilde(C) = E[Gtilde C Gtilde']   (n_tx x n_tx -> n_rx x n_rx)

have the closed forms (1/N_t) T diag(.) T' and (1/N_t) R diag(.) R', where
the diagonals contract the squared variance profile against the diagonal of
the rotated argument.  tau/tau_tilde are the same maps for the uplink
channel and zeta/zeta_tilde the (trace/N_s)-type maps for the i.i.d. symbol
block.  The *_w variants absorb the beamformer into the channel, i.e. they
are the correlation operators of Gtilde @ W.

All operators are linear, positivity preserving and satisfy the trace
duality Tr(A eta(B)) = Tr(B eta_tilde(A)).
"""

from __future__ import annotations

import numpy as np

from ._linalg import hermitize
from .model import Beamformer, ScenarioStats, WeichselbergerStats


def rotated_diag(basis: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Real diagonal of B' C B for Hermitian C; batched over leading axes."""
    return np.einsum("...ij,...ij->...j", basis.conj(), c @ basis).real


def assemble(left: np.ndarray, diag: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left diag(d) right'; batched over leading axes."""
    return (left * diag[..., None, :]) @ right.conj().swapaxes(-1, -2)


class CorrelationOps:
    """Correlation operators bound to one scenario's statistics (stateless)."""

    def __init__(self, stats: ScenarioStats):
        self.stats = stats
        self.dims = stats.dims

    # -- sensing channels -------------------------------------------------

    def eta(self, l: int, c: np.ndarray) -> np.ndarray:
        """E[Gtilde_l' C Gtilde_l] for Hermitian C (n_r x n_r) -> (n_t x n_t)."""
        return self._to_tx(self.stats.sensing[l], c, f"eta({l})")

    def eta_tilde(self, l: int, c: np.ndarray) -> np.ndarray:
        """E[Gtilde_l C Gtilde_l'] for Hermitian C (n_t x n_t) -> (n_r x n_r)."""
        return self._to_rx(self.stats.sensing[l], c, f"eta_tilde({l})")

    # -- uplink channel ----------------------------------------------------

    def tau(self, e: np.ndarray) -> np.ndarray:
        """E[Htilde' E Htilde] for Hermitian E (n_u x n_u) -> (n_t x n_t)."""
        return self._to_tx(self.stats.comm, e, "tau")

    def tau_tilde(self, e: np.ndarray) -> np.ndarray:
        """E[Htilde E Htilde'] for Hermitian E (n_t x n_t) -> (n_u x n_u)."""
        return self._to_rx(self.stats.comm, e, "tau_tilde")

    # -- symbol block --------------------------------------------------------

    def zeta(self, d: np.ndarray) -> np.ndarray:
        """E[S' D S] = (Tr D / n_s) I_{n_s} for Hermitian D (m x m)."""
        d = hermitize(np.asarray(d), context="zeta input")
        self._check_shape(d, self.dims.m, "zeta")
        return (np.trace(d).real / self.dims.n_s) * np.eye(self.dims.n_s)

    def zeta_tilde(self, d: np.ndarray) -> np.ndarray:
        """E[S D S'] = (Tr D / n_s) I_m for Hermitian D (n_s x n_s)."""
        d = hermitize(np.asarray(d), context="zeta_tilde input")
        self._check_shape(d, self.dims.n_s, "zeta_tilde")
        return (np.trace(d).real / self.dims.n_s) * np.eye(self.dims.m)

    # -- beamformed variants (operators of Gtilde @ W / Htilde @ W) -----------

    def eta_w(self, l: int, c: np.ndarray, w_bf: Beamformer) -> np.ndarray:
        """E[(Gtilde_l W)' C (Gtilde_l W)] = W' eta_l(C) W, (m x m)."""
        w = w_bf.w
        return w.conj().T @ self.eta(l, c) @ w

    def eta_tilde_w(self, l: int, c: np.ndarray, w_bf: Beamformer) -> np.ndarray:
        """E[(Gtilde_l W) C (Gtilde_l W)'] = eta_tilde_l(W C W'), (n_r x n_r)."""
        w = w_bf.w
        self._check_shape(np.asarray(c), self.dims.m, f"eta_tilde_w({l})")
        return self.eta_tilde(l, w @ c @ w.conj().T)

    def tau_w(self, e: np.ndarray, w_bf: Beamformer) -> np.ndarray:
        """E[(Htilde W)' E (Htilde W)] = W' tau(E) W, (m x m)."""
        w = w_bf.w
        return w.conj().T @ self.tau(e) @ w

    def tau_tilde_w(self, e: np.ndarray, w_bf: Beamformer) -> np.ndarray:
        """E[(Htilde W) E (Htilde W)'] = tau_tilde(W E W'), (n_u x n_u)."""
        w = w_bf.w
        self._check_shape(np.asarray(e), self.dims.m, "tau_tilde_w")
        return self.tau_tilde(w @ e @ w.conj().T)

    # -- internals ----------------------------------------------------------

    def _to_tx(self, s: WeichselbergerStats, c: np.ndarray, name: str) -> np.ndarray:
        """E[X' C X] for the random part X of channel s, (n_rx x n_rx) -> (n_t x n_t)."""
        c = hermitize(np.asarray(c), context=f"{name} input")
        self._check_shape(c, s.left_unitary.shape[0], name)
        d = rotated_diag(s.left_unitary, c)  # length n_rx
        u = s.right_unitary
        return assemble(u, (s.variance_profile**2).T @ d / self.dims.n_t, u)

    def _to_rx(self, s: WeichselbergerStats, c: np.ndarray, name: str) -> np.ndarray:
        """E[X C X'] for the random part X of channel s, (n_t x n_t) -> (n_rx x n_rx)."""
        c = hermitize(np.asarray(c), context=f"{name} input")
        self._check_shape(c, self.dims.n_t, name)
        d = rotated_diag(s.right_unitary, c)  # length n_t
        u = s.left_unitary
        return assemble(u, (s.variance_profile**2) @ d / self.dims.n_t, u)

    @staticmethod
    def _check_shape(a: np.ndarray, n: int, context: str) -> None:
        if a.shape != (n, n):
            raise ValueError(f"{context} expects a {n}x{n} matrix, got {a.shape}")
