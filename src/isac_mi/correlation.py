"""One-sided correlation maps of the Weichselberger channel family.

For the random part X = U (M o Q) V' of a channel, Q i.i.d. CN(0, 1/N_t) and
P = M^2 / N_t, the maps (Hachem, Loubaton & Najim, Ann. Appl. Probab. 2007)

    E[X' C X] = V diag(P' diag(U' C U)) V'   (n_rx x n_rx -> n_t x n_t)
    E[X C X'] = U diag(P diag(V' C V)) U'    (n_t x n_t -> n_rx x n_rx)

have one definition, `ChannelMaps`, stacked over L channels; with the transmit
basis W'V in place of V they are the maps of X W.  `CorrelationOps` gives them
per channel on checked Hermitian inputs (eta/eta_tilde: sensing, tau/tau_tilde:
uplink, *_w: beamformed).  The maps are linear, positivity preserving and satisfy
the trace duality Tr(A E[X' B X]) = Tr(B E[X A X']).
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


class ChannelMaps:
    """The correlation maps of L channels X_l = U_l (M_l o Q_l) V_l' of equal receive
    size n_rx: U_l, P_l = M_l^2 / n_t and [V_1 ... V_L].  A transmit basis
    [B_1 ... B_L] holds B_l = V_l (the maps of X_l) or W'V_l (those of X_l W)."""

    def __init__(self, channels: tuple[WeichselbergerStats, ...]):
        self.receive = np.stack([c.left_unitary for c in channels])  # (L, n_rx, n_rx)
        profile = np.stack([c.variance_profile**2 for c in channels])  # (L, n_rx, n_t)
        self.profile = profile / profile.shape[-1]
        self.transmit = np.hstack([c.right_unitary for c in channels])  # [V_1 ... V_L]

    def receive_side(self, basis: np.ndarray, c: np.ndarray) -> np.ndarray:
        """U_l diag(P_l diag(B_l' c B_l)) U_l' of every channel, stacked (L, n_rx, n_rx):
        E[X_l c X_l'] for B_l = V_l, E[X_l W c W' X_l'] for B_l = W'V_l."""
        d = rotated_diag(basis, c).reshape(len(self.receive), -1)
        return assemble(self.receive, np.einsum("lij,lj->li", self.profile, d), self.receive)

    def transmit_diag(self, blocks: np.ndarray) -> np.ndarray:
        """P_l' diag(U_l' c_l U_l) of every block c_l (L, n_rx, n_rx), end to end, so
        that assemble(A, t, B) = sum_l A_l diag(t_l) B_l' and
        assemble(V, t, V) = sum_l E[X_l' c_l X_l]."""
        d = rotated_diag(self.receive, blocks)
        return np.einsum("lij,li->lj", self.profile, d).ravel()


class CorrelationOps:
    """Correlation maps of one scenario's channels, one channel at a time, on
    checked Hermitian inputs (stateless)."""

    def __init__(self, stats: ScenarioStats):
        self.stats = stats
        self.dims = stats.dims
        self._sensing = [ChannelMaps((s,)) for s in stats.sensing]
        self._comm = ChannelMaps((stats.comm,))

    # -- sensing channels -------------------------------------------------

    def eta(self, l: int, c: np.ndarray) -> np.ndarray:
        """E[Gtilde_l' C Gtilde_l] for Hermitian C (n_r x n_r) -> (n_t x n_t)."""
        return self._to_tx(self._sensing[l], c, None, f"eta({l})")

    def eta_tilde(self, l: int, c: np.ndarray) -> np.ndarray:
        """E[Gtilde_l C Gtilde_l'] for Hermitian C (n_t x n_t) -> (n_r x n_r)."""
        return self._to_rx(self._sensing[l], c, None, f"eta_tilde({l})")

    # -- uplink channel ----------------------------------------------------

    def tau(self, e: np.ndarray) -> np.ndarray:
        """E[Htilde' E Htilde] for Hermitian E (n_u x n_u) -> (n_t x n_t)."""
        return self._to_tx(self._comm, e, None, "tau")

    def tau_tilde(self, e: np.ndarray) -> np.ndarray:
        """E[Htilde E Htilde'] for Hermitian E (n_t x n_t) -> (n_u x n_u)."""
        return self._to_rx(self._comm, e, None, "tau_tilde")

    # -- beamformed variants (operators of Gtilde @ W / Htilde @ W) -----------

    def eta_w(self, l: int, c: np.ndarray, w_bf: Beamformer) -> np.ndarray:
        """E[(Gtilde_l W)' C (Gtilde_l W)] = W' eta_l(C) W, (m x m)."""
        return self._to_tx(self._sensing[l], c, w_bf, f"eta_w({l})")

    def eta_tilde_w(self, l: int, c: np.ndarray, w_bf: Beamformer) -> np.ndarray:
        """E[(Gtilde_l W) C (Gtilde_l W)'] = eta_tilde_l(W C W'), (n_r x n_r)."""
        return self._to_rx(self._sensing[l], c, w_bf, f"eta_tilde_w({l})")

    def tau_w(self, e: np.ndarray, w_bf: Beamformer) -> np.ndarray:
        """E[(Htilde W)' E (Htilde W)] = W' tau(E) W, (m x m)."""
        return self._to_tx(self._comm, e, w_bf, "tau_w")

    def tau_tilde_w(self, e: np.ndarray, w_bf: Beamformer) -> np.ndarray:
        """E[(Htilde W) E (Htilde W)'] = tau_tilde(W E W'), (n_u x n_u)."""
        return self._to_rx(self._comm, e, w_bf, "tau_tilde_w")

    # -- internals ----------------------------------------------------------

    def _to_tx(self, maps: ChannelMaps, c, w_bf: Beamformer | None, name: str) -> np.ndarray:
        """E[X' C X] (or W' E[X' C X] W) for the random part X of one channel."""
        c = self._checked(c, maps.receive.shape[-1], name)
        basis = maps.transmit if w_bf is None else w_bf.w.conj().T @ maps.transmit
        return assemble(basis, maps.transmit_diag(c[None]), basis)

    def _to_rx(self, maps: ChannelMaps, c, w_bf: Beamformer | None, name: str) -> np.ndarray:
        """E[X C X'] (or E[X W C W' X']) for the random part X of one channel."""
        basis = maps.transmit if w_bf is None else w_bf.w.conj().T @ maps.transmit
        return maps.receive_side(basis, self._checked(c, basis.shape[0], name))[0]

    @staticmethod
    def _checked(c, n: int, context: str) -> np.ndarray:
        c = np.asarray(c)
        if c.shape != (n, n):
            raise ValueError(f"{context} expects a {n}x{n} matrix, got {c.shape}")
        return hermitize(c, context=f"{context} input")
