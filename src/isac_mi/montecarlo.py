"""Finite-size Monte Carlo oracle.

Samples channel and symbol realizations, evaluates the exact finite-size
mutual informations by log-determinants, and estimates expectations,
resolvent traces and eigenvalue ECDFs.  Every draw is a pure function of
(scenario seed, trial index).  Trials run serially: each draws its channels
and yields the Gram eigenvalues of one branch, from which every estimator
reduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import Beamformer, NoiseConfig, ScenarioStats, SystemDims, WeichselbergerStats
from .model import _check_count, _integral_seed

_CHANNEL_STREAM = 0
_SYMBOL_STREAM = 1


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    trials: int

    def __post_init__(self):
        _check_count(self.trials, "trials", 1)
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


def _trial_rng(seed: int, trial: int, stream: int) -> np.random.Generator:
    entropy = [_integral_seed(seed), _integral_seed(trial, "trial"), stream]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _draw_weichselberger(s: WeichselbergerStats, n_t: int, rng: np.random.Generator) -> np.ndarray:
    shape = s.mean.shape
    p = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0 * n_t)
    return s.mean + s.left_unitary @ (s.variance_profile * p) @ s.right_unitary.conj().T


def sample_channels(stats: ScenarioStats, trial: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """One realization (H_c, [G_1, ..., G_L]), deterministic in (stats.seed, trial)."""
    rng = _trial_rng(stats.seed, trial, _CHANNEL_STREAM)
    h_c = _draw_weichselberger(stats.comm, stats.dims.n_t, rng)
    g_list = [_draw_weichselberger(s, stats.dims.n_t, rng) for s in stats.sensing]
    return h_c, g_list


def sample_symbols(dims: SystemDims, trial: int, seed: int = 0) -> np.ndarray:
    """Symbol block S (m, n_s) with i.i.d. CN(0, 1/n_s) entries, so E[SS'] = I_m."""
    rng = _trial_rng(seed, trial, _SYMBOL_STREAM)
    shape = (dims.m, dims.n_s)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(
        2.0 * dims.n_s
    )


def _gram_eigvals(channels: Iterable[np.ndarray], w_bf: Beamformer, s=None) -> np.ndarray:
    """Eigenvalues, ascending, of the Hermitian PSD Gram matrix A A', where A
    stacks the beamformed channels X_l W, times the symbol block S if given."""
    a = np.vstack([x @ w_bf.w for x in channels])
    a = a if s is None else a @ s
    b = a @ a.conj().T
    return np.linalg.eigvalsh(0.5 * (b + b.conj().T))


def _logdet_from_eigvals(evals: np.ndarray, sigma2: float) -> np.ndarray:
    """log det(I + B/sigma2) from the eigenvalues of B along the last axis."""
    vals = np.log1p(np.clip(evals, 0.0, None) / sigma2)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite logdet: invalid inputs")
    return vals.sum(axis=-1)


def finite_mi_sensing(
    g_list: Iterable[np.ndarray], s: np.ndarray, w_bf: Beamformer, sigma_s2: float
) -> float:
    """Exact sensing MI logdet(I + Ghat S S' Ghat'/sigma2) in nats, Ghat stacking G_l W."""
    if sigma_s2 <= 0.0:
        raise ValueError("sigma_s2 must be positive")
    return float(_logdet_from_eigvals(_gram_eigvals(g_list, w_bf, s), sigma_s2))


def finite_mi_comm(h_c: np.ndarray, w_bf: Beamformer, sigma_c2: float) -> float:
    """Exact communication MI logdet(I + H W W' H'/sigma2) in nats."""
    if sigma_c2 <= 0.0:
        raise ValueError("sigma_c2 must be positive")
    return float(_logdet_from_eigvals(_gram_eigvals((h_c,), w_bf), sigma_c2))


def _trial_eigvals(stats: ScenarioStats, w_bf: Beamformer, trial: int, branch: str) -> np.ndarray:
    """Gram eigenvalues of one trial's sensing or comm matrix.

    Draws the channels; the symbols only for the sensing branch.
    """
    h_c, g_list = sample_channels(stats, trial)
    if branch == "sensing":
        return _gram_eigvals(g_list, w_bf, sample_symbols(stats.dims, trial, seed=stats.seed))
    return _gram_eigvals((h_c,), w_bf)


def _branch_eigvals(
    stats: ScenarioStats, w_bf: Beamformer, trials: int, branch: str
) -> np.ndarray:
    """The (trials, n) array of every trial's Gram eigenvalues for one branch."""
    return np.array([_trial_eigvals(stats, w_bf, t, branch) for t in range(trials)])


# quantity -> (branch, MI or resolvent)
_QUANTITIES = {
    "mi_s": ("sensing", True),
    "mi_c": ("comm", True),
    "resolvent_s": ("sensing", False),
    "resolvent_c": ("comm", False),
}


def _reduce(values: np.ndarray) -> McEstimate:
    n = len(values)
    mean = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean, std_error, n)


def estimate(
    stats: ScenarioStats,
    w_bf: Beamformer,
    noise: NoiseConfig,
    quantity: str,
    trials: int,
) -> McEstimate:
    """Sample mean and standard error of one finite-size quantity.

    quantity is one of mi_s, mi_c (MIs in nats at the branch noise power) or
    resolvent_s, resolvent_c (normalized resolvent traces at w = -sigma2).
    Trials run serially in index order.
    """
    _check_count(trials, "trials", 2)
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {tuple(_QUANTITIES)}")
    branch, is_mi = _QUANTITIES[quantity]
    sigma2 = noise.sigma_s2 if branch == "sensing" else noise.sigma_c2
    evals = _branch_eigvals(stats, w_bf, trials, branch)
    if is_mi:
        values = _logdet_from_eigvals(evals, sigma2)
    else:
        values = np.mean(1.0 / (-sigma2 - evals), axis=-1)
    return _reduce(values)


def mi_curves(
    stats: ScenarioStats,
    w_bf: Beamformer,
    noise_grid: list[NoiseConfig],
    trials: int,
) -> tuple[list[McEstimate], list[McEstimate]]:
    """MC sensing and communication MI over an SNR grid, reusing realizations.

    Keeps the eigenvalues of both Gram matrices of every trial and
    evaluates every noise power from them; identical trial streams to
    `estimate`, so the means agree exactly with per-SNR calls.  Each branch
    draws its trial's channels itself, so every trial draws them twice.
    """
    _check_count(trials, "trials", 2)
    evals_s = _branch_eigvals(stats, w_bf, trials, "sensing")
    evals_c = _branch_eigvals(stats, w_bf, trials, "comm")
    sensing = [_reduce(_logdet_from_eigvals(evals_s, n.sigma_s2)) for n in noise_grid]
    comm = [_reduce(_logdet_from_eigvals(evals_c, n.sigma_c2)) for n in noise_grid]
    return sensing, comm


class EigenEcdf:
    """Pooled eigenvalue sample with a right-continuous ECDF evaluator."""

    def __init__(self, eigenvalues: np.ndarray):
        self.eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))

    def __call__(self, x) -> np.ndarray | float:
        frac = np.searchsorted(self.eigenvalues, np.asarray(x, dtype=float), side="right")
        out = frac / len(self.eigenvalues)
        return float(out) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def eigen_ecdf(
    stats: ScenarioStats, w_bf: Beamformer, noise: NoiseConfig, branch: str, trials: int
) -> EigenEcdf:
    """ECDF of the eigenvalues of the sensing or comm Gram matrix, pooled over trials."""
    _check_count(trials, "trials", 1)
    if branch not in ("sensing", "comm"):
        raise ValueError("branch must be 'sensing' or 'comm'")
    evals = _branch_eigvals(stats, w_bf, trials, branch)
    return EigenEcdf(evals.ravel())
