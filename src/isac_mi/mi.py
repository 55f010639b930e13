"""Shannon and Cauchy transforms of the converged fixed points, weighted MI.

Both branches share one Shannon transform, `_shannon`, in the form that is
stationary in every stored variable, so the MIs are second-order accurate in
the solver residual:  V = log det(pi - LoS(h, psi_tilde)) + Phi
+ sum_l [log det(psi_tilde_l / w) + Tr(g_tilde_l (wI - psi_tilde_l))], where the
symbol-block terms Phi = (n_s - m) log phi + phi Tr g - m vanish in the
communication limit n_s -> inf.  Every log-det is of a positive definite matrix;
the complex total is asserted real.  Values are in nats; CSV output converts to bits.

`_branch` is the one map from a branch name to its solver, Shannon transform,
spectral point, LoS mean and system; `_solve_branches` solves any subset of the
branches, for `weighted_mi` (both) and the beamforming optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._linalg import SingularMatrixError, inv_herm, logdet_phased
from .fixedpoint import (
    ConvergenceError,
    FixedPoint,
    SolverOptions,
    SpectralPoint,
    _CONTEXTS,
    _comm_system,
    _los,
    _sensing_system,
    solve_comm,
    solve_sensing,
)
from .model import Beamformer, NoiseConfig, ScenarioStats, SystemDims, effective_los

IMAG_RESIDUE_TOL = 1e-8


class NonRealShannonError(ArithmeticError):
    """The Shannon-transform terms did not combine to a real value."""

    def __init__(self, branch: str, residue: float):
        super().__init__(
            f"{branch} Shannon transform has non-real total (imaginary part {residue:.3e}); "
            "this signals a transcription or convergence fault"
        )
        self.residue = residue


@dataclass(frozen=True)
class SolveDiagnostics:
    residual_s: float
    iterations_s: int
    residual_c: float
    iterations_c: int


@dataclass(frozen=True)
class MiReport:
    """Sensing, communication and weighted asymptotic MI in nats."""

    i_s: float
    i_c: float
    weighted: float
    rho: float
    diagnostics: SolveDiagnostics


def _assert_real(total: complex, branch: str) -> float:
    residue = abs(total.imag)
    if residue > IMAG_RESIDUE_TOL:
        raise NonRealShannonError(branch, residue)
    return total.real


def _symbol_block_terms(phi: float, tr_g: complex, m: int, n_s: float) -> complex:
    """Phi = (n_s - m) log phi + phi Tr g - m; 0 in the n_s -> inf limit."""
    if math.isinf(n_s):
        return 0.0
    return (n_s - m) * math.log(phi) + phi * tr_g - m


def _shannon(branch, fp: FixedPoint, h, n_s, w) -> float:
    """Per-dimension Shannon transform V / rows(h) of one system at the stored state of `fp`."""
    blocks = fp.psi_tilde_blocks
    total = logdet_phased(fp.pi - _los(h, inv_herm(blocks, _CONTEXTS[branch].psi_tilde))[0])
    for g_tilde_l, block in zip(fp.g_tilde, blocks):
        total += logdet_phased(block / w)
        total += np.trace(g_tilde_l @ (w * np.eye(len(block)) - block))
    total += _symbol_block_terms(fp.phi, np.trace(fp.g), fp.pi.shape[0], n_s)
    return _assert_real(total, branch) / h.shape[0]


def shannon_sensing(
    fp: FixedPoint, point: SpectralPoint, dims: SystemDims, g_eff: np.ndarray
) -> float:
    """Per-dimension Shannon transform of the sensing Gram matrix at w = point.w."""
    if g_eff.shape != (dims.num_scatter * dims.n_r, dims.m):
        raise ValueError(f"g_eff shape {g_eff.shape} != {(dims.num_scatter * dims.n_r, dims.m)}")
    return _shannon("sensing", fp, g_eff, dims.n_s, point.w)


def shannon_comm(
    fp: FixedPoint, point: SpectralPoint, dims: SystemDims, h_eff: np.ndarray
) -> float:
    """Per-dimension Shannon transform of the communication Gram matrix (n_s = inf)."""
    if h_eff.shape != (dims.n_u, dims.m):
        raise ValueError(f"h_eff shape {h_eff.shape} != {(dims.n_u, dims.m)}")
    return _shannon("comm", fp, h_eff, math.inf, point.w)


def _cauchy(fp: FixedPoint) -> float:
    """Normalized trace of the resolvent block g_tilde: (1/Ln_r) Tr(G~_c) for
    sensing, (1/n_u) Tr(G~_e) for communication: the mean diagonal entry of the
    stored blocks."""
    return float(fp.g_tilde.diagonal(axis1=1, axis2=2).real.mean())


cauchy_sensing = cauchy_comm = _cauchy


def _solve_from(solve, stats, w_bf, point, opts, initial):
    """`solve` warm-started from the fixed point `initial`, re-solved cold when
    `initial` is None or the warm solve fails; only a failed cold solve raises."""
    if initial is not None:
        try:
            return solve(stats, w_bf, point, opts, initial=initial)
        except (ConvergenceError, SingularMatrixError):
            pass
    return solve(stats, w_bf, point, opts)


_BRANCH_NAMES = ("sensing", "comm")  # the order of fixed points and MIs throughout


class _Branch(NamedTuple):
    solve: Callable  # solve_sensing or solve_comm
    shannon: Callable  # shannon_sensing or shannon_comm
    point: SpectralPoint  # w = -sigma2 at the branch's noise power
    los: int  # index of the branch's LoS mean in effective_los(stats, w_bf)
    system: Callable  # (stats, w_bf, w) -> the branch's fixedpoint._System


def _branch(name: str, noise: NoiseConfig) -> _Branch:
    """Everything that goes with one branch at the noise powers `noise`.  The
    solver and the transform are this module's bindings at call time, so a
    patched or traced binding sees every solve."""
    if name == "sensing":
        point = SpectralPoint.from_noise_power(noise.sigma_s2)
        return _Branch(solve_sensing, shannon_sensing, point, 0, _sensing_system)
    if name == "comm":
        point = SpectralPoint.from_noise_power(noise.sigma_c2)
        return _Branch(solve_comm, shannon_comm, point, 1, _comm_system)
    raise ValueError("branch must be 'sensing' or 'comm'")


def _report(rho: float, i_s: float, fp_s, i_c: float, fp_c) -> MiReport:
    """The MiReport of the two branches.  A branch left unsolved (fp None, MI
    nan; only at zero weight) reads residual nan and 0 iterations, and the
    weighted value is then the solved branch's MI."""
    if fp_s is None:
        weighted = i_c
    elif fp_c is None:
        weighted = i_s
    else:
        weighted = rho * i_s + (1.0 - rho) * i_c
    res_s, it_s = (math.nan, 0) if fp_s is None else (fp_s.residual, fp_s.iterations)
    res_c, it_c = (math.nan, 0) if fp_c is None else (fp_c.residual, fp_c.iterations)
    return MiReport(i_s, i_c, weighted, rho, SolveDiagnostics(res_s, it_s, res_c, it_c))


def _solve_branches(stats, w_bf, noise, rho, opts, initial, known):
    """(report, fp_s, fp_c) of w_bf.  Each branch k with known[k] None is solved,
    warm from initial[k] (`initial` None: cold) with a cold fallback, and its MI
    in nats taken at its LoS mean; every other branch is known[k] = (MI, fixed
    point), which is (nan, None) for a branch left unsolved."""
    means = effective_los(stats, w_bf)
    results = []
    for k, (name, given) in enumerate(zip(_BRANCH_NAMES, known)):
        if given is None:
            branch = _branch(name, noise)
            warm = None if initial is None else initial[k]
            fp = _solve_from(branch.solve, stats, w_bf, branch.point, opts, warm)
            mean = means[branch.los]
            given = mean.shape[0] * branch.shannon(fp, branch.point, stats.dims, mean), fp
        results.append(given)
    (i_s, fp_s), (i_c, fp_c) = results
    return _report(rho, i_s, fp_s, i_c, fp_c), fp_s, fp_c


def weighted_mi(
    stats: ScenarioStats,
    w_bf: Beamformer,
    noise: NoiseConfig,
    rho: float,
    opts: SolverOptions = SolverOptions(),
    return_fixed_points: bool = False,
    initial: tuple[FixedPoint, FixedPoint] | None = None,
):
    """`_solve_branches` over both branches, combined: rho * i_s + (1 - rho) * i_c, in nats.

    Sensing is evaluated at sigma_s2 and communication at sigma_c2.  With
    return_fixed_points=True the converged fixed points are returned as well;
    the beamforming optimizer passes those of a nearby beamformer back as
    `initial` = (sensing, comm) to warm-start both solves, with a cold re-solve
    of a branch whose warm solve fails.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    report, fp_s, fp_c = _solve_branches(stats, w_bf, noise, rho, opts, initial, (None, None))
    if return_fixed_points:
        return report, fp_s, fp_c
    return report


def derivative_identity_check(
    stats: ScenarioStats,
    w_bf: Beamformer,
    noise: NoiseConfig,
    branch: str,
    h: float,
    opts: SolverOptions = SolverOptions(),
) -> float:
    """|dV/dsigma2 + 1/sigma2 + G(-sigma2)| with a central finite difference.

    The per-dimension Shannon transform of either branch must satisfy
    dV/dsigma2 = -1/sigma2 - G(-sigma2); the returned discrepancy should
    vanish to finite-difference accuracy on any scenario.  The step h is in (0, sigma2).
    The sigma2 +- h solves are warm-started from the solve at sigma2.
    """
    lookup = _branch(branch, noise)
    sigma2 = -lookup.point.w
    if not 0.0 < h < sigma2:
        raise ValueError(f"finite-difference step {h:g} must lie in (0, sigma2 = {sigma2:g})")
    mean = effective_los(stats, w_bf)[lookup.los]

    centre = lookup.solve(stats, w_bf, lookup.point, opts)

    def value(s2: float) -> float:
        point = SpectralPoint.from_noise_power(s2)
        fp = _solve_from(lookup.solve, stats, w_bf, point, opts, centre)
        return lookup.shannon(fp, point, stats.dims, mean)

    fd = (value(sigma2 + h) - value(sigma2 - h)) / (2.0 * h)
    return abs(fd - (-1.0 / sigma2 - _cauchy(centre)))
