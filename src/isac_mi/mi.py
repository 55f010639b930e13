"""Shannon and Cauchy transforms of the converged fixed points, weighted MI.

The per-dimension Shannon transforms are assembled from log-determinant and
trace terms of the fixed-point matrices.  Two of the sensing log-dets run
over negative-definite matrices whose phases cancel only jointly, so every
term is accumulated as a complex log and the total is asserted real up to
the pair's constant phase of pi * m (the real part is then exactly the
paired positive-definite evaluation).  All values are in nats; CSV output
converts to bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# inv_herm is unused here but stays bound: bench/tracer.py wraps isac_mi.mi.inv_herm by name
from ._linalg import inv_herm, logdet_phased  # noqa: F401
from .fixedpoint import (
    CommFixedPoint,
    SensingFixedPoint,
    SolverOptions,
    SpectralPoint,
    _diag_block,
    _los_term,
    solve_comm,
    solve_sensing,
)
from .model import Beamformer, NoiseConfig, ScenarioStats, SystemDims, effective_los

IMAG_RESIDUE_TOL = 1e-8


class NonRealShannonError(ArithmeticError):
    """The Shannon-transform terms did not combine to a real value."""

    def __init__(self, branch: str, residue: float):
        super().__init__(
            f"{branch} Shannon transform has non-real total (phase residue {residue:.3e}); "
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

    def to_csv_row(self, snr_db: float) -> str:
        ln2 = math.log(2.0)
        fields = (
            f"{snr_db:.12g}",
            f"{self.rho:.12g}",
            f"{self.i_s / ln2:.12g}",
            f"{self.i_c / ln2:.12g}",
            f"{self.weighted / ln2:.12g}",
            f"{self.diagnostics.residual_s:.6e}",
            f"{self.diagnostics.residual_c:.6e}",
            str(self.diagnostics.iterations_s),
            str(self.diagnostics.iterations_c),
        )
        return ",".join(fields)

    CSV_HEADER = "snr_db,rho,i_s_bits,i_c_bits,weighted_bits,residual_s,residual_c,iters_s,iters_c"


def _assert_real(total: complex, expected_phase: float, branch: str) -> float:
    residue = abs(np.exp(1j * total.imag) - np.exp(1j * expected_phase))
    if residue > IMAG_RESIDUE_TOL:
        raise NonRealShannonError(branch, residue)
    return total.real


def shannon_sensing(
    fp: SensingFixedPoint, point: SpectralPoint, dims: SystemDims, g_eff: np.ndarray
) -> float:
    """Per-dimension Shannon transform of the sensing Gram matrix at w = point.w."""
    w = point.w
    m = dims.m
    ln_r = dims.num_scatter * dims.n_r
    n_r = dims.n_r
    if g_eff.shape != (ln_r, m):
        raise ValueError(f"g_eff shape {g_eff.shape} != {(ln_r, m)}")

    total = 0.0 + 0.0j
    for l, block in enumerate(fp.psi_tilde_blocks):
        total += logdet_phased(block / w)
        # trace against the block-diagonal wI - psi_tilde
        total += np.trace(_diag_block(fp.g_c_tilde, l, n_r) @ (w * np.eye(n_r) - block))
    los = _los_term(g_eff, fp.psi_tilde_blocks, "sensing psi_tilde block inverse")
    phi_tilde_inv = 1.0 / fp.phi_tilde_scalar
    total += logdet_phased(fp.psi - los - phi_tilde_inv * np.eye(m))
    total += logdet_phased(fp.phi_tilde_scalar * np.eye(m))
    total += fp.g_d_scalar * np.trace(fp.g_dd)  # Tr(g_d_tilde * zeta(g_d))
    total += dims.n_s * math.log(fp.phi_scalar)

    # The phi_tilde log-det runs over a negative-definite matrix; its phase
    # pi*m is the only expected imaginary contribution.
    value = _assert_real(total, math.pi * m, "sensing")
    return value / ln_r


def shannon_comm(
    fp: CommFixedPoint, point: SpectralPoint, dims: SystemDims, h_eff: np.ndarray
) -> float:
    """Per-dimension Shannon transform of the communication Gram matrix."""
    w = point.w
    if h_eff.shape != (dims.n_u, dims.m):
        raise ValueError(f"h_eff shape {h_eff.shape} != {(dims.n_u, dims.m)}")
    total = logdet_phased(fp.omega_tilde / w)
    # tau_tilde_w(g_e) = wI - omega_tilde at the fixed point
    total += np.trace(fp.g_e_tilde @ (w * np.eye(dims.n_u) - fp.omega_tilde))
    total -= logdet_phased(fp.g_e)
    value = _assert_real(total, 0.0, "comm")
    return value / dims.n_u


def cauchy_sensing(fp: SensingFixedPoint) -> float:
    """Normalized trace of the sensing resolvent block, (1/Ln_r) Tr(g_c_tilde)."""
    return float(np.trace(fp.g_c_tilde).real) / fp.g_c_tilde.shape[0]


def cauchy_comm(fp: CommFixedPoint) -> float:
    return float(np.trace(fp.g_e_tilde).real) / fp.g_e_tilde.shape[0]


def weighted_mi(
    stats: ScenarioStats,
    w_bf: Beamformer,
    noise: NoiseConfig,
    rho: float,
    opts: SolverOptions = SolverOptions(),
    return_fixed_points: bool = False,
):
    """Solve both branches and combine: rho * i_s + (1 - rho) * i_c, in nats.

    Sensing is evaluated at sigma_s2 and communication at sigma_c2.  With
    return_fixed_points=True the converged fixed points are returned as well
    (used by the beamforming optimizer).
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    dims = stats.dims
    point_s = SpectralPoint.from_noise_power(noise.sigma_s2)
    point_c = SpectralPoint.from_noise_power(noise.sigma_c2)
    fp_s = solve_sensing(stats, w_bf, point_s, opts)
    fp_c = solve_comm(stats, w_bf, point_c, opts)
    g_eff, h_eff, _ = effective_los(stats, w_bf)
    i_s = dims.num_scatter * dims.n_r * shannon_sensing(fp_s, point_s, dims, g_eff)
    i_c = dims.n_u * shannon_comm(fp_c, point_c, dims, h_eff)
    report = MiReport(
        i_s=i_s,
        i_c=i_c,
        weighted=rho * i_s + (1.0 - rho) * i_c,
        rho=rho,
        diagnostics=SolveDiagnostics(fp_s.residual, fp_s.iterations, fp_c.residual, fp_c.iterations),
    )
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
    vanish to finite-difference accuracy on any scenario.
    """
    if h <= 0.0:
        raise ValueError("finite-difference step must be positive")
    if branch not in ("sensing", "comm"):
        raise ValueError("branch must be 'sensing' or 'comm'")
    sigma2 = noise.sigma_s2 if branch == "sensing" else noise.sigma_c2
    g_eff, h_eff, _ = effective_los(stats, w_bf)

    def value(s2: float) -> float:
        point = SpectralPoint.from_noise_power(s2)
        if branch == "sensing":
            fp = solve_sensing(stats, w_bf, point, opts)
            return shannon_sensing(fp, point, stats.dims, g_eff)
        fp = solve_comm(stats, w_bf, point, opts)
        return shannon_comm(fp, point, stats.dims, h_eff)

    fd = (value(sigma2 + h) - value(sigma2 - h)) / (2.0 * h)
    point = SpectralPoint.from_noise_power(sigma2)
    if branch == "sensing":
        cauchy = cauchy_sensing(solve_sensing(stats, w_bf, point, opts))
    else:
        cauchy = cauchy_comm(solve_comm(stats, w_bf, point, opts))
    return abs(fd - (-1.0 / sigma2 - cauchy))
