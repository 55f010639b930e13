"""Projected gradient ascent on the weighted asymptotic MI.

The ascent direction is the closed-form conjugate (Wirtinger) gradient of
the weighted MI with the fixed-point quantities held at their converged
values; by stationarity of the deterministic equivalent this equals the
total derivative, which the finite-difference suite pins down.  For a real
objective f(W), a perturbation dW changes f by 2 Re Tr(grad' dW), so the
update W + lambda * grad ascends.  Every candidate step is followed by a
projection onto the Frobenius power ball and evaluated by a full
fixed-point re-solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# inv_herm is unused here but stays bound: bench/tracer.py wraps isac_mi.optimizer.inv_herm by name
from ._linalg import SingularMatrixError, inv_herm  # noqa: F401
from .fixedpoint import CommFixedPoint, ConvergenceError, SensingFixedPoint, SolverOptions
from .fixedpoint import _los_term, _SensingSystem
from .mi import NonRealShannonError, weighted_mi
from .model import Beamformer, NoiseConfig, ScenarioStats

UNCONVERGED_RESIDUAL = 1e-6


class PgaAbort(RuntimeError):
    """A solver failure inside a PGA iteration; carries the trace so far."""

    def __init__(self, message: str, trace: "PgaTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class PgaOptions:
    """Stopping rule, step rule and initialization for the ascent.

    step is "backtracking" (Armijo shrinking from lambda0, default
    sqrt(p_t)/(1 + ||grad||_F)) or "fixed" (constant lambda0, accepted
    unconditionally).  init is None for a random Gaussian start projected
    to the power ball, or a Beamformer to start from.
    """

    epsilon: float = 1e-4
    max_outer_iters: int = 50
    step: str = "backtracking"
    lambda0: float | None = None
    beta: float = 0.5
    slope: float = 1e-4
    init: Beamformer | None = None
    init_seed: int = 1
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must be in (0, 1)")
        if self.step not in ("backtracking", "fixed"):
            raise ValueError("step must be 'backtracking' or 'fixed'")
        if self.step == "fixed" and self.lambda0 is None:
            raise ValueError("fixed-step mode requires lambda0")
        if self.lambda0 is not None and not self.lambda0 > 0.0:
            raise ValueError("lambda0 must be positive")
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")


@dataclass(frozen=True)
class PgaTraceRow:
    iteration: int
    weighted_mi: float  # nats
    step_size: float
    grad_norm: float
    feasible: bool


@dataclass
class PgaTrace:
    rows: list[PgaTraceRow] = field(default_factory=list)

    CSV_HEADER = "iter,weighted_bits,step,grad_norm"

    def to_csv(self) -> str:
        ln2 = math.log(2.0)
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.iteration},{r.weighted_mi / ln2:.12g},{r.step_size:.12g},{r.grad_norm:.12g}"
            )
        return "\n".join(lines) + "\n"


def gradient(
    stats: ScenarioStats,
    w_bf: Beamformer,
    noise: NoiseConfig,
    rho: float,
    fp_s: SensingFixedPoint,
    fp_c: CommFixedPoint,
) -> np.ndarray:
    """Closed-form gradient of the weighted MI with respect to conj(W).

    With the fixed-point variables held at their converged values (they are
    stationary points of the Shannon-transform functional), the explicit
    W-dependence gives

        grad = rho       * (psi_raw - LoS(Gbar, psi_tilde)) W g_c
             - (1 - rho) * (tau(g_e_tilde) + LoS(Hbar, omega_tilde)) W g_e

    with the terms the fixed-point equations use: LoS(h, A) = sum_l h_l' A_l^-1 h_l
    over the raw LoS means (`fixedpoint._los_term`), and psi_raw =
    -sum_l eta_l(g_c_tilde block l), the transmit-side sensing self-energy
    before beamforming (`_SensingSystem.psi_raw`).  The self-energy terms
    enter because the one-sided correlation operators of the beamformed
    channel carry W; dropping them breaks the finite-difference check.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if max(fp_s.residual, fp_c.residual) > UNCONVERGED_RESIDUAL:
        raise ValueError("gradient requires converged fixed points")
    dims = stats.dims
    w = w_bf.w
    if w.shape != (dims.n_t, dims.m):
        raise ValueError(f"beamformer shape {w.shape} != {(dims.n_t, dims.m)}")
    sensing = _SensingSystem(stats, w_bf, -noise.sigma_s2)
    los_s = _los_term(sensing.g_raw, fp_s.psi_tilde_blocks, "sensing psi_tilde block inverse")
    grad_s = ((sensing.psi_raw(fp_s.g_c_tilde) - los_s) @ w) @ fp_s.g_c
    los_c = _los_term(stats.comm.mean, (fp_c.omega_tilde,), "comm omega_tilde inverse")
    grad_c = ((sensing.ops.tau(fp_c.g_e_tilde) + los_c) @ w) @ fp_c.g_e
    return rho * grad_s - (1.0 - rho) * grad_c


def project(w: np.ndarray, p_t: float) -> np.ndarray:
    """Project onto the power ball: unchanged if ||W||_F^2 <= p_t, else rescaled."""
    if p_t <= 0.0:
        raise ValueError("p_t must be positive")
    norm2 = float(np.linalg.norm(w) ** 2)
    if norm2 <= p_t:
        return w
    return math.sqrt(p_t) * w / math.sqrt(norm2)


def _initial_beamformer(
    stats: ScenarioStats, p_t: float, opts: PgaOptions
) -> Beamformer:
    if opts.init is not None:
        return Beamformer(project(opts.init.w, p_t), p_t)
    rng = np.random.default_rng(np.random.SeedSequence([int(opts.init_seed)]))
    shape = (stats.dims.n_t, stats.dims.m)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Beamformer(project(z, p_t), p_t)


def pga(
    stats: ScenarioStats,
    noise: NoiseConfig,
    rho: float,
    p_t: float,
    opts: PgaOptions = PgaOptions(),
) -> tuple[Beamformer, PgaTrace]:
    """Algorithm: step along the gradient, project, stop on a small MI change.

    Returns the best feasible beamformer seen and the per-iteration trace.
    Under backtracking the trace is monotone nondecreasing and the result is
    never worse than the initial point.
    """
    trace = PgaTrace()
    current = _initial_beamformer(stats, p_t, opts)

    def evaluate(w_bf: Beamformer):
        try:
            return weighted_mi(stats, w_bf, noise, rho, opts.solver, return_fixed_points=True)
        except (ConvergenceError, SingularMatrixError, NonRealShannonError) as exc:
            raise PgaAbort(f"fixed-point solve failed inside PGA: {exc}", trace) from exc

    report, fp_s, fp_c = evaluate(current)
    trace.rows.append(PgaTraceRow(0, report.weighted, 0.0, 0.0, True))
    best = (current, report)

    for it in range(1, opts.max_outer_iters + 1):
        grad = gradient(stats, current, noise, rho, fp_s, fp_c)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm == 0.0:
            break

        if opts.step == "fixed":
            lam = float(opts.lambda0)
            candidate = Beamformer(project(current.w + lam * grad, p_t), p_t)
            cand_report, fp_s, fp_c = evaluate(candidate)
            accepted = True
        else:
            lam = opts.lambda0 if opts.lambda0 is not None else math.sqrt(p_t) / (1.0 + grad_norm)
            lam_floor = lam * 1e-12
            accepted = False
            while lam > lam_floor:
                candidate = Beamformer(project(current.w + lam * grad, p_t), p_t)
                cand_report, cand_fs, cand_fc = evaluate(candidate)
                if cand_report.weighted >= report.weighted + opts.slope * lam * grad_norm**2:
                    fp_s, fp_c = cand_fs, cand_fc
                    accepted = True
                    break
                lam *= opts.beta
            if not accepted:
                break  # no improving projected step: stationary to working precision

        previous = report.weighted
        current, report = candidate, cand_report
        trace.rows.append(
            PgaTraceRow(it, report.weighted, lam, grad_norm, current.power <= p_t + 1e-12)
        )
        if report.weighted > best[1].weighted:
            best = (current, report)
        if abs(report.weighted - previous) <= opts.epsilon:
            break

    return best[0], trace
