"""Projected gradient ascent on the weighted asymptotic MI.

The ascent direction is the closed-form conjugate (Wirtinger) gradient of
the weighted MI with the fixed-point quantities held at their converged
values; by stationarity of the deterministic equivalent this equals the
total derivative, which the finite-difference suite pins down.  For a real
objective f(W), a perturbation dW changes f by 2 Re Tr(grad' dW), so the
update W + lambda * grad ascends.  Every candidate step is followed by a
projection onto the Frobenius power ball and evaluated by a fixed-point
re-solve warm-started from the fixed points of the current accepted point;
a branch whose warm solve fails is re-solved cold, and only a failed cold
solve aborts the ascent.

At rho = 0 or 1 one branch has weight zero.  Neither the gradient nor the
Armijo test reads it, so the ascent solves only the weighted branch at each
candidate (0 * x + y = y: the accepted path is bitwise that of solving
both) and completes the returned point's report with one solve of the other
branch, warm from the start's fixed point when it has one; both are
`mi._solve_branches` over one branch.  A caller that already solved the
start, as the rho path of `cli.run_tradeoff` has, hands that evaluation to
`pga` beside `PgaOptions.init` and the start is not re-solved.

Backtracking uses the Armijo rule along the projection arc (Bertsekas,
IEEE TAC 1976): with d = P(W + lambda * grad) - W, a step is accepted when
f(W + d) >= f(W) + `_SLOPE` * Re<grad, d>.  Without projection d = lambda * grad
and this is the classical test; on the power-ball boundary it asks only for
the gain the projected step can deliver, not that of the discarded radial
part.  Projection onto a convex set gives Re<grad, d> >= ||d||^2 / lambda,
so every accepted step ascends and the ascent returns its last accepted point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# inv_herm is unused here but stays bound: bench/tracer.py wraps isac_mi.optimizer.inv_herm by name
from ._linalg import SingularMatrixError, inv_herm  # noqa: F401
from .fixedpoint import ConvergenceError, FixedPoint, SolverOptions
from .mi import _BRANCH_NAMES, MiReport, NonRealShannonError, _branch, _report, _solve_branches
from .mi import weighted_mi
from .model import Beamformer, NoiseConfig, ScenarioStats, _check_count, _integral_seed

UNCONVERGED_RESIDUAL = 1e-6

_BETA = 0.5  # backtracking factor of the Armijo step
_SLOPE = 1e-4  # Armijo fraction of the predicted gain Re<grad, d>, in (0, 1)


class PgaAbort(RuntimeError):
    """A solver failure inside a PGA iteration; carries the trace so far."""

    def __init__(self, message: str, trace: "PgaTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class PgaOptions:
    """Stopping rule and initialization for the ascent.

    The ascent stops once an accepted step gains at most epsilon nats, or
    after max_outer_iters steps.  init is None for a random Gaussian start
    projected to the power ball, or a Beamformer to start from.
    """

    epsilon: float = 1e-4
    max_outer_iters: int = 50
    init: Beamformer | None = None
    init_seed: int = 1
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        _check_count(self.max_outer_iters, "max_outer_iters", 0)
        if _integral_seed(self.init_seed, "init_seed") < 0:
            raise ValueError("init_seed must be >= 0")


@dataclass(frozen=True)
class PgaTraceRow:
    """One accepted point.  evaluations counts the candidate evaluations spent on
    the step (rejected line-search candidates included), solver_iterations the
    iterations of the solves they returned.  An evaluation solves both
    branches, or at rho = 0 or 1 only the weighted one.  Row 0 counts the
    start's evaluation, or 0 when the start was handed in already solved.
    Neither count is in the convergence CSV.  A final line search that accepts
    no step has no row; its evaluations are counted in
    PgaTrace.final_search_evaluations."""

    iteration: int
    weighted_mi: float  # nats
    step_size: float
    grad_norm: float
    evaluations: int = 0
    solver_iterations: int = 0


@dataclass
class PgaTrace:
    """The accepted points of one ascent and the returned one's evaluation.

    best and fixed_points (sensing, comm) belong to the returned (last
    accepted) point, and can be handed to the next ascent as its solved start.
    At rho = 0 or 1 the zero-weight branch of best is solved once, after the
    ascent; that solve is in no row, and its iterations are only in
    best.diagnostics.  In the trace of a PgaAbort at rho = 0 or 1 that branch
    is unsolved: its MI is nan and its fixed point None."""

    rows: list[PgaTraceRow] = field(default_factory=list)
    best: MiReport | None = None
    final_search_evaluations: int = 0  # evaluations of a last line search that accepted no step
    fixed_points: tuple[FixedPoint | None, FixedPoint | None] = (None, None)


def gradient(
    stats: ScenarioStats,
    w_bf: Beamformer,
    noise: NoiseConfig,
    rho: float,
    fp_s: FixedPoint | None,
    fp_c: FixedPoint | None,
) -> np.ndarray:
    """Closed-form gradient of the weighted MI with respect to conj(W).

    With the fixed-point variables held at their converged values (they are
    stationary points of the Shannon-transform functional), the explicit
    W-dependence of each branch's MI is one term of the shared
    deterministic-equivalent system (`fixedpoint._System.gradient_term`):

        grad = rho * T(sensing) + (1 - rho) * T(comm),
        T    = (psi_raw(g_tilde) - LoS(h_raw, psi_tilde)) W g,

    where psi_raw = -sum_l E[X_l' g_tilde_l X_l] is the transmit-side
    self-energy before beamforming and LoS(h, A) = sum_l h_l' A_l^-1 h_l is
    taken over the raw LoS means.  For communication psi_raw is -tau(G~_e)
    and psi_tilde is Omega~.  The self-energy terms enter because the
    one-sided correlation operators of the beamformed channel carry W;
    dropping them breaks the finite-difference check.  A branch of weight
    zero (rho = 0 or 1) is skipped, and its fixed point may be None.  Each
    branch's spectral point and system come from the `mi._branch` lookup.
    """
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    dims = stats.dims
    if w_bf.w.shape != (dims.n_t, dims.m):
        raise ValueError(f"beamformer shape {w_bf.w.shape} != {(dims.n_t, dims.m)}")
    grad = None
    for name, weight, fp in zip(_BRANCH_NAMES, (rho, 1.0 - rho), (fp_s, fp_c)):
        if weight == 0.0:
            continue
        if fp is None:
            raise ValueError(f"gradient needs the {name} fixed point at rho = {rho}")
        if fp.residual > UNCONVERGED_RESIDUAL:
            raise ValueError("gradient requires converged fixed points")
        branch = _branch(name, noise)
        term = weight * branch.system(stats, w_bf, branch.point.w).gradient_term(fp)
        grad = term if grad is None else grad + term
    return grad


def project(w: np.ndarray, p_t: float) -> np.ndarray:
    """Project onto the power ball: unchanged if ||W||_F^2 <= p_t, else rescaled."""
    if not 0.0 < p_t < math.inf:
        raise ValueError("p_t must be finite and positive")
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


def _evaluate(stats, w_bf, noise, rho, solver, initial):
    """(report, fp_s, fp_c) of one candidate, warm from `initial` = (fp_s, fp_c) or
    cold when it is None.  For 0 < rho < 1 this is this module's `weighted_mi`
    binding.  At rho = 0 or 1 `mi._solve_branches` solves only the branch of
    nonzero weight; the other reads MI nan and fixed point None."""
    if 0.0 < rho < 1.0:
        return weighted_mi(
            stats, w_bf, noise, rho, solver, return_fixed_points=True, initial=initial
        )
    known = [(math.nan, None) if weight == 0.0 else None for weight in (rho, 1.0 - rho)]
    return _solve_branches(stats, w_bf, noise, rho, solver, initial, known)


def pga(
    stats: ScenarioStats,
    noise: NoiseConfig,
    rho: float,
    p_t: float,
    opts: PgaOptions = PgaOptions(),
    start: tuple[MiReport, FixedPoint, FixedPoint] | None = None,
) -> tuple[Beamformer, PgaTrace]:
    """Algorithm: step along the gradient, project, stop on a small MI change.

    Returns the last accepted beamformer and the per-iteration trace, whose
    `best` and `fixed_points` are that beamformer's MiReport and fixed
    points.  Each step first tries
    lambda = sqrt(p_t) / (1 + ||grad||_F) and backtracks by `_BETA`, testing
    the Armijo condition against the projected step d = P(W + lambda * grad) - W
    (Bertsekas 1976), f(W + d) >= f(W) + `_SLOPE` * Re<grad, d>; the
    first-order gain of d is 2 Re<grad, d>.  It gives up when lambda falls
    below 1e-12 of its first trial, or without a solve when rounding leaves
    Re<grad, d> <= 0.  Every accepted step has Re<grad, d> > 0, so the
    trace is nondecreasing and the last accepted point is the best one.

    `start` = (report, fp_s, fp_c) is the solved evaluation of `opts.init`
    (as `weighted_mi(..., return_fixed_points=True)` or a previous trace's
    `best` and `fixed_points` give it) at the same scenario, noise and solver
    options; with it the start is not re-solved and row 0 counts 0
    evaluations.  Otherwise only the start's solve is cold.  Every candidate
    is warm-started from the fixed points of the current point.  At rho = 0
    or 1 each evaluation solves only the branch of nonzero weight, and the
    other branch of the returned point is solved once at the end, warm from
    the start's fixed point when there is one; its failure raises PgaAbort.
    """
    trace = PgaTrace()
    current = _initial_beamformer(stats, p_t, opts)
    spent: list[MiReport] = []  # the evaluations since the last trace row

    def solved(evaluation, *args):
        try:
            return evaluation(stats, *args)
        except (ConvergenceError, SingularMatrixError, NonRealShannonError) as exc:
            raise PgaAbort(f"fixed-point solve failed inside PGA: {exc}", trace) from exc

    def evaluate(w_bf: Beamformer, initial):
        report, *fps = solved(_evaluate, w_bf, noise, rho, opts.solver, initial)
        spent.append(report)
        return report, tuple(fps)

    def record(it: int, lam: float, grad_norm: float) -> None:
        iters = sum(r.diagnostics.iterations_s + r.diagnostics.iterations_c for r in spent)
        trace.rows.append(PgaTraceRow(it, trace.best.weighted, lam, grad_norm, len(spent), iters))
        spent.clear()

    if start is None:
        trace.best, trace.fixed_points = evaluate(current, None)
    else:
        report, fp_s, fp_c = start
        if opts.init is None or fp_s is None or fp_c is None:
            raise ValueError("start must be the solved (report, fp_s, fp_c) of opts.init")
        trace.best = _report(rho, report.i_s, fp_s, report.i_c, fp_c)
        trace.fixed_points = fp_s, fp_c
    start_fps = trace.fixed_points
    record(0, 0.0, 0.0)

    for it in range(1, opts.max_outer_iters + 1):
        grad = gradient(stats, current, noise, rho, *trace.fixed_points)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm == 0.0:
            break

        lam = math.sqrt(p_t) / (1.0 + grad_norm)
        lam_floor = lam * 1e-12
        previous = trace.best.weighted
        accepted = False
        while lam > lam_floor:
            candidate = Beamformer(project(current.w + lam * grad, p_t), p_t)
            # Armijo along the projection arc: the predicted gain of the projected step
            predicted = float(np.vdot(grad, candidate.w - current.w).real)
            if predicted <= 0.0:
                break  # the projected step is lost in rounding, and stays so for smaller lam
            report, fps = evaluate(candidate, trace.fixed_points)
            if report.weighted >= previous + _SLOPE * predicted:
                accepted = True
                break
            lam *= _BETA
        if not accepted:
            break  # no improving projected step: stationary to working precision

        current, trace.best, trace.fixed_points = candidate, report, fps
        record(it, lam, grad_norm)
        if trace.best.weighted - previous <= opts.epsilon:
            break

    trace.final_search_evaluations = len(spent)
    mis = (trace.best.i_s, trace.best.i_c)
    known = tuple(None if fp is None else (i, fp) for i, fp in zip(mis, trace.fixed_points))
    if None in known:  # rho = 0 or 1: the zero-weight branch of the returned point
        trace.best, *fps = solved(
            _solve_branches, current, noise, rho, opts.solver, start_fps, known
        )
        trace.fixed_points = tuple(fps)
    return current, trace
