"""Hermitian linear algebra helpers shared by the solver and MI modules.

`inv_herm` checks the exact condition number, from the eigenvalues alone,
before it takes the LU inverse; ill-conditioned systems raise instead of
returning garbage.  The guard runs wherever an inverse is behind a returned
number: once per fixed-point solve, on every inverse of one evaluation at the
returned state, and in the Shannon transform, the PGA gradient and the
residual checks.  The iterates in between use plain LU inverses.
"""

from __future__ import annotations

import numpy as np

COND_LIMIT = 1e14


class SingularMatrixError(np.linalg.LinAlgError):
    """A matrix inverse required by a named equation is ill-conditioned."""

    def __init__(self, context: str, cond: float):
        super().__init__(
            f"singular or ill-conditioned matrix in {context} "
            f"(condition number {cond:.3e} > {COND_LIMIT:.0e})"
        )
        self.context = context
        self.cond = cond


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A†)/2; of each matrix of a stack (..., n, n)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def hermitize(a: np.ndarray, tol: float = 1e-8, context: str = "operator input") -> np.ndarray:
    """Symmetrize, raising if the anti-Hermitian part exceeds `tol` in Frobenius norm."""
    skew = 0.5 * (a - a.conj().T)
    if np.linalg.norm(skew) > tol:
        raise ValueError(
            f"{context} is not Hermitian: anti-Hermitian part has Frobenius norm "
            f"{np.linalg.norm(skew):.3e} > {tol:.0e}"
        )
    return a - skew


def inv_herm(a: np.ndarray, context: str) -> np.ndarray:
    """LU inverse of the Hermitian part of `a`, guarded by its condition number
    max|lambda| / min|lambda| from the eigenvalues (so indefinite matrices invert);
    of a stack (..., n, n), each matrix guarded by its own condition number."""
    a = herm(a)
    evals = np.abs(np.linalg.eigvalsh(a))
    amax, amin = evals.max(axis=-1), evals.min(axis=-1)
    if np.any(amin == 0.0):
        raise SingularMatrixError(context, np.inf)
    cond = float(np.max(amax / amin))
    if cond > COND_LIMIT:
        raise SingularMatrixError(context, cond)
    return np.linalg.inv(a)


def logdet_phased(a: np.ndarray) -> complex:
    """log det of a general complex matrix, as logabs + i*phase of the determinant."""
    sign, logabs = np.linalg.slogdet(a)
    return complex(logabs, np.angle(sign))


def min_eigval(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(herm(a)).min())


def rel_residual(lhs: np.ndarray | float, rhs: np.ndarray | float) -> float:
    """Relative equation residual ||lhs - rhs||_F / (1 + ||rhs||_F)."""
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    return float(np.linalg.norm(lhs - rhs) / (1.0 + np.linalg.norm(rhs)))
