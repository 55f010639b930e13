"""Hermitian linear algebra helpers shared by the solver and MI modules.

All inverses go through an eigendecomposition so that the condition number
is monitored on every solve; ill-conditioned systems raise instead of
returning garbage.
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
    """Hermitian part (A + A†)/2."""
    return 0.5 * (a + a.conj().T)


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
    """Inverse of a Hermitian matrix via eigendecomposition with condition guard."""
    evals, evecs = np.linalg.eigh(herm(a))
    amax = np.abs(evals).max()
    amin = np.abs(evals).min()
    if amin == 0.0 or amax / amin > COND_LIMIT:
        raise SingularMatrixError(context, np.inf if amin == 0.0 else amax / amin)
    return (evecs / evals) @ evecs.conj().T


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
