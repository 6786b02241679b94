"""Dense small-matrix utilities for M-matrix analysis.

Z-pattern classification, a diagonal similarity that makes an M-matrix
strictly column-dominant, and a diagonal scaling q that makes
diag(q) M + M^T diag(q) symmetric positive definite.  Each scaling
proves its matrix an M-matrix by the solve whose result it uses, one
LU solve against the all-ones vector, which for Z-matrices is an
exact, eigenvalue-free characterization (semipositivity).
"""

from __future__ import annotations

import numpy as np

from .errors import CertificateFailure, DimensionMismatch, NotMMatrix, NotSymmetric

# Margin used when asserting strict column dominance, measured relative
# to the (positive) diagonal entry of each column so it is scale-free.
DOMINANCE_SLACK = 1e-12


def as_square_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a finite square float array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def is_z_pattern(m) -> bool:
    """True iff every off-diagonal entry of ``m`` is <= 0."""
    arr = as_square_matrix(m)
    off = arr.copy()
    np.fill_diagonal(off, 0.0)
    return bool(np.all(off <= 0.0))


def _semipositive_solution(arr: np.ndarray) -> np.ndarray | None:
    """d with arr d = 1 when that solve proves ``arr`` an M-matrix, else
    None: an invertible Z-matrix is one exactly when some d > 0 has
    arr d > 0, and a singular or unreliable solve proves nothing."""
    if not is_z_pattern(arr):
        return None
    ones = np.ones(arr.shape[0])
    try:
        d = np.linalg.solve(arr, ones)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(d)):
        return None
    # reject garbage from a nearly singular solve
    scale = 1.0 + np.max(np.abs(arr)) * np.max(np.abs(d))
    if np.max(np.abs(arr @ d - ones)) > 1e-8 * scale:
        return None
    return d if np.all(d > 0.0) else None


def is_strictly_column_dominant(m) -> bool:
    """Strict diagonal dominance of every column, positive diagonal
    required; the margin is compared against DOMINANCE_SLACK after
    dividing by the diagonal entry."""
    arr = as_square_matrix(m)
    diag = np.diag(arr)
    if np.any(diag <= 0.0):
        return False
    off = np.sum(np.abs(arr), axis=0) - np.abs(diag)
    return bool(np.all((diag - off) / diag > DOMINANCE_SLACK))


def column_dominance_scaling(m) -> np.ndarray:
    """Positive d such that diag(d) m diag(1/d) is strictly column-dominant.

    Solves m^T d = 1.  For an M-matrix this d is positive and gives each
    column j the weighted margin d_j m_jj - sum_{i != j} d_i |m_ij| = 1;
    the same solve proves m^T, and so m, an M-matrix.

    Raises NotMMatrix if ``m`` is not an M-matrix.
    """
    arr = as_square_matrix(m)
    d = _semipositive_solution(arr.T)
    if d is None:
        raise NotMMatrix("column dominance scaling requires an M-matrix")
    scaled = d[:, None] * arr / d[None, :]
    if not is_strictly_column_dominant(scaled):
        raise CertificateFailure("constructed scaling failed the dominance check")
    return d


def diagonal_lyapunov_scaling(m, v) -> np.ndarray:
    """Positive q with diag(q) m + m^T diag(q) symmetric positive definite.

    Uses q_i = v_i / w_i where m w = 1 and the given v solves m^T v = 1;
    the solve for w proves m an M-matrix (NotMMatrix otherwise).  The
    result is verified by a Cholesky factorization; an uncertified
    scaling is never returned (CertificateFailure instead).
    """
    arr = as_square_matrix(m)
    w = _semipositive_solution(arr)
    if w is None:
        raise NotMMatrix("diagonal Lyapunov scaling requires an M-matrix")
    q = np.asarray(v, dtype=float) / w
    sym = q[:, None] * arr + arr.T * q[None, :]
    if not is_spd(sym):
        raise CertificateFailure("diag(q) m + m^T diag(q) is not positive definite")
    return q


def is_spd(m) -> bool:
    """True iff ``m`` is symmetric positive definite.

    Symmetry is required up to a relative 1e-12 (NotSymmetric
    otherwise); definiteness is decided by attempting a Cholesky
    factorization, i.e. all pivots must be positive.
    """
    arr = as_square_matrix(m)
    scale = max(float(np.max(np.abs(arr))), 1.0)
    if np.max(np.abs(arr - arr.T)) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        np.linalg.cholesky(0.5 * (arr + arr.T))
    except np.linalg.LinAlgError:
        return False
    return True
