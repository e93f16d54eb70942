"""Dense complex linear algebra with inner products given by Gram matrices.

Everything here is plain LAPACK through numpy.linalg behind small wrappers
that validate inputs, attach residual checks, and speak the workbench error
taxonomy. Matrices are numpy arrays; sizes are desk scale (a few thousand at
most). The boundary modules (tuples, extensions, circle) call numpy.linalg
directly and this module for the three things it lacks: triangular solves
with a Gram matrix's Cholesky factor, Hermitian-definite generalized
eigenvalues, and SVD null spaces. None of them loads scipy, which would
double the start-up time of the commands built on them.
"""

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "as_complex_matrix",
    "GramMatrix",
    "gram_operator_norm",
    "null_space",
    "spectral_norm",
]

# Dense solves get slow and memory-hungry past this edge length.
DENSE_DIM_CAP = 4096


def as_complex_matrix(a, what: str = "matrix", stack: bool = False) -> np.ndarray:
    """Validate and convert to a 2-d complex ndarray with finite entries
    (with stack set, also a stack (..., m, n), each member checked)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise InvalidInputError(f"{what}: expected a 2-d array, got ndim={m.ndim}")
    if m.size == 0:
        raise InvalidInputError(f"{what}: empty matrix")
    edge = max(m.shape[-2:])
    if edge > DENSE_DIM_CAP:
        raise InvalidInputError(f"{what}: dimension {edge} exceeds dense cap {DENSE_DIM_CAP}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{what}: entries must be finite")
    return m


class GramMatrix:
    """Hermitian positive definite matrix of an inner product, with cached Cholesky.

    The convention throughout the package is (u|v) = v^H G u: linear in the
    first argument, conjugate linear in the second.
    """

    def __init__(self, matrix):
        g = as_complex_matrix(matrix, "gram matrix")
        n, m = g.shape
        if n != m:
            raise InvalidInputError(f"gram matrix must be square, got {n}x{m}")
        scale = max(float(np.linalg.norm(g)), np.finfo(float).tiny)
        if np.linalg.norm(g - g.conj().T) > 1e-12 * scale:
            raise InvalidInputError("gram matrix is not Hermitian to 1e-12 relative tolerance")
        g = 0.5 * (g + g.conj().T)
        try:
            # Upper factor R with G = R^H R, so ||x||_G = ||R x||_2.
            r = np.linalg.cholesky(g).conj().T
        except np.linalg.LinAlgError as exc:
            raise InvalidInputError("gram matrix is not positive definite") from exc
        self.matrix = g
        self.dim = n
        self.chol_upper = np.ascontiguousarray(r)

    def solve_factor(self, rhs, adjoint: bool = False) -> np.ndarray:
        """R^{-1} rhs, or R^{-H} rhs when adjoint, for the cached factor R.

        LU with partial pivoting meets no row exchange and only zero
        multipliers on an upper triangular matrix, so np.linalg.solve is back
        substitution here. R^H is lower triangular; reversing its rows and
        columns makes it upper triangular, and the right-hand side and the
        solution are reversed with it. rhs is a vector, a matrix or a stack
        of matrices (..., n, m).
        """
        rhs = np.asarray(rhs)
        if not adjoint:
            return np.linalg.solve(self.chol_upper, rhs)
        flipped = self.chol_upper.conj().T[::-1, ::-1]
        rows = max(rhs.ndim - 2, 0)
        return np.flip(np.linalg.solve(flipped, np.flip(rhs, rows)), rows)

    def solve(self, rhs) -> np.ndarray:
        """G^{-1} rhs via the cached factor."""
        return self.solve_factor(self.solve_factor(rhs, adjoint=True))

    def orthonormalize(self, basis) -> np.ndarray:
        """Columns spanning the same space, orthonormal in this inner product."""
        b = np.atleast_2d(np.asarray(basis, dtype=complex))
        q, _ = np.linalg.qr(self.chol_upper @ b)
        return self.solve_factor(q)

    def eigvalsh(self, herm) -> np.ndarray:
        """Ascending eigenvalues lam of herm x = lam G x, herm Hermitian.

        They are the eigenvalues of R^{-H} herm R^{-1}, which is Hermitian
        up to rounding and is made exactly so before the solve.
        """
        w = self.solve_factor(herm, adjoint=True)
        c = self.solve_factor(w.conj().T, adjoint=True).conj().T
        return np.linalg.eigvalsh(0.5 * (c + c.conj().T))


def gram_operator_norm(m, gram_in: GramMatrix, gram_out: GramMatrix) -> float:
    """Operator norm of m mapping (C^n, gram_in) into (C^m, gram_out).

    Computed as the largest singular value of R_out m R_in^{-1} with R the
    upper Cholesky factors, i.e. the norm after both spaces are isometrically
    flattened to Euclidean coordinates. A stack (..., m, n) gets one norm
    per member.
    """
    a = as_complex_matrix(m, "operator", stack=True)
    if a.shape[-1] != gram_in.dim or a.shape[-2] != gram_out.dim:
        raise InvalidInputError(
            f"operator shape {a.shape} does not match grams ({gram_out.dim}, {gram_in.dim})"
        )
    x = gram_out.chol_upper @ a
    # Right-multiply by R_in^{-1}: X R_in^{-1} = (R_in^{-H} X^H)^H.
    y = gram_in.solve_factor(x.conj().swapaxes(-1, -2), adjoint=True)
    return spectral_norm(y.conj().swapaxes(-1, -2))


def spectral_norm(a):
    """Largest singular value of a matrix, or of each member of a stack:
    numpy.linalg runs one LAPACK call per member, so each is bit for bit
    the value the member gets alone."""
    s = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(s) if s.ndim == 0 else s


def null_space(a, rcond: float) -> np.ndarray:
    """Orthonormal (Euclidean) basis of the kernel of a, columnwise.

    The right singular vectors whose singular values are at most rcond
    times the largest; a has at least one row.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.count_nonzero(s > rcond * s[0]))
    return vh[rank:].conj().T
