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
]

# Dense solves get slow and memory-hungry past this edge length.
DENSE_DIM_CAP = 4096


def as_complex_matrix(a, what: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-d complex ndarray with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise InvalidInputError(f"{what}: expected a 2-d array, got ndim={m.ndim}")
    if m.size == 0:
        raise InvalidInputError(f"{what}: empty matrix")
    if max(m.shape) > DENSE_DIM_CAP:
        raise InvalidInputError(
            f"{what}: dimension {max(m.shape)} exceeds dense cap {DENSE_DIM_CAP}"
        )
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

    def inner(self, u, v) -> complex:
        """(u|v) = v^H G u."""
        u = np.asarray(u, dtype=complex).reshape(-1)
        v = np.asarray(v, dtype=complex).reshape(-1)
        return complex(v.conj() @ (self.matrix @ u))

    def solve_factor(self, rhs, adjoint: bool = False) -> np.ndarray:
        """R^{-1} rhs, or R^{-H} rhs when adjoint, for the cached factor R.

        LU with partial pivoting meets no row exchange and only zero
        multipliers on an upper triangular matrix, so np.linalg.solve is back
        substitution here. R^H is lower triangular; reversing its rows and
        columns makes it upper triangular, and the right-hand side and the
        solution are reversed with it.
        """
        rhs = np.asarray(rhs)
        if not adjoint:
            return np.linalg.solve(self.chol_upper, rhs)
        flipped = self.chol_upper.conj().T[::-1, ::-1]
        return np.linalg.solve(flipped, rhs[::-1])[::-1]

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
    flattened to Euclidean coordinates.
    """
    a = as_complex_matrix(m, "operator")
    if a.shape[1] != gram_in.dim or a.shape[0] != gram_out.dim:
        raise InvalidInputError(
            f"operator shape {a.shape} does not match grams ({gram_out.dim}, {gram_in.dim})"
        )
    x = gram_out.chol_upper @ a
    # Right-multiply by R_in^{-1}: X R_in^{-1} = (R_in^{-H} X^H)^H.
    y = gram_in.solve_factor(x.conj().T, adjoint=True).conj().T
    s = np.linalg.svd(y, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def null_space(a, rcond: float) -> np.ndarray:
    """Orthonormal (Euclidean) basis of the kernel of a, columnwise.

    The right singular vectors whose singular values are at most rcond
    times the largest; a has at least one row.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.count_nonzero(s > rcond * s[0]))
    return vh[rank:].conj().T
