import numpy as np
import pytest
import scipy.linalg as sla

from impedbench.errors import InvalidInputError
from impedbench.extensions import resolvent_difference_rank
from impedbench.fixtures import get_fixture
from impedbench.linalg import (
    GramMatrix,
    as_complex_matrix,
    gram_operator_norm,
    null_space,
)


def rng():
    return np.random.default_rng(1234)


class TestGramMatrix:
    def test_identity(self):
        g = GramMatrix(np.eye(3))
        assert g.dim == 3
        assert g.inner([1, 0, 0], [1, 0, 0]) == pytest.approx(1.0)

    def test_cholesky_reproduces_matrix(self):
        r = rng()
        a = r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4))
        g = GramMatrix(a @ a.conj().T + 4 * np.eye(4))
        rec = g.chol_upper.conj().T @ g.chol_upper
        assert np.linalg.norm(rec - g.matrix) <= 1e-12 * np.linalg.norm(g.matrix)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            GramMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            GramMatrix(np.diag([1.0, -1.0]))

    def test_norm_matches_inner(self):
        g = GramMatrix(np.diag([1.0, 4.0]))
        v = np.array([1.0, 1.0])
        assert g.inner(v, v) == pytest.approx(5.0)

    def test_orthonormalize(self):
        r = rng()
        g = GramMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        b = r.standard_normal((4, 2)) + 1j * r.standard_normal((4, 2))
        q = g.orthonormalize(b)
        gram = q.conj().T @ g.matrix @ q
        assert np.linalg.norm(gram - np.eye(2)) < 1e-12


def random_gram(r, n: int) -> GramMatrix:
    """A well-conditioned complex Gram matrix far from the identity."""
    a = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
    return GramMatrix(a @ a.conj().T + n * np.diag(np.linspace(1.0, 10.0, n)))


def rel_err(got, ref) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


# scipy.linalg is the independent reference for the helpers that stand in
# for it; the package itself loads only numpy.linalg
class TestScipyReference:
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("shape", [(7,), (7, 3)])
    def test_solve_factor_matches_solve_triangular(self, adjoint, shape):
        r = rng()
        g = random_gram(r, 7)
        rhs = r.standard_normal(shape) + 1j * r.standard_normal(shape)
        ref = sla.solve_triangular(g.chol_upper, rhs, trans="C" if adjoint else "N")
        assert rel_err(g.solve_factor(rhs, adjoint=adjoint), ref) <= 1e-12

    def test_solve_matches_cholesky_solve(self):
        r = rng()
        g = random_gram(r, 9)
        rhs = r.standard_normal((9, 4)) + 1j * r.standard_normal((9, 4))
        ref = sla.cho_solve((g.chol_upper, False), rhs)
        assert rel_err(g.solve(rhs), ref) <= 1e-12

    def test_cholesky_factor_matches_scipy(self):
        g = random_gram(rng(), 6)
        ref = sla.cholesky(g.matrix, lower=False)
        assert rel_err(g.chol_upper, ref) <= 1e-12

    def test_generalized_eigenvalues(self):
        r = rng()
        g = random_gram(r, 8)
        a = r.standard_normal((8, 8)) + 1j * r.standard_normal((8, 8))
        herm = a + a.conj().T
        ref = sla.eigh(herm, g.matrix, eigvals_only=True)
        got = g.eigvalsh(herm)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("rows,cols,rank", [(3, 8, 2), (6, 6, 4), (9, 5, 1), (2, 7, 2)])
    def test_null_space_of_rank_deficient_matrix(self, rows, cols, rank):
        r = np.random.default_rng(rows * cols + rank)
        left = r.standard_normal((rows, rank)) + 1j * r.standard_normal((rows, rank))
        right = r.standard_normal((rank, cols)) + 1j * r.standard_normal((rank, cols))
        a = left @ right
        basis = null_space(a, 1e-10)
        ref = sla.null_space(a, rcond=1e-10)
        assert basis.shape == ref.shape == (cols, cols - rank)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(cols - rank)) <= 1e-12
        assert np.linalg.norm(a @ basis) <= 1e-12 * np.linalg.norm(a, 2)
        # both bases span one space: equal orthogonal projectors
        assert rel_err(basis @ basis.conj().T, ref @ ref.conj().T) <= 1e-12

    def test_null_space_of_zero_matrix_is_everything(self):
        basis = null_space(np.zeros((2, 4), dtype=complex), 1e-10)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(4)) <= 1e-15

    def test_operator_norm_matches_whitened_svd(self):
        r = rng()
        gi, go = random_gram(r, 5), random_gram(r, 4)
        m = r.standard_normal((4, 5)) + 1j * r.standard_normal((4, 5))
        whitened = go.chol_upper @ m @ sla.inv(gi.chol_upper)
        ref = sla.svdvals(whitened)[0]
        assert gram_operator_norm(m, gi, go) == pytest.approx(ref, rel=1e-12)


class TestNumericalRank:
    # The rank rule s > tol * s[0], as resolvent_difference_rank applies it
    # to the parameter difference k2 - k1 and to the resolvent difference.
    def test_outer_product(self):
        u = np.arange(1.0, 3.0)
        r = resolvent_difference_rank(get_fixture("transport2-48"), np.zeros((2, 2)),
                                      0.1 * np.outer(u, u))
        assert (r.rank_parameter, r.rank_resolvent) == (1, 1)

    def test_zero_matrix(self):
        k = np.diag([0.3, -0.2j])
        r = resolvent_difference_rank(get_fixture("transport2-48"), k, k)
        assert (r.rank_parameter, r.rank_resolvent) == (0, 0)

    def test_identity(self):
        r = resolvent_difference_rank(get_fixture("transport2-48"), np.zeros((2, 2)),
                                      0.5 * np.eye(2))
        assert (r.rank_parameter, r.rank_resolvent) == (2, 2)


class TestGramOperatorNorm:
    def test_scalar_example(self):
        # map x -> 2x from a space where ||1|| = 2 into one where ||1|| = 1
        n = gram_operator_norm(
            np.array([[2.0]]), GramMatrix(np.array([[4.0]])), GramMatrix(np.eye(1))
        )
        assert n == pytest.approx(1.0)

    def test_identity_grams_spectral_norm(self):
        r = rng()
        m = r.standard_normal((5, 4)) + 1j * r.standard_normal((5, 4))
        n = gram_operator_norm(m, GramMatrix(np.eye(4)), GramMatrix(np.eye(5)))
        assert n == pytest.approx(np.linalg.norm(m, 2), rel=1e-12)

    def test_dominates_rayleigh_samples(self):
        r = rng()
        m = r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4))
        gi = GramMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        go = GramMatrix(np.diag([2.0, 1.0, 1.0, 0.5]))
        bound = gram_operator_norm(m, gi, go)
        for _ in range(25):
            x = r.standard_normal(4) + 1j * r.standard_normal(4)
            y = m @ x
            lhs = np.sqrt(go.inner(y, y).real)
            assert lhs <= bound * np.sqrt(gi.inner(x, x).real) * (1 + 1e-12)

    def test_shape_guard(self):
        with pytest.raises(InvalidInputError):
            gram_operator_norm(np.eye(3), GramMatrix(np.eye(2)), GramMatrix(np.eye(3)))


class TestAsComplexMatrix:
    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            as_complex_matrix(np.array([[np.nan, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            as_complex_matrix(np.zeros((0, 0)))

    def test_vector_promoted_to_row(self):
        m = as_complex_matrix([1.0, 2.0])
        assert m.shape == (1, 2)
