import numpy as np
import pytest

from impedbench.errors import InvalidInputError
from impedbench.linalg import (
    GramMatrix,
    as_complex_matrix,
    gram_operator_norm,
    numerical_rank,
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


class TestNumericalRank:
    def test_outer_product(self):
        u = np.arange(1.0, 5.0)
        assert numerical_rank(np.outer(u, u)) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert numerical_rank(np.eye(7)) == 7

    def test_monotone_in_tol(self):
        r = rng()
        m = r.standard_normal((8, 8)) @ np.diag(10.0 ** -np.arange(8.0)) @ r.standard_normal((8, 8))
        tols = [1e-12, 1e-8, 1e-4, 1e-2, 1e-1]
        ranks = [numerical_rank(m, t) for t in tols]
        assert ranks == sorted(ranks, reverse=True)

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidInputError):
            numerical_rank(np.eye(2), 0.0)
        # NaN compares false both ways, so it would count no singular value
        with pytest.raises(InvalidInputError):
            numerical_rank(np.eye(2), float("nan"))


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
