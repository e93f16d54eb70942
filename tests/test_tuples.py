import numpy as np
import pytest

from impedbench.errors import InvalidInputError
from impedbench.fixtures import (
    _unit_interval_collocation,
    differentiation_matrix,
    fixture_registry,
    get_fixture,
    green_check,
    lgl_points_weights,
)
from impedbench.linalg import GramMatrix
from impedbench.tuples import (
    BoundaryTupleModel,
    TupleFixture,
    accretivity_defect,
    green_defect,
)

# the integration-by-parts defect every shipped fixture meets; green_check's
# default tolerance
GREEN_TOL = 1e-8


class TestCollocation:
    def test_lgl_weights_integrate_exp(self):
        x, w = lgl_points_weights(32)
        assert abs(w @ np.exp(x) - (np.e - 1.0 / np.e)) < 1e-14

    @pytest.mark.parametrize("n_points", [32, 48, 64])
    def test_lgl_nodes_and_weights_match_mpmath(self, n_points):
        # the interior nodes are the roots of P_n', n = n_points - 1, polished
        # here by Newton at 40 digits from the returned nodes; the weights are
        # 2 / (n (n + 1) P_n(x)^2). Measured: nodes within 2, 1 and 1 ulps;
        # interior weights within 5.6e-15, 1.8e-14 and 1.8e-14 relative, and
        # the end weights, where P_n(+-1) = +-1, exact. The mdiss check's
        # margin under its absolute bound rests on this accuracy.
        mpmath = pytest.importorskip("mpmath")
        x, w = lgl_points_weights(n_points)
        n = n_points - 1

        def legendre(r):
            """P_n(r), P_n'(r) and P_n''(r) by the three-term recurrence."""
            p0, p1 = mpmath.mpf(1), r
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * r * p1 - (k - 1) * p0) / k
            d1 = n * (r * p1 - p0) / (r * r - 1)
            return p1, d1, (2 * r * d1 - n * (n + 1) * p1) / (1 - r * r)

        with mpmath.workdps(40):
            for xi, wi in zip(x[1:-1], w[1:-1]):
                r = mpmath.mpf(float(xi))
                for _ in range(8):
                    _, d1, d2 = legendre(r)
                    r -= d1 / d2
                p, d1, _ = legendre(r)
                assert abs(d1) < mpmath.mpf(10) ** -35
                assert abs(xi - float(r)) <= 2 * np.spacing(abs(float(r)))
                exact = 2 / (n * (n + 1) * p * p)
                assert float(abs(wi - exact) / exact) <= 2e-14
        end = 2.0 / (n * (n + 1))
        assert w[0] == end and w[-1] == end

    def test_lgl_endpoints(self):
        x, _ = lgl_points_weights(16)
        assert x[0] == -1.0 and x[-1] == 1.0

    def test_differentiation_exact_on_polynomials(self):
        x, _ = lgl_points_weights(20)
        d = differentiation_matrix(x)
        p = x**7 - 3 * x**3 + x
        dp = 7 * x**6 - 9 * x**2 + 1
        assert np.abs(d @ p - dp).max() < 1e-10

    def test_summation_by_parts(self):
        # this matrix identity is what makes every fixture exact on rough data
        x, w = lgl_points_weights(64)
        d = differentiation_matrix(x)
        b = np.zeros((64, 64))
        b[0, 0] = -1.0
        b[-1, -1] = 1.0
        err = np.abs(np.diag(w) @ d + d.T @ np.diag(w) - b).max()
        assert err < 1e-12


class TestGreenIdentity:
    def test_transport_smooth_pairs(self):
        fx = get_fixture("transport-64")
        rng = np.random.default_rng(7)
        for _ in range(20):
            f, g = fx.smooth_sampler(rng, 1)[0], fx.smooth_sampler(rng, 1)[0]
            assert abs(green_defect(fx.model, fx.boundary, f, g)) < GREEN_TOL

    def test_transport_rough_vectors(self):
        # exact matrix identity: arbitrary vectors, not just smooth samples
        fx = get_fixture("transport-64")
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            g = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            assert abs(green_defect(fx.model, fx.boundary, f, g)) < 1e-10

    def test_zero_trace_pair_reduces_to_symmetry_defect(self):
        fx = get_fixture("transport-64")
        grid = np.linspace(0, 1, 64)  # only used to build a vanishing profile
        x = (lgl_points_weights(64)[0] + 1) / 2
        f = np.sin(np.pi * x) * np.exp(1j * x)
        assert abs(fx.boundary.gamma0 @ f) < 1e-14
        assert abs(fx.boundary.gamma1 @ f) < 1e-14
        d = green_defect(fx.model, fx.boundary, f, f)
        # with zero traces the defect is 2i Im (A f | f), which must vanish
        assert abs(d) < GREEN_TOL
        af = fx.model.astar @ f
        assert abs((f.conj() @ fx.model.gram_x.matrix @ af).imag) < GREEN_TOL

    def test_zero_vector(self):
        fx = get_fixture("transport-32")
        z = np.zeros(32)
        assert green_defect(fx.model, fx.boundary, z, z) == 0

    def test_weighted_duality_fixture(self):
        fx = get_fixture("transport-64-weighted")
        rng = np.random.default_rng(9)
        for _ in range(10):
            f, g = fx.smooth_sampler(rng, 1)[0], fx.smooth_sampler(rng, 1)[0]
            assert abs(green_defect(fx.model, fx.boundary, f, g)) < GREEN_TOL

    def test_two_channel_fixture(self):
        fx = get_fixture("transport2-48")
        rng = np.random.default_rng(10)
        for _ in range(10):
            f, g = fx.smooth_sampler(rng, 1)[0], fx.smooth_sampler(rng, 1)[0]
            assert abs(green_defect(fx.model, fx.boundary, f, g)) < GREEN_TOL

    def test_green_check_runner(self):
        res = green_check(get_fixture("transport-32"), trials=25, seed=3)
        assert res.passed
        assert res.tolerance == GREEN_TOL
        assert "transport-32" in res.summary()
        assert res.trials == 25

    def test_registry_lists_fixtures(self):
        names = fixture_registry()
        assert "transport-64" in names
        with pytest.raises(InvalidInputError):
            get_fixture("no-such-fixture")


class TestBoundaryTriple:
    def test_triple_keeps_identity(self):
        fx = get_fixture("transport-64-weighted")
        triple = fx.triple
        rng = np.random.default_rng(11)
        for _ in range(8):
            f, g = fx.smooth_sampler(rng, 1)[0], fx.smooth_sampler(rng, 1)[0]
            assert abs(green_defect(fx.model, triple, f, g)) < GREEN_TOL

    def test_triple_metrics_are_pivot(self):
        fx = get_fixture("transport-64-weighted")
        triple = fx.triple
        g = fx.boundary.gram_pivot.matrix
        assert np.allclose(triple.gram_minus.matrix, g)
        assert np.allclose(triple.pairing, g)

    def test_identity_transform_is_noop(self):
        fx = get_fixture("transport-64")
        triple = fx.triple
        assert np.allclose(triple.gamma0, fx.boundary.gamma0)
        assert np.allclose(triple.gamma1, fx.boundary.gamma1)

    def test_weighted_transform_recovers_plain_traces(self):
        # the shipped weighted fixture is a rescaling of the plain one
        plain = get_fixture("transport-64")
        weighted = get_fixture("transport-64-weighted")
        triple = weighted.triple
        assert np.allclose(triple.gamma0, plain.boundary.gamma0, atol=1e-12)
        assert np.allclose(triple.gamma1, plain.boundary.gamma1, atol=1e-12)

    @pytest.mark.parametrize("name", fixture_registry())
    def test_v_natural_is_pairing_adjoint(self, name):
        # pair(v f, g) = (f | v_natural g)_pivot: P^H v == v_natural^H G_pivot
        fx = get_fixture(name)
        b = fx.boundary
        lhs = b.pairing.conj().T @ fx.v
        rhs = fx.v_natural.conj().T @ b.gram_pivot.matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    def test_weighted_plus_metric_is_dual_of_minus(self):
        # the plus metric P^H G_-^{-1} P of the weighted fixture: 1 / stretch^2
        b = get_fixture("transport-64-weighted").boundary
        g_plus = b.pairing.conj().T @ b.gram_minus.solve(b.pairing)
        assert np.allclose(g_plus, np.eye(1) / 9, rtol=1e-14, atol=0)


class TestAccretivityDefect:
    def test_identity_operator(self):
        fx = get_fixture("transport-64")
        assert accretivity_defect(1.0, fx.boundary) == pytest.approx(1.0)

    def test_skew_operator(self):
        fx = get_fixture("transport-64")
        assert accretivity_defect(0.35j, fx.boundary) == pytest.approx(0.0, abs=1e-14)

    def test_indefinite_diagonal(self):
        fx = get_fixture("transport2-48")
        z = np.diag([1.0, -0.5]).astype(complex)
        assert accretivity_defect(z, fx.boundary) == pytest.approx(-0.5)

    def test_shift_property(self):
        fx = get_fixture("transport2-48")
        rng = np.random.default_rng(14)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        base = accretivity_defect(z, fx.boundary)
        for c in (0.25, 1.0, 3.5):
            shifted = accretivity_defect(z + c * np.eye(2), fx.boundary)
            assert shifted == pytest.approx(base + c, abs=1e-10)

    def test_shape_guard(self):
        fx = get_fixture("transport-64")
        with pytest.raises(InvalidInputError):
            accretivity_defect(np.eye(2), fx.boundary)

    def test_weighted_duality_value(self):
        # pairing 2/3, minus-gram 4: Re pair(y, y)/||y||^2 = (2/3)/4 = 1/6
        fx = get_fixture("transport-64-weighted")
        assert accretivity_defect(1.0, fx.boundary) == pytest.approx(1.0 / 6.0)


class TestTupleValidation:
    def test_singular_pairing_rejected(self):
        with pytest.raises(InvalidInputError, match="singular"):
            BoundaryTupleModel(
                gamma0=np.ones((1, 4)),
                gamma1=np.ones((1, 4)),
                gram_minus=GramMatrix(np.eye(1)),
                gram_pivot=GramMatrix(np.eye(1)),
                pairing=np.zeros((1, 1)),
            )

    def test_rectangular_pairing_rejected(self):
        with pytest.raises(InvalidInputError):
            BoundaryTupleModel(
                gamma0=np.ones((2, 4)),
                gamma1=np.ones((1, 4)),
                gram_minus=GramMatrix(np.eye(2)),
                gram_pivot=GramMatrix(np.eye(1)),
                pairing=np.ones((2, 1)),
            )

    def test_fixture_refuses_bad_v(self):
        fx = get_fixture("transport2-48")
        parts = dict(model=fx.model, boundary=fx.boundary, smooth_sampler=fx.smooth_sampler)
        with pytest.raises(InvalidInputError, match="v must be invertible"):
            TupleFixture(v=np.array([[1.0, 2.0], [2.0, 4.0]]), **parts)
        with pytest.raises(InvalidInputError, match="v must be square"):
            TupleFixture(v=np.ones((2, 3)), **parts)
        with pytest.raises(InvalidInputError, match="transform dimensions"):
            TupleFixture(v=np.eye(3), **parts)

    def test_trace_rank_full(self):
        # full row rank of [gamma0; gamma1] is the desk-scale stand-in for
        # surjectivity of the combined trace map
        for name in fixture_registry():
            b = get_fixture(name).boundary
            s = np.linalg.svd(np.vstack([b.gamma0, b.gamma1]), compute_uv=False)
            assert np.count_nonzero(s > 1e-10 * s[0]) == 2 * b.trace_dim


def reference_states(fx, rng, count):
    """count states drawn one at a time: per state, channel and term four
    scalar uniforms, each term added to the state on its own."""
    channels = fx.boundary.trace_dim
    grid = _unit_interval_collocation(fx.model.dim // channels)[0]
    states = []
    for _ in range(count):
        parts = []
        for _ in range(channels):
            f = np.zeros_like(grid, dtype=complex)
            for term in range(4):
                u0, u1, u2, u3 = (rng.random() for _ in range(4))
                amp = np.sqrt(-2.0 * np.log1p(-u0)) * np.exp(2j * np.pi * u1)
                if term < 3:
                    f += amp * np.sin(6.0 * u2 * grid + 2 * np.pi * u3)
                else:
                    f += amp * np.exp((3.0 * u2 - 1.5) * grid)
            parts.append(f)
        states.append(np.concatenate(parts))
    return states


def reference_green_defect(model, tup, f, g):
    """The defect of one pair through 1-D products, as the per-pair loop took it."""
    gram, pairing = model.gram_x.matrix, tup.pairing
    af, ag = model.astar @ f, model.astar @ g
    lhs = complex(g.conj() @ (gram @ af)) - complex(ag.conj() @ (gram @ f))
    t0f, t1f, t0g, t1g = tup.gamma0 @ f, tup.gamma1 @ f, tup.gamma0 @ g, tup.gamma1 @ g
    rhs = complex(t0g.conj() @ (pairing @ t1f)) - np.conj(complex(t0f.conj() @ (pairing @ t1g)))
    return complex(lhs - rhs)


class TestStackedGreenCheck:
    @pytest.mark.parametrize("name", ["transport-32", "transport-64", "transport-64-weighted",
                                      "transport2-48"])
    def test_sampler_rows_are_single_draws(self, name):
        fx = get_fixture(name)
        ref = reference_states(fx, np.random.default_rng(3), 7)
        rng = np.random.default_rng(3)
        stack = fx.smooth_sampler(rng, 5)
        assert stack.shape == (5, fx.model.dim)
        assert np.array_equal(stack, ref[:5])
        # the stream goes on where the stack left it
        assert np.array_equal(fx.smooth_sampler(rng, 1)[0], ref[5])

    @pytest.mark.parametrize("seed", [1, 5, 20240801])
    @pytest.mark.parametrize("name", ["transport-32", "transport-64", "transport-64-weighted",
                                      "transport2-48"])
    def test_green_check_matches_per_pair_loop(self, name, seed):
        fx = get_fixture(name)
        states = reference_states(fx, np.random.default_rng(seed), 2 * 513)
        defects = [abs(reference_green_defect(fx.model, fx.boundary, f, g))
                   for f, g in zip(states[0::2], states[1::2])]
        # trial counts around the chunk edges
        for trials in (1, 255, 256, 257, 513):
            assert green_check(fx, trials=trials, seed=seed).max_defect == max(defects[:trials])

    @pytest.mark.parametrize("name", ["transport-64-weighted", "transport2-48"])
    def test_stacked_defect_equals_single_pairs(self, name):
        fx = get_fixture(name)
        rng = np.random.default_rng(12)
        f = rng.standard_normal((6, fx.model.dim)) + 1j * rng.standard_normal((6, fx.model.dim))
        g = fx.smooth_sampler(rng, 6)
        for tup in (fx.boundary, fx.triple):
            stacked = green_defect(fx.model, tup, f, g)
            assert stacked.shape == (6,)
            singles = [green_defect(fx.model, tup, a, b) for a, b in zip(f, g)]
            assert all(isinstance(d, complex) for d in singles)
            assert stacked.tolist() == singles
            assert singles == [reference_green_defect(fx.model, tup, a, b) for a, b in zip(f, g)]

    def test_stacked_defect_validation(self):
        fx = get_fixture("transport-32")
        f = np.ones((3, 32))
        with pytest.raises(InvalidInputError, match="length 32"):
            green_defect(fx.model, fx.boundary, f, np.ones((2, 32)))
        with pytest.raises(InvalidInputError, match="length 32"):
            green_defect(fx.model, fx.boundary, np.ones((3, 31)), np.ones((3, 31)))
        f[2, 5] = np.inf
        with pytest.raises(InvalidInputError, match="finite"):
            green_defect(fx.model, fx.boundary, f, np.ones((3, 32)))
