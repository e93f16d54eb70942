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
    accretivity_defect,
    green_defect,
    to_boundary_triple,
)

# the integration-by-parts defect every shipped fixture meets; green_check's
# default tolerance
GREEN_TOL = 1e-8


class TestCollocation:
    def test_lgl_weights_integrate_exp(self):
        x, w = lgl_points_weights(32)
        assert abs(w @ np.exp(x) - (np.e - 1.0 / np.e)) < 1e-14

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
            f, g = fx.sample_state(rng), fx.sample_state(rng)
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
            f, g = fx.sample_state(rng), fx.sample_state(rng)
            assert abs(green_defect(fx.model, fx.boundary, f, g)) < GREEN_TOL

    def test_two_channel_fixture(self):
        fx = get_fixture("transport2-48")
        rng = np.random.default_rng(10)
        for _ in range(10):
            f, g = fx.sample_state(rng), fx.sample_state(rng)
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
        triple = to_boundary_triple(fx.boundary, fx.transform)
        rng = np.random.default_rng(11)
        for _ in range(8):
            f, g = fx.sample_state(rng), fx.sample_state(rng)
            assert abs(green_defect(fx.model, triple, f, g)) < GREEN_TOL

    def test_triple_metrics_are_pivot(self):
        fx = get_fixture("transport-64-weighted")
        triple = to_boundary_triple(fx.boundary, fx.transform)
        g = fx.boundary.gram_pivot.matrix
        assert np.allclose(triple.gram_minus.matrix, g)
        assert np.allclose(triple.gram_plus.matrix, g)
        assert np.allclose(triple.pairing, g)

    def test_identity_transform_is_noop(self):
        fx = get_fixture("transport-64")
        triple = to_boundary_triple(fx.boundary, fx.transform)
        assert np.allclose(triple.gamma0, fx.boundary.gamma0)
        assert np.allclose(triple.gamma1, fx.boundary.gamma1)

    def test_weighted_transform_recovers_plain_traces(self):
        # the shipped weighted fixture is a rescaling of the plain one
        plain = get_fixture("transport-64")
        weighted = get_fixture("transport-64-weighted")
        triple = to_boundary_triple(weighted.boundary, weighted.transform)
        assert np.allclose(triple.gamma0, plain.boundary.gamma0, atol=1e-12)
        assert np.allclose(triple.gamma1, plain.boundary.gamma1, atol=1e-12)


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
                gram_plus=GramMatrix(np.eye(1)),
                pairing=np.zeros((1, 1)),
            )

    def test_rectangular_pairing_rejected(self):
        with pytest.raises(InvalidInputError):
            BoundaryTupleModel(
                gamma0=np.ones((2, 4)),
                gamma1=np.ones((1, 4)),
                gram_minus=GramMatrix(np.eye(2)),
                gram_pivot=GramMatrix(np.eye(1)),
                gram_plus=GramMatrix(np.eye(1)),
                pairing=np.ones((2, 1)),
            )

    def test_trace_rank_full(self):
        # full row rank of [gamma0; gamma1] is the desk-scale stand-in for
        # surjectivity of the combined trace map
        for name in fixture_registry():
            b = get_fixture(name).boundary
            s = np.linalg.svd(np.vstack([b.gamma0, b.gamma1]), compute_uv=False)
            assert np.count_nonzero(s > 1e-10 * s[0]) == 2 * b.trace_dim


def reference_states(fx, rng, count):
    """count states drawn one at a time, as the per-state sampler drew them:
    scalar draws term by term, each term added to the state on its own."""
    channels = fx.boundary.trace_dim
    grid = _unit_interval_collocation(fx.model.dim // channels)[0]
    states = []
    for _ in range(count):
        parts = []
        for _ in range(channels):
            f = np.zeros_like(grid, dtype=complex)
            for _ in range(3):
                amp = rng.standard_normal() + 1j * rng.standard_normal()
                freq = rng.uniform(0.0, 6.0)
                phase = rng.uniform(0.0, 2 * np.pi)
                f += amp * np.sin(freq * grid + phase)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            rate = rng.uniform(-1.5, 1.5)
            f += amp * np.exp(rate * grid)
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
        assert np.array_equal(fx.sample_state(rng), ref[5])

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
        for tup in (fx.boundary, to_boundary_triple(fx.boundary, fx.transform)):
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
