"""Shipped collocation fixtures and the spectral machinery behind them.

The interval models use Legendre-Gauss-Lobatto collocation. With LGL points
and weights the quadrature is exact through degree 2N-1, which upgrades the
discrete integration-by-parts identity to an exact matrix identity

    W D + D^T W = diag(-1, 0, ..., 0, 1)

(up to roundoff). Every invariant downstream that quantifies over all state
vectors, not just smooth ones, leans on this.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import InvalidInputError
from .linalg import GramMatrix
from .tuples import (
    BoundaryTupleModel,
    OperatorModel,
    TupleFixture,
    TupleTransform,
    green_defect,
)

__all__ = [
    "lgl_points_weights",
    "differentiation_matrix",
    "transport_fixture",
    "fixture_registry",
    "get_fixture",
    "GreenCheckResult",
    "green_check",
]

# random trials run in stacks of at most this many: bounded memory at any count
TRIAL_CHUNK = 256


def lgl_points_weights(n_points: int):
    """Legendre-Gauss-Lobatto points and weights on [-1, 1]."""
    if n_points < 2:
        raise InvalidInputError("need at least 2 collocation points")
    n = n_points - 1
    coeffs = np.zeros(n + 1)
    coeffs[-1] = 1.0
    dcoeffs = npleg.legder(coeffs)
    interior = np.real(npleg.legroots(dcoeffs))
    x = np.concatenate(([-1.0], np.sort(interior), [1.0]))
    # two Newton sweeps on P_n' sharpen the companion-matrix roots to ~1e-16
    d2 = npleg.legder(coeffs, 2)
    for _ in range(2):
        x[1:-1] -= npleg.legval(x[1:-1], dcoeffs) / npleg.legval(x[1:-1], d2)
    w = 2.0 / (n * (n + 1) * npleg.legval(x, coeffs) ** 2)
    return x, w


def differentiation_matrix(x: np.ndarray) -> np.ndarray:
    """Polynomial collocation derivative at arbitrary distinct nodes (barycentric)."""
    x = np.asarray(x, dtype=float)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / diff.prod(axis=1)
    d = (bary[None, :] / bary[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def _unit_interval_collocation(n_points: int):
    x, w = lgl_points_weights(n_points)
    # map [-1, 1] -> [0, 1]
    return (x + 1.0) / 2.0, w / 2.0


def _smooth_interval_sampler(grid: np.ndarray, channels: int = 1):
    """Random analytic functions on the grid: (rng, count) -> count rows.

    Per state and channel, three terms amp sin(freq x + phase) and one term
    amp exp(rate x), their scalars drawn term by term. The terms of all rows
    are then evaluated at once, elementwise, so each row is bit for bit the
    state drawn alone.
    """

    def sample(rng, count: int) -> np.ndarray:
        normal, uniform, two_pi = rng.standard_normal, rng.uniform, 2 * np.pi

        # a generator, so that the chunk's draws never all live as floats
        def draws():
            for _ in range(count * channels):
                for _ in range(3):
                    yield from (normal(), normal(), uniform(0.0, 6.0), uniform(0.0, two_pi))
                yield from (normal(), normal(), uniform(-1.5, 1.5), 0.0)

        # (row, term, [amp.re, amp.im, freq or rate, phase], 1)
        t = np.fromiter(draws(), float, 16 * count * channels).reshape(-1, 4, 4, 1)
        amp = t[:, :, 0] + 1j * t[:, :, 1]
        f = np.zeros((t.shape[0], grid.size), dtype=complex)
        for j in range(3):
            f += amp[:, j] * np.sin(t[:, j, 2] * grid + t[:, j, 3])
        f += amp[:, 3] * np.exp(t[:, 3, 2] * grid)
        return f.reshape(count, channels * grid.size)

    return sample


def _transport(n_points: int, speeds: tuple, label: str, weighted: bool = False) -> TupleFixture:
    """Decoupled transport channels i c d/dx on [0, 1], one per speed c.

    Channel k has the traces sqrt(c_k) (f(0) + f(1)) / sqrt(2) and
    i sqrt(c_k) (f(1) - f(0)) / sqrt(2), which satisfy the
    integration-by-parts identity exactly at matrix level on the LGL grid.
    ``weighted=True`` rescales the two trace spaces and adjusts the pairing
    accordingly, exercising the non-trivial duality code path.
    """
    grid, w = _unit_interval_collocation(n_points)
    d = 2.0 * differentiation_matrix(2.0 * grid - 1.0)
    n, k = n_points, len(speeds)
    e0 = np.zeros(n)
    e0[0] = 1.0
    e1 = np.zeros(n)
    e1[-1] = 1.0
    astar = np.zeros((k * n, k * n), dtype=complex)
    gamma0 = np.zeros((k, k * n), dtype=complex)
    gamma1 = np.zeros((k, k * n), dtype=complex)
    for i, c in enumerate(speeds):
        block = slice(i * n, (i + 1) * n)
        astar[block, block] = 1j * c * d
        gamma0[i, block] = np.sqrt(c) * (e0 + e1) / np.sqrt(2.0)
        gamma1[i, block] = 1j * np.sqrt(c) * (e1 - e0) / np.sqrt(2.0)
    eye = np.eye(k)
    shrink = stretch = 1.0
    if weighted:
        # Rescale: minus trace shrunk by 2, plus trace stretched by 3. The
        # pairing compensates so the boundary form is unchanged.
        shrink, stretch = 2.0, 3.0
        gamma0, gamma1 = gamma0 / shrink, stretch * gamma1
    boundary = BoundaryTupleModel(
        gamma0=gamma0,
        gamma1=gamma1,
        gram_minus=GramMatrix(eye * shrink**2),
        gram_pivot=GramMatrix(eye),
        gram_plus=GramMatrix(eye / stretch**2),
        pairing=eye * shrink / stretch,
    )
    model = OperatorModel(astar=astar, gram_x=GramMatrix(np.diag(np.tile(w, k))), label=label)
    return TupleFixture(
        model=model,
        boundary=boundary,
        transform=TupleTransform.from_v(eye / shrink, boundary),
        smooth_sampler=_smooth_interval_sampler(grid, channels=k),
    )


def transport_fixture(n_points: int = 64, weighted: bool = False) -> TupleFixture:
    """First-order transport model i d/dx on [0, 1] with endpoint traces.

    The traces are the balanced combinations
    gamma0 f = (f(0) + f(1)) / sqrt(2) and gamma1 f = i (f(1) - f(0)) / sqrt(2).
    ``weighted=True`` rescales the two trace spaces (see ``_transport``).
    """
    label = f"transport-{n_points}" + ("-weighted" if weighted else "")
    return _transport(n_points, (1.0,), label, weighted)


def two_channel_transport_fixture(n_points: int = 48) -> TupleFixture:
    """Two decoupled transport channels with speeds 1 and 2.

    The trace space is two dimensional, so contraction parameters are genuine
    matrices and rank-one versus full-rank perturbations are distinct.
    """
    return _transport(n_points, (1.0, 2.0), f"transport2-{n_points}")


_REGISTRY = {
    "transport-64": lambda: transport_fixture(64),
    "transport-32": lambda: transport_fixture(32),
    "transport-64-weighted": lambda: transport_fixture(64, weighted=True),
    "transport2-48": lambda: two_channel_transport_fixture(48),
}


def fixture_registry() -> tuple:
    return tuple(sorted(_REGISTRY))


def get_fixture(name: str) -> TupleFixture:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        known = ", ".join(fixture_registry())
        raise InvalidInputError(f"unknown fixture {name!r} (known: {known})") from None
    return builder()


@dataclass
class GreenCheckResult:
    label: str
    trials: int
    max_defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_defect <= self.tolerance

    def summary(self) -> str:
        word = "ok" if self.passed else "FAIL"
        return (
            f"green-check {self.label}: max |defect| {self.max_defect:.3e} "
            f"over {self.trials} trials (tol {self.tolerance:.1e}) {word}"
        )


def green_check(fx: TupleFixture, trials: int = 100, seed: int = 20240801,
                tol: float = 1e-8) -> GreenCheckResult:
    """Sample pairs of states and report the worst integration-by-parts defect.

    The states are random smooth functions on the fixture's collocation grid;
    the check passes when the worst defect is at most tol. The pairs are
    drawn (f, then g) and checked in stacks of at most TRIAL_CHUNK.
    """
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, trials, TRIAL_CHUNK):
        states = fx.smooth_sampler(rng, 2 * min(TRIAL_CHUNK, trials - start))
        defects = green_defect(fx.model, fx.boundary, states[0::2], states[1::2])
        # Python's complex abs: numpy's rounds some moduli differently
        worst = max(worst, *map(abs, defects.tolist()))
    return GreenCheckResult(
        label=fx.label,
        trials=trials,
        max_defect=worst,
        tolerance=tol,
    )
