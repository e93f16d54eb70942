"""Finite models of boundary value problems in trace form.

A model couples a state-space operator (the maximal operator of the problem,
called ``astar`` throughout) with two trace maps gamma0, gamma1 into a pair of
mutually dual trace spaces. The duality is carried explicitly by a pairing
matrix, so rigged (weighted) trace spaces and the plain Hilbert-space case are
handled by one code path.

Conventions, used consistently everywhere:

- inner products are linear in the first slot: (u|v) = v^H G u;
- the pairing of the plus trace space with the minus trace space is
  pair(x, y) = y^H P x, where x holds plus coordinates and y minus
  coordinates; the reverse pairing is its complex conjugate;
- the defect of the integration-by-parts identity for a model is

    green_defect(f, g) = (A f|g) - (f|A g) - pair(g1 f, g0 g) + conj(pair(g1 g, g0 f))

  which vanishes (to model tolerance) when the tuple is consistent.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .linalg import GramMatrix, as_complex_matrix

__all__ = [
    "OperatorModel",
    "BoundaryTupleModel",
    "TupleTransform",
    "TupleFixture",
    "green_defect",
    "to_boundary_triple",
    "accretivity_defect",
]


@dataclass
class OperatorModel:
    """Matrix model of the maximal operator on the state space."""

    astar: np.ndarray
    gram_x: GramMatrix
    label: str = ""

    def __post_init__(self):
        self.astar = as_complex_matrix(self.astar, "astar")
        n, m = self.astar.shape
        if n != m:
            raise InvalidInputError(f"astar must be square, got {n}x{m}")
        if n != self.gram_x.dim:
            raise InvalidInputError("astar and gram_x dimensions disagree")

    @property
    def dim(self) -> int:
        return self.astar.shape[0]


@dataclass
class BoundaryTupleModel:
    """Trace maps and the metric data of the two trace spaces.

    gamma0 maps into the minus space (p coordinates), gamma1 into the plus
    space (q coordinates). ``pairing`` is the p x q matrix of the duality
    between them; it must be square and invertible for the duality to be
    non-degenerate, which every operation here relies on.
    """

    gamma0: np.ndarray
    gamma1: np.ndarray
    gram_minus: GramMatrix
    gram_pivot: GramMatrix
    gram_plus: GramMatrix
    pairing: np.ndarray

    def __post_init__(self):
        self.gamma0 = as_complex_matrix(self.gamma0, "gamma0")
        self.gamma1 = as_complex_matrix(self.gamma1, "gamma1")
        self.pairing = as_complex_matrix(self.pairing, "pairing")
        p, q = self.pairing.shape
        if self.gamma0.shape[0] != p:
            raise InvalidInputError("gamma0 row count must match pairing rows (minus space)")
        if self.gamma1.shape[0] != q:
            raise InvalidInputError("gamma1 row count must match pairing columns (plus space)")
        if self.gamma0.shape[1] != self.gamma1.shape[1]:
            raise InvalidInputError("trace maps must share the state dimension")
        if p != q:
            raise InvalidInputError("pairing must be square for a non-degenerate duality")
        if self.gram_minus.dim != p or self.gram_plus.dim != q:
            raise InvalidInputError("trace gram dimensions disagree with trace maps")
        s = np.linalg.svd(self.pairing, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise InvalidInputError("pairing matrix is numerically singular")

    @property
    def state_dim(self) -> int:
        return self.gamma0.shape[1]

    @property
    def trace_dim(self) -> int:
        return self.pairing.shape[0]


@dataclass
class TupleTransform:
    """Invertible map v from the pivot space onto the minus trace space.

    ``v_natural`` is the pairing-adjoint of v, pinned by the identity
    pair_reverse(v f, g) = (f | v_natural g)_pivot. The constructor verifies
    that identity; ``from_v`` computes v_natural from it directly.
    """

    v: np.ndarray
    v_natural: np.ndarray

    def __post_init__(self):
        self.v = as_complex_matrix(self.v, "v")
        self.v_natural = as_complex_matrix(self.v_natural, "v_natural")
        if self.v.shape[0] != self.v.shape[1]:
            raise InvalidInputError("v must be square (pivot and minus space dimensions agree)")
        s = np.linalg.svd(self.v, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise InvalidInputError("v must be invertible")

    @classmethod
    def from_v(cls, v, tup: BoundaryTupleModel) -> "TupleTransform":
        v = as_complex_matrix(v, "v")
        g_h = tup.gram_pivot
        v_nat = g_h.solve(v.conj().T @ tup.pairing)
        return cls(v=v, v_natural=v_nat)

    def verify(self, tup: BoundaryTupleModel, tol: float = 1e-10) -> float:
        """Residual of the defining identity, must be <= tol * scale."""
        # pair(v f, g) = (f | v_nat g): P^H v == v_nat^H G_pivot as matrices.
        lhs = tup.pairing.conj().T @ self.v
        rhs = self.v_natural.conj().T @ tup.gram_pivot.matrix
        residual = float(np.linalg.norm(lhs - rhs))
        scale = 1.0 + float(np.linalg.norm(self.v))
        if residual > tol * scale:
            raise NumericalFailureError(
                f"transform pairing identity residual {residual:.3e} exceeds {tol:.1e}"
            )
        return residual


@dataclass
class TupleFixture:
    """A shipped, self-validating model: operator + tuple + transform."""

    model: OperatorModel
    boundary: BoundaryTupleModel
    transform: TupleTransform
    # grid-aware sampler of smooth states: (rng, count) -> count x dim array
    smooth_sampler: object = field(repr=False)

    def __post_init__(self):
        if self.boundary.state_dim != self.model.dim:
            raise InvalidInputError("trace maps do not match the state dimension")

    @property
    def label(self) -> str:
        return self.model.label


def _apply(m, x):
    """m x_i for each row x_i of a stack, as rows: one gemv per row, the
    product a single vector gets (one gemm over the stack sums otherwise)."""
    return (m @ x[:, :, None])[:, :, 0]


def _forms(y, m, x):
    """y_i^H m x_i for the rows x_i, y_i of two stacks."""
    return (y.conj()[:, None, :] @ _apply(m, x)[:, :, None])[:, 0, 0]


def green_defect(model: OperatorModel, tup: BoundaryTupleModel, f, g):
    """Defect of the integration-by-parts identity at the pair (f, g).

    f and g are states of length n, or stacks of k states as rows (k, n);
    a stack gets an array of k defects, each the one its pair gets alone.
    """
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    n = model.dim
    single = f.ndim < 2 and g.ndim < 2
    f, g = np.atleast_2d(f, g)
    if f.ndim != 2 or f.shape != g.shape or f.shape[1] != n:
        raise InvalidInputError(f"state vectors must have length {n}")
    if not (np.all(np.isfinite(f.view(float))) and np.all(np.isfinite(g.view(float)))):
        raise InvalidInputError("state vectors must be finite")
    gram = model.gram_x.matrix
    af, ag = _apply(model.astar, f), _apply(model.astar, g)
    lhs = _forms(g, gram, af) - _forms(ag, gram, f)
    t0f, t1f = _apply(tup.gamma0, f), _apply(tup.gamma1, f)
    t0g, t1g = _apply(tup.gamma0, g), _apply(tup.gamma1, g)
    rhs = _forms(t0g, tup.pairing, t1f) - np.conj(_forms(t0f, tup.pairing, t1g))
    d = lhs - rhs
    return complex(d[0]) if single else d


def to_boundary_triple(tup: BoundaryTupleModel, t: TupleTransform):
    """Flatten a tuple with explicit duality to a triple over the pivot space.

    The triple has traces v^{-1} gamma0 and v_natural gamma1; every metric
    on it is the pivot gram, and the pairing equals the pivot inner product.
    """
    t.verify(tup)
    g_h = tup.gram_pivot
    if t.v.shape[0] != tup.trace_dim or t.v.shape[1] != g_h.dim:
        raise InvalidInputError("transform dimensions do not match the tuple")
    return BoundaryTupleModel(
        gamma0=np.linalg.solve(t.v, tup.gamma0),
        gamma1=t.v_natural @ tup.gamma1,
        gram_minus=g_h,
        gram_pivot=g_h,
        gram_plus=g_h,
        pairing=g_h.matrix.copy(),
    )


def accretivity_defect(z, tup: BoundaryTupleModel) -> float:
    """Smallest value of Re pair(z y, y) over unit-norm minus-space vectors y.

    The minimum of the pairing-weighted Hermitian part of z relative to the
    minus-space gram; >= 0 means z is accretive in this duality.
    """
    z = _as_trace_operator(z, tup)
    pz = tup.pairing @ z
    herm = 0.5 * (pz + pz.conj().T)
    return float(tup.gram_minus.eigvalsh(herm)[0])


def _as_trace_operator(z, tup: BoundaryTupleModel, stack: bool = False) -> np.ndarray:
    """Accept a scalar or a q x p matrix acting minus -> plus (with stack set,
    also a stack of them)."""
    if np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0):
        return complex(z) * np.eye(tup.trace_dim, dtype=complex)
    z = as_complex_matrix(z, "trace operator", stack)
    q, p = z.shape[-2:]
    if p != tup.gamma0.shape[0] or q != tup.gamma1.shape[0]:
        raise InvalidInputError(
            f"trace operator must be {tup.gamma1.shape[0]}x{tup.gamma0.shape[0]}, got {q}x{p}"
        )
    return z
