"""Boundary-parametrized restrictions of a maximal operator.

Builds the dissipative restrictions selected by an impedance condition
z*gamma0 - i*gamma1 = 0 or, equivalently, by a contraction k over the pivot
space through the constraint (k + I) gamma0_v + i (k - I) gamma1_v = 0.
The two parametrizations are linked by the Cayley map k = (z - I)(z + I)^{-1}
applied to the pivot-space version of z; their constraint rows differ by an
invertible left factor, so they cut out the same subspace.

All extension operators live in coordinates of a gram-orthonormal basis of
the constrained subspace, so plain Euclidean eigenvalue and singular value
routines apply to them directly.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .linalg import as_complex_matrix, null_space, spectral_norm
from .reports import fmt_complex
from .tuples import BoundaryTupleModel, TupleFixture, _as_trace_operator

# Relative singular value cutoff separating a constraint's row space from
# its nullspace.
NULLSPACE_TOL = 1e-10

# Reciprocal condition number below which a Cayley denominator or a
# boundary-value solve is treated as singular.
RCOND_FLOOR = 1e-12

DEFAULT_RESOLVENT_POINTS = (1j, 2j, 1.0 + 1j, -1.0 + 3j)


# ---------------------------------------------------------------------------
# Cayley transform between accretive operators and contractions


def _square_stack(x, what: str) -> np.ndarray:
    """A square matrix or a stack of them (..., p, p), validated per member."""
    m = as_complex_matrix(np.atleast_2d(x), what, stack=True)
    if m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"{what} must be square")
    return m


def _refuse_singular(den: np.ndarray, message: str) -> None:
    sv = np.linalg.svd(den, compute_uv=False)
    if np.any(sv[..., -1] <= RCOND_FLOOR * np.maximum(sv[..., 0], 1.0)):
        raise InvalidInputError(message)


def cayley(z) -> np.ndarray:
    """Map z to (z - I)(z + I)^{-1}; rejects z with -1 in its spectrum.

    Like every map in this section, it takes one matrix or a stack of them
    (..., p, p), mapped member by member with the same LAPACK calls.
    """
    z = _square_stack(z, "cayley input")
    eye = np.eye(z.shape[-1])
    den = z + eye
    _refuse_singular(den, "cayley transform undefined: -1 is in the spectrum")
    return _solve_right(den, z - eye)


def inverse_cayley(k) -> np.ndarray:
    """Map k to (I - k)^{-1}(I + k); rejects k with 1 in its spectrum."""
    k = _square_stack(k, "inverse cayley input")
    eye = np.eye(k.shape[-1])
    den = eye - k
    _refuse_singular(den, "inverse cayley undefined: 1 is in the spectrum of the contraction")
    return np.linalg.solve(den, eye + k)


def _solve_right(a, b) -> np.ndarray:
    """b a^{-1}, as the transpose of a^T x = b^T."""
    return np.linalg.solve(a.swapaxes(-1, -2), b.swapaxes(-1, -2)).swapaxes(-1, -2)


def cayley_identity_defect(z):
    """Residual of the algebraic identity cayley(z) + I = 2 z (z + I)^{-1}."""
    z = _square_stack(z, "cayley input")
    eye = np.eye(z.shape[-1])
    lhs = cayley(z) + eye
    rhs = 2.0 * _solve_right(z + eye, z)
    return spectral_norm(lhs - rhs)


def impedance_to_contraction(z, fx: TupleFixture) -> np.ndarray:
    """Cayley-transform an impedance operator into its pivot contraction.

    The impedance z acts from the minus traces to the plus traces; its
    pivot-space version is v_natural z v, and the returned matrix is the
    Cayley image of that. Accretive z yields a contraction in the metric
    fx.boundary.gram_pivot.
    """
    z = _as_trace_operator(z, fx.boundary, stack=True)
    return cayley(fx.v_natural @ z @ fx.v)


def contraction_to_impedance(k, fx: TupleFixture) -> np.ndarray:
    """Invert impedance_to_contraction; returns z in the original trace coords."""
    if np.atleast_2d(k).shape[-2] != fx.boundary.gram_pivot.dim:
        raise InvalidInputError("contraction does not match the fixture pivot space")
    z_piv = inverse_cayley(k)
    return np.linalg.solve(fx.v_natural, _solve_right(fx.v, z_piv))  # v_nat^{-1} z_piv v^{-1}


# ---------------------------------------------------------------------------
# Constraint subspaces and compressed extension operators


def constraint_from_contraction(k, triple: BoundaryTupleModel) -> np.ndarray:
    """Rows of (k + I) gamma0_v + i (k - I) gamma1_v over the pivot triple."""
    k = as_complex_matrix(np.atleast_2d(k), "contraction")
    r = triple.gamma0.shape[0]
    if k.shape != (r, r):
        raise InvalidInputError(f"contraction must be {r}x{r}, got {k.shape}")
    eye = np.eye(r)
    return (k + eye) @ triple.gamma0 + 1j * (k - eye) @ triple.gamma1


def constraint_from_impedance(z, tup: BoundaryTupleModel) -> np.ndarray:
    """Rows of z gamma0 - i gamma1 in the original trace coordinates."""
    z = _as_trace_operator(z, tup)
    return z @ tup.gamma0 - 1j * tup.gamma1


def constraint_nullspace(constraint, state_dim: int) -> np.ndarray:
    """Orthonormal (Euclidean) basis of the kernel of a constraint matrix."""
    c = as_complex_matrix(constraint, "constraint")
    if c.shape[1] != state_dim:
        raise InvalidInputError("constraint does not act on the state space")
    if not c.any():
        return np.eye(state_dim, dtype=complex)
    basis = null_space(c, NULLSPACE_TOL)
    if basis.shape[1] == 0:
        raise InvalidInputError("constraint kernel is trivial; nothing to restrict to")
    return basis


@dataclass
class ExtensionModel:
    """Compression of the maximal operator to a constrained subspace.

    op is expressed in a basis that is orthonormal for the state gram, so
    its numerical range and spectrum can be read off with Euclidean tools.
    basis holds that basis columnwise; constraint holds the rows that cut
    out the subspace.
    """

    op: np.ndarray
    basis: np.ndarray
    constraint: np.ndarray
    source: str
    fixture_label: str
    invariance_defect: float = field(default=float("nan"))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @cached_property
    def _imaginary_part_eigenvalues(self) -> np.ndarray:
        """Eigenvalues, ascending, of the Hermitian h = (op - op^H) / 2i."""
        return np.linalg.eigvalsh((self.op - self.op.conj().T) / 2j)

    def hermitian_defect(self) -> float:
        """||op - op^H|| / max(||op||, 1), with ||op - op^H|| = 2 max |eig h|."""
        eigs = self._imaginary_part_eigenvalues
        scale = max(np.linalg.norm(self.op, 2), 1.0)
        return float(2.0 * max(-eigs[0], eigs[-1]) / scale)

    def max_im_numrange(self) -> float:
        """Largest imaginary part over the numerical range of op: max eig h."""
        return float(self._imaginary_part_eigenvalues[-1])

    def eigenvalues(self) -> np.ndarray:
        vals = np.linalg.eigvals(self.op)
        order = np.lexsort((vals.imag, vals.real))
        return vals[order]


def restrict_extension(fx: TupleFixture, k=None, z=None) -> ExtensionModel:
    """Compress the maximal operator to the subspace cut out by k or z.

    Exactly one of k (pivot-space contraction matrix) and z (impedance in
    the original trace coordinates) must be given.
    """
    if (k is None) == (z is None):
        raise InvalidInputError("pass exactly one of k and z")
    tup = fx.boundary
    if k is not None:
        constraint = constraint_from_contraction(k, fx.triple)
        source = "from-contraction"
    else:
        constraint = constraint_from_impedance(z, tup)
        source = "from-impedance"

    raw = constraint_nullspace(constraint, tup.state_dim)
    gram_x = fx.model.gram_x
    basis = gram_x.orthonormalize(raw)
    image = fx.model.astar @ basis
    op = basis.conj().T @ gram_x.matrix @ image
    # How far the subspace is from being invariant under the operator; the
    # compression is dissipative regardless, but eigenvalues are only exact
    # on (nearly) invariant subspaces.
    proj = basis @ (basis.conj().T @ (gram_x.matrix @ image))
    denom = max(np.linalg.norm(image), 1e-30)
    defect = float(np.linalg.norm(image - proj) / denom)
    return ExtensionModel(
        op=op,
        basis=basis,
        constraint=constraint,
        source=source,
        fixture_label=fx.label,
        invariance_defect=defect,
    )


def mdissipativity_report(model: ExtensionModel, points=DEFAULT_RESOLVENT_POINTS) -> dict:
    """Dissipativity diagnostics for a compressed extension.

    Checks that the numerical range stays in the closed lower half plane and
    that the resolvent norm at each upper half plane point obeys the
    1 / Im(z) bound that dissipativity forces.
    """
    max_im = model.max_im_numrange()
    checks = []
    eye = np.eye(model.dim)
    for z in points:
        z = complex(z)
        if z.imag <= 0:
            raise InvalidInputError("resolvent checkpoints must have positive imaginary part")
        sv = np.linalg.svd(model.op - z * eye, compute_uv=False)
        bound = float(1.0 / sv[-1]) if sv[-1] > 0 else float("inf")
        limit = 1.0 / z.imag
        checks.append(
            {
                "z": [z.real, z.imag],
                "resolvent_norm": bound,
                "limit": limit,
                "ok": bool(bound <= limit * (1.0 + 1e-8) + 1e-12),
            }
        )
    eigs = model.eigenvalues()
    return {
        "fixture": model.fixture_label,
        "source": model.source,
        "dim": model.dim,
        "max_im_numrange": max_im,
        "dissipative": bool(max_im <= 1e-10),
        "hermitian_defect": model.hermitian_defect(),
        "invariance_defect": model.invariance_defect,
        "resolvent_checks": checks,
        "max_im_eig": float(eigs.imag.max()) if eigs.size else 0.0,
        "all_checks_ok": bool(all(c["ok"] for c in checks) and max_im <= 1e-10),
    }


# ---------------------------------------------------------------------------
# Resolvent differences of two boundary conditions


@dataclass
class ResolventRankReport:
    """Rank comparison between a resolvent difference and a parameter difference."""

    z: complex
    fixture_label: str
    sigma_resolvent: np.ndarray
    rank_resolvent: int
    rank_parameter: int
    realization_residual: float

    @property
    def satisfied(self) -> bool:
        return self.rank_resolvent <= self.rank_parameter

    def summary(self) -> str:
        verdict = "ok" if self.satisfied else "VIOLATED"
        return (
            f"rank-check {self.fixture_label} at z={fmt_complex(self.z)}: "
            f"rank(resolvent diff)={self.rank_resolvent} "
            f"<= rank(parameter diff)={self.rank_parameter}: {verdict}"
        )


def _realize_resolvent_pieces(fx: TupleFixture, z: complex):
    """Shared boundary-value machinery for resolvents at a fixed point z.

    Returns (y0, hb, m_z, e) where y0 is the resolvent of the reference
    condition gamma1_v = 0 (on the fixture's boundary triple) composed with
    the projection onto its attainable range, hb spans the state vectors
    whose image under (op - z) is invisible to that range, m_z = astar - z
    and e is an orthonormal basis of the attainable range.
    Every resolvent realized from these pieces maps onto its constraint
    kernel and agrees with y0 up to an hb-correction. A z so large that
    (astar - z) on the reference kernel overflows is refused as invalid.
    """
    tup = fx.boundary
    gram_x = fx.model.gram_x
    n = tup.state_dim

    ref_basis = gram_x.orthonormalize(constraint_nullspace(fx.triple.gamma1, n))
    m_z = fx.model.astar - z * np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = m_z @ ref_basis
        e, _ = np.linalg.qr(shifted)
        core = e.conj().T @ shifted
    if not np.isfinite(core).all():
        raise InvalidInputError(f"z={fmt_complex(z)} is too large: the shifted operator overflows")
    sv = np.linalg.svd(core, compute_uv=False)
    if sv[-1] <= RCOND_FLOOR * sv[0]:
        raise NumericalFailureError(
            f"z={fmt_complex(z)} is (numerically) a spectral point of the reference condition; "
            "move the evaluation point"
        )
    y0 = ref_basis @ np.linalg.solve(core, e.conj().T)

    row = e.conj().T @ m_z
    hb = null_space(row, NULLSPACE_TOL)
    if hb.shape[1] != tup.trace_dim:
        raise NumericalFailureError(
            "unexpected surrogate deficiency dimension "
            f"{hb.shape[1]} (expected {tup.trace_dim}) at z={fmt_complex(z)}"
        )
    return y0, hb, m_z, e


def _resolvent_for_constraint(constraint, y0, hb):
    c_hb = constraint @ hb
    sv = np.linalg.svd(c_hb, compute_uv=False)
    if sv[-1] <= RCOND_FLOOR * max(sv[0], 1.0):
        raise NumericalFailureError(
            "boundary condition is degenerate at this evaluation point; "
            "the constraint does not split off the deficiency directions"
        )
    correction = hb @ np.linalg.solve(c_hb, constraint @ y0)
    return y0 - correction


def resolvent_difference_rank(
    fx: TupleFixture,
    k1,
    k2,
    z: complex = 1j,
    tol: float = 1e-8,
) -> ResolventRankReport:
    """Compare rank of a resolvent difference against the parameter difference.

    Both conditions are given as pivot-space contraction matrices k1, k2.
    Their resolvents at z are realized on the full state space through a
    common reference condition, which makes the difference exactly
    expressible as (deficiency columns) x (k1 - k2) x (rows), hence of rank
    at most rank(k1 - k2). A rank counts the singular values above tol
    times the largest; tol must be positive unless both differences vanish.
    """
    z = complex(z)
    y0, hb, m_z, e = _realize_resolvent_pieces(fx, z)
    c1 = constraint_from_contraction(k1, fx.triple)
    c2 = constraint_from_contraction(k2, fx.triple)
    r1 = _resolvent_for_constraint(c1, y0, hb)
    r2 = _resolvent_for_constraint(c2, y0, hb)

    sigma_res = np.linalg.svd(r2 - r1, compute_uv=False)
    sigma_par = np.linalg.svd(np.atleast_2d(np.subtract(k2, k1, dtype=complex)),
                              compute_uv=False)
    if (sigma_res[0] > 0 or sigma_par[0] > 0) and not tol > 0:
        raise InvalidInputError("rank tolerance must be positive")
    # s > tol * 0 counts nothing when a difference vanishes
    rank_res, rank_par = (int(np.count_nonzero(s > tol * s[0])) for s in (sigma_res, sigma_par))

    # (op - z) r_i - identity must vanish on the attainable range for both
    # realizations; this certifies them as genuine resolvents.
    res = 0.0
    for r in (r1, r2):
        res = max(res, float(np.linalg.norm(e.conj().T @ (m_z @ r) - e.conj().T, 2)))

    return ResolventRankReport(
        z=z,
        fixture_label=fx.label,
        sigma_resolvent=sigma_res,
        rank_resolvent=rank_res,
        rank_parameter=rank_par,
        realization_residual=res,
    )
