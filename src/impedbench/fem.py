"""P1 triangle discretization of the impedance-damped acoustic problem.

The continuous model is a wave equation with an impedance condition on the
boundary. Looking for modes p(x) e^{-i lam t} and integrating by parts gives
the quadratic family

    lam^2 (beta p, q) + i lam (zeta p, q)_boundary - (alpha_inv grad p, grad q) = 0,

so accretive zeta (Re zeta >= 0) pushes eigenvalues into the closed lower
half-plane. Assembly is exact for piecewise-constant data and scatters K, C
and M straight into CSC arrays, with no n x n array, adding the same terms
in the same order as a dense np.add.at. Its invariant checks need no
eigensolve: sparse symmetric LDL^T pivots of K pinned at one vertex prove
that its kernel is the constant direction, and those of M prove it SPD. On
disk_polygon{12,48} (577 vertices) assemble takes about 8 ms, on square{63}
about 0.05 s, most of it in the checks. The eigensolve and the march read
the stored CSC arrays; only the dense companion solve densifies them. Both
eigensolvers use one first-order pencil, real when C is real or purely
imaginary. When at most n/6 modes are wanted on n vertices, shift-invert
Lanczos/Arnoldi through one n x n sparse LU computes only those and
certifies that none nearer the origin was missed; otherwise the dense
companion, the sparse path's test reference, computes all. The
Crank-Nicolson march factors its system once by sparse LU and satisfies a
per-step energy identity exactly, so decay checks test the model rather
than integrator artifacts.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInputError, NumericalFailureError
from .reports import EnergyTrace, ModeEntry, SpectrumReport, fmt_float, write_text_atomic

MIN_TRIANGLE_AREA = 1e-14
SPD_FLOOR = 1e-10
QEP_RESIDUAL_TOL = 1e-8
ARTIFACT_RADIUS = 1e-8
# companion matrices are dense 2n x 2n; past this the desk-scale pitch breaks
MAX_SOLVE_VERTICES = 2048
# assembly builds K, C and M as CSC arrays; the cap is checked before any of
# them is allocated (for braced specs, before the mesh is built). At this size
# assemble takes 0.05 s and peaks at 11 MB traced, and fem --nev 12 runs in
# 0.9-1.1 s at 88 MB resident (one thread, 2-vCPU VM).
MAX_ASSEMBLE_VERTICES = 4096
# shift-invert runs while at most n / SPARSE_MAX_SHARE modes are wanted, n the
# vertex count; at 577 vertices it wins up to n/6 and loses at n/4 (one thread)
SPARSE_MAX_SHARE = 6
# ARPACK's default start vector is random; a fixed one makes reruns identical
ARPACK_SEED = 20240801
# a convergence study pairs a reference with the nearest FEM eigenvalue
# closer than this
MATCH_GAP = 0.5

MESH_HEADER = "mesh2d v1"

# 3-point Gauss rule on [0, 1], exact through degree 5
_EDGE_QUAD_T = np.array(
    [0.5 - 0.5 * math.sqrt(0.6), 0.5, 0.5 + 0.5 * math.sqrt(0.6)]
)
_EDGE_QUAD_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


# ---------------------------------------------------------------------------
# Mesh


@dataclass
class Mesh:
    """Conforming triangulation with labeled boundary edges."""

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_labels: list

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        self.boundary_edges = np.asarray(self.boundary_edges, dtype=int)
        self.boundary_labels = [str(s) for s in self.boundary_labels]
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise InvalidInputError("vertices must be an (n, 2) array")
        if not np.isfinite(self.vertices).all():
            raise InvalidInputError("vertex coordinates must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise InvalidInputError("triangles must be an (m, 3) index array")
        if self.boundary_edges.ndim != 2 or self.boundary_edges.shape[1] != 2:
            raise InvalidInputError("boundary edges must be an (k, 2) index array")
        if len(self.boundary_labels) != self.boundary_edges.shape[0]:
            raise InvalidInputError("one label per boundary edge required")
        nv = self.vertices.shape[0]
        for name, idx in (("triangle", self.triangles), ("boundary", self.boundary_edges)):
            if idx.size and (idx.min() < 0 or idx.max() >= nv):
                raise InvalidInputError(f"{name} vertex index out of range")
        self._validate_orientation()
        self._validate_boundary()

    def _validate_orientation(self):
        areas = self.signed_areas()
        bad = np.nonzero(areas <= MIN_TRIANGLE_AREA)[0]
        if bad.size:
            raise InvalidInputError(
                f"triangle {bad[0]} is degenerate or negatively oriented "
                f"(signed area {areas[bad[0]]:.3e})"
            )

    def _validate_boundary(self):
        # edges used by exactly one triangle must coincide with the declared
        # boundary, and every boundary vertex must have loop degree 2. Edges
        # are keyed lo * nv + hi; messages name the smallest offender.
        nv = self.n_vertices

        def keys(edges):
            edges = np.sort(edges, axis=1)
            return edges[:, 0] * nv + edges[:, 1]

        tri = self.triangles
        used, uses = np.unique(
            keys(np.stack([tri, tri[:, [1, 2, 0]]], axis=-1).reshape(-1, 2)),
            return_counts=True,
        )
        rim = used[uses == 1]
        declared, listed = np.unique(keys(self.boundary_edges), return_counts=True)
        for bad, message in (
            (declared[listed > 1], "boundary edge {}-{} listed twice"),
            (np.setdiff1d(declared, rim),
             "edge {}-{} is declared boundary but not on the mesh rim"),
            (np.setdiff1d(rim, declared), "rim edge {}-{} is missing from the boundary list"),
        ):
            if bad.size:
                raise InvalidInputError(message.format(*divmod(int(bad[0]), nv)))
        degree = np.bincount(self.boundary_edges.ravel(), minlength=nv)
        odd = np.nonzero((degree != 0) & (degree != 2))[0]
        if odd.size:
            raise InvalidInputError(f"boundary does not close into loops at vertex {odd[0]}")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def boundary_lengths(self) -> np.ndarray:
        seg = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        return np.hypot(seg[:, 0], seg[:, 1])

    def label_set(self) -> set:
        return set(self.boundary_labels)

    def save(self, path: str) -> None:
        lines = [MESH_HEADER, str(self.n_vertices)]
        for x, y in self.vertices:
            lines.append(f"v {fmt_float(x)} {fmt_float(y)}")
        for i, j, k in self.triangles:
            lines.append(f"t {i} {j} {k}")
        for (i, j), label in zip(self.boundary_edges, self.boundary_labels):
            lines.append(f"b {i} {j} {label}")
        write_text_atomic(path, "\n".join(lines) + "\n")


def square_mesh(n: int, lx: float = 1.0, ly: float = 1.0, nx: int = None, ny: int = None) -> Mesh:
    """Structured triangulation of [0, lx] x [0, ly], two triangles per cell."""
    nx = n if nx is None else nx
    ny = n if ny is None else ny
    if nx < 1 or ny < 1:
        raise InvalidInputError("subdivision counts must be at least 1")
    if not (0 < lx < math.inf and 0 < ly < math.inf):
        raise InvalidInputError("side lengths must be finite and positive")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    vertices = np.array([[xs[i], ys[j]] for j in range(ny + 1) for i in range(nx + 1)])
    triangles = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    edges, labels = [], []
    for i in range(nx):
        edges.append((vid(i, 0), vid(i + 1, 0)))
        labels.append("bottom")
    for j in range(ny):
        edges.append((vid(nx, j), vid(nx, j + 1)))
        labels.append("right")
    for i in range(nx, 0, -1):
        edges.append((vid(i, ny), vid(i - 1, ny)))
        labels.append("top")
    for j in range(ny, 0, -1):
        edges.append((vid(0, j), vid(0, j - 1)))
        labels.append("left")
    return Mesh(vertices, np.array(triangles), np.array(edges), labels)


def disk_polygon_mesh(n_r: int, n_theta: int) -> Mesh:
    """Polar mesh of the inscribed regular polygon of the unit disk."""
    if n_r < 1 or n_theta < 3:
        raise InvalidInputError("need n_r >= 1 and n_theta >= 3")
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    vertices = [(0.0, 0.0)]
    for k in range(1, n_r + 1):
        r = k / n_r
        for th in angles:
            vertices.append((r * np.cos(th), r * np.sin(th)))
    ring = lambda k, j: 1 + (k - 1) * n_theta + (j % n_theta)
    triangles = []
    for j in range(n_theta):
        triangles.append((0, ring(1, j), ring(1, j + 1)))
    for k in range(1, n_r):
        for j in range(n_theta):
            a0, a1 = ring(k, j), ring(k, j + 1)
            b0, b1 = ring(k + 1, j), ring(k + 1, j + 1)
            triangles.append((a0, b0, b1))
            triangles.append((a0, b1, a1))
    edges = [(ring(n_r, j), ring(n_r, j + 1)) for j in range(n_theta)]
    labels = ["rim"] * n_theta
    return Mesh(np.array(vertices), np.array(triangles), np.array(edges), labels)


def mesh_from_file(path: str) -> Mesh:
    """Load the plain-text mesh format; parse errors carry line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read mesh file {path}: {exc}") from exc
    lines = raw.splitlines()
    if not lines or lines[0].strip() != MESH_HEADER:
        raise InvalidInputError(f"{path} line 1: expected header '{MESH_HEADER}'")
    if len(lines) < 2:
        raise InvalidInputError(f"{path} line 2: missing vertex count")
    try:
        n_declared = int(lines[1].strip())
    except ValueError:
        raise InvalidInputError(f"{path} line 2: vertex count must be an integer")
    vertices, triangles, edges, labels = [], [], [], []
    for ln, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        kind = parts[0]
        try:
            if kind == "v" and len(parts) == 3:
                vertices.append((float(parts[1]), float(parts[2])))
            elif kind == "t" and len(parts) == 4:
                triangles.append(tuple(int(p) for p in parts[1:4]))
            elif kind == "b" and len(parts) == 4:
                edges.append((int(parts[1]), int(parts[2])))
                labels.append(parts[3])
            else:
                raise InvalidInputError(f"{path} line {ln}: unrecognized record '{line.strip()}'")
        except ValueError:
            raise InvalidInputError(f"{path} line {ln}: malformed number in '{line.strip()}'")
    if len(vertices) != n_declared:
        raise InvalidInputError(
            f"{path} line 2: declared {n_declared} vertices, found {len(vertices)}"
        )
    try:
        return Mesh(np.array(vertices, dtype=float).reshape(-1, 2),
                    np.array(triangles, dtype=int).reshape(-1, 3),
                    np.array(edges, dtype=int).reshape(-1, 2), labels)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def build_mesh(shape: str) -> Mesh:
    """Dispatch on 'square{n}', 'rectangle{nx,ny,lx,ly}', 'disk_polygon{nr,nt}', or a file path.

    A braced spec whose vertex count exceeds MAX_ASSEMBLE_VERTICES is refused
    before its vertex list is built.
    """
    shape = shape.strip()
    if shape.endswith("}") and "{" in shape:
        name, _, argstr = shape[:-1].partition("{")
        args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
        try:
            if name == "square" and len(args) == 1:
                n = int(args[0])
                count, build = (n + 1) ** 2, lambda: square_mesh(n)
            elif name == "rectangle" and len(args) == 4:
                nx, ny, lx, ly = int(args[0]), int(args[1]), float(args[2]), float(args[3])
                count = (nx + 1) * (ny + 1)
                build = lambda: square_mesh(0, nx=nx, ny=ny, lx=lx, ly=ly)
            elif name == "disk_polygon" and len(args) == 2:
                n_r, n_theta = int(args[0]), int(args[1])
                count, build = 1 + n_r * n_theta, lambda: disk_polygon_mesh(n_r, n_theta)
            else:
                raise InvalidInputError(f"unknown shape '{shape}'")
            if count > MAX_ASSEMBLE_VERTICES:
                raise InvalidInputError(
                    f"'{shape}' has {count} vertices; assembly capped at "
                    f"{MAX_ASSEMBLE_VERTICES}"
                )
            return build()
        except ValueError:
            raise InvalidInputError(f"malformed shape arguments in '{shape}'")
    return mesh_from_file(shape)


# ---------------------------------------------------------------------------
# Coefficients and assembly


@dataclass(frozen=True)
class MaterialCoefficients:
    """Per-triangle 2x2 SPD flux weight and positive mass weight.

    Scalars/single matrices broadcast over the mesh; alpha_inv defaults to
    the identity and beta to one, which is the plain acoustic case.
    """

    alpha_inv: object = None
    beta: object = 1.0

    def resolve(self, mesh: Mesh):
        nt = mesh.n_triangles
        if self.alpha_inv is None:
            a = np.broadcast_to(np.eye(2), (nt, 2, 2)).copy()
        else:
            a = np.asarray(self.alpha_inv, dtype=float)
            if a.shape == (2, 2):
                a = np.broadcast_to(a, (nt, 2, 2)).copy()
            elif a.shape != (nt, 2, 2):
                raise InvalidInputError("alpha_inv must be 2x2 or one 2x2 block per triangle")
        if np.abs(a[:, 0, 1] - a[:, 1, 0]).max(initial=0.0) > 1e-12:
            raise InvalidInputError("alpha_inv blocks must be symmetric")
        # closed-form eigenvalues of symmetric 2x2 blocks
        half_tr = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
        disc = np.sqrt(0.25 * (a[:, 0, 0] - a[:, 1, 1]) ** 2 + a[:, 0, 1] ** 2)
        if (half_tr - disc).min(initial=np.inf) < SPD_FLOOR:
            raise InvalidInputError("alpha_inv must be positive definite")
        b = np.asarray(self.beta, dtype=float)
        if b.ndim == 0:
            b = np.full(nt, float(b))
        elif b.shape != (nt,):
            raise InvalidInputError("beta must be scalar or one value per triangle")
        if b.min(initial=np.inf) < SPD_FLOOR:
            raise InvalidInputError("beta must be positive")
        return a, b


class QepMatrices:
    """Stiffness, boundary damping, and mass matrices of the quadratic family.

    K, C and M are stored once, as the CSC arrays k, c (complex) and m; the
    constructor takes them dense or sparse and converts each once. k_stiff,
    c_bdry and m_mass return dense copies, which only tests and the
    benchmark read. assemble returns K and M real.
    """

    def __init__(self, k_stiff, c_bdry, m_mass, meta=None):
        from scipy.sparse import csc_array

        self.k, self.m = csc_array(k_stiff), csc_array(m_mass)
        self.c = csc_array(c_bdry, dtype=complex)
        self.meta = {} if meta is None else meta

    @property
    def k_stiff(self) -> np.ndarray:
        return self.k.toarray()

    @property
    def c_bdry(self) -> np.ndarray:
        return self.c.toarray()

    @property
    def m_mass(self) -> np.ndarray:
        return self.m.toarray()

    @property
    def dim(self) -> int:
        return self.k.shape[0]


def _resolve_edge_zeta(zeta, labels: set):
    """Normalize the boundary coefficient argument to a per-label mapping."""
    if isinstance(zeta, dict):
        missing = labels - set(zeta)
        if missing:
            raise InvalidInputError(f"no impedance given for boundary label '{sorted(missing)[0]}'")
        return dict(zeta)
    return {label: zeta for label in labels}


def assemble(mesh: Mesh, mat: MaterialCoefficients = None, zeta=0.0) -> QepMatrices:
    """Exact P1 integrals; sampled boundary coefficients use 3-point Gauss.

    zeta may be a number (applied to every boundary label), a callable of
    position, or a dict mapping each boundary label to either.
    """
    n = mesh.n_vertices
    if n > MAX_ASSEMBLE_VERTICES:
        raise InvalidInputError(
            f"assembly capped at {MAX_ASSEMBLE_VERTICES} vertices, got {n}"
        )
    mat = mat if mat is not None else MaterialCoefficients()
    alpha, beta = mat.resolve(mesh)
    areas = mesh.signed_areas()

    pts = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    # grad of the barycentric function at vertex i is rot90(opposite edge)/(2A)
    opp = pts[:, [2, 0, 1], :] - pts[:, [1, 2, 0], :]
    grads = np.stack([-opp[..., 1], opp[..., 0]], axis=-1) / (2.0 * areas)[:, None, None]
    flux = np.einsum("tie,tef,tjf->tij", grads, alpha, grads) * areas[:, None, None]

    mass_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mass = mass_ref[None, :, :] * (beta * areas)[:, None, None]

    rows = mesh.triangles[:, :, None].repeat(3, axis=2)
    cols = mesh.triangles[:, None, :].repeat(3, axis=1)
    k_stiff, m_mass = _scatter_csc(n, rows.ravel(), cols.ravel(), flux.ravel(), mass.ravel())
    _check_connected(m_mass)

    per_label = _resolve_edge_zeta(zeta, mesh.label_set())
    blocks = []
    min_sampled_re = np.inf
    exact_mass = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    lengths = mesh.boundary_lengths()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite C is refused below
        for (i, j), label, length in zip(mesh.boundary_edges, mesh.boundary_labels, lengths):
            z_here = per_label[label]
            if callable(z_here):
                a, b = mesh.vertices[i], mesh.vertices[j]
                block = np.zeros((2, 2), dtype=complex)
                for t, w in zip(_EDGE_QUAD_T, _EDGE_QUAD_W):
                    x = (1.0 - t) * a + t * b
                    zv = complex(z_here(x[0], x[1]))
                    min_sampled_re = min(min_sampled_re, zv.real)
                    shape_fn = np.array([1.0 - t, t])
                    block += w * zv * np.outer(shape_fn, shape_fn)
                block *= length
            else:
                zv = complex(z_here)
                min_sampled_re = min(min_sampled_re, zv.real)
                block = zv * length * exact_mass
            blocks.append(block)
        # edge (i, j) adds its 2 x 2 block at rows i, i, j, j and columns i, j, i, j
        ends = mesh.boundary_edges
        (c_bdry,) = _scatter_csc(n, ends.repeat(2, axis=1).ravel(), np.tile(ends, 2).ravel(),
                                 np.array(blocks, dtype=complex).ravel())
    if not np.isfinite(c_bdry.data).all():
        raise InvalidInputError("boundary damping matrix is not finite; the impedance overflows")

    rim = np.unique(mesh.boundary_edges)
    _check_qep_invariants(k_stiff, c_bdry, m_mass, min_sampled_re, rim)
    meta = {
        "n_vertices": n,
        "n_triangles": mesh.n_triangles,
        "boundary_edges": int(mesh.boundary_edges.shape[0]),
        "min_sampled_re_zeta": float(min_sampled_re),
    }
    return QepMatrices(k_stiff, c_bdry, m_mass, meta)


def _scatter_csc(n, rows, cols, *values):
    """For each vals in values, csc_array(D) of the n x n D that
    np.add.at(D, (rows, cols), vals) fills from zeros, without D.

    np.unique puts the (col, row) keys in CSC order, and np.add.at over its
    inverse index adds the terms of each entry in the order vals lists them,
    as the dense np.add.at does, so the sums agree bit for bit. Entries that
    cancel to exactly zero are dropped, as csc_array(D) drops them.
    """
    from scipy.sparse import csc_array

    keys, slot = np.unique(cols * n + rows, return_inverse=True)
    col, row = np.divmod(keys, n)
    # the index dtype that csc_array(D) picks
    index = np.int32 if max(n, keys.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
    out = []
    for vals in values:
        data = np.zeros(keys.size, dtype=vals.dtype)
        np.add.at(data, slot, vals)
        a = csc_array((data, row.astype(index), indptr.copy()), shape=(n, n))
        a.eliminate_zeros()
        out.append(a)
    return out


def _check_connected(m) -> None:
    # a second component (or a vertex in no triangle) adds a second constant
    # direction to the stiffness kernel; that is bad input, not a solver fault.
    # Every mesh edge carries a positive mass entry and a vertex in no
    # triangle has an empty column, so M's pattern is the mesh graph.
    from scipy.sparse.csgraph import connected_components

    count, _ = connected_components(m, directed=False)
    if count > 1:
        raise InvalidInputError(f"mesh is not connected: {count} components")


def _check_qep_invariants(k, c, m, min_re_zeta, rim):
    """Structural checks on the assembled CSC matrices.

    rim lists the vertices that boundary edges touch, the only rows and
    columns of C that can be nonzero.
    """
    scale_k = abs(k).max()
    if abs(k - k.T).max() > 1e-12 * scale_k:
        raise NumericalFailureError("stiffness lost symmetry during assembly")
    ones = np.ones(k.shape[0])
    tau = 1e-10 * max(scale_k, 1.0)
    if np.abs(k @ ones).max() > tau:
        raise NumericalFailureError("stiffness does not annihilate constants")
    # K pinned at vertex 0 and shifted by -tau is SPD iff its LDL^T pivots are
    # positive; by interlacing that puts the second eigenvalue of K above tau
    if k.shape[0] > 1:
        pinned = k[1:, 1:]
        pinned.setdiag(pinned.diagonal() - tau)
        if not _ldlt_pivots_positive(pinned):
            raise NumericalFailureError("stiffness kernel is not exactly the constant direction")
    if not _ldlt_pivots_positive(m):
        raise NumericalFailureError("mass matrix is not positive definite")
    sub = c[np.ix_(rim, rim)].toarray()
    if min_re_zeta >= 0.0 and np.any(sub):
        herm = sub / 2 + sub.conj().T / 2
        live = np.nonzero(np.abs(herm).sum(axis=1))[0]
        if live.size:
            herm = herm[np.ix_(live, live)]
            low = sla.eigvalsh(herm)[0]
            if low < -1e-12 * np.abs(herm).max():
                raise NumericalFailureError(
                    "boundary damping lost positivity despite accretive coefficients"
                )


def _ldlt_pivots_positive(a) -> bool:
    """Whether the symmetric sparse a is positive definite, by its LDL^T pivots.

    SuperLU in symmetric mode with a zero pivot threshold keeps every diagonal
    pivot that is not exactly zero. When it swapped no row (perm_r equals
    perm_c), P a P^T = L U with U = D L^T, so U's diagonal holds the pivots D,
    and by Sylvester's law of inertia a is SPD iff all of them are positive.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(
            a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # exactly singular
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all())


# ---------------------------------------------------------------------------
# Quadratic eigenvalue solve


def _spectral_norm_boundary(c) -> float:
    """2-norm of the sparse C from its block on the rows and columns in use."""
    live = np.union1d(c.indices, np.nonzero(np.diff(c.indptr))[0])
    if live.size == 0:
        return 0.0
    return float(sla.svdvals(c[np.ix_(live, live)].toarray())[0])


def _is_constant_direction(p: np.ndarray) -> bool:
    nrm = np.linalg.norm(p)
    if nrm == 0.0:
        return False
    return np.linalg.norm(p - p.mean()) <= 1e-6 * nrm


def _lambdas_from_mu(mu: np.ndarray, vecs: np.ndarray, mu_top: float):
    """lam = +-sqrt(mu) for ascending eigenpairs of K p = mu M p.

    mu_top is the largest mu or a lower bound on it; it scales the roundoff
    floor under which the constant mode counts as mu = 0.
    """
    # the constant mode sits at mu = 0 up to roundoff; clamp it so the
    # genuine zero eigenvalue is reported once instead of as +-sqrt(eps)
    floor = 1e-12 * max(abs(mu_top), 1.0)
    lams, pvecs = [], []
    for j, m_j in enumerate(mu):
        zero = abs(m_j) <= floor and _is_constant_direction(vecs[:, j])
        root = 0.0 if zero else math.sqrt(max(m_j, 0.0))
        for lam in (root, -root) if root > 0.0 else (root,):
            lams.append(complex(lam))
            pvecs.append(vecs[:, j].astype(complex))
    return np.array(lams), np.array(pvecs).T


def _select_modes(lams: np.ndarray, pvecs: np.ndarray, n_want: int, radius: float,
                  zeta_zero: bool):
    """Indices of the n_want genuine modes nearest the origin, and of every
    further one with |lam| < radius, and of the quotient artifacts, each in
    order of |lam|."""
    order = np.argsort(np.abs(lams), kind="stable")
    kept_idx, artifact_idx = [], []
    for j in order:
        p = pvecs[:, j]
        if not np.any(p):
            continue
        if not zeta_zero and abs(lams[j]) < ARTIFACT_RADIUS and _is_constant_direction(p):
            artifact_idx.append(j)
        elif len(kept_idx) < n_want or abs(lams[j]) < radius:
            kept_idx.append(j)
    return kept_idx, artifact_idx


def _uses_shift_invert(n: int, n_want: int) -> bool:
    return SPARSE_MAX_SHARE * n_want <= n


def _linearization(path: str, c):
    """(rho, D, sigma_K, sigma_w / s) for C of the class path names: w = rho lam
    turns lam^2 M p + i lam C p - K p = 0 into w^2 M p = w D p + sigma_K K p,
    real unless C is general complex. The shift-invert shift sigma = i s,
    which accretive zeta keeps off the spectrum, becomes the real sigma = s
    for purely imaginary C, whose factor and Arnoldi then stay real.
    """
    if path == "real-rotated":
        return 1j, c.real, -1.0, -1.0
    if path == "real-direct":
        return 1.0, c.imag, 1.0, 1.0
    return 1.0, -1j * c, 1.0, 1j


def _solve_dense(k_s, c_s, m_s, path: str):
    """All eigenpairs (lams, p-vectors) of the dense companion of K, C and M,
    by the eigensolver that path names: hermitian, real-rotated, real-direct or
    complex. The CSC arrays are densified here, C already of class path."""
    kr, mr = k_s.toarray(), m_s.toarray()
    n = kr.shape[0]
    if path == "hermitian":
        mu, vecs = sla.eigh(kr, mr)
        return _lambdas_from_mu(mu, vecs, mu[-1])
    # the companion [[M^{-1} D, sigma_K M^{-1} K], [I, 0]] on [w p; p]
    rho, d, sigma_k, _ = _linearization(path, c_s.toarray())
    try:
        top = np.hstack([sla.solve(mr, d, assume_a="pos"),
                         sigma_k * sla.solve(mr, kr, assume_a="pos")])
        if not np.isfinite(top).all():
            raise NumericalFailureError("companion matrix has non-finite entries")
        w, v = sla.eig(np.vstack([top, np.hstack([np.eye(n), np.zeros((n, n))])]))
    except sla.LinAlgError as exc:
        raise NumericalFailureError(f"companion eigensolve failed: {exc}") from exc
    lams = w / rho
    if not np.all(np.isfinite(lams)):
        raise NumericalFailureError("companion pencil produced non-finite eigenvalues")
    return lams, v[n:, :]


def _pencil_operator(k_s, d_s, m_s, sigma_k, sigma_w):
    """(A - sigma_w B)^{-1} B on [p; w p] for A = [[0, I], [sigma_K K, D]] and
    B = diag(I, M), the pencil of w^2 M p = w D p + sigma_K K p.

    (A - sigma_w B) z = B x gives z2 = x1 + sigma_w z1 and, with
    tau = sigma_K sigma_w, (K + tau D - sigma_K sigma_w^2 M) z1 =
    (tau M - sigma_K D) x1 + sigma_K M x2: one sparse n x n LU, factored here
    once, real when D and sigma_w are. Raises RuntimeError if it is singular.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = k_s.shape[0]
    tau = sigma_k * sigma_w
    shifted = sp.csc_array(k_s + tau * d_s + (-sigma_k * sigma_w * sigma_w) * m_s)
    lu = spla.splu(shifted)
    rhs = sp.hstack([tau * m_s - sigma_k * d_s, sigma_k * m_s], format="csr")

    def matvec(x):
        z1 = lu.solve(rhs @ x)
        return np.concatenate([z1, x[:n] + sigma_w * z1])

    return spla.LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=shifted.dtype)


def _solve_shift_invert(k_s, c_s, m_s, n_want: int, radius: float, linearization: str,
                        accretive: bool, rng, mu_top: float):
    """The modes nearest the origin by shift-invert ARPACK on the sparse K, C
    (of class linearization) and M from a start vector rng draws: (path,
    lams, p-vectors, info), info holding the arithmetic and the final ARPACK
    k, or None when the dense companion should take over. mu_top is at most
    the largest mu.

    C = 0: Lanczos on K p = mu M p with sigma = -s^2, so K - sigma M is SPD
    and lam = +-sqrt(mu) stays exactly real. Otherwise standard-mode Arnoldi
    on _pencil_operator at sigma_w = rho sigma, whose eigenvalues nu give
    lam = (sigma_w + 1/nu) / rho at |lam - sigma| = 1/|nu|. Every mode not
    returned lies at least R = max |lam_j - sigma| from sigma, so no mode
    with |lam| <= r = max(r_sel, radius), r_sel the n_want-th genuine
    modulus, was missed when r + |sigma| < R. Otherwise k grows by half, up
    to a quarter of the pencil dimension.
    """
    import scipy.sparse.linalg as spla

    n = k_s.shape[0]
    zeta_zero = linearization == "hermitian"
    # sqrt(tr K / (n tr M)) is of the order of the lowest nonzero |lam|; a
    # quarter of it keeps sigma well off the artifact at lam = 0 while the
    # certificate needs few modes beyond the wanted ones
    s = 0.25 * math.sqrt(k_s.trace() / (n * m_s.trace()))
    # the first k covers the wanted modes (each mu > 0 gives two) plus the
    # thin band beyond them that the certificate needs
    try:
        if zeta_zero:
            path, sigma = "shift-invert-lanczos", -s * s
            n_eig = n_want // 2 + 4 + n_want // 16
            lu = spla.splu(k_s - sigma * m_s)
            op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        else:
            rho, d_s, sigma_k, shift = _linearization(linearization, c_s)
            sigma_w = shift * s
            path, sigma = "shift-invert-arnoldi", sigma_w / rho
            n_eig = n_want + 8 + n_want // 8
            op = _pencil_operator(k_s, d_s, m_s, sigma_k, sigma_w)
    except RuntimeError as exc:
        # accretive zeta keeps sigma = i s off the spectrum; nothing keeps
        # the real shift of a reactive rim off it
        if accretive and linearization != "real-direct":
            raise NumericalFailureError(f"shift-invert factorization failed: {exc}") from exc
        return None
    v0 = rng.standard_normal(op.shape[0]).astype(op.dtype)
    limit = op.shape[0] // 4
    while True:
        try:
            if zeta_zero:
                vals, vecs = spla.eigsh(k_s, k=n_eig, M=m_s, sigma=sigma, OPinv=op,
                                        which="LM", v0=v0)
            else:
                vals, vecs = spla.eigs(op, k=n_eig, which="LM", v0=v0)
        except spla.ArpackError:
            return None
        if zeta_zero:
            order = np.argsort(vals, kind="stable")
            lams, pvecs = _lambdas_from_mu(vals[order], vecs[:, order], mu_top)
            far = np.abs(vals - sigma).max()
        else:
            # (sigma_w + 1/nu) / rho, with the zero signs of i (s - 1/nu) for real C
            lams, pvecs = (-sigma_w - 1.0 / vals) * (-1 / rho), vecs[:n, :]
            far = np.abs(lams - sigma).max()
        kept_idx, _ = _select_modes(lams, pvecs, n_want, radius, zeta_zero)
        if len(kept_idx) >= n_want:
            r = max(abs(lams[kept_idx[-1]]), radius)
            # in the mu variable the certificate reads r^2 + |sigma| < R
            r_cert = r * r if zeta_zero else r
            if r_cert + abs(sigma) < far:
                info = {"arithmetic": "real" if op.dtype == float else "complex",
                        "arpack_k": n_eig}
                return path, lams, pvecs, info
        if n_eig >= limit:
            return None
        n_eig = min(n_eig + n_eig // 2, limit)


def solve_qep(q: QepMatrices, n_want: int = 24, radius: float = 0.0) -> SpectrumReport:
    """Eigenvalues of lam^2 M p + i lam C p - K p = 0 nearest the origin: the
    n_want genuine modes nearest it and every further one with |lam| < radius,
    so metadata["returned"] may exceed metadata["requested"] (n_want).

    C is classified once, by exact-zero tests: zero (hermitian), real
    (real-rotated), purely imaginary (real-direct) or complex. Each nonzero
    class fixes one first-order pencil for both solvers (_linearization),
    real unless C is complex. With n_want at most a SPARSE_MAX_SHARE-th of
    the vertices, shift-invert Lanczos
    (C = 0) or Arnoldi on the stored CSC arrays K, C and M computes the wanted
    modes and certifies that none nearer the origin than the farther of the
    n_want-th mode and radius was missed, recording metadata["arithmetic"]
    and the final ARPACK k (metadata["arpack_k"]).
    Otherwise, or when it cannot certify them, the dense companion of the
    pencil (a generalized Hermitian solve when C = 0) computes every mode,
    within its cap. metadata["path"] names the solver that ran. Near-zero
    pairs whose eigenvector is constant are tagged quotient-artifact: they
    live in the direction the stiffness energy cannot see.
    """
    import scipy.sparse.linalg as spla

    if n_want < 1:
        raise InvalidInputError("n_want must be at least 1")
    n = q.dim
    sparse = _uses_shift_invert(n, n_want)
    if not sparse and n > MAX_SOLVE_VERTICES:
        raise InvalidInputError(
            f"dense companion solve capped at {MAX_SOLVE_VERTICES} vertices, got {n}"
        )
    k_s, m_s, c_s = q.k, q.m, q.c
    if max(abs(k_s.imag).max(), abs(m_s.imag).max()) > 1e-14 * max(abs(k_s).max(), 1.0):
        raise InvalidInputError("stiffness and mass must be real symmetric")
    k_s, m_s = k_s.real, m_s.real
    norm_c = _spectral_norm_boundary(c_s)
    # assemble leaves Im C exactly zero for real zeta, Re C for imaginary zeta
    if c_s.nnz == 0:
        linearization = "hermitian"
    elif not np.any(c_s.data.imag):
        linearization, c_s = "real-rotated", c_s.real
    else:
        linearization = "complex" if np.any(c_s.data.real) else "real-direct"
    rng = np.random.default_rng(ARPACK_SEED)
    # Lanczos Ritz values never exceed the 2-norms, so residuals scaled by
    # them are never smaller than with the exact norms
    v0 = rng.standard_normal(n)
    norm_k, norm_m = (
        float(abs(spla.eigsh(x, k=1, which="LM", v0=v0, return_eigenvectors=False)[0]))
        for x in (k_s, m_s)
    )

    solved = None
    if sparse:
        accretive = q.meta.get("min_sampled_re_zeta", 0.0) >= 0.0
        solved = _solve_shift_invert(k_s, c_s, m_s, n_want, radius, linearization, accretive,
                                     rng, norm_k / norm_m)
        if solved is None and n > MAX_SOLVE_VERTICES:
            raise NumericalFailureError(
                f"shift-invert gave no certified set of {n_want} modes and the dense "
                f"companion solve is capped at {MAX_SOLVE_VERTICES} vertices, got {n}"
            )
    if solved is None:
        solved = (linearization, *_solve_dense(k_s, c_s, m_s, linearization), {})
    path, lams, pvecs, info = solved

    # classify first, then check residuals for the selected columns in one
    # pass instead of a matvec per eigenpair
    kept_idx, artifact_idx = _select_modes(lams, pvecs, n_want, radius,
                                           linearization == "hermitian")
    selected = kept_idx + artifact_idx
    lam_sel = lams[selected]
    p_sel = pvecs[:, selected]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan is refused below
        qep_cols = (
            (m_s @ p_sel) * (lam_sel * lam_sel)[None, :]
            + (c_s @ p_sel) * (1j * lam_sel)[None, :]
            - k_s @ p_sel
        )
        denom = (
            np.abs(lam_sel) ** 2 * norm_m + np.abs(lam_sel) * norm_c + norm_k
        ) * np.linalg.norm(p_sel, axis=0)
        residuals = np.linalg.norm(qep_cols, axis=0) / denom

    entries = []
    tags = ["fem"] * len(kept_idx) + ["quotient-artifact"] * len(artifact_idx)
    for lam, resid, tag in zip(lam_sel.tolist(), residuals.tolist(), tags):
        if not resid <= QEP_RESIDUAL_TOL:
            raise NumericalFailureError(
                f"eigenpair at {lam:.6g} has residual {resid:.3e} above {QEP_RESIDUAL_TOL:g}"
            )
        entries.append(
            ModeEntry(re_lambda=lam.real, im_lambda=lam.imag, residual=resid, mode_tag=tag)
        )
    meta = {"path": path, "dim": n, "requested": n_want, "returned": len(kept_idx),
            "artifacts": len(artifact_idx), **info}
    return SpectrumReport("fem", entries, metadata=meta)


# ---------------------------------------------------------------------------
# Crank-Nicolson energy march


def cn_energy_march(q: QepMatrices, initial, dt: float, steps: int) -> EnergyTrace:
    """March u' = p, M p' = -K u - C p and record E = u*Ku + p*Mp.

    The trapezoidal update satisfies E_next - E = -(dt/2) s* Herm(C) s with
    s = p_next + p exactly, so monotone decay for accretive coefficients is
    a property of the scheme, not an observation about step size. Constant
    shifts of u never enter E (the stiffness annihilates them). The system
    matrix M + dt^2/4 K + dt/2 C is factored once by sparse LU, so each step
    costs O(nnz) work.
    """
    from scipy.sparse.linalg import splu

    if not (math.isfinite(dt) and dt > 0):
        raise InvalidInputError("dt must be finite and positive")
    if steps < 0:
        raise InvalidInputError("steps must be nonnegative")
    u0, p0 = initial
    u = np.asarray(u0, dtype=complex).ravel().copy()
    p = np.asarray(p0, dtype=complex).ravel().copy()
    n = q.dim
    if u.size != n or p.size != n:
        raise InvalidInputError("initial state size does not match the matrices")
    # C is complex, so that the factor solves for the complex state
    k, c, m = q.k, q.c, q.m

    with np.errstate(over="ignore", invalid="ignore"):
        # an overflowing dt leaves non-finite entries, refused below
        lhs = m + 0.25 * dt * dt * k + 0.5 * dt * c
    if not np.isfinite(lhs.data).all():
        raise InvalidInputError(f"time-step matrix is not finite at dt = {dt:g}")
    try:
        lu = splu(lhs)
    except RuntimeError as exc:  # exactly singular
        raise NumericalFailureError("time-step system is singular at this dt") from exc
    diag = np.abs(lu.U.diagonal())
    if diag.min() <= 1e-14 * max(diag.max(), 1.0):
        raise NumericalFailureError("time-step system is singular at this dt")
    rhs = m - 0.25 * dt * dt * k - 0.5 * dt * c

    def energy(uv, pv) -> float:
        return float((uv.conj() @ (k @ uv)).real + (pv.conj() @ (m @ pv)).real)

    energies = [energy(u, p)]
    for _ in range(steps):
        p_next = lu.solve(rhs @ p - dt * (k @ u))
        u = u + 0.5 * dt * (p + p_next)
        p = p_next
        energies.append(energy(u, p))
    meta = {"steps": steps, "dim": n, "dt": dt}
    return EnergyTrace("cn-march", dt, np.array(energies), metadata=meta)


# ---------------------------------------------------------------------------
# Convergence study


def convergence_study(shape: str, h_schedule, zeta, reference: SpectrumReport) -> dict:
    """Eigenvalue errors against a trusted reference over a refinement ladder.

    shape is 'square' (level n means square{n}) or 'disk_polygon' (level n
    means disk_polygon{n, 4n}). Each reference eigenvalue pairs with the
    nearest computed non-artifact eigenvalue when the gap is below MATCH_GAP;
    unmatched references are reported, not fatal.

    Only an eigenvalue with |lam| < max |ref| + MATCH_GAP can match. Each
    level makes one solve_qep call for 4 len(ref) + 8 modes and every mode
    inside that radius; solve_qep certifies that none of them was missed, so
    every eigenvalue that could match is among those returned. The result
    records the request per level (modes_requested, one-element lists) and
    the largest |lam| returned (radius_reached).
    """
    levels = [int(x) for x in h_schedule]
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise InvalidInputError("h_schedule must be strictly increasing with >= 2 levels")
    if shape not in ("square", "disk_polygon"):
        raise InvalidInputError("convergence shapes are 'square' and 'disk_polygon'")
    ref_vals = [complex(e.re_lambda, e.im_lambda) for e in reference.entries]
    if not ref_vals:
        raise InvalidInputError("reference spectrum is empty")
    match_radius = max(abs(v) for v in ref_vals) + MATCH_GAP

    n_want = 4 * len(ref_vals) + 8
    specs, errors, reached = [], [], []
    for n in levels:
        spec = f"square{{{n}}}" if shape == "square" else f"disk_polygon{{{n},{4 * n}}}"
        specs.append(spec)
        # the matrices go out of scope before the next level is assembled
        rep = solve_qep(assemble(build_mesh(spec), zeta=zeta), n_want=n_want,
                        radius=match_radius)
        computed = np.array(
            [complex(e.re_lambda, e.im_lambda) for e in rep.entries if e.mode_tag == "fem"]
        )
        reached.append(float(np.abs(computed).max()) if computed.size else 0.0)
        row = []
        for rv in ref_vals:
            if computed.size == 0:
                row.append(None)
                continue
            gaps = np.abs(computed - rv)
            jbest = int(np.argmin(gaps))
            row.append(float(gaps[jbest]) if gaps[jbest] < MATCH_GAP else None)
        errors.append(row)

    orders = []
    for (n_c, row_c), (n_f, row_f) in zip(zip(levels, errors), zip(levels[1:], errors[1:])):
        ratio = math.log(n_f / n_c, 2.0)
        pair = []
        for e_c, e_f in zip(row_c, row_f):
            if e_c is None or e_f is None or e_f == 0.0:
                pair.append(None)
            else:
                pair.append(math.log(e_c / e_f, 2.0) / ratio)
        orders.append(pair)

    unmatched = sum(1 for row in errors for e in row if e is None)
    return {
        "shape": shape,
        "levels": levels,
        "mesh_specs": specs,
        "h": [1.0 / n for n in levels],
        "reference": [[v.real, v.imag] for v in ref_vals],
        "errors": errors,
        "orders": orders,
        "finest_orders": orders[-1] if orders else [],
        "unmatched": unmatched,
        "match_radius": match_radius,
        "modes_requested": [[n_want] for _ in levels],
        "radius_reached": reached,
    }


def convergence_table_csv(result: dict) -> str:
    lines = ["level,h,ref_re,ref_im,abs_error"]
    for n, h, row in zip(result["levels"], result["h"], result["errors"]):
        for (ref_re, ref_im), err in zip(result["reference"], row):
            val = fmt_float(err) if err is not None else "unmatched"
            lines.append(f"{n},{fmt_float(h)},{fmt_float(ref_re)},{fmt_float(ref_im)},{val}")
    return "\n".join(lines) + "\n"
