"""P1 triangle discretization of the impedance-damped acoustic problem.

The continuous model is a wave equation with an impedance condition on the
boundary. Looking for modes p(x) e^{-i lam t} and integrating by parts gives
the quadratic family

    lam^2 (beta p, q) + i lam (zeta p, q)_boundary - (alpha_inv grad p, grad q) = 0,

so accretive zeta (Re zeta >= 0) pushes eigenvalues into the closed lower
half-plane. Assembly is exact for piecewise-constant data and scatters K, C
and M straight into CSC arrays, with no n x n array, adding the same terms
in the same order as a dense np.add.at. Its invariant checks need no
eigensolve: banded Cholesky factorizations in reverse Cuthill-McKee order
prove that K pinned at one vertex, less a small shift, is SPD (so K's kernel
is the constant direction), that M is SPD, and, for accretive zeta, that the
Hermitian part of C on the rim is semidefinite. On disk_polygon{12,48} (577
vertices) assemble takes about 2 ms, on square{63} about 15 ms, and on a
mesh whose 4096 vertices all lie on the rim about 15 ms. The eigensolve and
the march read the stored CSC arrays; only the dense companion solve
densifies them. Both eigensolvers use one first-order pencil, real when C
is real or purely imaginary. When at most n/6 modes are wanted on n
vertices, shift-invert Lanczos/Arnoldi through one n x n sparse LU computes
only those nearest a requested centre (the origin by default) and
certifies that none nearer it was missed; otherwise the dense companion,
the sparse path's test reference, computes all. Every returned mode must
pass QEP_RESIDUAL_TOL on its backward error, weighted by the largest column
2-norms of K, C and M: lower bounds on their 2-norms, read in O(nnz) from the
stored arrays, so the gate is at least as strict as with the exact norms. A
convergence study centres one such solve on each reference eigenvalue. The
Crank-Nicolson march factors its system once by sparse LU and satisfies a
per-step energy identity exactly, so decay checks test the model rather
than integrator artifacts.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInputError, NumericalFailureError
from .reports import EnergyTrace, ModeEntry, SpectrumReport, fmt_float

MIN_TRIANGLE_AREA = 1e-14
SPD_FLOOR = 1e-10
QEP_RESIDUAL_TOL = 1e-8
ARTIFACT_RADIUS = 1e-8
# companion matrices are dense 2n x 2n; past this the desk-scale pitch breaks
MAX_SOLVE_VERTICES = 2048
# assembly builds K, C and M as CSC arrays; the cap is checked before any of
# them is allocated (for braced specs, before the mesh is built). At this size
# assemble takes 15 ms and peaks at 13 MB traced on square{63}, and fem --nev 12
# runs in 0.9-1.1 s at 88 MB resident (one thread, 2-vCPU VM).
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
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            areas = self.signed_areas()
        huge = np.nonzero(~np.isfinite(areas))[0]
        if huge.size:
            raise InvalidInputError(f"triangle {huge[0]} has a non-finite signed area; "
                                    "its coordinates overflow")
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
        with np.errstate(over="ignore"):  # refused below
            huge = np.nonzero(~np.isfinite(self.boundary_lengths()))[0]
        if huge.size:
            i, j = self.boundary_edges[huge[0]]
            raise InvalidInputError(f"boundary edge {i}-{j} has a non-finite length; "
                                    "its coordinates overflow")

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
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.stack([gx.ravel(), gy.ravel()], axis=1)
    # vertex (i, j) is vid[j, i]; each cell splits along its rising diagonal
    vid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    v00, v10, v01, v11 = vid[:-1, :-1], vid[:-1, 1:], vid[1:, :-1], vid[1:, 1:]
    triangles = np.stack([np.stack([v00, v10, v11], axis=-1),
                          np.stack([v00, v11, v01], axis=-1)], axis=2).reshape(-1, 3)
    # counterclockwise walk from the origin: bottom, right, top, left
    walk = np.concatenate([vid[0, :], vid[1:, nx], vid[ny, -2::-1], vid[-2::-1, 0]])
    edges = np.stack([walk[:-1], walk[1:]], axis=1)
    labels = ["bottom"] * nx + ["right"] * ny + ["top"] * nx + ["left"] * ny
    return Mesh(vertices, triangles, edges, labels)


def disk_polygon_mesh(n_r: int, n_theta: int) -> Mesh:
    """Polar mesh of the inscribed regular polygon of the unit disk."""
    if n_r < 1 or n_theta < 3:
        raise InvalidInputError("need n_r >= 1 and n_theta >= 3")
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    radii = (np.arange(1, n_r + 1) / n_r)[:, None]
    rings = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
    vertices = np.concatenate([np.zeros((1, 2)), rings.reshape(-1, 2)])
    # vertex j of ring k (1-based) is ring[k - 1, j], its successor nxt[k - 1, j]
    ring = 1 + n_theta * np.arange(n_r)[:, None] + np.arange(n_theta)
    nxt = np.roll(ring, -1, axis=1)
    fan = np.stack([np.zeros(n_theta, dtype=int), ring[0], nxt[0]], axis=1)
    a0, a1, b0, b1 = ring[:-1], nxt[:-1], ring[1:], nxt[1:]
    band = np.stack([np.stack([a0, b0, b1], axis=-1),
                     np.stack([a0, b1, a1], axis=-1)], axis=2).reshape(-1, 3)
    edges = np.stack([ring[-1], nxt[-1]], axis=1)
    labels = ["rim"] * n_theta
    return Mesh(vertices, np.concatenate([fan, band]), edges, labels)


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
        # before any arithmetic, which an infinite entry would meet as inf - inf
        if not np.isfinite(a).all():
            raise InvalidInputError("alpha_inv must be finite and positive definite")
        if np.abs(a[:, 0, 1] - a[:, 1, 0]).max(initial=0.0) > 1e-12:
            raise InvalidInputError("alpha_inv blocks must be symmetric")
        # closed-form eigenvalues of symmetric 2x2 blocks
        half_tr = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
        disc = np.sqrt(0.25 * (a[:, 0, 0] - a[:, 1, 1]) ** 2 + a[:, 0, 1] ** 2)
        # written so that NaN fails the test
        if not (half_tr - disc).min(initial=np.inf) >= SPD_FLOOR:
            raise InvalidInputError("alpha_inv must be positive definite")
        b = np.asarray(self.beta, dtype=float)
        if b.ndim == 0:
            b = np.full(nt, float(b))
        elif b.shape != (nt,):
            raise InvalidInputError("beta must be scalar or one value per triangle")
        if not (np.isfinite(b).all() and b.min(initial=np.inf) >= SPD_FLOOR):
            raise InvalidInputError("beta must be positive and finite")
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
    columns of C that can be nonzero. The positivity certificates are banded
    Cholesky factorizations, in reverse Cuthill-McKee order or, for K and M,
    in the natural order where its band is narrower; each succeeds iff the
    matrix is SPD. LAPACK's banded Cholesky does not notice NaN, so
    finiteness is checked first.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    for a, name in ((k, "stiffness"), (c, "boundary damping"), (m, "mass")):
        if not np.isfinite(a.data).all():
            raise NumericalFailureError(f"{name} matrix is not finite")
    scale_k = abs(k).max()
    if abs(k - k.T).max() > 1e-12 * scale_k:
        raise NumericalFailureError("stiffness lost symmetry during assembly")
    n = k.shape[0]
    tau = 1e-10 * max(scale_k, 1.0)
    if np.abs(k @ np.ones(n)).max() > tau:
        raise NumericalFailureError("stiffness does not annihilate constants")
    # K and M without the vertex of largest degree (a hub such as the disk's
    # centre would widen the band), both in one order of M's pattern: RCM's,
    # unless the natural order's band is narrower (a grid's, whose RCM level
    # sets are anti-diagonals)
    pin = int(np.argmax(np.diff(m.indptr)))
    pos = np.arange(n) - (np.arange(n) > pin)
    pos[pin] = -1
    i, j, _ = _triplets(m, pos)
    rcm = np.argsort(reverse_cuthill_mckee(_csc_pattern(i, j, n - 1), True))
    if np.abs(rcm[i] - rcm[j]).max(initial=0) <= np.abs(i - j).max(initial=0):
        pos[pos >= 0] = rcm
    # K_p - tau I is SPD iff its Cholesky succeeds; by interlacing that puts
    # the second eigenvalue of K above tau
    if _band_cholesky(*_triplets(k, pos), n - 1, -tau) is None:
        raise NumericalFailureError("stiffness kernel is not exactly the constant direction")
    # M is SPD iff M_p = L L^T is and so is the Schur complement on the pin,
    # m_00 - |L^{-1} m_0|^2
    factor = _band_cholesky(*_triplets(m, pos), n - 1)
    if factor is not None:
        lo, hi = m.indptr[pin], m.indptr[pin + 1]
        at, m_0 = pos[m.indices[lo:hi]], m.data[lo:hi]
        y = np.zeros(n - 1)
        y[at[at >= 0]] = m_0[at >= 0]
        y = sla.lapack.dtbtrs(factor, y, uplo="L")[0]
    if factor is None or not m_0[at < 0].sum() - y @ y > 0.0:
        raise NumericalFailureError("mass matrix is not positive definite")
    if min_re_zeta < 0.0:
        return
    # herm(C) on the rim: entries (C[i, j] + conj(C[j, i])) / 2, the nonzero
    # ones in CSC order; herm + delta I is SPD iff lambda_min(herm) > -delta
    on_rim = np.full(n, -1)
    on_rim[rim] = rim
    i, j, half = _triplets(c, on_rim)
    half = half / 2
    keys, slot = np.unique(np.concatenate([j * n + i, i * n + j]), return_inverse=True)
    herm = np.zeros(keys.size, dtype=complex)
    np.add.at(herm, slot, np.concatenate([half, half.conj()]))
    nonzero = herm != 0
    if not nonzero.any():
        return
    keys, herm = keys[nonzero], herm[nonzero]
    j, i = np.divmod(keys, n)
    live, i = np.unique(i, return_inverse=True)
    j = np.searchsorted(live, j)
    pos = np.argsort(reverse_cuthill_mckee(_csc_pattern(i, j, live.size), True))
    if not np.any(herm.imag):
        herm = herm.real
    delta = 1e-12 * np.abs(herm).max()
    if _band_cholesky(pos[i], pos[j], herm, live.size, delta) is None:
        raise NumericalFailureError(
            "boundary damping lost positivity despite accretive coefficients"
        )


def _csc_pattern(rows, cols, n):
    """The n x n CSC pattern of (rows, cols) given in CSC order."""
    from scipy.sparse import csc_array

    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return csc_array((np.ones(rows.size, dtype=np.int8), rows.astype(np.int32), indptr),
                     shape=(n, n))


def _triplets(a, pos):
    """(i, j, values) of the CSC a at positions pos of its rows and columns,
    without the rows and columns pos marks -1."""
    i = pos[a.indices]
    j = np.repeat(pos, np.diff(a.indptr))
    keep = (i >= 0) & (j >= 0)
    return i[keep], j[keep], a.data[keep]


def _band_cholesky(i, j, values, n, shift=0.0):
    """The banded lower Cholesky factor of the n x n Hermitian matrix plus
    shift I whose lower triangle holds values at (i, j), i >= j (entries
    above the diagonal are not read), or None if it is not positive definite.

    LAPACK's ?pbtrf succeeds iff the matrix is positive definite, whatever
    the order; it does not notice NaN, so callers check finiteness first.
    """
    low = i >= j
    depth, j = i[low] - j[low], j[low]
    # LAPACK's lower band storage, in Fortran order so that it works in place
    band = np.zeros((depth.max(initial=0) + 1, n), dtype=values.dtype, order="F")
    band[depth, j] = values[low]
    band[0] += shift
    pbtrf = sla.lapack.dpbtrf if band.dtype == float else sla.lapack.zpbtrf
    factor, info = pbtrf(band, lower=1, overwrite_ab=1)
    return factor if info == 0 else None


# ---------------------------------------------------------------------------
# Quadratic eigenvalue solve


def _column_norm(a) -> float:
    """The largest column 2-norm of the CSC a, a lower bound on its 2-norm
    (each column is a times a unit vector); 0 when a has no nonzero entry.

    a is first divided by the power of two at or below its largest real or
    imaginary part, exactly, so that the squares neither overflow nor
    underflow.
    """
    parts = (a.data.real, a.data.imag) if np.iscomplexobj(a.data) else (a.data,)
    top = max(float(np.abs(x).max(initial=0.0)) for x in parts)
    if top == 0.0:
        return 0.0
    e = math.frexp(top)[1] - 1
    squares = sum(np.ldexp(x, -e) ** 2 for x in parts)
    column = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    return math.ldexp(math.sqrt(np.bincount(column, weights=squares).max()), e)


def _column_norms(cols: np.ndarray) -> np.ndarray:
    """The 2-norms of the columns of the dense complex cols.

    Each column is first divided by the power of two at or below its largest
    real or imaginary part, exactly, as in _column_norm, so that its squares
    do not overflow.
    """
    top = np.maximum(np.abs(cols.real).max(axis=0), np.abs(cols.imag).max(axis=0))
    e = np.frexp(top)[1] - 1
    scaled = np.empty(cols.shape, dtype=complex)
    scaled.real, scaled.imag = np.ldexp(cols.real, -e), np.ldexp(cols.imag, -e)
    return np.ldexp(np.linalg.norm(scaled, axis=0), e)


def _is_constant_direction(p: np.ndarray) -> bool:
    nrm = np.linalg.norm(p)
    if nrm == 0.0:
        return False
    return np.linalg.norm(p - p.mean()) <= 1e-6 * nrm


def _lambdas_from_mu(mu: np.ndarray, vecs: np.ndarray, mu_top: float):
    """lam = +-sqrt(mu) for ascending eigenpairs of K p = mu M p.

    mu_top is the largest mu or an estimate of it; it scales the roundoff
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


def _select_modes(lams: np.ndarray, pvecs: np.ndarray, n_want: int, center: complex,
                  zeta_zero: bool):
    """Indices of the n_want genuine modes nearest center and of the quotient
    artifacts nearer it than the last of them, each in order of the
    distances |lam - center|, also returned."""
    dist = np.abs(lams - center)
    kept_idx, artifact_idx = [], []
    for j in np.argsort(dist, kind="stable"):
        if len(kept_idx) == n_want:
            break
        p = pvecs[:, j]
        if not np.any(p):
            continue
        if not zeta_zero and abs(lams[j]) < ARTIFACT_RADIUS and _is_constant_direction(p):
            artifact_idx.append(j)
        else:
            kept_idx.append(j)
    return kept_idx, artifact_idx, dist


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
    M (tau x1 + sigma_K x2) - sigma_K D x1: one sparse n x n LU, factored
    here once in a fill-reducing order for its symmetric pattern, real when D
    and sigma_w are. Raises RuntimeError if it is singular.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = k_s.shape[0]
    tau = sigma_k * sigma_w
    shifted = sp.csc_array(k_s + tau * d_s + (-sigma_k * sigma_w * sigma_w) * m_s)
    lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A")

    def matvec(x):
        x1 = x[:n]
        z1 = lu.solve(m_s @ (tau * x1 + sigma_k * x[n:]) - d_s @ (sigma_k * x1))
        return np.concatenate([z1, x1 + sigma_w * z1])

    return spla.LinearOperator((2 * n, 2 * n), matvec=matvec, dtype=shifted.dtype)


def _unreturned_distance(mu: np.ndarray, sigma: float, center: complex) -> float:
    """A lower bound on |lam - center| over lam = +-sqrt(mu) for every mu
    of K p = mu M p that Lanczos at sigma did not return in mu.

    Those mu lie outside the open interval (sigma - R, sigma + R), R the
    largest |mu_j - sigma| returned. On the side of the farthest returned
    mu the interval ends at that mu itself, free of rounding. As mu >= 0 (K
    is semi-definite), |lam| >= sqrt(upper) or |lam| <= sqrt(lower) when
    lower >= 0. sigma = Re(center)^2, or sigma < 0 at center 0, puts
    |Re center| between the two roots, so the nearest such lam is one of them.
    """
    far = int(np.argmax(np.abs(mu - sigma)))
    reach = abs(mu[far] - sigma)
    upper, lower = (mu[far], sigma - reach) if mu[far] >= sigma else (sigma + reach, mu[far])
    c = complex(abs(center.real), abs(center.imag))
    dist = abs(math.sqrt(max(upper, 0.0)) - c)
    if lower >= 0.0:
        dist = min(dist, abs(math.sqrt(lower) - c))
    return dist


def _solve_shift_invert(k_s, c_s, m_s, n_want: int, center: complex, linearization: str,
                        accretive: bool, rng, mu_top: float):
    """The modes nearest center by shift-invert ARPACK on the sparse K, C (of
    class linearization) and M from a start vector rng draws: (path, lams,
    p-vectors, info), info holding the arithmetic, the final ARPACK k and
    basis size ncv = 2k + 1 (at least 8), and the count of operator
    applications over all runs, or None when the dense companion should take
    over. mu_top estimates the largest mu.

    C = 0: Lanczos on K p = mu M p at sigma_mu = -s^2, so K - sigma_mu M is
    SPD and lam = +-sqrt(mu) stays exactly real; centred at c != 0, at
    sigma_mu = a^2 with a = Re c. Otherwise standard-mode Arnoldi on
    _pencil_operator at sigma_w = rho sigma, sigma = i s (s for purely
    imaginary C), or sigma = c itself in complex arithmetic, whose
    eigenvalues nu give lam = (sigma_w + 1/nu) / rho at |lam - sigma| =
    1/|nu|. Every mode not returned lies at least R = max |lam_j - sigma|
    from sigma, so none nearer c than r, the distance of the n_want-th
    genuine mode from c, was missed when r + |sigma - c| <= R; for C = 0,
    when r is at most _unreturned_distance. Centred, r and R are read from
    the same returned values, so a first k of n_want certifies whenever the
    mode nearest c is genuine and, for C = 0, lies above Re c. Otherwise k
    grows by half (by at least one), up to a quarter of the pencil
    dimension.
    """
    import scipy.sparse.linalg as spla

    n = k_s.shape[0]
    zeta_zero = linearization == "hermitian"
    # sqrt(tr K / (n tr M)) is of the order of the lowest nonzero |lam|; a
    # quarter of it keeps sigma well off the artifact at lam = 0 while the
    # certificate needs few modes beyond the wanted ones
    s = 0.25 * math.sqrt(k_s.trace() / (n * m_s.trace()))
    # off the origin the first k is the request; at the origin it also covers
    # the thin band beyond the wanted modes that the certificate needs (each
    # mu > 0 gives two)
    try:
        if zeta_zero:
            path, sigma = "shift-invert-lanczos", center.real * center.real if center else -s * s
            n_eig = n_want if center else n_want // 2 + 4 + n_want // 16
            lu = spla.splu(k_s - sigma * m_s, permc_spec="MMD_AT_PLUS_A")
            inner = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        else:
            rho, d_s, sigma_k, shift = _linearization(linearization, c_s)
            if center:
                sigma, sigma_w, n_eig = center, rho * center, n_want
            else:
                sigma_w = shift * s
                sigma, n_eig = sigma_w / rho, n_want + 8 + n_want // 8
            path = "shift-invert-arnoldi"
            inner = _pencil_operator(k_s, d_s, m_s, sigma_k, sigma_w)
    except RuntimeError as exc:
        # accretive zeta keeps sigma = i s off the spectrum; nothing keeps
        # the real shift of a reactive rim, or a centre, off it
        if accretive and linearization != "real-direct" and not center:
            raise NumericalFailureError(f"shift-invert factorization failed: {exc}") from exc
        return None
    applications = 0

    def counted(x):
        nonlocal applications
        applications += 1
        return inner.matvec(x)

    dim, dtype = inner.shape[0], inner.dtype
    op = spla.LinearOperator(inner.shape, matvec=counted, dtype=dtype)
    v0 = rng.standard_normal(dim).astype(dtype)
    limit = dim // 4
    while True:
        # 2k + 1 vectors, not scipy's default of at least 20: a run builds
        # the whole basis before its first convergence test, so a centred
        # k = 1 run that converges in a few applications is not held to 20
        ncv = min(max(2 * n_eig + 1, 8), dim)
        try:
            if zeta_zero:
                vals, vecs = spla.eigsh(k_s, k=n_eig, M=m_s, sigma=sigma, OPinv=op,
                                        which="LM", v0=v0, ncv=ncv)
            else:
                vals, vecs = spla.eigs(op, k=n_eig, which="LM", v0=v0, ncv=ncv)
        except spla.ArpackError:
            return None
        if zeta_zero:
            order = np.argsort(vals, kind="stable")
            lams, pvecs = _lambdas_from_mu(vals[order], vecs[:, order], mu_top)
        else:
            # (sigma_w + 1/nu) / rho, with the zero signs of i (s - 1/nu) for real C
            lams, pvecs = (-sigma_w - 1.0 / vals) * (-1 / rho), vecs[:n, :]
            far = np.abs(lams - sigma).max()
        kept_idx, _, dist = _select_modes(lams, pvecs, n_want, center, zeta_zero)
        if len(kept_idx) >= n_want:
            r = dist[kept_idx[-1]]
            if zeta_zero:
                certified = r <= _unreturned_distance(vals, sigma, center)
            else:
                certified = r + abs(sigma - center) <= far
            if certified:
                info = {"arithmetic": "real" if dtype == float else "complex",
                        "arpack_k": n_eig, "arpack_ncv": ncv,
                        "operator_applications": applications}
                return path, lams, pvecs, info
        if n_eig >= limit:
            return None
        n_eig = min(n_eig + max(1, n_eig // 2), limit)


def solve_qep(q: QepMatrices, n_want: int = 24, center: complex = 0.0) -> SpectrumReport:
    """Eigenvalues of lam^2 M p + i lam C p - K p = 0: the n_want genuine
    modes nearest center (default the origin), and the quotient artifacts
    nearer it than the last of them.

    C is classified once, by exact-zero tests: zero (hermitian), real
    (real-rotated), purely imaginary (real-direct) or complex. Each nonzero
    class fixes one first-order pencil for both solvers (_linearization),
    real unless C is complex. With n_want at most a SPARSE_MAX_SHARE-th of
    the vertices, shift-invert Lanczos (C = 0) or Arnoldi on the stored CSC
    arrays K, C and M computes the wanted modes and certifies that none
    nearer center than the n_want-th was missed, recording
    metadata["arithmetic"], the final ARPACK k and basis size
    (metadata["arpack_k"], metadata["arpack_ncv"]) and the count of
    shift-invert operator applications (metadata["operator_applications"]).
    Otherwise, or when it cannot certify them, the dense companion of the
    pencil (a generalized Hermitian solve when C = 0) computes every mode,
    within its cap. metadata["path"] names the solver that ran. Near-zero
    pairs whose eigenvector is constant are tagged quotient-artifact: they
    live in the direction the stiffness energy cannot see. Each residual is
    the backward error of its pair with the largest column 2-norms of K, C
    and M (_column_norm) as weights: they are lower bounds on the 2-norms,
    so no residual is smaller than with the exact norms.
    """
    if n_want < 1:
        raise InvalidInputError("n_want must be at least 1")
    center = complex(center)
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
    # assemble leaves Im C exactly zero for real zeta, Re C for imaginary zeta
    if c_s.nnz == 0:
        linearization = "hermitian"
    elif not np.any(c_s.data.imag):
        linearization, c_s = "real-rotated", c_s.real
    else:
        linearization = "complex" if np.any(c_s.data.real) else "real-direct"
    rng = np.random.default_rng(ARPACK_SEED)
    # the shift-invert start vector is the generator's second n-vector, as in
    # earlier versions, so that their eigenvalues are reproduced bit for bit
    rng.standard_normal(n)
    norm_k, norm_c, norm_m = (_column_norm(x) for x in (q.k, q.c, q.m))

    solved = None
    if sparse:
        accretive = q.meta.get("min_sampled_re_zeta", 0.0) >= 0.0
        solved = _solve_shift_invert(k_s, c_s, m_s, n_want, center, linearization, accretive,
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
    kept_idx, artifact_idx, _ = _select_modes(lams, pvecs, n_want, center,
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
        residuals = _column_norms(qep_cols) / denom

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


def ladder_spec(shape: str, n: int) -> str:
    """Level n of a refinement ladder: square{n}, or disk_polygon{n,4n}."""
    return f"square{{{n}}}" if shape == "square" else f"disk_polygon{{{n},{4 * n}}}"


def convergence_study(shape: str, h_schedule, zeta, reference) -> dict:
    """Eigenvalue errors against trusted reference eigenvalues over a
    refinement ladder.

    shape is 'square' or 'disk_polygon', level n the mesh ladder_spec(shape, n).
    reference holds complex eigenvalues, taken sorted by (Re, Im). Each
    reference eigenvalue pairs with the nearest computed non-artifact
    eigenvalue when the gap is below MATCH_GAP; unmatched references are
    reported, not fatal.

    Each level is assembled once and solved once per reference, for the one
    genuine mode nearest it (solve_qep with n_want=1, center=ref), which
    solve_qep certifies: no FEM eigenvalue lies nearer the reference, so it
    is the one a match against every mode would pick. The result records
    the requests per level (modes_requested, one per reference).
    """
    levels = [int(x) for x in h_schedule]
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise InvalidInputError("h_schedule must be strictly increasing with >= 2 levels")
    if shape not in ("square", "disk_polygon"):
        raise InvalidInputError("convergence shapes are 'square' and 'disk_polygon'")
    ref_vals = sorted(map(complex, reference), key=lambda v: (v.real, v.imag))
    if not ref_vals:
        raise InvalidInputError("reference spectrum is empty")

    specs, errors = [], []
    for n in levels:
        spec = ladder_spec(shape, n)
        specs.append(spec)
        # the matrices go out of scope before the next level is assembled
        q = assemble(build_mesh(spec), zeta=zeta)
        row = []
        for rv in ref_vals:
            rep = solve_qep(q, n_want=1, center=rv)
            (nearest,) = [complex(e.re_lambda, e.im_lambda)
                          for e in rep.entries if e.mode_tag == "fem"]
            gap = abs(nearest - rv)
            row.append(gap if gap < MATCH_GAP else None)
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
        "modes_requested": [[1] * len(ref_vals) for _ in levels],
    }


def convergence_table_csv(result: dict) -> str:
    lines = ["level,h,ref_re,ref_im,abs_error"]
    for n, h, row in zip(result["levels"], result["h"], result["errors"]):
        for (ref_re, ref_im), err in zip(result["reference"], row):
            val = fmt_float(err) if err is not None else "unmatched"
            lines.append(f"{n},{fmt_float(h)},{fmt_float(ref_re)},{fmt_float(ref_im)},{val}")
    return "\n".join(lines) + "\n"
