"""Tests for mesh handling, P1 assembly, the QEP solve, and the energy march."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

from impedbench import fem as fem_module
from impedbench.errors import InvalidInputError, NumericalFailureError
from impedbench.fem import (
    MAX_ASSEMBLE_VERTICES,
    QEP_RESIDUAL_TOL,
    Mesh,
    MaterialCoefficients,
    QepMatrices,
    assemble,
    build_mesh,
    cn_energy_march,
    convergence_study,
    mesh_from_file,
    solve_qep,
    square_mesh,
)
from impedbench.models import disk_mode_roots

SEED = 20240801
MIXED_ZETA = {"bottom": 1.0, "right": 0.0, "top": 0.0, "left": 0.0}


def reference_triangle_mesh():
    """One right triangle with legs on the axes."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    triangles = [(0, 1, 2)]
    edges = [(0, 1), (1, 2), (2, 0)]
    return Mesh(np.array(vertices), np.array(triangles), np.array(edges), ["a", "b", "c"])


class TestMesh:
    def test_square_counts(self):
        m = build_mesh("square{1}")
        assert (m.n_vertices, m.n_triangles, m.boundary_edges.shape[0]) == (4, 2, 4)
        m = build_mesh("square{4}")
        assert (m.n_vertices, m.n_triangles) == (25, 32)
        assert m.boundary_edges.shape[0] == 16
        assert m.label_set() == {"bottom", "right", "top", "left"}

    def test_rectangle(self):
        m = build_mesh("rectangle{2,3,2.0,1.5}")
        assert m.n_vertices == 12
        assert m.n_triangles == 12
        assert m.vertices[:, 0].max() == 2.0
        assert m.vertices[:, 1].max() == 1.5

    def test_disk_polygon_inscribed(self):
        m = build_mesh("disk_polygon{8,32}")
        r = np.hypot(m.vertices[:, 0], m.vertices[:, 1])
        assert r.max() <= 1.0 + 1e-15
        rim = np.unique(m.boundary_edges)
        assert np.abs(r[rim] - 1.0).max() < 1e-15
        assert m.label_set() == {"rim"}

    @staticmethod
    def loop_square(nx, ny, lx, ly):
        """square_mesh's arrays built vertex by vertex, the reference for its
        array construction."""
        xs, ys = np.linspace(0.0, lx, nx + 1), np.linspace(0.0, ly, ny + 1)
        vid = lambda i, j: j * (nx + 1) + i
        vertices = [[xs[i], ys[j]] for j in range(ny + 1) for i in range(nx + 1)]
        triangles = []
        for j in range(ny):
            for i in range(nx):
                triangles += [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)),
                              (vid(i, j), vid(i + 1, j + 1), vid(i, j + 1))]
        edges = ([(vid(i, 0), vid(i + 1, 0)) for i in range(nx)]
                 + [(vid(nx, j), vid(nx, j + 1)) for j in range(ny)]
                 + [(vid(i, ny), vid(i - 1, ny)) for i in range(nx, 0, -1)]
                 + [(vid(0, j), vid(0, j - 1)) for j in range(ny, 0, -1)])
        labels = ["bottom"] * nx + ["right"] * ny + ["top"] * nx + ["left"] * ny
        return vertices, triangles, edges, labels

    @staticmethod
    def loop_disk(n_r, n_theta):
        """disk_polygon_mesh's arrays built vertex by vertex."""
        vertices = [(0.0, 0.0)]
        for k in range(1, n_r + 1):
            for th in 2.0 * np.pi * np.arange(n_theta) / n_theta:
                vertices.append((k / n_r * np.cos(th), k / n_r * np.sin(th)))
        ring = lambda k, j: 1 + (k - 1) * n_theta + (j % n_theta)
        triangles = [(0, ring(1, j), ring(1, j + 1)) for j in range(n_theta)]
        for k in range(1, n_r):
            for j in range(n_theta):
                triangles += [(ring(k, j), ring(k + 1, j), ring(k + 1, j + 1)),
                              (ring(k, j), ring(k + 1, j + 1), ring(k, j + 1))]
        edges = [(ring(n_r, j), ring(n_r, j + 1)) for j in range(n_theta)]
        return vertices, triangles, edges, ["rim"] * n_theta

    @pytest.mark.parametrize("a,b", [(1, 3), (2, 8), (4, 16), (5, 7), (12, 48), (1, 1), (3, 1)])
    def test_meshes_equal_the_loop_construction(self, a, b):
        # the same arithmetic on arrays: equal bit for bit
        cases = [(fem_module.square_mesh(0, nx=a, ny=b, lx=1.3, ly=0.7),
                  self.loop_square(a, b, 1.3, 0.7))]
        if b >= 3:
            cases.append((fem_module.disk_polygon_mesh(a, b), self.loop_disk(a, b)))
        for mesh, (vertices, triangles, edges, labels) in cases:
            assert np.array_equal(mesh.vertices, np.array(vertices))
            assert np.array_equal(mesh.triangles, np.array(triangles))
            assert np.array_equal(mesh.boundary_edges, np.array(edges))
            assert mesh.boundary_labels == labels

    def test_all_areas_positive(self):
        for spec in ("square{3}", "disk_polygon{3,12}", "rectangle{2,2,3.0,0.5}"):
            m = build_mesh(spec)
            assert m.signed_areas().min() > 0

    @pytest.mark.filterwarnings("error")
    def test_rejects_overflowing_area_and_length(self):
        # an area that overflows to inf would pass the degeneracy test, and
        # its gradients would turn K into NaN
        with pytest.raises(InvalidInputError, match="triangle 0 has a non-finite signed area"):
            build_mesh("rectangle{2,2,1e160,1e160}")
        # a thin triangle whose area is 1.5e8 and whose edge 1-2 is 2e308 long
        vertices = np.array([(0.0, 0.0), (1e308, 1e-300), (-1e308, 2e-300)])
        with pytest.raises(InvalidInputError, match="edge 1-2 has a non-finite length"):
            Mesh(vertices, np.array([(0, 1, 2)]), np.array([(0, 1), (1, 2), (2, 0)]),
                 ["a", "b", "c"])

    def test_rejects_negative_orientation(self):
        vertices = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(InvalidInputError, match="oriented"):
            Mesh(vertices, np.array([(0, 2, 1)]), np.zeros((0, 2), dtype=int), [])

    def test_rejects_wrong_boundary(self):
        vertices = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        tris = np.array([(0, 1, 2)])
        with pytest.raises(InvalidInputError, match="missing"):
            Mesh(vertices, tris, np.array([(0, 1)]), ["a"])
        with pytest.raises(InvalidInputError, match="rim"):
            sq = square_mesh(2)
            edges = np.vstack([sq.boundary_edges, [(0, 4)]])
            Mesh(sq.vertices, sq.triangles, edges, sq.boundary_labels + ["x"])

    def test_rejects_boundary_edge_listed_twice(self):
        sq = square_mesh(2)
        a, b = sq.boundary_edges[3]
        edges = np.vstack([sq.boundary_edges, [(b, a)]])
        twice = f"boundary edge {min(a, b)}-{max(a, b)} listed twice"
        with pytest.raises(InvalidInputError, match=twice):
            Mesh(sq.vertices, sq.triangles, edges, sq.boundary_labels + ["x"])

    def test_boundary_messages_name_the_smallest_offender(self):
        sq = square_mesh(2)
        # two interior edges declared: the message names the smaller one
        edges = np.vstack([sq.boundary_edges, [(4, 7), (1, 4)]])
        with pytest.raises(InvalidInputError, match="edge 1-4 is declared boundary"):
            Mesh(sq.vertices, sq.triangles, edges, sq.boundary_labels + ["x", "y"])
        # two rim edges dropped: the message names the smaller one
        keys = [tuple(sorted(e)) for e in sq.boundary_edges]
        drop = sorted(keys)[:2]
        kept = [i for i, key in enumerate(keys) if key not in drop]
        missing = f"rim edge {drop[0][0]}-{drop[0][1]} is missing"
        with pytest.raises(InvalidInputError, match=missing):
            Mesh(sq.vertices, sq.triangles, sq.boundary_edges[kept],
                 [sq.boundary_labels[i] for i in kept])

    def test_rejects_bowtie_boundary(self):
        vertices = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
        tris = np.array([(0, 1, 2), (0, 3, 4)])
        edges = np.array([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        with pytest.raises(InvalidInputError, match="loops"):
            Mesh(vertices, tris, edges, ["a"] * 6)

    def test_save_load_round_trip(self, tmp_path):
        # the mesh2d v1 text of a mesh, coordinates in repr so that they read back exactly
        m = build_mesh("disk_polygon{2,8}")
        path = tmp_path / "disk.mesh"
        path.write_text("\n".join(
            ["mesh2d v1", str(m.n_vertices)]
            + [f"v {x!r} {y!r}" for x, y in m.vertices.tolist()]
            + [f"t {i} {j} {k}" for i, j, k in m.triangles.tolist()]
            + [f"b {i} {j} {label}"
               for (i, j), label in zip(m.boundary_edges.tolist(), m.boundary_labels)]
        ) + "\n")
        m2 = mesh_from_file(str(path))
        assert np.array_equal(m.vertices, m2.vertices)
        assert np.array_equal(m.triangles, m2.triangles)
        assert np.array_equal(m.boundary_edges, m2.boundary_edges)
        assert m.boundary_labels == m2.boundary_labels

    def test_loader_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("wrong header\n", "line 1"),
            ("mesh2d v1\nxyz\n", "line 2"),
            ("mesh2d v1\n1\nv 0 0\nq 1 2\n", "line 4"),
            ("mesh2d v1\n1\nv 0 zero\n", "line 3"),
            ("mesh2d v1\n3\nv 0 0\n", "line 2"),
        ]
        for text, needle in cases:
            path = tmp_path / "bad.mesh"
            path.write_text(text)
            with pytest.raises(InvalidInputError, match=needle):
                mesh_from_file(str(path))

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_mesh_file_rejects_non_finite_vertices(self, tmp_path, coord):
        path = tmp_path / "nan.mesh"
        path.write_text(
            f"mesh2d v1\n3\nv 0 0\nv 1 0\nv {coord} 1\nt 0 1 2\n"
            "b 0 1 rim\nb 1 2 rim\nb 2 0 rim\n"
        )
        with pytest.raises(InvalidInputError, match="finite"):
            mesh_from_file(str(path))

    def test_build_mesh_grammar_errors(self):
        with pytest.raises(InvalidInputError, match="unknown shape"):
            build_mesh("hexagon{3}")
        with pytest.raises(InvalidInputError, match="malformed"):
            build_mesh("square{a}")
        with pytest.raises(InvalidInputError):
            build_mesh("/nonexistent/path.mesh")

    @pytest.mark.parametrize("spec", [
        "square{64}", "rectangle{100000,1,1.0,1.0}", "disk_polygon{64,64}",
    ])
    def test_spec_over_cap_refused_before_building(self, monkeypatch, spec):
        def never(*args, **kwargs):
            raise AssertionError("mesh built before the vertex cap was checked")

        monkeypatch.setattr(fem_module, "square_mesh", never)
        monkeypatch.setattr(fem_module, "disk_polygon_mesh", never)
        with pytest.raises(InvalidInputError, match="assembly capped"):
            build_mesh(spec)

    def test_spec_at_cap_builds(self):
        assert build_mesh("square{63}").n_vertices == MAX_ASSEMBLE_VERTICES


class TestMaterials:
    def test_defaults(self):
        mesh = square_mesh(2)
        a, b = MaterialCoefficients().resolve(mesh)
        assert a.shape == (mesh.n_triangles, 2, 2)
        assert np.array_equal(a[0], np.eye(2))
        assert np.all(b == 1.0)

    def test_rejects_bad_inputs(self):
        mesh = square_mesh(2)
        with pytest.raises(InvalidInputError, match="symmetric"):
            MaterialCoefficients(alpha_inv=np.array([[1.0, 0.5], [0.0, 1.0]])).resolve(mesh)
        with pytest.raises(InvalidInputError, match="positive definite"):
            MaterialCoefficients(alpha_inv=np.array([[1.0, 2.0], [2.0, 1.0]])).resolve(mesh)
        with pytest.raises(InvalidInputError, match="beta"):
            MaterialCoefficients(beta=0.0).resolve(mesh)
        with pytest.raises(InvalidInputError, match="per triangle"):
            MaterialCoefficients(beta=np.ones(3)).resolve(mesh)

    def test_nan_beta_is_invalid_input(self):
        # not a mass matrix that assembly refuses as a numerical failure
        mesh = square_mesh(2)
        beta = np.ones(mesh.n_triangles)
        beta[3] = np.nan
        for value in (np.nan, beta):
            with pytest.raises(InvalidInputError, match="beta must be positive"):
                MaterialCoefficients(beta=value).resolve(mesh)
            with pytest.raises(InvalidInputError, match="beta"):
                assemble(mesh, mat=MaterialCoefficients(beta=value), zeta=0.5)

    def test_nan_alpha_inv_is_invalid_input(self):
        mesh = square_mesh(2)
        blocks = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2)).copy()
        blocks[5, 1, 1] = np.nan
        for value in (np.array([[np.nan, 0.0], [0.0, 1.0]]), blocks):
            with pytest.raises(InvalidInputError, match="positive definite"):
                MaterialCoefficients(alpha_inv=value).resolve(mesh)
            with pytest.raises(InvalidInputError, match="alpha_inv"):
                assemble(mesh, mat=MaterialCoefficients(alpha_inv=value), zeta=0.5)

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_infinite_beta_is_invalid_input(self, inf):
        # not a mass matrix that assembly refuses as a numerical failure
        mesh = square_mesh(2)
        beta = np.ones(mesh.n_triangles)
        beta[3] = inf
        for value in (inf, beta):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError, match="beta must be positive and finite"):
                    MaterialCoefficients(beta=value).resolve(mesh)
                with pytest.raises(InvalidInputError, match="beta"):
                    assemble(mesh, mat=MaterialCoefficients(beta=value), zeta=0.5)

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_infinite_alpha_inv_is_invalid_input(self, inf):
        # refused before the symmetry test would meet inf - inf
        mesh = square_mesh(2)
        blocks = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2)).copy()
        blocks[5, 0, 1] = blocks[5, 1, 0] = inf
        for value in (np.array([[1.0, 0.0], [0.0, inf]]), blocks):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError, match="alpha_inv must be finite"):
                    MaterialCoefficients(alpha_inv=value).resolve(mesh)
                with pytest.raises(InvalidInputError, match="alpha_inv"):
                    assemble(mesh, mat=MaterialCoefficients(alpha_inv=value), zeta=0.5)


class TestAssemble:
    def test_reference_triangle_element_matrices(self):
        q = assemble(reference_triangle_mesh(), zeta=0.0)
        k_hand = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        m_hand = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        assert np.abs(q.k_stiff - k_hand).max() < 1e-14
        assert np.abs(q.m_mass - m_hand).max() < 1e-14
        assert not np.any(q.c_bdry)

    def test_neumann_has_no_boundary_term_and_constant_kernel(self):
        q = assemble(build_mesh("square{4}"), zeta=0.0)
        assert not np.any(q.c_bdry)
        ones = np.ones(q.dim)
        assert np.abs(q.k_stiff @ ones).max() < 1e-13

    def test_imaginary_coefficient_gives_antihermitian_boundary(self):
        q = assemble(build_mesh("square{3}"), zeta=1j)
        herm = 0.5 * (q.c_bdry + q.c_bdry.conj().T)
        assert np.abs(herm).max() < 1e-12

    def test_total_boundary_weight_is_zeta_times_perimeter(self):
        q = assemble(build_mesh("square{5}"), zeta=0.25 + 0.5j)
        ones = np.ones(q.dim)
        total = ones @ (q.c_bdry @ ones)
        assert abs(total - (0.25 + 0.5j) * 4.0) < 1e-12

    def test_callable_matches_constant(self):
        mesh = build_mesh("square{3}")
        q_const = assemble(mesh, zeta=0.7)
        q_call = assemble(mesh, zeta=lambda x, y: 0.7)
        assert np.abs(q_const.c_bdry - q_call.c_bdry).max() < 1e-14

    def test_quadratic_coefficient_integrated_exactly(self):
        # bottom edge of the unit square, zeta = x^2: moments against the two
        # P1 shapes are 1/30, 1/20, 1/5 in closed form
        mesh = square_mesh(1)
        zeta = {"bottom": lambda x, y: x * x, "right": 0.0, "top": 0.0, "left": 0.0}
        q = assemble(mesh, zeta=zeta)
        c = q.c_bdry
        assert abs(c[0, 0] - 1.0 / 30.0) < 1e-15
        assert abs(c[0, 1] - 1.0 / 20.0) < 1e-15
        assert abs(c[1, 1] - 1.0 / 5.0) < 1e-15

    def test_per_label_dict_and_missing_label(self):
        mesh = build_mesh("square{2}")
        q = assemble(mesh, zeta={"bottom": 1.0, "right": 0.0, "top": 0.0, "left": 0.0})
        ones = np.ones(q.dim)
        assert abs(ones @ (q.c_bdry @ ones) - 1.0) < 1e-13
        with pytest.raises(InvalidInputError, match="left"):
            assemble(mesh, zeta={"bottom": 1.0, "right": 0.0, "top": 0.0})

    def test_vertex_cap_checked_before_allocation(self):
        mesh = square_mesh(64)  # 4225 vertices
        assert mesh.n_vertices > MAX_ASSEMBLE_VERTICES
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="assembly capped"):
                assemble(mesh, zeta=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dense n x n float matrix alone would take 143 MB
        assert peak < 8 * mesh.n_vertices ** 2 / 100

    @pytest.mark.parametrize("spec,zeta", [
        ("square{4}", 0.5),
        ("disk_polygon{8,32}", 0.3 + 0.4j),
        ("disk_polygon{8,32}", lambda x, y: 0.5 + x * y - 0.25j * y),
        # the zero label leaves explicit zeros that the CSC arrays must drop
        ("square{4}", {"bottom": 0.0, "right": 1.0, "top": 0.5j,
                       "left": lambda x, y: 0.2 + y}),
    ])
    def test_csc_arrays_equal_dense_scatter_bitwise(self, spec, zeta):
        mesh = build_mesh(spec)
        q = assemble(mesh, zeta=zeta)
        for got, dense in zip((q.k, q.c, q.m), dense_assembly(mesh, zeta)):
            want = sp.csc_array(dense)
            assert got.format == "csc" and got.dtype == want.dtype
            assert got.data.tobytes() == want.data.tobytes()
            for name in ("indices", "indptr"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_dense_properties_keep_dtype_shape_and_size(self):
        # fresh n x n copies of float64 K and M and complex128 C, whose nbytes
        # add up to the 16 n^2 + 8 n^2 + 8 n^2 bytes of three dense fields
        q = assemble(build_mesh("disk_polygon{4,16}"), zeta=0.5)
        n = q.dim
        for dense, stored, dtype in ((q.k_stiff, q.k, np.float64),
                                     (q.c_bdry, q.c, np.complex128),
                                     (q.m_mass, q.m, np.float64)):
            assert dense.dtype == dtype and dense.shape == (n, n)
            assert dense.nbytes == n * n * np.dtype(dtype).itemsize
            dense[0, 0] += 1.0
            assert stored[0, 0] != dense[0, 0]
        copy = QepMatrices(k_stiff=q.k_stiff, c_bdry=q.c, m_mass=q.m_mass)
        for got, want in ((copy.k, q.k), (copy.c, q.c), (copy.m, q.m)):
            assert got.format == "csc" and (got != want).nnz == 0

    def test_vertex_in_no_triangle_is_a_second_component(self):
        base = reference_triangle_mesh()
        mesh = Mesh(np.vstack([base.vertices, [[5.0, 5.0]]]), base.triangles,
                    base.boundary_edges, base.boundary_labels)
        with pytest.raises(InvalidInputError, match="not connected: 2 components"):
            assemble(mesh, zeta=0.5)

    def test_assemble_and_shift_invert_allocate_no_dense_matrix(self):
        # at the 4096-vertex cap one dense n x n float matrix takes 134 MB
        mesh = build_mesh("square{63}")
        tracemalloc.start()
        try:
            report = solve_qep(assemble(mesh, zeta=0.5), 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.metadata["path"] == "shift-invert-arnoldi"
        assert peak < 64e6

    def test_anisotropic_flux_scales_stiffness(self):
        mesh = reference_triangle_mesh()
        mat = MaterialCoefficients(alpha_inv=np.array([[2.0, 0.0], [0.0, 2.0]]))
        q = assemble(mesh, mat=mat, zeta=0.0)
        q_unit = assemble(mesh, zeta=0.0)
        assert np.abs(q.k_stiff - 2.0 * q_unit.k_stiff).max() < 1e-14


def dense_assembly(mesh, zeta):
    """K, C, M of the plain acoustic case scattered into dense arrays: K and M
    by np.add.at in triangle order, C block by block in rim-edge order."""
    n = mesh.n_vertices
    areas = mesh.signed_areas()
    pts = mesh.vertices[mesh.triangles]
    opp = pts[:, [2, 0, 1], :] - pts[:, [1, 2, 0], :]
    grads = np.stack([-opp[..., 1], opp[..., 0]], axis=-1) / (2.0 * areas)[:, None, None]
    alpha = np.broadcast_to(np.eye(2), (mesh.n_triangles, 2, 2))
    flux = np.einsum("tie,tef,tjf->tij", grads, alpha, grads) * areas[:, None, None]
    mass = ((np.ones((3, 3)) + np.eye(3)) / 12.0)[None, :, :] * areas[:, None, None]
    rows = mesh.triangles[:, :, None].repeat(3, axis=2).ravel()
    cols = mesh.triangles[:, None, :].repeat(3, axis=1).ravel()
    k, m, c = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n), dtype=complex)
    np.add.at(k, (rows, cols), flux.ravel())
    np.add.at(m, (rows, cols), mass.ravel())
    per_label = zeta if isinstance(zeta, dict) else {label: zeta for label in mesh.label_set()}
    for (i, j), label, length in zip(mesh.boundary_edges, mesh.boundary_labels,
                                     mesh.boundary_lengths()):
        z_here = per_label[label]
        if callable(z_here):
            a, b = mesh.vertices[i], mesh.vertices[j]
            block = np.zeros((2, 2), dtype=complex)
            for t, w in zip(fem_module._EDGE_QUAD_T, fem_module._EDGE_QUAD_W):
                x = (1.0 - t) * a + t * b
                shape_fn = np.array([1.0 - t, t])
                block += w * complex(z_here(x[0], x[1])) * np.outer(shape_fn, shape_fn)
            block *= length
        else:
            block = complex(z_here) * length * (np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0)
        c[np.ix_([i, j], [i, j])] += block
    return k, c, m


def invariant_inputs(spec="square{4}", zeta=0.5):
    """Dense copies of the assembled K, C, M of spec, and its rim vertices."""
    mesh = build_mesh(spec)
    q = assemble(mesh, zeta=zeta)
    return q.k_stiff, q.c_bdry, q.m_mass, np.unique(mesh.boundary_edges)


def check_invariants(k, c, m, min_re_zeta, rim):
    """The invariant check on CSC arrays of dense K, C, M, as assemble stores them."""
    fem_module._check_qep_invariants(*map(sp.csc_array, (k, c, m)), min_re_zeta, rim)


def lonely_triangle(mesh):
    """A triangle holding a vertex that no other triangle touches."""
    uses = np.bincount(mesh.triangles.ravel())
    vertex = int(np.nonzero(uses == 1)[0][0])
    return int(np.nonzero((mesh.triangles == vertex).any(axis=1))[0][0]), vertex


class TestInvariantChecks:
    @pytest.mark.parametrize(
        "spec", ["square{4}", "disk_polygon{3,12}", "rectangle{40,1,100.0,0.01}"]
    )
    def test_assembled_matrices_pass(self, spec):
        k, c, m, rim = invariant_inputs(spec)
        check_invariants(k, c, m, 0.5, rim)

    @pytest.mark.parametrize("spec, band", [("square{20}", 22), ("disk_polygon{8,32}", 24)])
    def test_certificates_take_the_narrower_order(self, monkeypatch, spec, band):
        # a grid keeps its natural order, whose band (22 on square{20}) is
        # about half its RCM order's (41); a disk takes RCM (24, natural 33)
        depths = []
        band_cholesky = fem_module._band_cholesky

        def recorded(i, j, values, n, shift=0.0):
            depths.append(int((i - j).max()))
            return band_cholesky(i, j, values, n, shift)

        monkeypatch.setattr(fem_module, "_band_cholesky", recorded)
        assemble(build_mesh(spec), zeta=0.5)
        # M's band; K's may be narrower, where entries cancel to zero
        assert depths[1] == band

    def test_indefinite_stiffness_with_constant_kernel_rejected(self):
        k, c, m, rim = invariant_inputs()
        i, j = 3, 7
        e = np.zeros(k.shape[0])
        e[i], e[j] = 1.0, -1.0
        k += -10.0 * np.abs(k).max() * np.outer(e, e)
        assert np.abs(k @ np.ones(k.shape[0])).max() < 1e-12
        with pytest.raises(NumericalFailureError, match="stiffness kernel"):
            check_invariants(k, c, m, 0.5, rim)

    def test_second_eigenvalue_below_threshold_rejected(self):
        # K stays PSD with the constant kernel, but its second eigenvalue sits
        # at tau / 2, under the threshold tau; only the shifted pivots see it
        k, c, m, rim = invariant_inputs()
        tau = 1e-10 * max(np.abs(k).max(), 1.0)
        w, v = np.linalg.eigh(k)
        k -= (w[1] - 0.5 * tau) * np.outer(v[:, 1], v[:, 1])
        assert 0.0 < np.linalg.eigvalsh(k)[1] < tau
        with pytest.raises(NumericalFailureError, match="stiffness kernel"):
            check_invariants(k, c, m, 0.5, rim)

    def test_negative_local_mass_rejected(self):
        mesh = build_mesh("square{4}")
        k, c, m, rim = invariant_inputs()
        t, vertex = lonely_triangle(mesh)
        # the vertex's diagonal is its one triangle's 2 beta area / 12
        local = 0.5 * m[vertex, vertex] * (np.ones((3, 3)) + np.eye(3))
        m[np.ix_(mesh.triangles[t], mesh.triangles[t])] -= 2.0 * local
        with pytest.raises(NumericalFailureError, match="mass matrix"):
            check_invariants(k, c, m, 0.5, rim)

    def test_negative_damping_under_accretive_coefficients_rejected(self):
        k, c, m, rim = invariant_inputs()
        c[rim[2], rim[2]] -= 10.0 * np.abs(c).max()
        with pytest.raises(NumericalFailureError, match="damping lost positivity"):
            check_invariants(k, c, m, 0.5, rim)
        # a nonaccretive coefficient may make C indefinite
        check_invariants(k, c, m, -0.5, rim)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["k", "c", "m"])
    def test_non_finite_matrix_refused_before_factoring(self, monkeypatch, name, bad):
        # LAPACK's banded Cholesky succeeds on a NaN entry, so the finiteness
        # test has to come before any factorization
        k, c, m, rim = invariant_inputs()
        matrices = {"k": k, "c": c, "m": m}
        matrices[name][rim[2], rim[2]] = bad

        def factored(*args, **kwargs):
            raise AssertionError("a non-finite matrix was factored")

        for routine in ("dpbtrf", "zpbtrf", "dtbtrs"):
            monkeypatch.setattr(sla.lapack, routine, factored)
        monkeypatch.setattr(spla, "splu", factored)
        with pytest.raises(NumericalFailureError, match="matrix is not finite"):
            check_invariants(k, c, m, 0.5, rim)

    def test_negative_local_mass_exits_4(self, monkeypatch, capsys):
        from impedbench import cli

        resolve = MaterialCoefficients.resolve

        def flipped(self, mesh):
            alpha, beta = resolve(self, mesh)
            beta[lonely_triangle(mesh)[0]] *= -1.0
            return alpha, beta

        monkeypatch.setattr(MaterialCoefficients, "resolve", flipped)
        assert cli.main(["fem", "--shape", "square", "--n", "4", "--zeta", "0.5"]) == 4
        assert "mass matrix is not positive definite" in capsys.readouterr().err


class TestSolveQep:
    # each check runs once on the dense side of the solver switch and once,
    # in its _shift_invert twin, on the sparse side

    def _check_neumann_square(self, spec, n_want, path):
        rep = solve_qep(assemble(build_mesh(spec), zeta=0.0), n_want=n_want)
        assert rep.metadata["path"] == path
        vals = [complex(e.re_lambda, e.im_lambda) for e in rep.entries if e.mode_tag == "fem"]
        assert all(abs(v.imag) == 0.0 for v in vals)
        nonzero = sorted(abs(v) for v in vals if abs(v) > 1e-6)
        assert abs(nonzero[0] - np.pi) / np.pi < 0.01
        # degenerate (1,0)/(0,1) pair and the +- symmetry
        assert abs(nonzero[1] - nonzero[0]) < 1e-10
        zeros = [v for v in vals if abs(v) < 1e-10]
        assert len(zeros) == 1
        positives = sorted(v.real for v in vals if v.real > 1e-6)
        negatives = sorted(-v.real for v in vals if v.real < -1e-6)
        assert np.allclose(positives, negatives, atol=1e-12)

    def test_neumann_square_matches_closed_form(self):
        # 15 of 81 modes (the zero mode and seven +- pairs) is more than a
        # SPARSE_MAX_SHARE-th: the dense side
        self._check_neumann_square("square{8}", 15, "hermitian")

    def test_neumann_square_matches_closed_form_shift_invert(self):
        self._check_neumann_square("square{16}", 9, "shift-invert-lanczos")

    def _check_real_damping(self, spec, n_want, path):
        rep = solve_qep(assemble(build_mesh(spec), zeta=1.0), n_want=n_want)
        assert rep.metadata["path"] == path
        fem = [e for e in rep.entries if e.mode_tag == "fem"]
        art = [e for e in rep.entries if e.mode_tag == "quotient-artifact"]
        assert len(art) == 1
        assert abs(complex(art[0].re_lambda, art[0].im_lambda)) < 1e-8
        assert max(e.im_lambda for e in fem) <= 1e-8
        assert all(e.residual <= 1e-8 for e in rep.entries)

    def test_real_damping_enclosure_and_artifact(self):
        self._check_real_damping("square{8}", 200, "real-rotated")

    def test_real_damping_enclosure_and_artifact_shift_invert(self):
        self._check_real_damping("square{16}", 24, "shift-invert-arnoldi")

    def _check_imaginary_damping(self, spec, n_want, path):
        rep = solve_qep(assemble(build_mesh(spec), zeta=0.5j), n_want=n_want)
        assert rep.metadata["path"] == path
        fem = [e for e in rep.entries if e.mode_tag == "fem"]
        assert max(abs(e.im_lambda) for e in fem) <= 1e-8

    def test_imaginary_damping_real_spectrum(self):
        self._check_imaginary_damping("square{8}", 160, "real-direct")

    def test_imaginary_damping_real_spectrum_shift_invert(self):
        self._check_imaginary_damping("square{16}", 24, "shift-invert-arnoldi")

    def _check_general_complex(self, spec, path):
        rep = solve_qep(assemble(build_mesh(spec), zeta=0.3 + 0.4j), n_want=12)
        assert rep.metadata["path"] == path
        fem = [e for e in rep.entries if e.mode_tag == "fem"]
        assert len(fem) == 12
        assert max(e.im_lambda for e in fem) <= 1e-8
        assert rep.metadata["artifacts"] == 1

    def test_general_complex_path(self):
        self._check_general_complex("square{6}", "complex")

    def test_general_complex_path_shift_invert(self):
        self._check_general_complex("square{16}", "shift-invert-arnoldi")

    def _check_mixed_labels(self, spec, path):
        rep = solve_qep(assemble(build_mesh(spec), zeta=MIXED_ZETA), n_want=20)
        assert rep.metadata["path"] == path
        fem = [e for e in rep.entries if e.mode_tag == "fem"]
        assert max(e.im_lambda for e in fem) <= 1e-8

    def test_mixed_boundary_labels(self):
        self._check_mixed_labels("square{6}", "real-rotated")

    def test_mixed_boundary_labels_shift_invert(self):
        self._check_mixed_labels("square{16}", "shift-invert-arnoldi")

    def test_center_reaches_past_the_modes_crowding_the_origin(self):
        # overdamped rim modes crowd the origin: at zeta = 1000 the 16 modes
        # of disk_polygon{8,32} nearest it end near |lam| = 2.4, short of the
        # sector-1 root near 3.8317 - 0.001i; centred there, one mode answers
        q = assemble(build_mesh("disk_polygon{8,32}"), zeta=1000.0)
        ref = 3.8317 - 0.001j
        plain = solve_qep(q, n_want=16)
        assert all(abs(complex(e.re_lambda, e.im_lambda) - ref) > 0.5 for e in plain.entries)
        near = solve_qep(q, n_want=1, center=ref)
        assert near.metadata["path"] == "shift-invert-arnoldi"
        assert near.metadata["arithmetic"] == "complex"
        assert (near.metadata["requested"], near.metadata["returned"]) == (1, 1)
        assert near.metadata["artifacts"] == 0
        (mode,) = near.entries
        assert mode.mode_tag == "fem"
        assert abs(complex(mode.re_lambda, mode.im_lambda) - ref) < 0.1
        # centre 0 is the default
        zero = solve_qep(q, n_want=16, center=0.0)
        assert zero.entries == plain.entries
        assert zero.metadata == plain.metadata

    def test_n_want_and_validation(self):
        q = assemble(build_mesh("square{4}"), zeta=1.0)
        rep = solve_qep(q, n_want=7)
        assert rep.metadata["returned"] == 7
        with pytest.raises(InvalidInputError, match="n_want"):
            solve_qep(q, n_want=0)

    def test_dense_cap(self):
        mesh = build_mesh("square{46}")  # 2209 vertices
        q = assemble(mesh, zeta=0.0)
        with pytest.raises(InvalidInputError, match="dense companion solve capped"):
            solve_qep(q, n_want=q.dim)
        # the cap binds the dense companion only
        assert solve_qep(q, n_want=4).metadata["path"] == "shift-invert-lanczos"

    def test_failed_factorization_falls_back_only_when_nonaccretive(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        # assembly's own invariant check factors K and M, so assemble first
        mesh = build_mesh("square{16}")
        accretive, nonaccretive = assemble(mesh, zeta=0.5), assemble(mesh, zeta=-0.5)
        reactive = assemble(mesh, zeta=0.5j)
        monkeypatch.setattr(spla, "splu", singular)
        with pytest.raises(NumericalFailureError, match="factorization failed"):
            solve_qep(accretive, n_want=8)
        assert solve_qep(nonaccretive, n_want=8).metadata["path"] == "real-rotated"
        # nothing keeps the real shift of a reactive rim off its spectrum
        assert solve_qep(reactive, n_want=8).metadata["path"] == "real-direct"

    def test_uncertified_modes_fall_back_to_dense(self, monkeypatch):
        calls = []
        eigs = spla.eigs

        def nearest_nine(*args, **kwargs):
            # the artifact and the eight genuine modes nearest sigma (largest
            # |nu| = 1/|lam - sigma|): enough modes, but by the triangle
            # inequality never a certified set
            calls.append(kwargs["k"])
            vals, vecs = eigs(*args, **kwargs)
            keep = np.argsort(-np.abs(vals))[:9]
            return vals[keep], vecs[:, keep]

        monkeypatch.setattr(spla, "eigs", nearest_nine)
        monkeypatch.setattr(fem_module, "_uses_shift_invert", lambda n, w: True)
        q = assemble(build_mesh("square{8}"), zeta=0.5)
        rep = solve_qep(q, n_want=8)
        assert rep.metadata["path"] == "real-rotated"
        assert rep.metadata["returned"] == 8
        # k grew by half each time, up to a quarter of the pencil dimension
        assert calls[0] == 17 and calls[-1] == 2 * q.dim // 4
        assert all(b == min(a + max(1, a // 2), 2 * q.dim // 4)
                   for a, b in zip(calls, calls[1:]))

    def test_nan_residual_refused(self, monkeypatch):
        # a residual that overflowed to nan compares false with the tolerance
        dense = fem_module._solve_dense

        def poisoned(*args):
            lams, pvecs = dense(*args)
            pvecs[0] = np.nan
            return lams, pvecs

        monkeypatch.setattr(fem_module, "_solve_dense", poisoned)
        with pytest.raises(NumericalFailureError, match="residual nan"):
            solve_qep(assemble(build_mesh("square{4}"), zeta=0.5), n_want=5)

    @pytest.mark.parametrize("zeta", [0.5, 0.5j, 0.3 + 0.4j])
    def test_mu_pencil_operator_solves_shifted_pencil(self, zeta):
        # real C in the variable mu = i lam, the other classes in lam itself
        path = {0.5: "real-rotated", 0.5j: "real-direct"}.get(zeta, "complex")
        q = assemble(build_mesh("disk_polygon{4,16}"), zeta=zeta)
        n, s = q.dim, 0.7
        c = q.c_bdry if np.any(q.c_bdry.imag) else q.c_bdry.real
        rho, d, sigma_k, shift = fem_module._linearization(path, c)
        # eigenpairs of the dense companion solve w^2 M p = w D p + sigma_K K p
        lams, pvecs = fem_module._solve_dense(q.k.real, sp.csc_array(c), q.m.real, path)
        w, p = rho * lams[:8], pvecs[:, :8]
        res = (q.m_mass @ p) * w**2 - (d @ p) * w - sigma_k * (q.k_stiff @ p)
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(q.k_stiff @ p)
        k_s, d_s, m_s = (sp.csc_array(x) for x in (q.k_stiff, d, q.m_mass))
        sigma_w = shift * s
        op = fem_module._pencil_operator(k_s, d_s, m_s, sigma_k, sigma_w)
        assert op.dtype == (complex if path == "complex" else float)
        # the 2n x 2n pencil the operator stands for
        eye = np.eye(n)
        a = np.block([[np.zeros((n, n)), eye], [sigma_k * q.k_stiff, d]])
        b = np.block([[eye, np.zeros((n, n))], [np.zeros((n, n)), q.m_mass]])
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal(2 * n)
        if op.dtype == complex:
            x = x + 1j * rng.standard_normal(2 * n)
        z = op.matvec(x)
        assert z.dtype == op.dtype
        bx = b @ x
        assert np.linalg.norm((a - sigma_w * b) @ z - bx) <= 1e-12 * np.linalg.norm(bx)

    @pytest.mark.parametrize("spec", ["square{16}", "disk_polygon{8,32}", "disk_polygon{12,48}"])
    @pytest.mark.parametrize("zeta", [0.5, 1.0])
    def test_real_damping_runs_in_real_arithmetic(self, spec, zeta):
        # a real operator returns simple real eigenvalues nu exactly real, so
        # those modes sit on the imaginary axis exactly; complex arithmetic
        # leaves them off it by roundoff. (A double eigenvalue, which the
        # disk's rotational symmetry makes at stronger damping, may still come
        # back as a conjugate pair of nu, off the axis by roundoff.)
        rep = solve_qep(assemble(build_mesh(spec), zeta=zeta), n_want=24)
        assert rep.metadata["path"] == "shift-invert-arnoldi"
        assert rep.metadata["arithmetic"] == "real"
        on_axis = [e.re_lambda for e in rep.entries if abs(e.re_lambda) <= 1e-12]
        assert on_axis
        assert all(x == 0.0 for x in on_axis)

    @pytest.mark.parametrize("spec", ["square{16}", "disk_polygon{8,32}", "disk_polygon{12,48}"])
    @pytest.mark.parametrize("zeta", [0.5j, -0.3j])
    def test_reactive_rim_runs_in_real_arithmetic(self, spec, zeta):
        # a reactive rim shifts by the real s, so simple modes come back
        # exactly real; a double one may come back as a pair off the axis,
        # whose partner the n_want-th modulus may cut off
        rep = solve_qep(assemble(build_mesh(spec), zeta=zeta), n_want=24)
        assert rep.metadata["path"] == "shift-invert-arnoldi"
        assert rep.metadata["arithmetic"] == "real"
        vals = np.array([complex(e.re_lambda, e.im_lambda) for e in rep.entries])
        gaps = np.abs(vals[:, None] - vals[None, :]) + np.diag(np.full(len(vals), np.inf))
        inside = np.abs(vals) < np.abs(vals).max() * (1 - 1e-9)
        simple = vals[inside & (gaps.min(axis=1) > 1e-6)]
        assert len(simple) >= 3
        assert all(v.imag == 0.0 for v in simple)
        assert np.abs(vals.imag).max() <= 1e-8


CROSS_CHECK_CASES = [
    (spec, zeta)
    for spec in ("square{8}", "square{16}", "disk_polygon{8,32}")
    for zeta in (0.0, 0.5, 0.5j, 0.3 + 0.4j)
] + [
    ("square{8}", MIXED_ZETA),
    ("square{16}", MIXED_ZETA),
    # the finest mesh of the convergence benchmark
    ("disk_polygon{12,48}", 0.5),
    # reactive rims, shifted by a real s; not one whose imaginary values sum
    # to zero, where lam = 0 is a Jordan block that both paths split
    ("disk_polygon{12,48}", 0.5j),
    ("square{16}", -0.3j),
    ("square{16}", {"bottom": 1j, "right": -0.2j, "top": 0.3j, "left": -0.9j}),
]


# every mesh of the cross-check cases, and one whose rim is every vertex
CERTIFICATE_SPECS = sorted({spec for spec, _ in CROSS_CHECK_CASES}) + [
    "rectangle{40,1,100.0,0.01}"
]
# the cases whose C has a nonzero Hermitian part
DAMPED_CASES = [
    (spec, zeta) for spec, zeta in CROSS_CHECK_CASES + [("rectangle{40,1,100.0,0.01}", 0.5)]
    if any(complex(z).real for z in (zeta.values() if isinstance(zeta, dict) else [zeta]))
]


def fan_mesh(n_rim):
    """n_rim vertices on the unit circle, each joined to a hub numbered last."""
    angles = 2.0 * np.pi * np.arange(n_rim) / n_rim
    vertices = np.vstack([np.stack([np.cos(angles), np.sin(angles)], axis=1), [[0.0, 0.0]]])
    rim = np.arange(n_rim)
    nxt = np.roll(rim, -1)
    return Mesh(vertices, np.stack([np.full(n_rim, n_rim), rim, nxt], axis=1),
                np.stack([rim, nxt], axis=1), ["rim"] * n_rim)


def pinned(a, pin):
    return np.delete(np.delete(a, pin, axis=0), pin, axis=1)


class TestBandedCertificatesMatchDenseEigenvalues:
    """Each Cholesky certificate of the invariant check against eigvalsh, on
    assembled matrices moved by a rank-one term to either side of its
    threshold."""

    @pytest.mark.parametrize("share", [0.5, 2.0])
    @pytest.mark.parametrize("spec", CERTIFICATE_SPECS)
    def test_stiffness(self, spec, share):
        # the certificate is exact for lambda_min(K_p) > tau, K_p pinned at
        # the vertex of largest degree; it is only sufficient for
        # lambda_2(K) > tau. K = E^T K_p E with E x = x_p - x_pin 1, so moving
        # K_p along u moves K along E^T u and keeps K 1 = 0
        k, c, m, rim = invariant_inputs(spec)
        pin = int(np.argmax((m != 0).sum(axis=0)))
        tau = 1e-10 * max(np.abs(k).max(), 1.0)
        mu, u = np.linalg.eigh(pinned(k, pin))
        w = np.insert(u[:, 0], pin, -u[:, 0].sum())
        k -= (mu[0] - share * tau) * np.outer(w, w)
        tau = 1e-10 * max(np.abs(k).max(), 1.0)
        low = np.linalg.eigvalsh(pinned(k, pin))[0]
        assert (low > tau) == (share > 1.0) and 0.0 < low < 4.0 * tau
        if share > 1.0:
            check_invariants(k, c, m, 0.5, rim)
        else:
            with pytest.raises(NumericalFailureError, match="stiffness kernel"):
                check_invariants(k, c, m, 0.5, rim)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("spec", CERTIFICATE_SPECS)
    def test_mass(self, spec, sign):
        # dense M pins vertex 0; its Schur complement decides the sign
        k, c, m, rim = invariant_inputs(spec)
        mu, v = np.linalg.eigh(m)
        m -= (mu[0] - sign * 1e-6 * mu[-1]) * np.outer(v[:, 0], v[:, 0])
        assert (np.linalg.eigvalsh(m)[0] > 0.0) == (sign > 0.0)
        if sign > 0.0:
            check_invariants(k, c, m, 0.5, rim)
        else:
            with pytest.raises(NumericalFailureError, match="mass matrix"):
                check_invariants(k, c, m, 0.5, rim)

    @pytest.mark.parametrize("share", [0.5, 2.0])
    @pytest.mark.parametrize("spec,zeta", DAMPED_CASES)
    def test_damping(self, spec, zeta, share):
        # passes iff lambda_min(herm C) >= -delta, delta = 1e-12 max|herm C|
        # on the rim rows that hold a nonzero
        k, c, m, rim = invariant_inputs(spec, zeta)

        def live_herm():
            sub = c[np.ix_(rim, rim)]
            herm = sub / 2 + sub.conj().T / 2
            live = rim[np.nonzero(np.abs(herm).sum(axis=1))[0]]
            sub = c[np.ix_(live, live)]
            return live, sub / 2 + sub.conj().T / 2

        live, herm = live_herm()
        mu, v = np.linalg.eigh(herm)
        delta = 1e-12 * np.abs(herm).max()
        c[np.ix_(live, live)] -= (mu[0] + share * delta) * np.outer(v[:, 0], v[:, 0].conj())
        _, herm = live_herm()
        delta = 1e-12 * np.abs(herm).max()
        low = np.linalg.eigvalsh(herm)[0]
        assert (low >= -delta) == (share < 1.0) and -4.0 * delta < low < 0.0
        if share < 1.0:
            check_invariants(k, c, m, 0.5, rim)
        else:
            with pytest.raises(NumericalFailureError, match="damping lost positivity"):
                check_invariants(k, c, m, 0.5, rim)
        # a nonaccretive coefficient may make C indefinite
        check_invariants(k, c, m, -0.5, rim)

    def test_assemble_calls_no_superlu(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("assemble called splu")

        monkeypatch.setattr(spla, "splu", refused)
        for spec, zeta in CROSS_CHECK_CASES:
            assemble(build_mesh(spec), zeta=zeta)

    @pytest.mark.parametrize("make", [
        # every vertex on the rim, one cycle
        lambda: build_mesh("rectangle{2047,1,1.0,1.0}"),
        # the hub is vertex 0
        lambda: build_mesh("disk_polygon{1,4095}"),
        # the hub is the last vertex
        lambda: fan_mesh(4095),
    ], ids=["rectangle", "disk", "fan"])
    def test_rim_heavy_assembly_allocates_no_dense_block(self, make):
        # at 4096 vertices a dense rim block takes 268 MB, and a band that
        # kept the hub about 67 MB; the band of a cycle is 2
        mesh = make()
        assert mesh.n_vertices == MAX_ASSEMBLE_VERTICES
        tracemalloc.start()
        try:
            assemble(mesh, zeta=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestResidualScale:
    """The residual weights are the largest column 2-norms of K, C and M."""

    @pytest.mark.parametrize("spec,zeta", CROSS_CHECK_CASES)
    def test_scales_bound_the_dense_norms_from_below(self, spec, zeta, monkeypatch):
        q = assemble(build_mesh(spec), zeta=zeta)
        for x in (q.k, q.c, q.m):
            assert fem_module._column_norm(x) <= np.linalg.norm(x.toarray(), 2)
        # a smaller weight gives a larger backward error for the same pair
        n_want = 16 if q.dim < 128 else 32
        reported = solve_qep(q, n_want=n_want)
        monkeypatch.setattr(fem_module, "_column_norm", lambda x: np.linalg.norm(x.toarray(), 2))
        exact = solve_qep(q, n_want=n_want)
        assert ([(e.re_lambda, e.im_lambda) for e in reported.entries]
                == [(e.re_lambda, e.im_lambda) for e in exact.entries])
        assert all(a.residual >= b.residual for a, b in zip(reported.entries, exact.entries))

    @pytest.mark.parametrize("zeta", [0.5, 0.3 + 0.4j, 1e300, 1e-300j])
    def test_rim_scale_at_any_magnitude(self, zeta):
        # C / 2^e keeps the squares in range where those of C would not be;
        # a rim vertex of a regular polygon carries the column (h / 6) zeta
        # (1, 4, 1) of the P1 edge mass, whose 2-norm is |zeta| h / sqrt(2)
        q = assemble(build_mesh("disk_polygon{1,300}"), zeta=zeta)
        h = 2.0 * np.sin(np.pi / 300)
        scale = fem_module._column_norm(q.c)
        assert np.isfinite(scale)
        assert scale == pytest.approx(abs(zeta) * h / np.sqrt(2.0), rel=1e-12, abs=0)

    def test_rim_heavy_scale_allocates_no_dense_block(self):
        # 2047 rim vertices: a dense C would take 67 MB, its CSC arrays 0.1 MB
        q = assemble(build_mesh("disk_polygon{1,2047}"), zeta=0.5)
        tracemalloc.start()
        try:
            scale = fem_module._column_norm(q.c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        h = 2.0 * np.sin(np.pi / 2047)
        assert scale == pytest.approx(0.5 * h / np.sqrt(2.0), rel=1e-12, abs=0)

    def test_empty_damping_scales_by_zero(self):
        q = assemble(build_mesh("square{4}"), zeta=0.0)
        assert q.c.nnz == 0
        assert fem_module._column_norm(q.c) == 0.0

    def test_residual_column_norms_scaled_exactly(self):
        # each column is divided by a power of two before its squares are
        # summed: the norms are numpy's bit for bit, and stay finite where
        # numpy's squares overflow, and nonzero where they underflow
        rng = np.random.default_rng(SEED)
        cols = rng.standard_normal((40, 5)) + 1j * rng.standard_normal((40, 5))
        cols *= [1.0, 1e-3, 1e5, 0.0, 2.0**-700]
        norms = fem_module._column_norms(cols)
        assert norms[:4].tobytes() == np.linalg.norm(cols[:, :4], axis=0).tobytes()
        assert norms[4] == np.linalg.norm(cols[:, 4] * 2.0**700) * 2.0**-700 > 0.0
        huge = cols * 2.0**900
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(huge, axis=0)[0])
        assert fem_module._column_norms(huge).tobytes() == (norms * 2.0**900).tobytes()


class TestShiftInvertMatchesDense:
    """The dense companion is the reference for the shift-invert path."""

    @pytest.mark.parametrize("spec,zeta", CROSS_CHECK_CASES)
    def test_eigenvalues_artifacts_and_residuals(self, monkeypatch, spec, zeta):
        q = assemble(build_mesh(spec), zeta=zeta)
        n_want = 16 if q.dim < 128 else 32
        reports = {}
        for forced in (True, False):
            monkeypatch.setattr(fem_module, "_uses_shift_invert", lambda n, w, f=forced: f)
            reports[forced] = solve_qep(q, n_want=n_want)
        sparse, dense = reports[True], reports[False]
        assert sparse.metadata["path"].startswith("shift-invert")
        assert not dense.metadata["path"].startswith("shift-invert")
        assert sparse.metadata["artifacts"] == dense.metadata["artifacts"]
        assert all(e.residual <= QEP_RESIDUAL_TOL for e in sparse.entries + dense.entries)

        def fem_values(rep):
            return np.array([complex(e.re_lambda, e.im_lambda)
                             for e in rep.entries if e.mode_tag == "fem"])

        a, b = fem_values(sparse), fem_values(dense)
        # +- pairs of equal modulus may be cut differently at the n_want-th
        # mode, so compare only the modes strictly inside its modulus
        r_sel = np.abs(b).max() * (1 - 1e-9)
        a, b = a[np.abs(a) < r_sel], b[np.abs(b) < r_sel]
        assert len(a) == len(b) >= n_want // 2
        rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
        assert np.abs(a[rows] - b[cols]).max() <= 1e-10

    @staticmethod
    def nearest_on_both_paths(monkeypatch, q, center):
        """The centred one-mode report of the shift-invert path and of the
        dense companion."""
        reports = {}
        for forced in (True, False):
            monkeypatch.setattr(fem_module, "_uses_shift_invert", lambda n, w, f=forced: f)
            reports[forced] = solve_qep(q, n_want=1, center=center)
        return reports[True], reports[False]

    @pytest.mark.parametrize("spec,zeta,center", [
        (spec, zeta, 2.5 - 0.5j) for spec, zeta in CROSS_CHECK_CASES
    ] + [
        # the sector-1 double root of the disk, the convergence benchmark's
        # second reference
        ("disk_polygon{8,32}", 0.5, 1.8094 - 0.8040j),
    ])
    def test_nearest_mode_to_a_center(self, monkeypatch, spec, zeta, center):
        q = assemble(build_mesh(spec), zeta=zeta)
        sparse, dense = self.nearest_on_both_paths(monkeypatch, q, center)
        assert sparse.metadata["path"].startswith("shift-invert")
        assert not dense.metadata["path"].startswith("shift-invert")
        assert sparse.metadata["returned"] == dense.metadata["returned"] == 1
        assert all(e.residual <= QEP_RESIDUAL_TOL for e in sparse.entries + dense.entries)
        (a,), (b,) = ([complex(e.re_lambda, e.im_lambda)
                       for e in rep.entries if e.mode_tag == "fem"] for rep in (sparse, dense))
        assert abs(a - b) <= 1e-10

    def test_centred_zero_damping_takes_lanczos(self, monkeypatch):
        # zeta = 0 shifts K p = mu M p at mu = Re(center)^2 = pi^2, next to
        # the (1,0)/(0,1) pair of the unit square
        q = assemble(build_mesh("square{16}"), zeta=0.0)
        sparse, dense = self.nearest_on_both_paths(monkeypatch, q, np.pi)
        assert sparse.metadata["path"] == "shift-invert-lanczos"
        assert sparse.metadata["arithmetic"] == "real"
        (a,), (b,) = (rep.entries for rep in (sparse, dense))
        assert a.im_lambda == 0.0
        assert abs(a.re_lambda - np.pi) / np.pi < 0.01
        assert abs(a.re_lambda - b.re_lambda) <= 1e-10

    def test_artifact_nearest_the_center_grows_k(self, monkeypatch):
        # at centre 1e-3 the quotient artifact at lam = 0 is the nearest
        # mode, so the first ARPACK k of 1 holds no genuine mode
        q = assemble(build_mesh("disk_polygon{4,16}"), zeta=0.5)
        sparse, dense = self.nearest_on_both_paths(monkeypatch, q, 1e-3)
        assert sparse.metadata["arpack_k"] > 1
        for rep in (sparse, dense):
            assert (rep.metadata["returned"], rep.metadata["artifacts"]) == (1, 1)
        (a,), (b,) = ([complex(e.re_lambda, e.im_lambda)
                       for e in rep.entries if e.mode_tag == "fem"] for rep in (sparse, dense))
        assert abs(a - b) <= 1e-10

    @pytest.mark.parametrize("spec", ["disk_polygon{4,16}", "disk_polygon{8,32}", "square{16}"])
    @pytest.mark.parametrize("zeta", [0.0, 0.5, 2.0, 0.5j, 0.3 + 0.4j])
    def test_random_centres_stay_on_shift_invert(self, monkeypatch, spec, zeta):
        # the 2k + 1 Arnoldi basis certifies the nearest mode at centres the
        # tests do not pick, over every class of C; the dense companion of
        # each q is computed once and read for every centre
        q = assemble(build_mesh(spec), zeta=zeta)
        rng = np.random.default_rng(SEED)
        centres = rng.uniform(0.5, 6.0, 4) + 1j * rng.uniform(-1.5, 0.5, 4)
        dense_modes = fem_module._solve_dense
        memo = []

        def dense_once(*args):
            if not memo:
                memo.append(dense_modes(*args))
            return memo[0]

        monkeypatch.setattr(fem_module, "_solve_dense", dense_once)
        for center in centres:
            sparse, dense = self.nearest_on_both_paths(monkeypatch, q, center)
            assert sparse.metadata["path"].startswith("shift-invert")
            assert not dense.metadata["path"].startswith("shift-invert")
            (a,), (b,) = ([complex(e.re_lambda, e.im_lambda)
                           for e in rep.entries if e.mode_tag == "fem"] for rep in (sparse, dense))
            assert abs(a - b) <= 1e-10


class TestEnergyMarch:
    def setup_method(self):
        rng = np.random.default_rng(SEED)
        self.mesh = build_mesh("square{8}")
        n = self.mesh.n_vertices
        self.u0 = rng.standard_normal(n)
        self.p0 = rng.standard_normal(n)

    def test_conservative_march(self):
        q = assemble(self.mesh, zeta=0.0)
        trace = cn_energy_march(q, (self.u0, self.p0), dt=1e-3, steps=2000)
        assert trace.steps == 2000
        assert trace.relative_drift() < 1e-10

    def test_imaginary_coefficient_conserves(self):
        q = assemble(self.mesh, zeta=0.7j)
        trace = cn_energy_march(q, (self.u0, self.p0), dt=1e-3, steps=500)
        assert trace.relative_drift() < 1e-10

    def test_dissipative_march_monotone(self):
        q = assemble(self.mesh, zeta=1.0)
        trace = cn_energy_march(q, (self.u0, self.p0), dt=1e-3, steps=1500)
        assert trace.max_step_increase() <= 1e-12 * trace.energies[0]
        assert trace.energies[-1] < trace.energies[0]

    def test_partial_damping_still_decays(self):
        zeta = {"bottom": 1.0, "right": 0.0, "top": 0.0, "left": 0.0}
        q = assemble(self.mesh, zeta=zeta)
        trace = cn_energy_march(q, (self.u0, self.p0), dt=2e-3, steps=800)
        assert trace.max_step_increase() <= 1e-12 * trace.energies[0]
        assert trace.energies[-1] < trace.energies[0]

    def test_gauge_invariance(self):
        q = assemble(self.mesh, zeta=1.0)
        base = cn_energy_march(q, (self.u0, self.p0), dt=1e-3, steps=200)
        shifted = cn_energy_march(q, (self.u0 + 7.0, self.p0), dt=1e-3, steps=200)
        assert np.allclose(base.energies, shifted.energies, rtol=1e-10)

    def test_zero_state_stays_zero(self):
        q = assemble(self.mesh, zeta=1.0)
        n = q.dim
        trace = cn_energy_march(q, (np.zeros(n), np.zeros(n)), dt=1e-3, steps=5)
        assert np.all(trace.energies == 0.0)

    @pytest.mark.parametrize("zeta", [0.0, 1.0, 0.5j, 0.3 + 0.4j])
    def test_matches_dense_first_order_march(self, zeta):
        # the trapezoidal rule on y' = A y, A = [[0, I], [-M^-1 K, -M^-1 C]],
        # with one dense LU of the 2n x 2n block matrix
        q = assemble(self.mesh, zeta=zeta)
        dt, steps, n = 2e-3, 200, q.dim
        k, c, m = (np.asarray(x, dtype=complex) for x in (q.k_stiff, q.c_bdry, q.m_mass))
        minv = np.linalg.inv(m)
        a = np.block([[np.zeros((n, n)), np.eye(n)], [-minv @ k, -minv @ c]])
        eye = np.eye(2 * n)
        lu = sla.lu_factor(eye - 0.5 * dt * a)
        forward = eye + 0.5 * dt * a
        y = np.concatenate([self.u0, self.p0]).astype(complex)
        expected = []
        for step in range(steps + 1):
            u, p = y[:n], y[n:]
            expected.append((u.conj() @ k @ u).real + (p.conj() @ m @ p).real)
            y = sla.lu_solve(lu, forward @ y)
        trace = cn_energy_march(q, (self.u0, self.p0), dt=dt, steps=steps)
        assert np.abs(trace.energies - expected).max() <= 1e-10 * expected[0]

    def test_validation_and_singularity(self):
        q = assemble(self.mesh, zeta=0.0)
        with pytest.raises(InvalidInputError, match="dt"):
            cn_energy_march(q, (self.u0, self.p0), dt=0.0, steps=5)
        with pytest.raises(InvalidInputError, match="size"):
            cn_energy_march(q, (self.u0[:-1], self.p0), dt=1e-3, steps=5)
        n = 4
        degenerate = QepMatrices(
            k_stiff=np.zeros((n, n), dtype=complex),
            c_bdry=np.zeros((n, n), dtype=complex),
            m_mass=np.zeros((n, n), dtype=complex),
        )
        with pytest.raises(NumericalFailureError, match="singular"):
            cn_energy_march(degenerate, (np.zeros(n), np.zeros(n)), dt=1e-3, steps=1)


class TestConvergence:
    def test_neumann_square_second_order(self):
        study = convergence_study("square", [8, 16, 32], 0.0, [complex(np.pi)])
        errs = [row[0] for row in study["errors"]]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] / np.pi < 0.01
        assert 1.7 <= study["finest_orders"][0] <= 2.3
        assert study["unmatched"] == 0

    def test_unmatched_reference_reported_not_fatal(self):
        study = convergence_study("square", [4, 8], 0.0, [99.0, complex(np.pi)])
        # the references are taken sorted by (Re, Im)
        assert study["reference"] == [[np.pi, 0.0], [99.0, 0.0]]
        assert study["errors"][0][1] is None
        assert study["unmatched"] == 2
        assert study["finest_orders"][1] is None

    @staticmethod
    def disk_reference(zeta):
        return [complex(disk_mode_roots(m, zeta, lowest=1)["roots"][0]) for m in (0, 1)]

    @staticmethod
    def record_requests(monkeypatch):
        """Record (n_want, center) of each solve_qep call, and (q, report)."""
        requests, solved = [], []
        solve = fem_module.solve_qep

        def recording(q, n_want=24, center=0.0):
            requests.append((n_want, center))
            solved.append((q, solve(q, n_want=n_want, center=center)))
            return solved[-1][1]

        monkeypatch.setattr(fem_module, "solve_qep", recording)
        return requests, solved

    def test_one_mode_requested_per_reference(self, monkeypatch):
        ref = self.disk_reference(0.5)
        requests, solved = self.record_requests(monkeypatch)
        study = convergence_study("disk_polygon", [4, 8], 0.5, ref)
        # each level is assembled once and solved once per reference, for
        # the one mode nearest it
        assert requests == [(1, r) for r in sorted(ref, key=lambda v: (v.real, v.imag))] * 2
        assert solved[0][0] is solved[1][0] and solved[2][0] is solved[3][0]
        assert solved[1][0] is not solved[2][0]
        assert study["modes_requested"] == [[1, 1], [1, 1]]
        assert "match_radius" not in study and "radius_reached" not in study
        assert study["unmatched"] == 0

    @pytest.mark.parametrize("zeta", [2.0, 1000.0])
    def test_nearest_mode_matches_the_dense_nearest(self, monkeypatch, zeta):
        # overdamped rim modes crowd the origin at large zeta; the mode each
        # reference is matched with is still the nearest of all FEM modes,
        # which the dense companion computes
        ref = self.disk_reference(zeta)
        requests, solved = self.record_requests(monkeypatch)
        study = convergence_study("disk_polygon", [4, 8], zeta, ref)
        assert study["unmatched"] == 0
        assert all(rep.metadata["path"] == "shift-invert-arnoldi" for _, rep in solved)
        monkeypatch.setattr(fem_module, "_uses_shift_invert", lambda n, w: False)
        errors = [e for row in study["errors"] for e in row]
        for (q, rep), (_, center), err in zip(solved, requests, errors):
            dense = solve_qep(q, n_want=1, center=center)
            assert not dense.metadata["path"].startswith("shift-invert")
            (a,), (b,) = ([complex(e.re_lambda, e.im_lambda)
                           for e in r.entries if e.mode_tag == "fem"] for r in (rep, dense))
            assert abs(a - b) <= 1e-10
            assert err == abs(a - center)

    @pytest.mark.parametrize("shape, levels", [("disk_polygon", [4, 8, 12]),
                                               ("square", [8, 16, 32])])
    def test_centred_undamped_solves_run_arpack_once(self, monkeypatch, shape, levels):
        # zeta = 0 shifts K p = mu M p at Re(ref)^2; each FEM mode lies just
        # above its reference, and its mu, the only one returned at k = 1,
        # ends the certified interval itself, so the first run certifies
        ref = [complex(np.pi)] if shape == "square" else self.disk_reference(0.0)
        requests, solved = self.record_requests(monkeypatch)
        study = convergence_study(shape, levels, 0.0, ref)
        assert study["unmatched"] == 0
        assert [rep.metadata["path"] for _, rep in solved] == ["shift-invert-lanczos"] * len(solved)
        assert [rep.metadata["arpack_k"] for _, rep in solved] == [1] * len(solved)
        monkeypatch.setattr(fem_module, "_uses_shift_invert", lambda n, w: False)
        errors = [e for row in study["errors"] for e in row]
        for (q, rep), (_, center), err in zip(solved, requests, errors):
            (dense,) = solve_qep(q, n_want=1, center=center).entries
            (mode,) = rep.entries
            assert abs(mode.re_lambda - dense.re_lambda) <= 1e-10
            assert err == abs(complex(mode.re_lambda, mode.im_lambda) - center)

    def test_centred_solves_apply_the_operator_sparingly(self, monkeypatch):
        # the convergence benchmark's six k = 1 solves: a basis of 2k + 1
        # vectors (at least 8) stops each run once its mode converges, where
        # ARPACK's default basis of 20 applied the operator 21 times in each
        ref = self.disk_reference(0.5)
        _, solved = self.record_requests(monkeypatch)
        convergence_study("disk_polygon", [4, 8, 12], 0.5, ref)
        metas = [rep.metadata for _, rep in solved]
        assert [m["path"] for m in metas] == ["shift-invert-arnoldi"] * 6
        assert all(m["arpack_ncv"] == min(max(2 * m["arpack_k"] + 1, 8), 2 * m["dim"])
                   for m in metas)
        assert sum(m["operator_applications"] for m in metas) <= 100

    def test_schedule_validation(self):
        ref = [complex(np.pi)]
        with pytest.raises(InvalidInputError, match="increasing"):
            convergence_study("square", [8, 8], 0.0, ref)
        with pytest.raises(InvalidInputError, match="increasing"):
            convergence_study("square", [8], 0.0, ref)
        with pytest.raises(InvalidInputError, match="shape"):
            convergence_study("hexagon", [4, 8], 0.0, ref)
