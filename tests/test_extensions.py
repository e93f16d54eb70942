"""Tests for the Cayley machinery and boundary-parametrized restrictions."""

import json

import numpy as np
import pytest
import scipy.linalg as sla

import impedbench.extensions as ex
from impedbench.errors import InvalidInputError, NumericalFailureError
from impedbench.fixtures import get_fixture
from impedbench.linalg import GramMatrix, gram_operator_norm
from impedbench.tuples import accretivity_defect

SEED = 20240801


def random_square(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_accretive(rng, n, margin=0.2):
    a = random_square(rng, n)
    herm = a @ a.conj().T + margin * np.eye(n)
    skew = random_square(rng, n)
    skew = (skew - skew.conj().T) / 2
    return herm + skew


class TestCayley:
    def test_scalar_values(self):
        # (1-1)/(1+1) = 0, (3-1)/(3+1) = 1/2, (i-1)/(i+1) = i
        assert abs(ex.cayley(1.0)[0, 0]) < 1e-15
        assert abs(ex.cayley(3.0)[0, 0] - 0.5) < 1e-15
        assert abs(ex.cayley(1j)[0, 0] - 1j) < 1e-15

    def test_roundtrip_random(self):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            n = int(rng.integers(1, 17))
            z = random_accretive(rng, n)
            back = ex.inverse_cayley(ex.cayley(z))
            scale = np.linalg.norm(z, 2)
            assert np.linalg.norm(back - z, 2) <= 1e-9 * scale

    def test_identity_defect_small(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(20):
            z = random_accretive(rng, 8)
            assert ex.cayley_identity_defect(z) < 1e-12 * max(np.linalg.norm(z, 2), 1)

    def test_rejects_minus_one_in_spectrum(self):
        with pytest.raises(InvalidInputError, match="-1"):
            ex.cayley(-np.eye(3))

    def test_inverse_rejects_one_in_spectrum(self):
        with pytest.raises(InvalidInputError, match="spectrum"):
            ex.inverse_cayley(np.eye(2))

    def test_rejects_rectangular(self):
        with pytest.raises(InvalidInputError, match="square"):
            ex.cayley(np.ones((2, 3)))

    def test_accretive_maps_to_contraction(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(25):
            z = random_accretive(rng, 6)
            assert np.linalg.norm(ex.cayley(z), 2) <= 1.0 + 1e-10

    def test_nonaccretive_maps_outside_unit_ball(self):
        rng = np.random.default_rng(SEED + 3)
        hits = 0
        for _ in range(25):
            z = random_accretive(rng, 5) - 3.0 * np.eye(5)
            herm = (z + z.conj().T) / 2
            if sla.eigvalsh(herm)[0] < -0.1:
                hits += 1
                assert np.linalg.norm(ex.cayley(z), 2) > 1.0
        assert hits > 0

    def test_skew_maps_to_unitary(self):
        rng = np.random.default_rng(SEED + 4)
        a = random_square(rng, 7)
        z = (a - a.conj().T) / 2
        k = ex.cayley(z)
        assert np.linalg.norm(k.conj().T @ k - np.eye(7), 2) < 1e-10


class TestContractionParam:
    # a contraction parameter is a plain matrix on the pivot space; its
    # metric is the fixture's pivot gram
    def test_gram_weighted_norm(self):
        # with metric diag(4, 1) the nilpotent shift [[0,1],[0,0]] has norm 2
        gram = GramMatrix(np.diag([4.0, 1.0]))
        norm = gram_operator_norm(np.array([[0, 1], [0, 0]], dtype=complex), gram, gram)
        assert abs(norm - 2.0) < 1e-12
        assert norm > 1.0 + 1e-10

    def test_weighted_fixture_frozen_value(self):
        # pivot version of z = 1 is 1/6, whose Cayley image is -5/7
        fx = get_fixture("transport-64-weighted")
        g = fx.boundary.gram_pivot
        k = ex.impedance_to_contraction(1.0, fx)
        assert k.shape == (1, 1)
        assert abs(k[0, 0] - (-5.0 / 7.0)) < 1e-12
        assert gram_operator_norm(k, g, g) <= 1.0 + 1e-10

    def test_roundtrip_through_fixture(self):
        fx = get_fixture("transport-64-weighted")
        rng = np.random.default_rng(SEED + 5)
        for _ in range(10):
            z = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
            k = ex.impedance_to_contraction(z, fx)
            back = ex.contraction_to_impedance(k, fx)
            assert abs(back[0, 0] - z) < 1e-10

    def test_contraction_iff_accretive(self):
        fx = get_fixture("transport-64-weighted")
        g = fx.boundary.gram_pivot
        rng = np.random.default_rng(SEED + 6)
        for _ in range(30):
            re = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
            z = complex(re, rng.uniform(-2.0, 2.0))
            defect = accretivity_defect(z, fx.boundary)
            k = ex.impedance_to_contraction(z, fx)
            assert (defect >= -1e-12) == (gram_operator_norm(k, g, g) <= 1.0 + 1e-9)

    def test_shape_mismatch_rejected(self):
        fx = get_fixture("transport-64")
        with pytest.raises(InvalidInputError, match="match"):
            ex.contraction_to_impedance(0.5 * np.eye(2), fx)


class TestRestrictExtension:
    def test_dimension_and_basis_orthonormality(self):
        fx = get_fixture("transport-64")
        m = ex.restrict_extension(fx, z=1.0)
        assert m.dim == 63
        g = fx.model.gram_x.matrix
        overlap = m.basis.conj().T @ g @ m.basis
        assert np.linalg.norm(overlap - np.eye(m.dim), 2) < 1e-12
        assert np.linalg.norm(m.constraint @ m.basis, 2) < 1e-9

    def test_contraction_and_impedance_forms_agree(self):
        rng = np.random.default_rng(SEED + 7)
        for name in ("transport-64", "transport-64-weighted", "transport2-48"):
            fx = get_fixture(name)
            r = fx.boundary.trace_dim
            z = random_accretive(rng, r)
            mz = ex.restrict_extension(fx, z=z)
            mk = ex.restrict_extension(fx, k=ex.impedance_to_contraction(z, fx))
            angles = sla.subspace_angles(mz.basis, mk.basis)
            assert angles.size == 0 or angles.max() < 1e-8
            # same subspace in two orthonormal bases: the compressions are
            # unitarily equivalent through the basis overlap matrix
            g = fx.model.gram_x.matrix
            u = mk.basis.conj().T @ g @ mz.basis
            assert np.linalg.norm(u.conj().T @ u - np.eye(mz.dim), 2) < 1e-10
            conj = u.conj().T @ mk.op @ u
            assert np.linalg.norm(mz.op - conj, 2) < 1e-8 * max(
                np.linalg.norm(mz.op, 2), 1.0
            )

    def test_dissipative_for_accretive_impedance(self):
        fx = get_fixture("transport-32")
        rng = np.random.default_rng(SEED + 8)
        for _ in range(10):
            z = complex(rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0))
            m = ex.restrict_extension(fx, z=z)
            assert m.max_im_numrange() <= 1e-10

    def test_nonaccretive_leaks_upper_half_plane(self):
        fx = get_fixture("transport-32")
        m = ex.restrict_extension(fx, z=-0.5)
        assert m.max_im_numrange() > 0.1

    def test_hermitian_when_pairing_form_is_skew(self):
        # purely imaginary scalar impedance under the trivial duality
        fx = get_fixture("transport-64")
        m = ex.restrict_extension(fx, z=0.7j)
        assert m.hermitian_defect() < 1e-12
        assert abs(m.eigenvalues().imag).max() < 1e-10

    def test_minus_identity_selects_gamma1_kernel(self):
        fx = get_fixture("transport-64-weighted")
        m = ex.restrict_extension(fx, k=np.array([[-1.0]]))
        null_g1 = sla.null_space(fx.boundary.gamma1, rcond=1e-12)
        angles = sla.subspace_angles(m.basis, null_g1)
        assert angles.max() < 1e-10

    def test_requires_exactly_one_parameter(self):
        fx = get_fixture("transport-32")
        with pytest.raises(InvalidInputError, match="exactly one"):
            ex.restrict_extension(fx)
        with pytest.raises(InvalidInputError, match="exactly one"):
            ex.restrict_extension(fx, k=np.zeros((1, 1)), z=1.0)

    def test_wrong_contraction_shape_rejected(self):
        fx = get_fixture("transport2-48")
        with pytest.raises(InvalidInputError, match="2x2"):
            ex.restrict_extension(fx, k=np.zeros((3, 3)))


class TestMdissipativityReport:
    def test_report_contents_and_json(self):
        fx = get_fixture("transport-32")
        m = ex.restrict_extension(fx, z=1.0)
        rep = ex.mdissipativity_report(m)
        assert rep["dissipative"]
        assert rep["all_checks_ok"]
        assert rep["dim"] == m.dim
        assert len(rep["resolvent_checks"]) == 4
        for chk in rep["resolvent_checks"]:
            assert chk["ok"]
            assert chk["resolvent_norm"] <= chk["limit"] * (1 + 1e-8) + 1e-12
        text = json.dumps(rep)
        assert "max_im_numrange" in text

    def test_limits_follow_imaginary_part(self):
        fx = get_fixture("transport-32")
        m = ex.restrict_extension(fx, z=0.5)
        rep = ex.mdissipativity_report(m, points=(3j, 1 + 4j))
        assert abs(rep["resolvent_checks"][0]["limit"] - 1.0 / 3.0) < 1e-15
        assert abs(rep["resolvent_checks"][1]["limit"] - 0.25) < 1e-15

    def test_rejects_lower_half_plane_point(self):
        fx = get_fixture("transport-32")
        m = ex.restrict_extension(fx, z=1.0)
        with pytest.raises(InvalidInputError, match="imaginary"):
            ex.mdissipativity_report(m, points=(1.0,))

    def test_nonaccretive_flagged(self):
        fx = get_fixture("transport-32")
        m = ex.restrict_extension(fx, z=-0.5)
        rep = ex.mdissipativity_report(m)
        assert not rep["dissipative"]
        assert not rep["all_checks_ok"]


class TestResolventRank:
    def test_equal_parameters_give_rank_zero(self):
        fx = get_fixture("transport-64")
        r = ex.resolvent_difference_rank(fx, 0.2, 0.2, z=1j)
        assert r.rank_resolvent == 0
        assert r.rank_parameter == 0
        assert r.satisfied

    def test_scalar_trace_gives_rank_one(self):
        fx = get_fixture("transport-64")
        r = ex.resolvent_difference_rank(fx, 0.2, -0.4 + 0.1j, z=1j)
        assert r.rank_parameter == 1
        assert r.rank_resolvent == 1
        # clean numerical separation below the leading singular value
        assert r.sigma_resolvent[1] <= 1e-12 * r.sigma_resolvent[0]
        assert r.realization_residual < 1e-10
        assert "ok" in r.summary()

    def test_rank_one_perturbation_two_channels(self):
        fx = get_fixture("transport2-48")
        rng = np.random.default_rng(SEED + 9)
        k1 = 0.3 * np.eye(2, dtype=complex)
        u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        v = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        pert = 0.15 * (u @ v.conj().T) / (np.linalg.norm(u) * np.linalg.norm(v))
        r = ex.resolvent_difference_rank(fx, k1, k1 + pert, z=1j)
        assert r.rank_parameter == 1
        assert r.rank_resolvent == 1
        assert r.sigma_resolvent[1] <= 1e-10 * r.sigma_resolvent[0]

    def test_generic_difference_has_full_rank(self):
        fx = get_fixture("transport2-48")
        k1 = 0.3 * np.eye(2, dtype=complex)
        k2 = np.array([[0.1, 0.2], [-0.3, 0.05 + 0.2j]])
        r = ex.resolvent_difference_rank(fx, k1, k2, z=1 + 2j)
        assert r.rank_parameter == 2
        assert r.rank_resolvent == 2
        assert r.satisfied

    def test_inequality_over_random_pairs(self):
        fx = get_fixture("transport2-48")
        rng = np.random.default_rng(SEED + 10)
        for _ in range(20):
            k1 = random_square(rng, 2)
            k1 *= 0.9 / max(np.linalg.norm(k1, 2), 1.0)
            k2 = random_square(rng, 2)
            k2 *= 0.9 / max(np.linalg.norm(k2, 2), 1.0)
            z = complex(rng.uniform(-1, 1), rng.uniform(0.5, 3.0))
            r = ex.resolvent_difference_rank(fx, k1, k2, z=z)
            assert r.satisfied
            assert r.realization_residual < 1e-9

    def test_resolvent_maps_into_constraint_kernel(self):
        fx = get_fixture("transport-64")
        z = 1j
        y0, hb, triple, m_z, e = ex._realize_resolvent_pieces(fx, z)
        c = ex.constraint_from_contraction(np.array([[0.3 + 0.2j]]), triple)
        r = ex._resolvent_for_constraint(c, y0, hb)
        assert np.linalg.norm(c @ r, 2) < 1e-10 * np.linalg.norm(r, 2)

    def test_summary_prints_z_exactly(self):
        fx = get_fixture("transport-64")
        r = ex.resolvent_difference_rank(fx, 0.2, 0.2, z=0.1234567 + 1j)
        assert "at z=0.1234567+1j:" in r.summary()
        assert "at z=0+1j:" in ex.resolvent_difference_rank(fx, 0.2, 0.2).summary()

    def test_overflow_message_prints_z_exactly(self):
        fx = get_fixture("transport-64")
        with pytest.raises(InvalidInputError, match=r"z=1\.23456789e\+307\+0j is too large"):
            ex.resolvent_difference_rank(fx, 0.2, 0.3, z=1.23456789e307)

    def test_failure_messages_print_z_exactly(self, monkeypatch):
        fx = get_fixture("transport-64")
        with monkeypatch.context() as mp:
            # every shifted operator counts as singular
            mp.setattr(ex, "RCOND_FLOOR", 2.0)
            with pytest.raises(NumericalFailureError, match=r"z=0\.1234567\+1j is \(numerically\)"):
                ex.resolvent_difference_rank(fx, 0.2, 0.3, z=0.1234567 + 1j)
        real_null_space, calls = ex.null_space, []

        def short_null_space(a, tol):
            # the second null space taken is the surrogate basis: one column short
            calls.append(a)
            basis = real_null_space(a, tol)
            return basis[:, 1:] if len(calls) == 2 else basis

        monkeypatch.setattr(ex, "null_space", short_null_space)
        with pytest.raises(NumericalFailureError, match=r"at z=0\.1234567\+1j$"):
            ex.resolvent_difference_rank(fx, 0.2, 0.3, z=0.1234567 + 1j)

    def test_wrong_shape_rejected(self):
        fx = get_fixture("transport2-48")
        with pytest.raises(InvalidInputError):
            ex.resolvent_difference_rank(fx, np.zeros((3, 3)), np.zeros((3, 3)))

    def test_rank_falls_as_tol_grows(self):
        # the parameter difference has singular values 0.5 and 5e-5
        fx = get_fixture("transport2-48")
        k2 = np.diag([0.5, 5e-5])
        ranks = [
            ex.resolvent_difference_rank(fx, np.zeros((2, 2)), k2, tol=t).rank_parameter
            for t in (1e-8, 1e-6, 1e-2)
        ]
        assert ranks == [2, 2, 1]

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_rejects_zero_or_nan_tol(self, tol):
        # NaN compares false both ways, so it would count no singular value
        fx = get_fixture("transport-64")
        with pytest.raises(InvalidInputError, match="tolerance"):
            ex.resolvent_difference_rank(fx, 0.2, -0.4, tol=tol)
        # with both differences zero there is nothing to count
        r = ex.resolvent_difference_rank(fx, 0.2, 0.2, tol=tol)
        assert (r.rank_resolvent, r.rank_parameter) == (0, 0)


def reference_cayley_trials(fx, seed, trials):
    """Per-trial (round trip, identity defect, contraction norm) of the
    `extension cayley` sweep as its per-trial loop computed them: one pair of
    normal draws and 2-D numpy.linalg calls per trial."""
    rng = np.random.default_rng(seed)
    t = fx.transform
    dim = fx.boundary.trace_dim
    eye = np.eye(dim)
    r = fx.boundary.gram_pivot.chol_upper
    flipped = r.conj().T[::-1, ::-1]

    def cayley(z):
        return np.linalg.solve((z + eye).T, (z - eye).T).T

    rows = []
    for _ in range(trials):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm, skew = a + a.conj().T, a - a.conj().T
        shift = max(0.0, -float(np.linalg.eigvalsh(herm)[0])) + 0.1
        z = 0.5 * (herm + skew) + shift * np.eye(dim)
        k = cayley(t.v_natural @ z @ t.v)
        z_piv = np.linalg.solve(eye - k, eye + k)
        back = np.linalg.solve(t.v_natural, np.linalg.solve(t.v.T, z_piv.T).T)
        round_trip = float(np.abs(back - z).max()) / max(np.abs(z).max(), 1.0)
        identity = np.linalg.norm(cayley(z) + eye - 2.0 * np.linalg.solve((z + eye).T, z.T).T, 2)
        y = np.linalg.solve(flipped, (r @ k).conj().T[::-1])[::-1].conj().T
        rows.append((round_trip, float(identity), float(np.linalg.svd(y, compute_uv=False)[0])))
    return np.array(rows)


class TestStackedCayleySweep:
    @pytest.mark.parametrize("seed", [1, 5, 20240801])
    @pytest.mark.parametrize("name", ["transport-32", "transport-64", "transport-64-weighted",
                                      "transport2-48"])
    def test_sweep_matches_per_trial_loop(self, name, seed, tmp_path, capsys):
        from impedbench import cli

        ref = reference_cayley_trials(get_fixture(name), seed, 513)
        # trial counts around the chunk edges
        for trials in (1, 255, 256, 257, 513):
            out = tmp_path / f"cayley-{trials}.json"
            assert cli.main(["extension", "cayley", "--fixture", name, "--seed", str(seed),
                             "--trials", str(trials), "--out", str(out)]) == 0
            got = json.loads(out.read_text())
            worst = [max(0.0, float(col)) for col in ref[:trials].max(axis=0)]
            assert [got["max_round_trip"], got["max_identity_defect"],
                    got["max_contraction_norm"]] == worst
        capsys.readouterr()

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_stack_equals_members(self, p):
        rng = np.random.default_rng(SEED + 20 + p)
        zs = np.stack([random_accretive(rng, p) for _ in range(7)])
        ks = np.stack([ex.cayley(z) for z in zs])
        for fn, stack in ((ex.cayley, zs), (ex.inverse_cayley, ks)):
            got = fn(stack)
            assert got.shape == stack.shape
            for member, one in zip(got, stack):
                assert np.array_equal(member, fn(one))
        assert ex.cayley_identity_defect(zs).tolist() == [ex.cayley_identity_defect(z) for z in zs]
        a = random_square(rng, p)
        g_in, g_out = GramMatrix(a @ a.conj().T + np.eye(p)), GramMatrix(np.diag(np.arange(1.0, p + 1)))
        norms = gram_operator_norm(ks, g_in, g_out)
        assert norms.tolist() == [gram_operator_norm(k, g_in, g_out) for k in ks]

    @pytest.mark.parametrize("name", ["transport-64-weighted", "transport2-48"])
    def test_fixture_maps_stack_equals_members(self, name):
        fx = get_fixture(name)
        rng = np.random.default_rng(SEED + 30)
        zs = np.stack([random_accretive(rng, fx.boundary.trace_dim) for _ in range(5)])
        ks = ex.impedance_to_contraction(zs, fx)
        back = ex.contraction_to_impedance(ks, fx)
        for z, k, b in zip(zs, ks, back):
            assert np.array_equal(k, ex.impedance_to_contraction(z, fx))
            assert np.array_equal(b, ex.contraction_to_impedance(k, fx))

    def test_stack_refuses_a_singular_member(self):
        zs = np.stack([2.0 * np.eye(2), np.diag([-1.0, 3.0]), np.eye(2)])
        with pytest.raises(InvalidInputError, match="cayley transform undefined: -1 is in the spectrum"):
            ex.cayley(zs)
        with pytest.raises(InvalidInputError, match="-1 is in the spectrum"):
            ex.cayley_identity_defect(zs)
        ks = np.stack([0.5 * np.eye(2), np.diag([0.2, 1.0])])
        with pytest.raises(InvalidInputError,
                           match="inverse cayley undefined: 1 is in the spectrum of the contraction"):
            ex.inverse_cayley(ks)

    def test_stack_members_validated(self):
        zs = np.stack([np.eye(2), np.eye(2)])
        zs[1, 0, 1] = np.nan
        with pytest.raises(InvalidInputError, match="cayley input: entries must be finite"):
            ex.cayley(zs)
        with pytest.raises(InvalidInputError, match="inverse cayley input must be square"):
            ex.inverse_cayley(np.zeros((3, 2, 1)))
        # the dense cap applies to a member's edge, before any allocation
        with pytest.raises(InvalidInputError, match="exceeds dense cap"):
            ex.cayley(np.zeros((1, 1, 4097)))
        g = GramMatrix(np.eye(2))
        with pytest.raises(InvalidInputError, match="does not match grams"):
            gram_operator_norm(np.zeros((4, 2, 3)), g, g)
