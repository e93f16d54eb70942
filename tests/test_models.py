"""Tests for the string and disk eigenvalue models and the cylinder functions."""

import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.special

from impedbench.errors import InvalidInputError, NumericalFailureError
from impedbench import models
from impedbench.models import (
    MAX_BESSEL_ORDER,
    DiskModeProblem,
    SearchBox,
    StringSpec,
    disk_mode_roots,
    disk_spectrum,
    string_characteristic,
    string_spectrum,
)

SEED = 20240801

# Frozen with mpmath at 30 digits (besseljzero / besselj), independent of the
# scipy routines used in the loop checks below.
J0_FIRST_ZERO = 2.4048255576957728
J1_FIRST_ZERO = 3.8317059702075123
J1P_FIRST_ZERO = 1.8411837813406593
J0_AT_ONE = 0.76519768655796655
J1_AT_ONE = 0.44005058574493352
J2_AT_3_4J = 7.0001368991307411 + 1.4123775881105296j
J7_AT_25_M3J = -0.16284999160384837 + 1.4341215430211847j
J1_ZEROS = [3.8317059702075123, 7.0155866698156188, 10.173468135062722,
            13.323691936314223, 16.470630050877633, 19.615858510468242]
J1P_ZEROS = [1.8411837813406593, 5.3314427735250326, 8.5363163663462858,
             11.706004902592064, 14.863588633909033, 18.015527862681804]
HALF_LOG_3 = 0.54930614433405485


def on_contour(f):
    """The contour form _count_in reads: f at the samples of a box."""
    return lambda box, n: f(models._boundary_samples(box, n))


def table_char(problem, lam):
    """The disk characteristic at the points lam, from one cylinder table."""
    return problem.char_on(models._bessel_table(problem.m + 2, lam))


def table_j(order, z, derivative=False):
    """J_order(z), or J_order'(z), read from one cylinder table of orders
    0..|order| (one more for the derivative), in the shape of z; a scalar z
    gives a complex."""
    z = np.asarray(z, dtype=complex)
    table = models._bessel_table(abs(order) + derivative, z.ravel())
    vals = models._derivative(table, order) if derivative else models._order(table, order)
    out = vals.reshape(z.shape)
    return complex(out[()]) if z.ndim == 0 else out


def mixed_err(ours, ref) -> float:
    return float(np.max(np.abs(ours - ref) / np.maximum(np.abs(ref), 1.0)))


class TestBessel:
    def test_values_at_origin(self):
        assert table_j(0, 0.0) == 1.0 + 0.0j
        assert table_j(3, 0.0) == 0.0 + 0.0j

    def test_frozen_values(self):
        assert abs(table_j(0, 1.0) - J0_AT_ONE) < 1e-15
        assert abs(table_j(1, 1.0) - J1_AT_ONE) < 1e-15
        assert abs(table_j(2, 3.0 + 4.0j) - J2_AT_3_4J) < 1e-13 * abs(J2_AT_3_4J)
        assert abs(table_j(7, 25.0 - 3.0j) - J7_AT_25_M3J) < 1e-13 * abs(J7_AT_25_M3J)

    def test_frozen_zeros(self):
        assert abs(table_j(0, J0_FIRST_ZERO)) < 1e-14
        assert abs(table_j(1, J1_FIRST_ZERO)) < 1e-14
        assert abs(table_j(1, J1P_FIRST_ZERO, derivative=True)) < 1e-14

    def test_matches_library_inside_series_radius(self):
        rng = np.random.default_rng(SEED)
        for _ in range(150):
            m = int(rng.integers(0, 21))
            z = complex(rng.uniform(-12, 12), rng.uniform(-12, 12))
            if abs(z) > 12.0 or abs(z) < 1e-8:
                continue
            assert mixed_err(table_j(m, z), scipy.special.jv(m, z)) < 1e-12

    def test_matches_library_in_recurrence_region(self):
        rng = np.random.default_rng(SEED + 1)
        checked = 0
        for _ in range(400):
            m = int(rng.integers(0, 25))
            z = complex(rng.uniform(-180, 180), rng.uniform(-60, 60))
            if not (12.0 < abs(z) <= 200.0):
                continue
            assert mixed_err(table_j(m, z), scipy.special.jv(m, z)) < 1e-11
            checked += 1
        assert checked > 200

    def test_derivative_matches_library(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(80):
            m = int(rng.integers(0, 15))
            z = complex(rng.uniform(-40, 40), rng.uniform(-8, 8))
            if abs(z) < 1e-6:
                continue
            ours = table_j(m, z, derivative=True)
            assert mixed_err(ours, scipy.special.jvp(m, z)) < 1e-12

    @pytest.mark.parametrize("z", [0.0, 1e-300, 1e-100, 1e-60, 1e-20, 1e-9, 2e-8, -1e-200j])
    def test_tiny_arguments_give_the_leading_term(self, z):
        # (z/2)^m / m! is J_m to |z|^2 / (4 (m + 1)) relative; the recurrence
        # divides by z, so it must not run at the origin or overflow near it
        for m in (0, 1, 5, 20):
            ref = cmath.rect((abs(z) / 2.0) ** m / math.factorial(m), m * cmath.phase(z))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ours = table_j(m, z)
            assert abs(ours - ref) <= 1e-15 * abs(ref)

    def test_rescaling_guard_keeps_tiny_arguments_accurate(self):
        # from order 60 down, the recurrence at these points passes 1e250 and
        # is rescaled on the way; every row must still match the series
        mpmath = pytest.importorskip("mpmath")
        z = [1e-7, 3e-8, 2e-6]
        table = models._bessel_table(60, z)
        for m in (0, 1, 5, 20):
            for j, x in enumerate(z):
                ref = complex(mpmath.besselj(m, x))
                assert abs(table[m, j] - ref) <= 1e-14 * abs(ref)

    def test_relative_accuracy_against_library(self):
        # the contour phase of the high sectors reads small J_m, which the
        # mixed error of the checks above does not resolve
        rng = np.random.default_rng(SEED + 4)
        mags = rng.uniform(0.05, 12.0, 300)
        z = mags * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
        orders = rng.integers(0, 21, 300)
        for m, point in zip(orders, z):
            ref = scipy.special.jv(m, point)
            assert abs(table_j(int(m), point) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("m_max", [3, 60])
    def test_each_point_as_if_alone(self, m_max):
        # seed orders from m_max + 12 to above 200, arguments below 1e-8 that
        # take the leading term, and (at order 60) small ones whose sweep is
        # rescaled past 1e250, in one shuffled array
        z = np.array([
            1e-9, 0.0, -3e-9j, 3e-8, 1e-7 + 1e-7j, 2e-6, 0.05, 0.5 - 0.2j, 3.0 + 4.0j,
            7.0 - 1.0j, 40.0 - 10.0j, -120.0 + 5.0j, 150.0 + 2.0j, 199.0, 60.0j,
        ])
        z = z[np.random.default_rng(SEED).permutation(z.size)]
        table = models._bessel_table(m_max, z)
        for j, point in enumerate(z):
            alone = models._bessel_table(m_max, np.array([point]))[:, 0]
            assert table[:, j].tobytes() == alone.tobytes(), point

    def test_negative_order_reflection(self):
        z = 2.3 - 0.7j
        assert abs(table_j(-1, z) + table_j(1, z)) < 1e-15
        assert abs(table_j(-2, z) - table_j(2, z)) < 1e-15
        assert mixed_err(table_j(-3, z), scipy.special.jv(-3, z)) < 1e-13

    def test_three_term_recurrence_property(self):
        # J_{m-1}(z) + J_{m+1}(z) = (2m/z) J_m(z), no library involved
        rng = np.random.default_rng(SEED + 3)
        for _ in range(60):
            m = int(rng.integers(1, 30))
            z = complex(rng.uniform(0.5, 150), rng.uniform(-20, 20))
            lhs = table_j(m - 1, z) + table_j(m + 1, z)
            rhs = 2.0 * m / z * table_j(m, z)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) / scale < 1e-12

    def test_even_order_sum_rule(self):
        # J_0 + 2 sum_k J_{2k} = 1 near the real axis, truncation negligible
        for z in (0.7, 4.0 + 0.5j, 9.0 - 1.0j):
            total = table_j(0, z) + 2.0 * sum(table_j(2 * k, z) for k in range(1, 25))
            assert abs(total - 1.0) < 1e-12

    def test_array_shapes(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0 + 1.0j]])
        vals = table_j(2, z)
        assert vals.shape == (2, 2)
        assert abs(vals[0, 0] - table_j(2, 1.0)) == 0.0
        assert isinstance(table_j(2, 1.0), complex)

    def test_input_caps(self):
        with pytest.raises(InvalidInputError, match="cap"):
            table_j(0, 250.0)
        with pytest.raises(InvalidInputError, match="order"):
            table_j(61, 1.0)

    @pytest.mark.parametrize("m", [60, -60])
    def test_highest_order_matches_scipy(self, m):
        # only the derivative needs the order above, so it alone stops at 59
        z = np.array([1.0, 7.5, 40.0 + 3.0j, 80.0, 0.5 - 2.0j])
        ref = scipy.special.jv(m, z)
        assert np.max(np.abs(table_j(m, z) - ref) / np.abs(ref)) < 1e-13
        with pytest.raises(InvalidInputError, match=r"order must lie in 0\.\.60"):
            table_j(m, 1.0, derivative=True)
        below = m - int(np.sign(m))
        ref_p = scipy.special.jvp(below, 7.5)
        assert abs(table_j(below, 7.5, derivative=True) - ref_p) < 1e-13 * abs(ref_p)



class TestBesselColumn:
    # the one-point column that the Newton polish evaluates
    @staticmethod
    def grid():
        rng = np.random.default_rng(SEED + 5)

        def polar(mags):
            return mags * np.exp(1j * rng.uniform(-np.pi, np.pi, mags.size))

        return np.concatenate([
            [0.0, -0.0j, 1e-9, -3e-9j, 200.0, -200.0j],
            polar(10.0 ** rng.uniform(-300, -8, 12)),  # the leading term
            rng.uniform(-30, 30, 30) + 1j * rng.choice([-1, 1], 30) * rng.uniform(1, 8, 30),
            polar(np.exp(rng.uniform(np.log(3e-8), np.log(2e-6), 30))),  # rescaled at order 60
            polar(rng.uniform(199.0, 200.0, 12)),  # seed orders near 264
            polar(rng.uniform(0.05, 200.0, 40)),
        ])

    @pytest.mark.parametrize("m_max", [0, 3, 22, 40, MAX_BESSEL_ORDER])
    def test_column_is_the_tables_bit_for_bit(self, m_max):
        z = self.grid()
        table = models._bessel_table(m_max, z)
        for j, point in enumerate(z):
            column = models._bessel_column(m_max, point)
            assert len(column) == m_max + 1
            assert np.array(column).tobytes() == table[:, j].tobytes(), point

    def test_input_caps(self):
        with pytest.raises(InvalidInputError, match="cap"):
            models._bessel_column(0, 200.5)
        with pytest.raises(InvalidInputError, match="order"):
            models._bessel_column(MAX_BESSEL_ORDER + 1, 1.0)

    def test_newton_reads_no_table(self, monkeypatch):
        # the iterates and their acceptance residuals run on columns
        def table(m_max, z):
            raise AssertionError("Newton swept a table")

        monkeypatch.setattr(models, "_bessel_table", table)
        box = SearchBox(5.0, 7.0, -1.0, 0.0)
        work = {"newton_evals": 0, "newton_steps": 0}
        got = models._newton_batch(DiskModeProblem(m=2, zeta=0.5), [box.center] * 2, [box] * 2,
                                   work)
        assert got[0] is not None and got[0] == got[1]
        assert work["newton_steps"] == 2 * work["newton_evals"]

class TestString:
    def test_half_load_ladder(self):
        report = string_spectrum(StringSpec(0.5), count=10)
        vals = report.values()
        for k, lam in enumerate(vals):
            want = (k + 0.5) * np.pi - 1j * HALF_LOG_3
            assert abs(lam - want) < 1e-12
        assert all(e.residual < 1e-12 for e in report.entries)

    def test_undamped_ladder_is_real(self):
        report = string_spectrum(StringSpec(0.0), count=6)
        for k, lam in enumerate(report.values()):
            assert abs(lam - (k + 0.5) * np.pi) < 1e-12

    def test_characteristic_vanishes_at_modes(self):
        spec = StringSpec(0.3 + 0.4j)
        report = string_spectrum(spec, count=8)
        vals = np.array(report.values())
        assert np.abs(string_characteristic(spec, vals)).max() < 1e-9

    def test_critical_load_reports_empty(self):
        report = string_spectrum(StringSpec(1.0), count=5)
        assert report.entries == []
        assert report.metadata["critically_damped"] is True
        near = string_spectrum(StringSpec(1.0 + 5e-14), count=5)
        assert near.entries == []

    def test_accretive_loads_never_grow(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(50):
            zeta = complex(rng.uniform(0, 4), rng.uniform(-4, 4))
            spec = StringSpec(zeta)
            if spec.critically_damped:
                continue
            report = string_spectrum(spec, count=6)
            assert max(lam.imag for lam in report.values()) <= 1e-12

    def test_negative_real_part_rejected_then_allowed(self):
        report = string_spectrum(StringSpec(-0.5), count=3)
        # an active load pumps energy in: modes grow
        for lam in report.values():
            assert abs(lam.imag - HALF_LOG_3) < 1e-12

    def test_count_validation(self):
        with pytest.raises(InvalidInputError, match="count"):
            string_spectrum(StringSpec(0.5), count=0)

    def test_time_reversed_critical_load_reports_empty(self):
        # at zeta = -1 the characteristic is -exp(i lam), which never vanishes
        report = string_spectrum(StringSpec(-1.0), count=5)
        assert report.entries == []
        assert report.metadata["critically_damped"] is False
        assert string_spectrum(StringSpec(-1.0 + 5e-14j), count=5).entries == []

    def test_huge_load_ratio_does_not_overflow(self):
        # (zeta + 1) / (zeta - 1) is nan here; 1 + 2 / (zeta - 1) is 1
        spec = StringSpec(complex(1e308, 1e308))
        vals = np.array(string_spectrum(spec, count=3).values())
        assert np.abs(vals - np.pi * np.arange(1, 4)).max() < 1e-12

    def test_overflowing_modulus_rejected(self):
        with pytest.raises(InvalidInputError, match="finite modulus"):
            StringSpec(complex(1.7e308, 1.7e308))


class TestDiskRoots:
    def test_rigid_rim_fundamental_matches_frozen_zeros(self):
        result = disk_mode_roots(0, 0.0)
        roots = result["roots"]
        assert result["count_matches"]
        assert roots.size == len(J1_ZEROS)
        assert np.abs(roots.imag).max() < 1e-10
        assert np.abs(roots.real - np.array(J1_ZEROS)).max() < 1e-10

    def test_rigid_rim_first_angular_order(self):
        result = disk_mode_roots(1, 0.0)
        roots = result["roots"]
        assert result["count_matches"]
        assert np.abs(roots.real - np.array(J1P_ZEROS)).max() < 1e-10

    def test_dissipative_rim_pushes_roots_down(self):
        for zeta in (0.5, 1.0):
            for m in (0, 3):
                result = disk_mode_roots(m, zeta)
                assert result["count_matches"]
                assert result["roots"].size > 0
                assert result["roots"].imag.max() < -1e-6
                assert result["residuals"].max() < 1e-10

    def test_reactive_rim_keeps_roots_real(self):
        # i(0.3i) J_m - J_m' has real coefficients, so roots stay real
        for m in (0, 2):
            result = disk_mode_roots(m, 0.3j)
            assert result["count_matches"]
            assert result["roots"].size > 0
            assert np.abs(result["roots"].imag).max() < 1e-8

    def test_characteristic_reflection_symmetry(self):
        # for real zeta: h(-conj(lam)) = (-1)^(m+1) conj(h(lam))
        rng = np.random.default_rng(SEED + 5)
        for m in (0, 1, 4):
            problem = DiskModeProblem(m=m, zeta=0.7)
            lam = rng.uniform(0.5, 15, 20) + 1j * rng.uniform(-3, 3, 20)
            left = table_char(problem, -np.conj(lam))
            right = (-1.0) ** (m + 1) * np.conj(table_char(problem, lam))
            assert np.abs(left - right).max() < 1e-10 * max(np.abs(left).max(), 1.0)

    def test_custom_box_isolates_one_root(self):
        result = disk_mode_roots(0, 0.0, box=SearchBox(3.0, 4.5, -0.5, 0.05))
        assert result["expected_count"] == 1
        assert abs(result["roots"][0] - J1_FIRST_ZERO) < 1e-10

    def test_contour_through_zero_gets_nudged(self):
        # east edge passes through the first rigid-rim root; the search
        # must perturb the contour rather than fail
        box = SearchBox(0.05, J1_FIRST_ZERO, -0.5, 0.05)
        result = disk_mode_roots(0, 0.0, box=box)
        assert result["count_matches"]

    def test_order_cap(self):
        with pytest.raises(InvalidInputError, match="0..20"):
            disk_mode_roots(21, 0.0)

    def test_counter_takes_any_analytic_function(self):
        # two zeros of a quadratic inside the box, one outside
        work = dict.fromkeys(("contour_points", "boxes_counted", "box_nudges"), 0)
        box = SearchBox(-1.0, 1.0, -1.0, 1.0)
        got = models._count_in(
            on_contour(lambda z: (z - 0.5) * (z + 0.25j) * (z - 3.0)), box, 64,
            np.random.default_rng(SEED), work, "no count",
        )
        assert got == (box, 2)
        assert work == {"contour_points": 64, "boxes_counted": 1, "box_nudges": 0}

    def test_nudge_scales_with_sample_spacing(self):
        # the east edge passes through the first rigid-rim root: the box moves
        # out by at least its finest sample spacing, longest edge / samples
        box = SearchBox(0.05, J1_FIRST_ZERO, -0.5, 0.05)
        work = dict.fromkeys(("contour_points", "boxes_counted", "box_nudges"), 0)
        moved, count = models._count_in(
            on_contour(lambda z: table_char(DiskModeProblem(m=0, zeta=0.0), z)), box, 1024,
            np.random.default_rng(SEED), work, "no count",
        )
        assert count == 1
        assert work["box_nudges"] >= 1
        assert moved.re_max - J1_FIRST_ZERO >= (J1_FIRST_ZERO - 0.05) / 1024

    def test_unresolved_phase_gives_up_after_five_nudges(self):
        # quotients of neighbouring samples overflow to nan on every contour
        work = dict.fromkeys(("contour_points", "boxes_counted", "box_nudges"), 0)
        with pytest.raises(NumericalFailureError, match="no count"):
            models._count_in(
                on_contour(lambda z: np.full(z.shape, 1e308 + 1e308j)),
                SearchBox(-1.0, 1.0, -1.0, 1.0),
                64, np.random.default_rng(SEED), work, "no count",
            )
        assert work == {"contour_points": 6 * (64 + 128 + 256), "boxes_counted": 0,
                        "box_nudges": 5}

    @pytest.mark.parametrize("zeta", [0.0, 0.5, 0.3j, -0.3j, 1e6, 0.3 + 0.4j, 1.7e308])
    def test_characteristic_scaled_exactly(self, zeta):
        # char is the characteristic times a power of two at or below
        # 1 / max(1, |Re zeta|, |Im zeta|), exact wherever that product is finite
        problem = DiskModeProblem(m=2, zeta=zeta)
        scale = problem.scale
        assert math.frexp(scale)[0] == 0.5
        assert scale * max(1.0, abs(zeta.real), abs(zeta.imag)) < 1.0
        lam = np.array([0.7, 3.1 - 0.4j, 11.0 - 2.0j])
        # the Newton form evaluates one point at a time
        jet = [problem._jet(point) for point in lam]
        f, df = np.array([problem.char_and_deriv(point) for point in lam]).T
        assert np.array_equal(table_char(problem, lam), f)
        assert np.isfinite(f).all() and np.isfinite(df).all()
        if zeta != 1.7e308:
            z = complex(zeta)
            jm, jp, jpp = np.array(jet).T
            assert np.array_equal(f, (1j * z * jm - jp) * scale)
            assert np.array_equal(df, (1j * z * jp - jpp) * scale)


# Roots per sector 0..4 in the default search box.
DISK_COUNTS = {
    0.0: [6, 6, 6, 5, 5],
    0.5: [6, 6, 6, 5, 5],
    0.3j: [7, 6, 6, 5, 5],
    # sector 1 has a real root 1.25e-4 from a bisection edge
    -0.3j: [6, 6, 6, 5, 5],
    1e6: [6, 6, 5, 5, 4],
}


def scipy_disk_root(m: int, zeta: complex, start: complex) -> complex:
    """Newton polish of a disk characteristic root on scipy.special."""
    lam = complex(start)
    for _ in range(20):
        jm, jp = scipy.special.jv(m, lam), scipy.special.jvp(m, lam)
        step = (1j * zeta * jm - jp) / (1j * zeta * jp - scipy.special.jvp(m, lam, 2))
        lam -= step
        if abs(step) < 1e-15 * abs(lam):
            break
    return lam


class TestDiskOracleReferences:
    def test_roots_match_mpmath(self):
        # every returned root is a root of the characteristic at 30 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for zeta, counts in DISK_COUNTS.items():
                z = mpmath.mpc(zeta)
                for m, count in enumerate(counts):
                    result = disk_mode_roots(m, zeta)
                    assert result["count_matches"]
                    assert result["roots"].size == count

                    def char(lam, m=m):
                        return 1j * z * mpmath.besselj(m, lam) - mpmath.besselj(m, lam, 1)

                    for lam in result["roots"]:
                        ref = mpmath.findroot(char, mpmath.mpc(lam))
                        assert abs(mpmath.mpc(lam) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("zeta", [1e6, 1e4, 50.0])
    def test_residual_relative_to_large_zeta(self, zeta):
        # the characteristic carries a factor zeta, so its rounding at a root
        # grows with |zeta|; the residual gate divides by max(1, |zeta|)
        result = disk_mode_roots(0, zeta)
        assert result["count_matches"]
        assert result["roots"].size == 6
        assert result["residuals"].max() <= 1e-10
        for lam in result["roots"]:
            ref = scipy_disk_root(0, zeta, lam)
            assert abs(lam - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("zeta, m", [(1e6, 0), (50.0, 0), (0.5, 6)])
    def test_roots_near_twelve_match_mpmath(self, zeta, m):
        # at |lam| near 12 the terms of the ascending series reach 3e3 before
        # they cancel to J_m; the Miller branch there keeps full accuracy
        mpmath = pytest.importorskip("mpmath")
        roots = disk_mode_roots(m, zeta)["roots"]
        lam = roots[np.argmin(np.abs(roots - 11.76))]
        assert 11.7 < lam.real < 11.8
        with mpmath.workdps(30):
            z = mpmath.mpc(zeta)
            ref = mpmath.findroot(
                lambda x: 1j * z * mpmath.besselj(m, x) - mpmath.besselj(m, x, 1),
                mpmath.mpc(lam),
            )
            assert abs(mpmath.mpc(lam) - ref) <= 1e-14 * abs(ref)


# the reference impedances of the best-first tests, each for sectors 0 and 1
LOWEST_ZETAS = [0.0, 0.5, 1.0, 2.0, 5.0, 0.3j, 0.3 + 0.4j, 1e6]


class TestLowestRoots:
    @pytest.mark.parametrize("zeta", LOWEST_ZETAS)
    def test_lowest_root_is_bitwise_the_full_searchs_first(self, zeta):
        for m in (0, 1):
            full = disk_mode_roots(m, zeta)
            one = disk_mode_roots(m, zeta, lowest=1)
            assert one["roots"].tobytes() == full["roots"][:1].tobytes()
            assert one["residuals"].tobytes() == full["residuals"][:1].tobytes()
            assert one["expected_count"] == full["expected_count"]
            assert one["count_matches"]
            assert one["work"]["contour_points"] < full["work"]["contour_points"]

    @pytest.mark.parametrize("zeta, m", [(0.5, 0), (0.5, 2), (0.3j, 0), (0.3j, 2)])
    def test_lowest_three_are_the_full_searchs_first_three(self, zeta, m):
        full = disk_mode_roots(m, zeta)
        three = disk_mode_roots(m, zeta, lowest=3)
        assert three["roots"].tobytes() == full["roots"][:3].tobytes()
        assert three["residuals"].tobytes() == full["residuals"][:3].tobytes()
        assert three["count_matches"]

    def test_box_straddling_the_cut_is_kept(self):
        # the box is taller than wide, so it splits along Im first, and the
        # upper half's root near 4.91 - 1.47i is polished first; the lower
        # half reaches right of it but holds the lowest root, near 0.30 - 3.03i
        box = SearchBox(0.05, 5.0, -5.0, 0.05)
        full = disk_mode_roots(1, 0.9, box=box)
        one = disk_mode_roots(1, 0.9, box=box, lowest=1)
        assert full["roots"].size == 2 and full["roots"][0].real < 1.0
        assert one["roots"].tobytes() == full["roots"][:1].tobytes()

    def test_lowest_beyond_the_count_finds_every_root(self):
        full = disk_mode_roots(0, 0.5)
        every = disk_mode_roots(0, 0.5, lowest=10)
        assert every["roots"].tobytes() == full["roots"].tobytes()
        assert every["expected_count"] == 6
        # min(lowest, expected_count) roots were returned
        assert every["count_matches"]

    @pytest.mark.parametrize("m, re, im, residual", [
        (0, "0x1.e4dc374de8282p+1", "-0x1.18f5b81ab5e33p-1", "0x1.0eb3e9fbb61c1p-54"),
        (1, "0x1.cf34d173d11e3p+0", "-0x1.9ba7bf7f3131ep-1", "0x1.8e00000000000p-53"),
    ])
    def test_converge_references_pinned(self, m, re, im, residual):
        # the two searches of `converge --zeta 0.5`, frozen from the polish
        # that evaluated its iterates as one-point tables: the columns change
        # no bit and no counter
        result = disk_mode_roots(m, 0.5, lowest=1)
        lam = result["roots"][0]
        assert (lam.real.hex(), lam.imag.hex()) == (re, im)
        assert float(result["residuals"][0]).hex() == residual
        assert result["expected_count"] == 6
        assert result["work"] == {
            "contour_points": 4096, "boxes_counted": 3, "box_nudges": 0, "newton_evals": 7,
            "newton_steps": 7, "max_depth": 2,
        }

    def test_lowest_validation(self):
        with pytest.raises(InvalidInputError, match="lowest"):
            disk_mode_roots(0, 0.5, lowest=0)


class TestBatchedNewton:
    def test_matches_one_start_at_a_time(self):
        # the reference runs the same iteration on one start at a time
        problem = DiskModeProblem(m=2, zeta=0.5)
        boxes = [
            *SearchBox(0.05, 20.0, -5.0, 0.05).split(),
            SearchBox(5.0, 7.0, -1.0, 0.0),
            SearchBox(8.0, 8.5, 2.0, 2.5),  # no root inside
            SearchBox(11.0, 14.0, -2.0, 0.0),
        ]
        starts = [b.center for b in boxes[:-1]] + [12.5 - 0.6j]
        work = {"newton_evals": 0, "newton_steps": 0}
        batched = models._newton_batch(problem, starts, boxes, work)
        alone = [
            models._newton_batch(problem, [start], [box], dict(work))[0]
            for start, box in zip(starts, boxes)
        ]
        assert [g is None for g in batched] == [False, False, False, True, False]
        assert [g is None for g in alone] == [g is None for g in batched]
        for got, ref in zip(batched, alone):
            if got is not None:
                assert abs(got[0] - ref[0]) <= 1e-14 * abs(ref[0])
        # newton_evals counts the steps of the batch in lockstep, the most any
        # iterate took, and newton_steps the evaluations of every iterate
        assert work["newton_evals"] < work["newton_steps"] <= len(starts) * work["newton_evals"]

    def test_start_past_argument_cap_drops_out(self):
        # a shifted start past |lam| = 200 is never evaluated; the others run
        problem = DiskModeProblem(m=0, zeta=0.5)
        box = SearchBox(198.0, 199.0, -1.0, 0.0)
        work = {"newton_evals": 0, "newton_steps": 0}
        got = models._newton_batch(problem, [200.5 - 0.5j, box.center], [box, box], work)
        assert got[0] is None
        assert got[1] is not None and abs(got[1][0] - (198.703 - 0.549j)) < 1e-3
        assert work["newton_steps"] == work["newton_evals"]

    def test_work_counts(self):
        result = disk_mode_roots(0, 0.5)
        work = result["work"]
        assert work["contour_points"] >= 2048
        assert work["boxes_counted"] >= 2 * result["expected_count"] - 1
        assert work["box_nudges"] == 0
        # the batch of leaves steps in lockstep, each leaf one evaluation a step
        assert work["newton_evals"] < work["newton_steps"]
        assert work["newton_steps"] >= result["roots"].size

    def test_depth_counted(self):
        for m, zeta in ((0, 0.5), (1, 0.0), (3, 0.3j)):
            result = disk_mode_roots(m, zeta)
            assert result["expected_count"] > 1
            assert result["work"]["max_depth"] >= 1

    def test_isolated_root_needs_no_bisection(self):
        result = disk_mode_roots(0, 0.0, box=SearchBox(3.0, 4.5, -0.5, 0.05))
        assert result["expected_count"] == 1
        assert result["work"]["max_depth"] == 0

    def test_nudge_past_argument_cap_is_unresolved(self):
        # the east edge runs through a sector-11 root near |lam| = 200, and
        # every nudge off it crosses the cap: a numerical failure, where a box
        # reaching past the cap itself is invalid input
        root_re = 199.97119647130162
        with pytest.raises(NumericalFailureError, match="could not move the search contour"):
            disk_mode_roots(11, 0.5, box=SearchBox(0.05, root_re, -0.6, 0.0))
        with pytest.raises(InvalidInputError, match="cap 200"):
            disk_mode_roots(11, 0.5, box=SearchBox(0.05, 200.1, -0.6, 0.0))

    def test_nudges_counted(self):
        box = SearchBox(0.05, J1_FIRST_ZERO, -0.5, 0.05)
        assert disk_mode_roots(0, 0.0, box=box)["work"]["box_nudges"] >= 1

    def test_unconverged_leaf_reported(self, monkeypatch):
        monkeypatch.setattr(
            models, "_newton_batch", lambda problem, starts, boxes, work: [None] * len(starts)
        )
        with pytest.raises(NumericalFailureError, match="failed to converge on a root near"):
            disk_mode_roots(0, 0.0, box=SearchBox(3.0, 4.5, -0.5, 0.05))


class TestSharedContourTables:
    @pytest.mark.parametrize("zeta", [0.0, 0.5, 0.3j, 0.3 + 0.4j, 1e6])
    def test_sharing_changes_nothing_but_time(self, zeta):
        # one search's sectors read one table per contour, of a higher order
        # than their own; roots, residuals, counts and work stay bit-identical
        tables = models.ContourTables(8)
        read = 0
        for lowest in (None, 1):
            for m in range(9):
                shared = disk_mode_roots(m, zeta, lowest=lowest, tables=tables)
                alone = disk_mode_roots(m, zeta, lowest=lowest)
                assert shared["roots"].tobytes() == alone["roots"].tobytes()
                assert shared["residuals"].tobytes() == alone["residuals"].tobytes()
                for key in ("expected_count", "count_matches", "work"):
                    assert shared[key] == alone[key], (m, lowest, key)
                read += shared["work"]["contour_points"]
        assert tables.sweep_points < read / 3

    def test_tables_cover_sectors_up_to_m_max(self):
        with pytest.raises(InvalidInputError, match="m_max 1"):
            disk_mode_roots(2, 0.5, tables=models.ContourTables(1))
        with pytest.raises(InvalidInputError, match="m_max"):
            models.ContourTables(21)


class TestDiskSpectrum:
    def test_metadata_carries_work_per_order(self):
        report = disk_spectrum(0.5, m_max=1)
        work = report.metadata["work_per_order"]
        assert sorted(work) == ["0", "1"]
        for counts in work.values():
            assert set(counts) == {
                "contour_points", "boxes_counted", "box_nudges", "newton_evals", "newton_steps",
                "max_depth",
            }
            assert all(isinstance(v, int) and v >= 0 for v in counts.values())

    def test_tags_multiplicity_and_verdict(self):
        report = disk_spectrum(0.5, m_max=2)
        tags = {e.mode_tag for e in report.entries}
        assert tags == {"disk-m0", "disk-m1", "disk-m2"}
        for e in report.entries:
            assert e.multiplicity == (1 if e.mode_tag == "disk-m0" else 2)
        assert report.metadata["all_counts_match"] is True
        assert report.max_im() < 0

    def test_m_max_validation(self):
        with pytest.raises(InvalidInputError, match="m_max"):
            disk_spectrum(0.5, m_max=21)
