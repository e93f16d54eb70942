"""Tests for boundary multiplier sections and the compactness gate."""

import importlib.util
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from impedbench import circle, cli
from impedbench.circle import (
    MAX_SECTION_CUTOFF,
    DiagonalSymbol,
    ImpedanceCoefficient,
    SobolevScale,
    compactness_gate,
    lq_report,
    multiplier_section,
)
from impedbench.errors import InvalidInputError

TWO_OVER_SQRT_PI = 1.1283791670955126


def fresnel_cosine_moment(n: int) -> float:
    """Independent oracle for (1/pi) * int_0^pi theta^{-1/2} cos(n theta).

    Substituting theta = u^2 turns the integral into a Fresnel cosine
    integral evaluated in closed form by scipy.special.fresnel.
    """
    if n == 0:
        return TWO_OVER_SQRT_PI
    _, c = scipy.special.fresnel(np.sqrt(2.0 * n))
    return float(np.sqrt(2.0 * np.pi / n) * c / np.pi)


def bench_workloads():
    """bench/workloads.py, which writes the benchmark's input files."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def bench_coefficient(seed: int = 1) -> ImpedanceCoefficient:
    """The complex sampled coefficient the boundary-checks benchmark gates."""
    workloads = bench_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_inputs("boundary-checks", seed, tmp)
        return cli.parse_coefficient("file:" + os.path.join(tmp, workloads.COEFFICIENT_FILE))


def even_odd_eigenvalues(block: np.ndarray) -> np.ndarray:
    """Eigenvalues, unsorted, of a real symmetric block with J S J = S, split
    into its even and odd halves from the block's own entries."""
    m = block.shape[0] // 2
    middle = (block[m, :m], block[m, m]) if block.shape[0] % 2 else None
    return circle._even_odd_split(block[:m, :m], block[:m, ::-1][:, :m], middle)


# (a zero-argument factory of the target, whether its sections are real and
# symmetric: real even data, whose sections the gate splits into even and odd
# halves with no Lanczos steps)
GATE_TARGETS = {
    "const-real": (lambda: ImpedanceCoefficient.constant(-1.5), True),
    # squares of the section's entries overflow and underflow; for the
    # subnormal constant 2^-e, the reciprocal of its largest entry's scale,
    # overflows too
    "const-huge-imag": (lambda: ImpedanceCoefficient.constant(1e200j), False),
    "const-tiny-imag": (lambda: ImpedanceCoefficient.constant(1e-170j), False),
    "const-subnormal-imag": (lambda: ImpedanceCoefficient.constant(4e-322j), False),
    "power-0.3": (lambda: ImpedanceCoefficient.power(0.3), True),
    "power-0.4-complex": (lambda: ImpedanceCoefficient.power(0.4, 1 + 1j), False),
    # c_{-k} = conj(c_k) exactly: a real-valued coefficient with complex
    # modes, whose Hermitian sections take the circulant route of all complex
    # data
    "fourier-hermitian": (
        lambda: ImpedanceCoefficient.fourier(
            [0.05j, 0.1 - 0.2j, 0.3 + 0.1j, 2.0, 0.3 - 0.1j, 0.1 + 0.2j, -0.05j], "hermitian"
        ),
        False,
    ),
    # the sine's modes c(+-3) = -+0.1i make the data complex
    "sampled-real": (
        lambda: ImpedanceCoefficient.sampled(
            lambda t: 1.0 + 0.3 * np.cos(t) + 0.2 * np.sin(3 * t), "real"
        ),
        False,
    ),
    "sampled-bench-complex": (bench_coefficient, False),
    "first-order": (lambda: DiagonalSymbol(1.0, 1j), False),
    # the order-one symbol's entries at s = 0.3, run at s = 0.5: its top
    # singular values (1 + n^2)^{0.2} at n = N, N - 1, ... cluster
    "first-order-0.3": (lambda: DiagonalSymbol(1.4, 1j), False),
    # a decaying symbol with a positive real part
    "half-order": (lambda: DiagonalSymbol(0.5, 1 - 1j), False),
    # c_k = e^{0.3i} e^{0.7ik}: every section is rank one and not Hermitian
    "rank-one": (
        lambda: ImpedanceCoefficient.fourier(
            np.exp(0.3j + 0.7j * np.arange(-256, 257)), "rank-one"
        ),
        False,
    ),
}


def high_modes_data() -> np.ndarray:
    """Fourier data c(-200..200): random complex modes at |k| >= 100 next to a
    mean of 1e-3. Behind the weights of s = 5 the FFT products lose accuracy."""
    idx = np.arange(-200, 201)
    rng = np.random.default_rng(0)
    data = np.where(np.abs(idx) >= 100, rng.standard_normal(idx.size) + 1j, 0.0)
    data[200] = 1e-3
    return data


# the targets that are coefficients, whose sections the gate never builds
# unless it must
COEFFICIENT_TARGETS = (
    "const-real",
    "const-huge-imag",
    "const-tiny-imag",
    "const-subnormal-imag",
    "power-0.3",
    "power-0.4-complex",
    "fourier-hermitian",
    "sampled-real",
    "sampled-bench-complex",
    "rank-one",
)


def reference_sections(target, scale, schedule):
    """The sections of a target, float64 where the coefficient data are real."""
    if isinstance(target, DiagonalSymbol):
        return [np.diag(target.section_entries(scale, n)) for n in schedule]
    coeffs = target.fourier_coeffs(2 * schedule[-1])
    if not coeffs.imag.any():
        coeffs = coeffs.real
    center = 2 * schedule[-1]
    return [
        multiplier_section(target, scale, n, coeffs=coeffs[center - 2 * n : center + 2 * n + 1])
        for n in schedule
    ]


class TestSobolevScale:
    def test_weights(self):
        scale = SobolevScale(0.5)
        assert abs(scale.weight(0) - 1.0) < 1e-15
        assert abs(scale.weight(2) - 5.0**0.25) < 1e-14
        assert abs(scale.weight(-2) - scale.weight(2)) < 1e-15

    def test_rejects_nonpositive_s(self):
        with pytest.raises(InvalidInputError, match="positive"):
            SobolevScale(0.0)
        with pytest.raises(InvalidInputError, match="positive"):
            SobolevScale(-1.0)

    def test_rejects_nonfinite_s(self):
        for s in (float("inf"), float("nan")):
            with pytest.raises(InvalidInputError, match="finite"):
                SobolevScale(s)


class TestFourierCoefficients:
    def test_constant_is_a_delta(self):
        c = ImpedanceCoefficient.constant(2.5 - 1j)
        f = c.fourier_coeffs(3)
        assert f.shape == (7,)
        assert abs(f[3] - (2.5 - 1j)) < 1e-15
        assert np.abs(np.delete(f, 3)).max() == 0.0

    def test_fourier_kind_pads_and_truncates(self):
        c = ImpedanceCoefficient.fourier([1.0, 2.0, 3.0], "three")
        f = c.fourier_coeffs(2)
        assert np.allclose(f, [0, 1, 2, 3, 0])
        f = c.fourier_coeffs(0)
        assert np.allclose(f, [2.0])

    def test_fourier_kind_needs_odd_length(self):
        with pytest.raises(InvalidInputError, match="odd"):
            ImpedanceCoefficient.fourier([1.0, 2.0], "bad")

    def test_sampled_single_harmonic(self):
        c = ImpedanceCoefficient.sampled(lambda t: np.exp(1j * t), "e1")
        f = c.fourier_coeffs(4)
        assert abs(f[5] - 1.0) < 1e-12
        mask = np.ones(9, dtype=bool)
        mask[5] = False
        assert np.abs(f[mask]).max() < 1e-12

    @pytest.mark.parametrize("n_max", [40, 127, 128, 300])
    def test_sampled_matches_direct_sum(self, n_max):
        # the grid has max(1024, 8 (n_max + 1)) points: 1024 up to n_max = 127
        func = lambda t: np.exp(np.cos(t)) + 0.3j * np.sin(2 * t) + np.abs(t)  # noqa: E731
        m = max(1024, 8 * (n_max + 1))
        theta = -np.pi + 2.0 * np.pi * np.arange(m) / m
        k = np.arange(-n_max, n_max + 1)
        direct = np.exp(-1j * np.outer(k, theta)) @ func(theta) / m
        got = ImpedanceCoefficient.sampled(func, "mix").fourier_coeffs(n_max)
        assert np.abs(got - direct).max() < 1e-13

    def test_sampled_cosine_mix(self):
        c = ImpedanceCoefficient.sampled(lambda t: 1.0 + 0.3 * np.cos(t), "mix")
        f = c.fourier_coeffs(2)
        assert abs(f[2] - 1.0) < 1e-13
        assert abs(f[1] - 0.15) < 1e-13
        assert abs(f[3] - 0.15) < 1e-13

    def test_power_zeroth_moment_frozen(self):
        c = ImpedanceCoefficient.power(0.5)
        f = c.fourier_coeffs(2)
        assert abs(f[2].real - TWO_OVER_SQRT_PI) < 1e-12
        assert abs(f[2].imag) < 1e-15

    def test_power_against_fresnel_oracle(self):
        c = ImpedanceCoefficient.power(0.5)
        f = c.fourier_coeffs(512)
        for n in range(513):
            assert abs(f[512 + n].real - fresnel_cosine_moment(n)) < 1e-10

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.9, 0.01, 0.99])
    def test_power_against_incomplete_gamma(self, a):
        # int_0^pi theta^{-a} e^{i n theta} = (i/n)^{1-a} gamma(1-a, -i n pi),
        # taken from mpmath's gammainc at 20 digits, up to the cap's n_max
        mpmath = pytest.importorskip("mpmath")
        n_max = 2 * MAX_SECTION_CUTOFF
        moments = circle._power_cosine_moments(a, n_max)
        with mpmath.workdps(20):
            s = 1 - mpmath.mpf(a)
            exact = [float(mpmath.pi**s / s)] + [
                float(mpmath.re((1j / mpmath.mpf(n)) ** s
                                * mpmath.gammainc(s, 0, -1j * n * mpmath.pi)))
                for n in range(1, n_max + 1)
            ]
        # at the ends of the exponent range the bound scales with the zeroth
        # moment, the largest in modulus (about 101 at a = 0.99)
        atol = 1e-14 if 0.1 <= a <= 0.9 else 1e-15 * exact[0]
        np.testing.assert_allclose(moments, exact, rtol=0, atol=atol)

    def test_power_even_symmetry(self):
        c = ImpedanceCoefficient.power(0.3, amplitude=2.0)
        f = c.fourier_coeffs(6)
        assert np.allclose(f, f[::-1], atol=1e-14)

    def test_power_amplitude_scales_linearly(self):
        base = ImpedanceCoefficient.power(0.7).fourier_coeffs(4)
        scaled = ImpedanceCoefficient.power(0.7, amplitude=3j).fourier_coeffs(4)
        assert np.allclose(scaled, 3j * base, rtol=1e-14)

    def test_power_label_reads_back_the_amplitude(self):
        # labels that :g printed exactly stay byte-identical
        assert ImpedanceCoefficient.power(0.5).label == "power(a=0.5,c=1+0j)"
        assert ImpedanceCoefficient.power(0.3, 1.0).label == "power(a=0.3,c=1+0j)"
        assert ImpedanceCoefficient.power(0.3, 0.5 - 2j).label == "power(a=0.3,c=0.5-2j)"
        # a part that :g would round is printed to its last digit
        assert ImpedanceCoefficient.power(0.3, 1.0000001).label == "power(a=0.3,c=1.0000001+0j)"
        third = complex(0.25, -1 / 3)
        label = ImpedanceCoefficient.power(0.3, third).label
        assert label == "power(a=0.3,c=0.25-0.3333333333333333j)"
        assert complex(label[label.index("c=") + 2:-1]) == third

    def test_constant_label_reads_back_the_value(self):
        assert ImpedanceCoefficient.constant(0.5).label == "const(0.5+0j)"
        assert ImpedanceCoefficient.constant(0.3 + 0.4j).label == "const(0.3+0.4j)"
        # :g printed this as const(1+0j), the label of 1
        assert ImpedanceCoefficient.constant(1.0000001).label == "const(1.0000001+0j)"
        # a numpy scalar prints as the float it holds
        label = ImpedanceCoefficient.constant(np.float64(1 / 3)).label
        assert label == "const(0.3333333333333333+0j)"

    def test_power_exponent_validated(self):
        with pytest.raises(InvalidInputError, match="integrable"):
            ImpedanceCoefficient.power(1.0)
        with pytest.raises(InvalidInputError, match="integrable"):
            ImpedanceCoefficient.power(-0.1)

    def test_negative_n_max_rejected(self):
        with pytest.raises(InvalidInputError, match="nonnegative"):
            ImpedanceCoefficient.constant(1.0).fourier_coeffs(-1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            ImpedanceCoefficient.fourier([0.0, bad, 0.0], "bad")
        with pytest.raises(InvalidInputError, match="finite"):
            ImpedanceCoefficient.power(0.3, bad)
        sampled = ImpedanceCoefficient.sampled(
            lambda t: np.where(t > 1.0, bad, 1.0 + 0.0 * t), "bad"
        )
        with pytest.raises(InvalidInputError, match="finite"):
            sampled.fourier_coeffs(4)
        with pytest.raises(InvalidInputError, match="finite"):
            sampled.lq_norm(2.0)


class TestLqNorm:
    def test_constant(self):
        assert abs(ImpedanceCoefficient.constant(3j).lq_norm(2.0) - 3.0) < 1e-15

    def test_power_l1_matches_mean(self):
        # for a nonnegative coefficient the L1 norm equals the zeroth
        # Fourier coefficient
        c = ImpedanceCoefficient.power(0.5)
        assert abs(c.lq_norm(1.0) - TWO_OVER_SQRT_PI) < 1e-14

    def test_power_divergent(self):
        assert ImpedanceCoefficient.power(0.6).lq_norm(2.0) == float("inf")

    def test_sampled_quadrature(self):
        c = ImpedanceCoefficient.sampled(lambda t: np.exp(1j * t), "unit")
        assert abs(c.lq_norm(4.0) - 1.0) < 1e-12

    def test_rejects_q_below_one(self):
        with pytest.raises(InvalidInputError, match="q"):
            ImpedanceCoefficient.constant(1.0).lq_norm(0.5)

    @pytest.mark.parametrize("half, m", [(16, 64), (40, 64), (300, 1024)])
    def test_fourier_grid_values_match_direct_sum(self, half, m):
        # more modes than grid points fold onto the same point mod m
        rng = np.random.default_rng(half)
        coeffs = rng.standard_normal(2 * half + 1) + 1j * rng.standard_normal(2 * half + 1)
        theta = -np.pi + 2.0 * np.pi * np.arange(m) / m
        direct = np.exp(1j * np.outer(theta, np.arange(-half, half + 1))) @ coeffs
        got = ImpedanceCoefficient.fourier(coeffs, "f")._grid_values(m)
        assert np.abs(got - direct).max() <= 1e-13 * np.abs(coeffs).sum()

    def test_long_fourier_file_takes_no_grid_by_mode_array(self):
        # 4097 modes on the 8192-point grid: one folded vector and its inverse
        # FFT, where an 8192 x 4097 complex array takes 537 MB
        rng = np.random.default_rng(4097)
        coef = ImpedanceCoefficient.fourier(rng.standard_normal(4097) / 64, "long")
        coef.lq_norm(2.0)
        tracemalloc.start()
        try:
            coef.lq_norm(2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestMultiplierSection:
    def test_constant_section_is_diagonal(self):
        b = multiplier_section(ImpedanceCoefficient.constant(1.0), SobolevScale(0.5), 4)
        idx = np.arange(-4, 5)
        expected = np.diag((1.0 + idx.astype(float) ** 2) ** -0.5)
        assert np.allclose(b, expected, atol=1e-15)

    def test_single_harmonic_shifts_one_diagonal(self):
        scale = SobolevScale(0.5)
        c = ImpedanceCoefficient.sampled(lambda t: np.exp(1j * t), "e1")
        b = multiplier_section(c, scale, 3)
        idx = np.arange(-3, 4)
        w = scale.weight(idx)
        for row in range(1, 7):
            assert abs(b[row, row - 1] - 1.0 / (w[row] * w[row - 1])) < 1e-12
        off = b - np.diag(np.diag(b, -1), -1)
        assert np.abs(off).max() < 1e-12

    def test_real_even_coefficient_gives_hermitian_section(self):
        b = multiplier_section(ImpedanceCoefficient.power(0.4), SobolevScale(0.5), 8)
        assert np.linalg.norm(b - b.conj().T, 2) < 1e-13

    def test_weighted_in_place_and_leaves_coefficients_alone(self):
        # the division by the weights reads a strided Toeplitz view of the
        # coefficients and writes a fresh array; the reference divides a gather
        scale = SobolevScale(0.5)
        coeffs = ImpedanceCoefficient.power(0.3).fourier_coeffs(16) * (1.0 + 0.5j)
        kept = coeffs.copy()
        b = multiplier_section(None, scale, 8, coeffs=coeffs)
        idx = np.arange(-8, 9)
        w = scale.weight(idx)
        reference = coeffs[np.subtract.outer(idx, idx) + 16] / np.outer(w, w)
        assert np.array_equal(b, reference)
        assert np.array_equal(coeffs, kept)

    def test_real_data_give_a_real_section_nesting_the_smaller_ones(self):
        scale = SobolevScale(0.5)
        coeffs = ImpedanceCoefficient.power(0.3).fourier_coeffs(64)
        assert not coeffs.imag.any()
        big = multiplier_section(None, scale, 32, coeffs=coeffs.real)
        assert big.dtype == np.float64
        # complex division by the weights may round the last bit differently
        as_complex = multiplier_section(None, scale, 32, coeffs=coeffs)
        assert not as_complex.imag.any()
        np.testing.assert_allclose(big, as_complex.real, rtol=np.finfo(float).eps, atol=0)
        # S_N is bitwise the central block of S_N'
        for n_cut in (1, 8, 31):
            lo = 32 - n_cut
            small = multiplier_section(None, scale, n_cut, coeffs=coeffs.real)
            assert np.array_equal(small, big[lo : lo + 2 * n_cut + 1, lo : lo + 2 * n_cut + 1])

    def test_input_validation(self):
        c = ImpedanceCoefficient.constant(1.0)
        with pytest.raises(InvalidInputError, match="cutoff"):
            multiplier_section(c, SobolevScale(0.5), 0)
        with pytest.raises(InvalidInputError, match="short"):
            multiplier_section(c, SobolevScale(0.5), 4, coeffs=np.ones(5))


class TestFirstOrderSymbol:
    def test_unit_modulus_at_matched_smoothness(self):
        d = DiagonalSymbol(1.0, 1j).section_entries(SobolevScale(0.5), 5)
        assert np.array_equal(d, 1j * np.ones(11))

    def test_decays_for_smoother_scale(self):
        d = DiagonalSymbol(1.0, 1j).section_entries(SobolevScale(1.0), 5)
        assert abs(d[5] - 1j) < 1e-15
        assert abs(d[-1]) < 0.2

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_entries_of_the_order_one_symbol(self, s):
        # amplitude (1 + n^2)^{order/2 - s}, bit for bit the closed form of
        # i (1 + n^2)^{1/2} seen through the weights
        idx = np.arange(-40, 41, dtype=float)
        d = DiagonalSymbol(1.0, 1j).section_entries(SobolevScale(s), 40)
        assert np.array_equal(d, 1j * (1.0 + idx * idx) ** (0.5 - s))

    @pytest.mark.parametrize("order, amplitude", [
        (float("nan"), 1j), (float("inf"), 1j), (-float("inf"), 1.0),
        (1.0, complex(float("nan"), 1.0)), (1.0, float("inf")), (1.0, complex(0.0, -float("inf"))),
    ])
    def test_refuses_non_finite_data(self, order, amplitude):
        with pytest.raises(InvalidInputError, match="finite"):
            DiagonalSymbol(order, amplitude)

    def test_label_reads_back_order_and_amplitude(self):
        assert DiagonalSymbol(1.0, 1j).label == "symbol(order=1.0,c=0+1j)"


class TestCompactnessGate:
    def test_constant_verdict_and_frozen_indicators(self):
        g = compactness_gate(ImpedanceCoefficient.constant(1.0), s=0.5)
        assert g.verdict == "compact"
        # corner of a diagonal section: largest entry sits at |n| = N//2 + 1
        for n_cut, t in zip(g.schedule, g.indicators):
            expected = (1.0 + (n_cut // 2 + 1) ** 2) ** -0.5
            assert abs(t - expected) < 1e-12
        assert abs(g.re_defect - (1.0 + 128.0**2) ** -0.5) < 1e-12

    def test_power_family_compact(self):
        for a in (0.3, 0.5, 0.9):
            g = compactness_gate(ImpedanceCoefficient.power(a), s=0.5)
            assert g.verdict == "compact", f"a={a}: {g.indicators}"
            assert g.re_defect > -1e-10
            assert all(x > y for x, y in zip(g.indicators[:-1], g.indicators[1:]))

    def test_slowest_power_rate_margin(self):
        # the a = 0.9 indicator contracts by ~0.85 per doubling; the verdict
        # rule cuts at 0.9, the non-compact control sits at 1.0
        g = compactness_gate(ImpedanceCoefficient.power(0.9), s=0.5)
        rate = (g.indicators[-1] / g.indicators[0]) ** (1.0 / 3.0)
        assert 0.8 < rate < 0.9

    def test_first_order_symbol_noncompact(self):
        g = compactness_gate(DiagonalSymbol(1.0, 1j), s=0.5, label="order-one")
        assert g.verdict == "noncompact"
        # the section is i times the identity: every number is exact
        assert g.indicators == [1.0] * len(g.schedule)
        assert all(np.array_equal(g.corner_sigmas[n], np.ones(16)) for n in g.schedule)
        assert g.re_defect == 0.0
        assert g.label == "order-one"
        assert g.metadata == {"norm_steps": [None] * 4}

    def test_symbol_that_overflows_is_refused(self):
        with pytest.raises(InvalidInputError, match="overflows"):
            compactness_gate(DiagonalSymbol(400.0, 1j), s=0.5)

    def test_smooth_sampled_compact(self):
        c = ImpedanceCoefficient.sampled(lambda t: 1.0 + 0.3 * np.cos(t), "smooth")
        assert compactness_gate(c, s=0.5).verdict == "compact"

    def test_negative_constant_flagged_nonaccretive_but_compact(self):
        g = compactness_gate(ImpedanceCoefficient.constant(-1.0), s=0.5)
        assert g.verdict == "compact"
        assert abs(g.re_defect - (-1.0)) < 1e-12

    def test_purely_imaginary_constant_has_zero_re_defect(self):
        g = compactness_gate(ImpedanceCoefficient.constant(2j), s=0.5)
        assert abs(g.re_defect) < 1e-13
        assert g.verdict == "compact"

    def test_schedule_validation(self):
        c = ImpedanceCoefficient.constant(1.0)
        with pytest.raises(InvalidInputError, match="schedule"):
            compactness_gate(c, schedule=(16,))
        with pytest.raises(InvalidInputError, match="schedule"):
            compactness_gate(c, schedule=(32, 16))

    def test_cutoff_cap_checked_before_coefficients(self, monkeypatch):
        def never(self, n_max):
            raise AssertionError("coefficients computed before the cutoff cap was checked")

        monkeypatch.setattr(ImpedanceCoefficient, "fourier_coeffs", never)
        with pytest.raises(InvalidInputError, match="cap"):
            compactness_gate(ImpedanceCoefficient.power(0.3), schedule=(16, MAX_SECTION_CUTOFF + 1))

    def test_overflowing_weights_checked_before_coefficients(self, monkeypatch):
        def never(self, n_max):
            raise AssertionError("coefficients computed before the weights were checked")

        monkeypatch.setattr(ImpedanceCoefficient, "fourier_coeffs", never)
        with pytest.raises(InvalidInputError, match="overflows"):
            compactness_gate(ImpedanceCoefficient.power(0.3), s=1e3)

    @pytest.mark.parametrize("name", sorted(GATE_TARGETS))
    def test_matches_svd_and_full_eigensolve(self, name):
        # eigenvalue moduli stand in for singular values on real symmetric
        # sections, Lanczos for the norm of the others, a real eigensolve for
        # a centro-Hermitian herm(S); every route must agree with a plain SVD
        # and a full complex eigensolve
        factory, even = GATE_TARGETS[name]
        target = factory()
        schedule = (16, 32, 64)
        g = compactness_gate(target, s=0.5, schedule=schedule, label=name)
        sections = reference_sections(target, SobolevScale(0.5), schedule)
        last = sections[-1]
        assert (np.isrealobj(last) and np.array_equal(last, last.T)) == even
        eps = np.finfo(float).eps
        for n_cut, section, t, norm, steps in zip(
            schedule, sections, g.indicators, g.section_norms, g.metadata["norm_steps"]
        ):
            outer = np.abs(np.arange(-n_cut, n_cut + 1)) > n_cut // 2
            corner = scipy.linalg.svdvals(section[np.ix_(outer, outer)])
            full = scipy.linalg.svdvals(section)[0]
            assert norm == pytest.approx(full, rel=1e-12, abs=0)
            assert t == pytest.approx(corner[0] / full, rel=1e-12, abs=0)
            # values under the corner's rounding floor are written as 0
            got = g.corner_sigmas[n_cut]
            floor = corner.size * eps * got[0]
            nonzero = got > 0
            assert np.all(got[nonzero] >= floor)
            np.testing.assert_allclose(got[nonzero], corner[:16][nonzero], rtol=1e-12)
            assert np.all(corner[:16][~nonzero] <= floor * (1 + 1e-12))
            # a diagonal symbol is read in closed form
            if even or isinstance(target, DiagonalSymbol):
                assert steps is None
            else:
                assert isinstance(steps, int)
            if name == "rank-one":
                # the Krylov space of S^H S from the start vector v is
                # span{v, S^H u}; Lanczos stops when it is exhausted
                assert steps <= 2
        re_defect = scipy.linalg.eigvalsh((last + last.conj().T) / 2.0)[0]
        assert abs(g.re_defect - re_defect) <= 1e-12 * max(abs(re_defect), 1.0)

    def test_lanczos_steps_do_not_depend_on_scale(self, monkeypatch):
        # where the FFT products lose accuracy the run takes exact products
        # with a section built from the data over a power of two, so scaling
        # the data by another (exact in floating point) changes nothing but
        # the result's scale, even where the squares of the section's entries
        # would leave the range of doubles
        n_cut, scale = 64, SobolevScale(5.0)
        data = high_modes_data()[200 - 2 * n_cut : 200 + 2 * n_cut + 1]
        w = scale.weight(np.arange(-n_cut, n_cut + 1))
        section = multiplier_section(None, scale, n_cut, coeffs=data)
        built, build = [], circle._weighted_toeplitz

        def counted(data, w):
            built.append(w.size)
            return build(data, w)

        monkeypatch.setattr(circle, "_weighted_toeplitz", counted)
        base, steps = circle._toeplitz_largest_singular_value(data, w)
        assert steps is not None
        assert base == pytest.approx(scipy.linalg.svdvals(section)[0], rel=1e-14, abs=0)
        for power in (-600, -40, 40, 600):
            norm, scaled_steps = circle._toeplitz_largest_singular_value(data * 2.0**power, w)
            assert scaled_steps == steps
            assert norm == pytest.approx(base * 2.0**power, rel=1e-15, abs=0)
        # one section per call: every run took the exact products
        assert built == [w.size] * 5

    def test_lanczos_steps_do_not_depend_on_scale_of_the_data(self):
        # the same for the circulant products of a coefficient's data: the
        # data over a power of two are bitwise the same at every scale
        n_cut = 64
        data = bench_coefficient().fourier_coeffs(2 * n_cut)
        w = SobolevScale(0.5).weight(np.arange(-n_cut, n_cut + 1))
        base, steps = circle._toeplitz_largest_singular_value(data, w)
        assert steps is not None
        section = multiplier_section(None, SobolevScale(0.5), n_cut, coeffs=data)
        assert base == pytest.approx(scipy.linalg.svdvals(section)[0], rel=1e-13, abs=0)
        for power in (-600, -40, 40, 600):
            norm, scaled_steps = circle._toeplitz_largest_singular_value(data * 2.0**power, w)
            assert scaled_steps == steps
            assert norm == pytest.approx(base * 2.0**power, rel=1e-15, abs=0)

    @pytest.mark.parametrize("factory", [
        bench_coefficient,
        lambda: ImpedanceCoefficient.power(0.4, 1 + 1j),
        lambda: ImpedanceCoefficient.power(0.3),
    ], ids=["sampled-bench", "power-0.4-complex", "power-0.3"])
    @pytest.mark.parametrize("n_cut", [1, 16, 100])
    def test_circulant_products_match_the_section(self, factory, n_cut):
        scale = SobolevScale(0.5)
        data = factory().fourier_coeffs(2 * n_cut)
        if not data.imag.any():
            data = data.real
        w = scale.weight(np.arange(-n_cut, n_cut + 1))
        section = multiplier_section(None, scale, n_cut, coeffs=data)
        apply, adjoint, spread = circle._circulant_products(data, w)
        rng = np.random.default_rng(n_cut)
        x = rng.standard_normal(w.size)
        if np.iscomplexobj(data):
            x = x + 1j * rng.standard_normal(w.size)
        for got, want in ((apply(x), section @ x), (adjoint(x), section.conj().T @ x)):
            # real data keep the products real
            assert got.dtype == section.dtype
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        assert spread >= np.linalg.norm(section, 2) * (1 - 1e-14)

    def test_fft_products_give_way_where_they_lose_accuracy(self, monkeypatch):
        # modes at |k| >= 100 behind weights (1 + k^2)^{5/2}, next to a small
        # mean: the circulant's largest eigenvalue is about 6e4 ||S|| at
        # cutoff 128, and the FFT products would lose that many ulps of the
        # norm; at both cutoffs _toeplitz_largest_singular_value builds the
        # section once and reruns Golub-Kahan on exact products with it
        coef = ImpedanceCoefficient.fourier(high_modes_data(), "high-modes")
        built, lanczos_dims = [], []
        build, lanczos = circle._weighted_toeplitz, circle._golub_kahan_norm

        def counted_build(data, w):
            built.append(w.size)
            return build(data, w)

        def counted_lanczos(apply, adjoint, dim, dtype):
            lanczos_dims.append(dim)
            return lanczos(apply, adjoint, dim, dtype)

        monkeypatch.setattr(circle, "_weighted_toeplitz", counted_build)
        monkeypatch.setattr(circle, "_golub_kahan_norm", counted_lanczos)
        schedule = (64, 128)
        g = compactness_gate(coef, s=5.0, schedule=schedule)
        assert built == [129, 257]
        # the FFT run, then the exact one, at each cutoff
        assert lanczos_dims == [129, 129, 257, 257]
        assert g.metadata["norm_steps"] == [4, 4]
        for norm, section in zip(g.section_norms, reference_sections(coef, SobolevScale(5.0), schedule)):
            assert norm == pytest.approx(scipy.linalg.svdvals(section)[0], rel=1e-14, abs=0)

    @pytest.mark.parametrize("name", COEFFICIENT_TARGETS)
    def test_coefficient_route_matches_dense_route(self, name):
        # the gate reads a coefficient's data and never builds its sections
        # where it need not; the same decompositions applied to the sections
        # themselves give bitwise the same corners, since the corners are the
        # same divisions of the same numbers
        coef = GATE_TARGETS[name][0]()
        assert isinstance(coef, ImpedanceCoefficient)
        schedule = (16, 32, 64)
        sections = reference_sections(coef, SobolevScale(0.5), schedule)
        g = compactness_gate(coef, s=0.5, schedule=schedule)
        eps = np.finfo(float).eps
        for n_cut, section, norm, t in zip(schedule, sections, g.section_norms, g.indicators):
            corner = circle._corner_block(section, n_cut)
            if np.isrealobj(section) and np.array_equal(section, section.T):
                # eigenvalue moduli, from even and odd halves: J S J = S
                full = np.abs(even_odd_eigenvalues(section)).max()
                sig = np.sort(np.abs(even_odd_eigenvalues(corner)))[::-1]
            else:
                # complex sections, Hermitian ones included
                full = np.linalg.svd(section, compute_uv=False)[0]
                sig = np.linalg.svd(corner, compute_uv=False)
            # the gate writes the top 16, those below the rounding floor as 0
            top = sig[:16].astype(float)
            top[top < sig.size * eps * top[0]] = 0.0
            assert np.array_equal(g.corner_sigmas[n_cut], top)
            assert norm == pytest.approx(full, rel=1e-13, abs=0)
            assert t == pytest.approx(sig[0] / full, rel=1e-13, abs=0)
        last = sections[-1]
        re_defect = np.linalg.eigvalsh((last + last.conj().T) / 2.0)[0]
        # a defect near 0 (the rank-one target) is rounding noise of ||S||
        assert g.re_defect == pytest.approx(re_defect, rel=1e-13, abs=1e-14 * g.section_norms[-1])
        if name == "fourier-hermitian":
            assert all(isinstance(steps, int) for steps in g.metadata["norm_steps"])

    def test_bench_coefficient_lanczos_steps(self):
        # the benchmark's sampled coefficient: 14 Golub-Kahan steps at every
        # cutoff, each ending in a 15 x 15 tridiagonal eigensolve; the
        # norms agree with a dense SVD
        schedule = (16, 32, 64, 128, 256)
        coef = bench_coefficient()
        g = compactness_gate(coef, s=0.5, schedule=schedule)
        assert g.metadata["norm_steps"] == [14] * 5
        sections = reference_sections(coef, SobolevScale(0.5), schedule)
        for norm, section in zip(g.section_norms, sections):
            assert norm == pytest.approx(scipy.linalg.svdvals(section)[0], rel=1e-12, abs=0)

    def test_budget_overrun_sends_later_cutoffs_to_svd(self, monkeypatch):
        # at s = 1e-6 the benchmark's coefficient has clustered top singular
        # values: cutoff 16 converges in 31 steps, cutoff 32 outruns its
        # budget of 32, and cutoff 64 goes to the SVD without a Lanczos run
        coef = bench_coefficient()
        lanczos_dims, svd_dims = [], []
        lanczos, svd = circle._golub_kahan_norm, np.linalg.svd

        def counted_lanczos(apply, adjoint, dim, dtype):
            lanczos_dims.append(dim)
            return lanczos(apply, adjoint, dim, dtype)

        def counted_svd(a, *args, **kwargs):
            svd_dims.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(circle, "_golub_kahan_norm", counted_lanczos)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        schedule = (16, 32, 64)
        g = compactness_gate(coef, s=1e-6, schedule=schedule)
        monkeypatch.undo()
        assert lanczos_dims == [33, 65]
        assert g.metadata["norm_steps"] == [31, None, None]
        # one full-section SVD per cutoff from the overrun on, and one
        # corner SVD per cutoff
        assert sorted(svd_dims) == sorted([65, 129] + [2 * (n - n // 2) for n in schedule])
        sections = reference_sections(coef, SobolevScale(1e-6), schedule)
        for norm, section in zip(g.section_norms, sections):
            assert norm == pytest.approx(scipy.linalg.svdvals(section)[0], rel=1e-12, abs=0)

    def test_corner_rounding_noise_written_as_zero(self):
        # at s = 60 the corner's small singular values are rounding noise
        g = compactness_gate(ImpedanceCoefficient.power(0.3), s=60)
        zeros = 0
        for n_cut in g.schedule:
            sig = g.corner_sigmas[n_cut]
            floor = 2 * (n_cut - n_cut // 2) * np.finfo(float).eps * sig[0]
            assert sig[0] > 0
            assert np.all((sig == 0) | (sig >= floor))
            zeros += int(np.count_nonzero(sig == 0))
        assert zeros > 0

    @pytest.mark.parametrize("n_cut", [1, 2, 7, 8, 33])
    def test_even_odd_halves_match_full_eigensolve(self, n_cut):
        # the section has odd order 2N + 1, its corner even order 2 (N - N // 2)
        coeffs = ImpedanceCoefficient.power(0.3).fourier_coeffs(2 * n_cut).real
        section = multiplier_section(None, SobolevScale(0.5), n_cut, coeffs=coeffs)
        assert np.array_equal(section, section[::-1, ::-1])
        for block in (section, circle._corner_block(section, n_cut)):
            halves = even_odd_eigenvalues(block)
            expected = np.linalg.eigvalsh(block)
            assert halves.size == expected.size
            np.testing.assert_allclose(np.sort(halves), expected, rtol=0,
                                       atol=1e-14 * abs(expected).max())

    def test_even_odd_split_only_for_centrosymmetric_sections(self, monkeypatch):
        # counts the order of each matrix split, its halves taken straight
        # from a coefficient's data
        split, solve = [], circle._even_odd_split

        def counted(a, bj, middle=None):
            split.append(2 * a.shape[0] + (middle is not None))
            return solve(a, bj, middle)

        monkeypatch.setattr(circle, "_even_odd_split", counted)
        schedule = (8, 16, 32)
        # real data that are not even, and Hermitian complex data: no real
        # symmetric section to split
        real_not_even = ImpedanceCoefficient.fourier([0.1, 1.0, 0.3], "real")
        compactness_gate(real_not_even, s=0.5, schedule=schedule)
        compactness_gate(GATE_TARGETS["fourier-hermitian"][0](), s=0.5, schedule=schedule)
        assert split == []
        # a real even coefficient splits each section and its corner
        compactness_gate(ImpedanceCoefficient.power(0.3), s=0.5, schedule=schedule)
        assert split == [d for n in schedule for d in (2 * n + 1, 2 * (n - n // 2))]

    @pytest.mark.parametrize("factory, bound_mib", [
        (lambda: ImpedanceCoefficient.power(0.3), 2.3),
        (bench_coefficient, 4.1),
    ], ids=["power-0.3", "sampled-bench"])
    def test_gate_memory(self, factory, bound_mib):
        # no dense section for a coefficient: even and odd halves built from
        # the data, corners gathered from them, circulant products and one
        # real Hermitian-part form (measured 2.04 and 3.69 MiB); one section
        # at the top cutoff peaked at 3.16 and 6.61 MiB traced, a complex
        # section per cutoff at 12.9 and 12.3 MiB
        coef = factory()
        schedule = (16, 32, 64, 128, 256)
        compactness_gate(coef, s=0.5, schedule=schedule)
        tracemalloc.start()
        try:
            compactness_gate(coef, s=0.5, schedule=schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

    def test_csv_and_json_deterministic(self):
        c = ImpedanceCoefficient.power(0.5)
        g1 = compactness_gate(c, s=0.5)
        g2 = compactness_gate(ImpedanceCoefficient.power(0.5), s=0.5)
        assert g1.to_csv() == g2.to_csv()
        assert g1.to_csv().startswith("N,k,sigma_k\n")
        rows = g1.to_csv().strip().split("\n")[1:]
        assert len(rows) == sum(min(16, 2 * (n - n // 2)) for n in g1.schedule)
        payload = json.dumps(g1.to_json_dict(), sort_keys=True)
        assert "verdict" in payload

    def test_gate_rejects_plain_matrix_target(self):
        with pytest.raises(InvalidInputError, match="target"):
            compactness_gate(np.eye(5), s=0.5)
        # nor a callable that returns sections
        with pytest.raises(InvalidInputError, match="target"):
            compactness_gate(lambda n: np.eye(2 * n + 1), s=0.5)


def reference_golub_kahan_norm(apply, adjoint, dim, dtype):
    """circle._golub_kahan_norm as it ran before its bookkeeping was trimmed
    and its left basis dropped: both bases stored and reorthogonalized, a
    fresh tridiagonal and a freshly conjugated basis at every step, and a
    reorthogonalization against the empty basis at step 0."""
    budget = max(32, dim // 8)
    eps = np.finfo(float).eps

    def reorthogonalize(vector, basis):
        for _ in range(2):
            vector = vector - basis.T @ (basis.conj() @ vector)
        return vector

    right = np.empty((budget + 1, dim), dtype=dtype)
    left = np.empty((budget, dim), dtype=dtype)
    alphas, betas = np.zeros(budget), np.zeros(budget)
    start = np.random.default_rng(circle.LANCZOS_SEED).standard_normal(dim)
    right[0] = start / np.linalg.norm(start)
    for k in range(budget):
        u = apply(right[k])
        if k:
            u -= betas[k - 1] * left[k - 1]
        u = reorthogonalize(u, left[:k])
        alpha = alphas[k] = np.linalg.norm(u)
        beta = 0.0
        if alpha > 0:
            left[k] = u / alpha
            v = reorthogonalize(adjoint(left[k]) - alpha * right[k], right[: k + 1])
            beta = np.linalg.norm(v)
        diag = alphas[: k + 1] ** 2
        diag[1:] += betas[:k] ** 2
        off = alphas[:k] * betas[:k]
        theta, y = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
        if beta * abs(alpha * y[k, k]) <= 4.0 * eps * theta[k]:
            return float(np.sqrt(theta[k])), k + 1
        betas[k] = beta
        right[k + 1] = v / beta
    return None, None


# gate inputs whose CSV and stdout the one-sided Golub-Kahan loop must leave
# byte for byte as the reference loop writes them: zeta (files are written to
# the test's directory) and schedule
GATE_ZETAS = {
    "power-0.3": "power:a=0.3",
    "power-0.5": "power:a=0.5",
    "power-0.9": "power:a=0.9",
    "sampled-bench": "file:coefficient.json",
    "sampled-real": "file:real.json",
    "sampled-complex": "file:complex.json",
    "const-complex": "const:1,0.5",
    "power-0.4-complex": "power:a=0.4,c=1+1j",
}
GATE_SCHEDULES = ("16,32,64,128", "16,32,64,128,256", "64,128,256,512")


class TestGolubKahanBookkeeping:
    # (norm, steps) of the benchmark's seed-1 coefficient per cutoff, as the
    # one-sided loop returns them; the two-sided reference took the same
    # steps to norms 1 and 2 ulps off at cutoffs 16 and 256, the same bits
    # at the others
    PINNED = {
        16: (1.0310601866343567, 14),
        32: (1.0310601866343574, 14),
        64: (1.0310598379050686, 14),
        128: (1.0310598322460496, 14),
        256: (1.03105983071738, 14),
    }

    @pytest.mark.parametrize("n_cut", sorted(PINNED))
    def test_bench_coefficient_norm_pinned(self, n_cut, monkeypatch):
        data = bench_coefficient().fourier_coeffs(2 * n_cut)
        w = SobolevScale(0.5).weight(np.arange(-n_cut, n_cut + 1))
        norm, steps = circle._toeplitz_largest_singular_value(data, w)
        pinned_norm, pinned_steps = self.PINNED[n_cut]
        assert steps == pinned_steps
        # the products run through BLAS, whose kernels differ between CPUs,
        # so the literals are held to rounding
        eps = np.finfo(float).eps
        assert norm == pytest.approx(pinned_norm, rel=4 * eps, abs=0)
        section = multiplier_section(None, SobolevScale(0.5), n_cut, coeffs=data)
        assert norm == pytest.approx(scipy.linalg.svdvals(section)[0], rel=1e-14, abs=0)
        # reorthogonalizing the right basis alone keeps the two-sided
        # reference's steps and its norm to rounding
        monkeypatch.setattr(circle, "_golub_kahan_norm", reference_golub_kahan_norm)
        ref_norm, ref_steps = circle._toeplitz_largest_singular_value(data, w)
        assert steps == ref_steps
        assert norm == pytest.approx(ref_norm, rel=4 * eps, abs=0)

    def test_real_operator_matches_reference(self):
        # real data keep the basis real, so .conj() is the identity there
        n_cut = 64
        data = ImpedanceCoefficient.power(0.4, 1.0).fourier_coeffs(2 * n_cut).real
        data = data * np.linspace(1.0, 2.0, data.size)  # not even, so not Hermitian
        w = SobolevScale(0.5).weight(np.arange(-n_cut, n_cut + 1))
        apply, adjoint, _ = circle._circulant_products(data, w)
        norm, steps = circle._golub_kahan_norm(apply, adjoint, w.size, data.dtype)
        assert steps is not None
        ref_norm, ref_steps = reference_golub_kahan_norm(apply, adjoint, w.size, data.dtype)
        assert steps == ref_steps
        assert norm == pytest.approx(ref_norm, rel=4 * np.finfo(float).eps, abs=0)
        section = multiplier_section(None, SobolevScale(0.5), n_cut, coeffs=data)
        assert norm == pytest.approx(scipy.linalg.svdvals(section)[0], rel=1e-14, abs=0)

    @pytest.mark.parametrize("schedule", GATE_SCHEDULES)
    @pytest.mark.parametrize("name", sorted(GATE_ZETAS))
    def test_gate_outputs_byte_identical(self, name, schedule, tmp_path, monkeypatch, capsys):
        workloads = bench_workloads()
        workloads.write_inputs("boundary-checks", 1, str(tmp_path))
        (tmp_path / "real.json").write_text("[[1, 0], [1.2, 0], [0.9, 0], [1.1, 0], [0.7, 0]]")
        (tmp_path / "complex.json").write_text("[[1, 0], [1.2, 0.1], [0.9, -0.2], [1.1, 0.05]]")
        monkeypatch.chdir(tmp_path)
        csvs, reports = [], []
        for tag in ("one-sided", "reference"):
            if tag == "reference":
                monkeypatch.setattr(circle, "_golub_kahan_norm", reference_golub_kahan_norm)
            argv = ["gate", "--zeta", GATE_ZETAS[name], "--sections", schedule, "--out", f"{tag}.csv"]
            assert cli.main(argv) == 0
            csvs.append((tmp_path / f"{tag}.csv").read_bytes())
            reports.append(json.loads((tmp_path / f"{tag}.json").read_text()))
        assert csvs[0] == csvs[1]
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == stdout[1]
        # the norms, and the indicators divided by them, move in their last
        # bits at most; every other entry, steps and verdict included, is equal
        for key in ("section_norms", "indicators"):
            got, ref = (report.pop(key) for report in reports)
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)
        assert reports[0] == reports[1]


class TestLqReport:
    def test_requirement_at_half_smoothness(self):
        rep = lq_report(ImpedanceCoefficient.power(0.9), s=0.5, q=1.05)
        assert rep["exponent_requirement"] == 1.0
        assert rep["finite"]
        assert rep["theorem_applies"]

    def test_hypothesis_strict_at_boundary(self):
        rep = lq_report(ImpedanceCoefficient.constant(1.0), s=0.5, q=1.0)
        assert rep["finite"]
        assert not rep["theorem_applies"]

    def test_divergent_norm_blocks_prediction(self):
        rep = lq_report(ImpedanceCoefficient.power(0.9), s=0.5, q=2.0)
        assert rep["lq_norm"] == "inf"
        assert not rep["finite"]
        assert not rep["predicts_compact"]

    def test_rough_scale_raises_requirement(self):
        # at s = 1/4 the hypothesis needs q > 2 even though q = 1.5 is finite
        rep = lq_report(ImpedanceCoefficient.power(0.5), s=0.25, q=1.5)
        assert rep["exponent_requirement"] == 2.0
        assert rep["finite"]
        assert not rep["theorem_applies"]

    def test_validation(self):
        with pytest.raises(InvalidInputError, match="q"):
            lq_report(ImpedanceCoefficient.constant(1.0), s=0.5, q=0.5)
        with pytest.raises(InvalidInputError, match="positive"):
            lq_report(ImpedanceCoefficient.constant(1.0), s=-1.0, q=2.0)
