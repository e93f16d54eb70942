"""Boundary multiplier sections on the Sobolev scale of the unit circle.

A scalar impedance coefficient acts on boundary data by pointwise
multiplication. In the weighted Fourier basis that makes the smoothness
scale orthonormal, that action becomes the doubly weighted Toeplitz section

    B_N[m, n] = coeff_hat(m - n) / (w_m w_n),   |m|, |n| <= N,

with w_n = (1 + n^2)^{s/2}. Whether the high-frequency corner of B_N decays
as N grows is a computable stand-in for compactness of the multiplier from
the smoothness-s space into its dual, and the gate below turns that decay
into a three-way verdict. A diagonal Fourier symbol of order one,
DiagonalSymbol(1.0, 1j), is the canonical non-compact control: its section
at s = 1/2 is i times the identity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .reports import CompactnessReport, fmt_complex

# The boundary curve bounds a planar domain; the multiplier criterion's
# integrability exponent depends on this.
AMBIENT_DIM = 2

DEFAULT_SCHEDULE = (16, 32, 64, 128)
# Largest section cutoff. The gate's cost grows up to about 8x per doubling of
# the cutoff, in the corner SVD and the real Hermitian-part eigensolve;
# cutoffs 64-1024 take 1.3 s and 128 MB peak resident for a complex sampled
# coefficient, 0.30 s and 71 MB for power(0.3), whose sections are real and
# centrosymmetric (one thread, 2-vCPU VM). A 2049 x 2049 complex section
# (67 MB) is built only for Hermitian complex data, for data whose FFT
# products lose accuracy, and once the Lanczos step budget has run out.
MAX_SECTION_CUTOFF = 1024

# Verdict thresholds, pinned by the golden fixtures in the test suite.
THETA_COMPACT = 1e-2
THETA_NONCOMPACT = 0.5
MONOTONE_SLACK = 1.1
# Largest admissible per-doubling ratio of the tail indicator for a compact
# verdict; the flat non-compact control sits at ratio 1, the slowest compact
# fixture in the calibration set at about 0.85.
RATE_COMPACT = 0.9

# Seed of the start vector of the Golub-Kahan-Lanczos norm estimate, fixed so
# that reruns take the same steps.
LANCZOS_SEED = 1965

# Depth of the continued fraction in _power_cosine_moments. It converges
# slowest at n = 1, where |z| = pi is smallest; there depth 64 truncates
# below 1.1e-16 I_0 for exponents 0.001-0.999, depth 32 at 1.1e-13.
FRACTION_DEPTH = 64

# Largest ratio of the circulant's largest eigenvalue modulus to the section
# norm at which the gate trusts the FFT products: their error relative to the
# norm is about eps times that ratio, and measured ratios stay below 300 for
# power and sampled coefficients at s = 0.5 (1.2 for the benchmark's).
FFT_SPREAD = 1024.0

# Rows per block where an n x n result is assembled block by block, so that
# no other n x n temporary is allocated beside it.
ROW_BLOCK = 64


@dataclass(frozen=True)
class SobolevScale:
    """Weight family w_n = (1 + n^2)^{s/2} indexed by integer frequency."""

    s: float

    def __post_init__(self):
        if not (self.s > 0 and math.isfinite(self.s)):
            raise InvalidInputError("smoothness index s must be positive and finite")

    def weight(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        return (1.0 + n * n) ** (self.s / 2.0)


def _power_cosine_moments(exponent: float, n_max: int) -> np.ndarray:
    """Integrals of theta^{-exponent} cos(n theta) over (0, pi] for n = 0..n_max.

    With s = 1 - exponent and z = -i n pi, the integral is
    Re[(i/n)^s gamma(s, z)] and gamma(s, z) = Gamma(s) - e^{-z} z^s h(z),
    h the continued fraction of the upper incomplete gamma function
    (DLMF 8.9), evaluated bottom up. Since e^{-z} = (-1)^n and
    (i/n)^s z^s = pi^s exactly, no phase n pi is rounded into a cosine.
    """
    s = 1.0 - exponent
    n = np.arange(1, n_max + 1, dtype=float)
    z = -1j * np.pi * n
    tail = np.zeros_like(z)
    for k in range(FRACTION_DEPTH, 0, -1):
        tail = k * (k - s) / (z + (2 * k + 1 - s) - tail)
    h = 1.0 / (z + (1 - s) - tail)
    out = np.empty(n_max + 1)
    out[0] = math.pi**s / s
    out[1:] = (math.gamma(s) * math.sin(math.pi * exponent / 2) * n**-s
               - (1 - 2 * (n % 2)) * math.pi**s * h.real)
    return out


@dataclass(frozen=True)
class ImpedanceCoefficient:
    """Scalar boundary coefficient with Fourier and integrability accessors."""

    kind: str
    label: str
    value: complex = 0.0
    func: object = field(default=None, repr=False)
    stored: np.ndarray = field(default=None, repr=False)
    exponent: float = 0.0
    amplitude: complex = 1.0

    @classmethod
    def constant(cls, value) -> "ImpedanceCoefficient":
        return cls(kind="constant", label=f"const({fmt_complex(value)})", value=complex(value))

    @classmethod
    def sampled(cls, func, label: str) -> "ImpedanceCoefficient":
        if not callable(func):
            raise InvalidInputError("sampled coefficient needs a callable")
        return cls(kind="sampled", label=label, func=func)

    @classmethod
    def fourier(cls, centered_coeffs, label: str) -> "ImpedanceCoefficient":
        arr = np.asarray(centered_coeffs, dtype=complex).ravel()
        if not np.isfinite(arr).all():
            raise InvalidInputError("Fourier coefficients must be finite")
        if arr.size % 2 != 1:
            raise InvalidInputError(
                "centered coefficient array must have odd length (indices -K..K)"
            )
        return cls(kind="fourier", label=label, stored=arr)

    @classmethod
    def power(cls, exponent: float, amplitude=1.0) -> "ImpedanceCoefficient":
        if not (0.0 < exponent < 1.0):
            raise InvalidInputError(
                "power coefficient needs an exponent in (0, 1) to stay integrable"
            )
        if not np.isfinite(complex(amplitude)):
            raise InvalidInputError("power coefficient amplitude must be finite")
        return cls(
            kind="power",
            label=f"power(a={float(exponent)!r},c={fmt_complex(complex(amplitude))})",
            exponent=float(exponent),
            amplitude=complex(amplitude),
        )

    # -- Fourier data ------------------------------------------------------

    def fourier_coeffs(self, n_max: int) -> np.ndarray:
        """Centered coefficient array for indices -n_max..n_max."""
        if n_max < 0:
            raise InvalidInputError("n_max must be nonnegative")
        size = 2 * n_max + 1
        if self.kind == "constant":
            out = np.zeros(size, dtype=complex)
            out[n_max] = self.value
            return out
        if self.kind == "fourier":
            out = np.zeros(size, dtype=complex)
            half = (self.stored.size - 1) // 2
            keep = min(half, n_max)
            out[n_max - keep : n_max + keep + 1] = self.stored[
                half - keep : half + keep + 1
            ]
            return out
        if self.kind == "sampled":
            m = max(1024, 8 * (n_max + 1))
            vals = self._grid_values(m)
            if vals.shape != (m,):
                raise InvalidInputError("sampled coefficient must map grids to grids")
            # theta_j = -pi + 2 pi j / m, so the quadrature sum for c_k is
            # (-1)^k times the k-th DFT coefficient (index taken mod m)
            freqs = np.arange(-n_max, n_max + 1)
            return (1 - 2 * (freqs % 2)) * np.fft.fft(vals)[freqs % m] / m
        if self.kind == "power":
            moments = _power_cosine_moments(self.exponent, n_max)
            half_coeffs = (self.amplitude / np.pi) * moments
            out = np.empty(size, dtype=complex)
            out[n_max:] = half_coeffs
            out[:n_max] = half_coeffs[1:][::-1]
            return out
        raise InvalidInputError(f"unknown coefficient kind {self.kind!r}")

    # -- Integrability -----------------------------------------------------

    def lq_norm(self, q: float) -> float:
        """Norm in the q-integrable class w.r.t. normalized arc measure."""
        if not q >= 1:
            raise InvalidInputError("integrability exponent q must be >= 1")
        if self.kind == "constant":
            return abs(self.value)
        if self.kind == "power":
            aq = self.exponent * q
            if aq >= 1.0:
                return float("inf")
            return float(abs(self.amplitude) * (np.pi**-aq / (1.0 - aq)) ** (1.0 / q))
        vals = np.abs(self._grid_values(8192))
        # scaled by the largest sample, the power cannot overflow
        top = vals.max()
        if top == 0.0:
            return 0.0
        return float(top * np.mean((vals / top) ** q) ** (1.0 / q))

    def _grid_values(self, m: int) -> np.ndarray:
        """Values at theta_j = -pi + 2 pi j / m, j = 0..m-1."""
        if self.kind == "sampled":
            theta = -np.pi + 2.0 * np.pi * np.arange(m) / m
            vals = np.asarray(self.func(theta), dtype=complex)
            if not np.isfinite(vals).all():
                raise InvalidInputError("sampled coefficient values must be finite")
            return vals
        if self.kind == "fourier":
            # e^{i k theta_j} = (-1)^k e^{2 pi i k j / m}: one inverse DFT of
            # the (-1)^k c_k folded mod m, no m x K array
            half = (self.stored.size - 1) // 2
            freqs = np.arange(-half, half + 1)
            folded = np.zeros(m, dtype=complex)
            np.add.at(folded, freqs % m, (1 - 2 * (freqs % 2)) * self.stored)
            return np.fft.ifft(folded, norm="forward")
        raise InvalidInputError("pointwise evaluation undefined for this kind")


@dataclass(frozen=True)
class DiagonalSymbol:
    """Fourier multiplier n -> amplitude (1 + n^2)^{order/2} on the circle.

    Its section at smoothness s is diagonal, with entries
    amplitude (1 + n^2)^{order/2 - s}. Order one models a boundary operator
    of derivative order one, whose entries never decay for s <= 1/2: the
    control the gate must classify as non-compact.
    """

    order: float
    amplitude: complex = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.order) and np.isfinite(complex(self.amplitude))):
            raise InvalidInputError("symbol order and amplitude must be finite")

    @property
    def label(self) -> str:
        return f"symbol(order={float(self.order)!r},c={fmt_complex(complex(self.amplitude))})"

    def section_entries(self, scale: SobolevScale, n_cut: int) -> np.ndarray:
        """Diagonal of the section at cutoff n_cut, frequencies -N..N."""
        n = np.arange(-n_cut, n_cut + 1, dtype=float)
        return self.amplitude * (1.0 + n * n) ** (self.order / 2 - scale.s)


# ---------------------------------------------------------------------------
# Sections


def _toeplitz_windows(data: np.ndarray, size: int):
    """Toeplitz and Hankel views of centred data c(1 - size..size - 1).

    T[i, j] = c(i - j) and H[i, j] = c(i + j - (size - 1)), for i, j = 0..size-1:
    strided views of the data, no index array and no copy.
    """
    windows = np.lib.stride_tricks.sliding_window_view
    # row i of the windows of the reversed data, read bottom up, is c(i - j)
    return windows(data[::-1], size)[::-1], windows(data, size)


def _weighted_toeplitz(data: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The section c(i - j) / (w_i w_j) of centred data c(-2N..2N), 64 rows at a time."""
    size = w.size
    toeplitz, _ = _toeplitz_windows(data, size)
    section = np.empty((size, size), dtype=data.dtype)
    for lo in range(0, size, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        np.divide(toeplitz[rows], np.outer(w[rows], w), out=section[rows])
    return section


def multiplier_section(
    coef: ImpedanceCoefficient, scale: SobolevScale, n_cut: int, coeffs=None
) -> np.ndarray:
    """Weighted Toeplitz section of the multiplication action, size 2N+1.

    The section is float64 when the coefficient array is real, complex
    otherwise. Its entries are c(m - n) / (w_m w_n), so it is exactly
    symmetric for real even data, and S_N is the central block of S_N'.
    """
    if n_cut < 1:
        raise InvalidInputError("section cutoff must be at least 1")
    if coeffs is None:
        coeffs = coef.fourier_coeffs(2 * n_cut)
    coeffs = np.asarray(coeffs)
    coeffs = coeffs.astype(np.result_type(coeffs, float), copy=False)
    center = (coeffs.size - 1) // 2
    if center < 2 * n_cut:
        raise InvalidInputError("coefficient array too short for this section")
    return _weighted_toeplitz(
        coeffs[center - 2 * n_cut : center + 2 * n_cut + 1],
        scale.weight(np.arange(-n_cut, n_cut + 1)),
    )


# ---------------------------------------------------------------------------
# Compactness gate


def _corner_block(section: np.ndarray, n_cut: int) -> np.ndarray:
    idx = np.arange(-n_cut, n_cut + 1)
    mask = np.abs(idx) > n_cut // 2
    return section[np.ix_(mask, mask)]


def _reorthogonalize(vector: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove the span of the orthonormal rows of basis, in two passes.

    The coefficients conj(basis) vector are taken as conj(basis conj(vector)):
    conjugation only flips signs, so these are the same numbers, and only the
    vector is conjugated, not the basis.
    """
    for _ in range(2):
        vector = vector - basis.T @ (basis @ vector.conj()).conj()
    return vector


def _golub_kahan_norm(apply, adjoint, dim: int, dtype):
    """Spectral norm of a square operator given by its products, and the steps.

    Golub-Kahan-Lanczos bidiagonalization S V_k = U_k B_k, with B_k upper
    bidiagonal (alpha on the diagonal, beta above it) and both bases fully
    reorthogonalized. The top eigenpair (theta, y) of the tridiagonal
    B_k^H B_k is a Ritz pair of S^H S with residual norm beta_k |alpha_k y_k|;
    theta is accepted once that is at most 4 eps theta. Past a budget of
    max(32, dim // 8) steps it gives up and returns (None, None). The caller
    scales S by a power of two so that the squares of alpha and beta neither
    overflow nor underflow.
    """
    budget = max(32, dim // 8)
    eps = np.finfo(float).eps
    # the bases grow by one row of length dim per step; no dim x dim array.
    # A real operator keeps them real: its recurrence from a real start
    # vector never leaves the reals
    right = np.empty((budget + 1, dim), dtype=dtype)
    left = np.empty((budget, dim), dtype=dtype)
    alphas, betas = np.zeros(budget), np.zeros(budget)
    # B_k^H B_k grows by one row per step; eigh reads only the lower triangle
    tri = np.zeros((budget, budget))
    start = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
    right[0] = start / np.linalg.norm(start)
    for k in range(budget):
        u = apply(right[k])
        if k:
            u -= betas[k - 1] * left[k - 1]
            u = _reorthogonalize(u, left[:k])
        alpha = alphas[k] = np.linalg.norm(u)
        beta = 0.0
        if alpha > 0:
            left[k] = u / alpha
            v = adjoint(left[k]) - alpha * right[k]
            v = _reorthogonalize(v, right[: k + 1])
            beta = np.linalg.norm(v)
        tri[k, k] = alphas[k] * alphas[k]
        if k:
            tri[k, k] += betas[k - 1] * betas[k - 1]
            tri[k, k - 1] = alphas[k - 1] * betas[k - 1]
        theta, y = np.linalg.eigh(tri[: k + 1, : k + 1])
        if beta * abs(alpha * y[k, k]) <= 4.0 * eps * theta[k]:
            return math.sqrt(theta[k]), k + 1
        betas[k] = beta
        right[k + 1] = v / beta
    return None, None


def _largest_part_exponent(array: np.ndarray) -> int:
    """e with 2^e <= m < 2^(e + 1), m the largest real or imaginary part.

    Unlike the modulus, a part cannot overflow.
    """
    parts = (array.real, array.imag) if np.iscomplexobj(array) else (array,)
    top = max(max(part.max(), -part.min()) for part in parts)
    return int(np.frexp(top)[1]) - 1


def _over_power_of_two(array: np.ndarray, e: int) -> np.ndarray:
    """array / 2^e, exact in floating point; at e = 0 the array itself.

    Two products, since 2^-e alone overflows for subnormal entries.
    """
    if e:
        array = array * 2.0 ** -(e // 2)
        array *= 2.0 ** (e // 2 - e)
    return array


def _largest_singular_value(section: np.ndarray):
    """Spectral norm of a square section and the Lanczos steps it took.

    Golub-Kahan-Lanczos (_golub_kahan_norm) on the section divided by the
    power of two at or below its largest real or imaginary part, so the
    step count does not depend on its scale. Past the step budget the dense
    SVD answers instead, and the step count is None.
    """
    e = _largest_part_exponent(section)
    section = _over_power_of_two(section, e)
    norm, steps = _golub_kahan_norm(
        lambda x: section @ x,
        # S^H u without forming S^H
        lambda u: (u.conj() @ section).conj(),
        section.shape[0],
        section.dtype,
    )
    if steps is None:
        norm = float(np.linalg.svd(section, compute_uv=False)[0])
    return 2.0**e * norm, steps


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c at or above n: a length the FFT transforms fast."""
    best = 1 << (n - 1).bit_length()
    five = 1
    while five < best:
        odd = five
        while odd < best:
            # odd times the smallest power of two that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _circulant_products(data: np.ndarray, w: np.ndarray):
    """x -> S x, x -> S^H x and max |fft(col)| for the section of data c(-2N..2N).

    The section is S = D^-1 T D^-1 with D = diag(w) and T[i, j] = c(i - j).
    T is the leading block of the circulant C of length L >= 4N + 1 whose
    first column col holds c(0..2N), zeros and c(-2N..-1), so T x is the
    head of C [x; 0] = ifft(fft(col) fft([x; 0])), and T^H x that of the
    same product with conj(fft(col)) (Chan and Ng, SIAM Rev. 38, 1996): one
    FFT of the data, then two of length L per product, in real arithmetic
    for real data.
    """
    size = w.size
    n_cut = (size - 1) // 2
    length = _fft_length(2 * size - 1)
    column = np.zeros(length, dtype=data.dtype)
    column[: 2 * n_cut + 1] = data[2 * n_cut :]
    column[length - 2 * n_cut :] = data[: 2 * n_cut]
    if np.iscomplexobj(data):
        forward, inverse = np.fft.fft, np.fft.ifft
    else:
        forward, inverse = np.fft.rfft, np.fft.irfft
    spectrum = forward(column)

    def product(eigenvalues):
        return lambda x: inverse(eigenvalues * forward(x / w, length), length)[:size] / w

    return product(spectrum), product(spectrum.conj()), np.abs(spectrum).max()


def _toeplitz_largest_singular_value(data: np.ndarray, w: np.ndarray, dense: bool = False):
    """Spectral norm of the section of centred data c(-2N..2N), and the steps.

    Golub-Kahan-Lanczos with the circulant products, run on the data over
    the power of two at or below the largest part of a section entry, as
    for a dense section. Past the step budget the section is built and its
    dense SVD answers, with step count None; with dense set (an earlier
    cutoff ran past it) the SVD answers at once. A product is exact to about
    eps max|fft(col)| ||x||, so where that maximum exceeds FFT_SPREAD ||S||
    (data whose mass sits behind large weights) the section is built and
    the dense Lanczos run answers instead.
    """
    if dense:
        return float(np.linalg.svd(_weighted_toeplitz(data, w), compute_uv=False)[0]), None
    n_cut = (w.size - 1) // 2
    # the largest part of a section entry: per diagonal k the entry of the
    # middle column (|k| <= N) or of the first or last row (|k| > N) has the
    # smallest weight product, but at |k| = 2, where the smallest is
    # (5/4)^{s/2} below it; a scale, not a result
    k = np.abs(np.arange(-2 * n_cut, 2 * n_cut + 1))
    near = np.minimum(k, n_cut)
    e = _largest_part_exponent(data / (w[n_cut + near] * w[n_cut + k - near]))
    scaled = _over_power_of_two(data, e)
    apply, adjoint, spread = _circulant_products(scaled, w)
    # an infinite spread, possible only near the overflow of the weights,
    # would make the products infinite
    if np.isfinite(spread):
        norm, steps = _golub_kahan_norm(apply, adjoint, w.size, scaled.dtype)
        if steps is None:
            section = _weighted_toeplitz(scaled, w)
            return 2.0**e * float(np.linalg.svd(section, compute_uv=False)[0]), None
        if spread <= FFT_SPREAD * norm:
            return 2.0**e * norm, steps
    return _largest_singular_value(_weighted_toeplitz(data, w))


def _toeplitz_hermitian_part_minimum(data: np.ndarray, w: np.ndarray) -> float:
    """min eig (S + S^H)/2 for the section S of centred data c(-2N..2N).

    S is persymmetric (J S J = S^T, J the exchange matrix), so H = (S + S^H)/2
    is centro-Hermitian (J H J = conj(H)) and unitarily similar to the real
    symmetric U^H H U = Re H - Im(H J), U = (I + i J)/sqrt(2). H is the
    section of h(k) = (c(k) + conj c(-k))/2, and that real form is the
    Toeplitz-minus-Hankel F[i, j] = (Re h(i - j) - Im h(i + j)) / (w_i w_j),
    built from strided windows of h 64 rows at a time. The data are halved
    before adding and each part is divided by the weights before the
    subtraction, so no sum of finite numbers overflows.
    """
    half = data / 2.0
    h = half + half[::-1].conj()
    size = w.size
    toeplitz, _ = _toeplitz_windows(h.real, size)
    _, hankel = _toeplitz_windows(h.imag, size) if np.iscomplexobj(h) else (None, None)
    form = np.empty((size, size))
    for lo in range(0, size, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        weights = np.outer(w[rows], w)
        np.divide(toeplitz[rows], weights, out=form[rows])
        if hankel is not None:
            form[rows] -= hankel[rows] / weights
    return float(np.linalg.eigvalsh(form)[0])


def _even_odd_split(a: np.ndarray, bj: np.ndarray, middle=None) -> np.ndarray:
    """Eigenvalues, unsorted, of a real symmetric S with J S J = S, from blocks.

    For S of order n, m = n // 2: A is the leading m x m block, B J the first
    m rows of the last m columns read right to left, and middle, for odd n,
    the pair (x, s_mm), x the first m entries of the middle row. The even
    vectors [u; t; J u] and the odd vectors [u; 0; -J u] split S into
    [[A + B J, sqrt(2) x], [sqrt(2) x^T, s_mm]] and A - B J: two half-size
    solves (Cantoni and Butler, Linear Algebra Appl. 13, 1976).
    """
    m = a.shape[0]
    size = m if middle is None else m + 1
    even = np.empty((size, size))
    np.add(a, bj, out=even[:m, :m])
    if middle is not None:
        x, diagonal = middle
        even[m, :m] = even[:m, m] = math.sqrt(2.0) * x
        even[m, m] = diagonal
    return np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(a - bj)])


def _divided(block, w_rows, w_cols, real: bool) -> np.ndarray:
    """block / (w_rows w_cols^T) in the arithmetic of the block, as a section
    divides it; its real part where the data are real."""
    out = np.divide(block, np.outer(w_rows, w_cols))
    return out.real if real else out


def _coefficient_cutoff(coeffs, scale: SobolevScale, n_cut: int, dense: bool, last: bool):
    """The gate's numbers for the section of centred coefficients coeffs.

    Returns (||S||, Lanczos steps or None, corner singular values largest
    first, dense, (min eig herm(S), its arithmetic) or None); dense is set
    once a cutoff runs past the Lanczos budget. Reads the central slice
    c(-2N..2N) of the coefficients and the weights w_{-N..N}: with finite
    data and weights of finite square every entry is finite, so no entry is
    tested. The section is built only for Hermitian complex data, whose
    eigensolves run on it, and where the norm falls back on a dense route.
    Every entry that reaches a decomposition is divided as multiplier_section
    divides it, so the corner and the even and odd halves are bitwise those
    of the section.
    """
    center = (coeffs.size - 1) // 2
    data = coeffs[center - 2 * n_cut : center + 2 * n_cut + 1]
    w = scale.weight(np.arange(-n_cut, n_cut + 1))
    r = n_cut - n_cut // 2
    real = np.isrealobj(data) or not data.imag.any()
    # c(-k) = conj c(k) makes the section Hermitian: its mirrored entries
    # are the same divisions of the same numbers
    hermitian = np.array_equal(data.real, data.real[::-1]) and (
        real or np.array_equal(data.imag, -data.imag[::-1])
    )
    toeplitz, hankel = _toeplitz_windows(data, w.size)
    if not hermitian:
        full, steps = _toeplitz_largest_singular_value(data.real if real else data, w, dense)
        # the corner's rows and columns are the first and the last r
        outer = np.concatenate((w[:r], w[-r:]))
        corner = _divided(_corner_block(toeplitz, n_cut), outer, outer, real)
        sig = np.linalg.svd(corner, compute_uv=False)
        # a coefficient section is persymmetric: its Hermitian part has a real form
        defect = (_toeplitz_hermitian_part_minimum(data, w), "real") if last else None
        return full, steps, sig, steps is None, defect
    if real:
        # real and even data: J S J = S, with A the leading N x N block of
        # the Toeplitz part and B J that of the Hankel part c(i + j - 2N);
        # the corner's halves are their leading r x r blocks
        a = _divided(toeplitz[:n_cut, :n_cut], w[:n_cut], w[:n_cut], real)
        bj = _divided(hankel[:n_cut, :n_cut], w[:n_cut], w[:n_cut], real)
        row = _divided(toeplitz[n_cut, : n_cut + 1], 1.0, w[: n_cut + 1], real)[0]
        eigs = _even_odd_split(a, bj, (row[:n_cut], row[n_cut]))
        corner = _even_odd_split(a[:r, :r], bj[:r, :r])
    else:
        section = _weighted_toeplitz(data, w)
        eigs = np.linalg.eigvalsh(section)
        corner = np.linalg.eigvalsh(_corner_block(section, n_cut))
    # singular values of a Hermitian matrix are the moduli of its
    # eigenvalues; the corner is a principal block, so Hermitian too, and
    # herm(S) = S
    defect = (float(eigs.min()), "real" if real else "complex") if last else None
    return max(-eigs.min(), eigs.max()), None, np.sort(np.abs(corner))[::-1], dense, defect


def _symbol_cutoff(symbol: DiagonalSymbol, scale: SobolevScale, n_cut: int, last: bool):
    """The gate's numbers for a diagonal section in closed form: its singular
    values are the moduli of its entries, its Hermitian part their real parts."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = symbol.section_entries(scale, n_cut)
        moduli = np.abs(d)
    corner = np.abs(np.arange(-n_cut, n_cut + 1)) > n_cut // 2
    defect = (float(d.real.min()), "real") if last else None
    return moduli.max(), None, np.sort(moduli[corner])[::-1], False, defect


def compactness_gate(
    target,
    s: float = 0.5,
    schedule=DEFAULT_SCHEDULE,
    label: str = None,
) -> CompactnessReport:
    """Classify a boundary action as compact, non-compact, or inconclusive.

    target is an ImpedanceCoefficient, read from its Fourier data and the
    weights without a dense section where none is needed, or a DiagonalSymbol,
    read in closed form. The indicator at each cutoff is the spectral norm of
    the high-frequency corner relative to the full section; a decaying
    indicator certifies the finite sections are norm-approximated by
    low-frequency blocks, the numerical shadow of compactness.
    """
    scale = SobolevScale(s)
    schedule = tuple(int(n) for n in schedule)
    if len(schedule) < 2 or any(
        b <= a for a, b in zip(schedule[:-1], schedule[1:])
    ):
        raise InvalidInputError("schedule must be strictly increasing, length >= 2")
    if schedule[0] < 1:
        raise InvalidInputError(f"section cutoff must be at least 1, got {schedule[0]}")
    if schedule[-1] > MAX_SECTION_CUTOFF:
        raise InvalidInputError(
            f"section cutoff {schedule[-1]} exceeds the cap {MAX_SECTION_CUTOFF}"
        )
    # past this every section entry underflows to 0 and the verdict is vacuous
    with np.errstate(over="ignore"):
        top_weight = scale.weight(schedule[-1]) ** 2
    if not np.isfinite(top_weight):
        raise InvalidInputError(
            f"smoothness index s={s:g} overflows the weights at cutoff {schedule[-1]}"
        )

    coeffs = None
    if isinstance(target, ImpedanceCoefficient):
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = target.fourier_coeffs(2 * schedule[-1])
        if not np.isfinite(coeffs).all():
            raise InvalidInputError(f"Fourier coefficients of {target.label} overflow")
        if not coeffs.imag.any():
            coeffs = coeffs.real
    elif not isinstance(target, DiagonalSymbol):
        raise InvalidInputError("gate target must be a coefficient or a diagonal symbol")
    label = label or target.label

    indicators, norms, corner_sigmas, norm_steps = [], [], {}, []
    dense = False  # set once a cutoff runs past the Lanczos budget
    for n_cut in schedule:
        last = n_cut == schedule[-1]
        if coeffs is None:
            cut = _symbol_cutoff(target, scale, n_cut, last)
        else:
            cut = _coefficient_cutoff(coeffs, scale, n_cut, dense, last)
        full, steps, sig, dense, defect = cut
        # the indicator is scale-invariant, but an overflowed norm reads as 0
        if not (np.isfinite(full) and np.isfinite(sig).all()):
            raise InvalidInputError(f"section norm at cutoff {n_cut} overflows")
        norms.append(float(full))
        norm_steps.append(steps)
        indicators.append(float(sig[0] / full) if full > 0 else 0.0)
        # below dim * eps * sigma_1 a corner singular value is rounding noise
        top = sig[:16].astype(float)
        top[top < sig.size * np.finfo(float).eps * top[0]] = 0.0
        corner_sigmas[n_cut] = top

    t = indicators
    monotone = all(b <= MONOTONE_SLACK * a + 1e-15 for a, b in zip(t[:-1], t[1:]))
    doublings = max(len(t) - 1, 1)
    rate = (t[-1] / t[0]) ** (1.0 / doublings) if t[0] > 0 else 0.0
    if monotone and (
        t[-1] < THETA_COMPACT or (rate <= RATE_COMPACT and t[-1] < THETA_NONCOMPACT)
    ):
        verdict = "compact"
    elif min(t) >= THETA_NONCOMPACT:
        verdict = "noncompact"
    else:
        verdict = "inconclusive"

    re_defect, arithmetic = defect
    if not np.isfinite(re_defect):
        raise InvalidInputError("smallest eigenvalue of the Hermitian part overflows")

    return CompactnessReport(
        label=label,
        s=s,
        schedule=schedule,
        indicators=indicators,
        section_norms=norms,
        corner_sigmas=corner_sigmas,
        verdict=verdict,
        re_defect=re_defect,
        thresholds={
            "theta_compact": THETA_COMPACT,
            "theta_noncompact": THETA_NONCOMPACT,
            "monotone_slack": MONOTONE_SLACK,
            "rate_compact": RATE_COMPACT,
        },
        metadata={"norm_steps": norm_steps, "re_defect_arithmetic": arithmetic},
    )


def lq_report(coef: ImpedanceCoefficient, s: float = 0.5, q: float = 2.0) -> dict:
    """Integrability-based sufficient condition for a compact multiplier.

    The hypothesis asks the coefficient to be q-integrable with q above
    max((d-1)/(2s), 1) for a d-dimensional interior; on the circle d = 2.
    """
    scale = SobolevScale(s)  # validates s
    if not q >= 1:
        raise InvalidInputError("integrability exponent q must be >= 1")
    requirement = max((AMBIENT_DIM - 1) / (2.0 * scale.s), 1.0)
    norm = coef.lq_norm(q)
    finite = bool(np.isfinite(norm))
    applies = bool(finite and q > requirement)
    return {
        "label": coef.label,
        "s": s,
        "q": q,
        "ambient_dim": AMBIENT_DIM,
        "exponent_requirement": requirement,
        "lq_norm": norm if finite else "inf",
        "finite": finite,
        "theorem_applies": applies,
        "predicts_compact": applies,
    }
