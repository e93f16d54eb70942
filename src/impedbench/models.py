"""Closed-form and semi-analytic acoustic eigenvalue models.

Two concrete resonators anchor the matrix experiments to continuum
predictions: a unit string with one damped end, whose eigenvalues come from
a single complex logarithm, and the unit disk with an impedance rim, whose
eigenvalues are roots of a combination of a cylinder function and its
derivative. The cylinder function is evaluated in-house (one backward
recurrence for every argument, the leading power term at the origin) so the
root finder does not lean on the libraries it is being checked against;
library routines appear only in the test suite as oracles.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .reports import ModeEntry, SpectrumReport

# Beyond this modulus the backward recurrence start order grows past what a
# desk-scale run needs; inputs are rejected instead of silently degrading.
BESSEL_ARG_CAP = 200.0
MAX_BESSEL_ORDER = 60
# largest angular order of a disk sector
MAX_SECTOR_ORDER = 20

CRITICAL_MATCH_TOL = 1e-13
# string residuals are relative to the size of the characteristic's terms
STRING_RESIDUAL_TOL = 1e-10
# The rounding of a double lam alone leaves a residual near 5e-17 |lam|, so
# the gate would fail from |lam| near 2e6 on. At this count (|lam| < 3.2e5)
# `string --zeta 0.5` took 1.0 s with a largest residual of 1.5e-11.
MAX_STRING_COUNT = 100000
# seeds the outward nudges of a search box whose contour hits a zero
BOX_NUDGE_SEED = 20240801
# contour points of the outer search box and of every bisected box; a count
# may refine to 4x as many
OUTER_SAMPLES = 2048
INNER_SAMPLES = 1024
# the recurrence factors 2k + 0j of _bessel_table as scalars, past the
# highest seed order (264) of a point within the argument cap
_STEP_FACTORS = list(2.0 * np.arange(266) + 0j)


# ---------------------------------------------------------------------------
# Damped string


@dataclass(frozen=True)
class StringSpec:
    """Unit string, fixed left end, impedance load zeta at the right end."""

    zeta: complex

    def __post_init__(self):
        z = complex(self.zeta)
        # the hypot is nan or inf for a non-finite zeta, and inf where |zeta|
        # overflows, which the residual scaling and the polish would meet
        if not math.isfinite(math.hypot(z.real, z.imag)):
            raise InvalidInputError("string impedance must be finite, with a finite modulus")

    @property
    def critically_damped(self) -> bool:
        return abs(complex(self.zeta) - 1.0) < CRITICAL_MATCH_TOL


def string_characteristic(spec: StringSpec, lam) -> np.ndarray:
    """i zeta sin(lam) - cos(lam); its zeros are the string eigenvalues."""
    lam = np.asarray(lam, dtype=complex)
    return 1j * complex(spec.zeta) * np.sin(lam) - np.cos(lam)


def string_spectrum(spec: StringSpec, count: int = 10) -> SpectrumReport:
    """First eigenvalues with positive real part, by the exact formula.

    The characteristic equation collapses to exp(2 i lam) = (zeta+1)/(zeta-1),
    so eigenvalues form a single arithmetic ladder with step pi. At zeta = 1
    the right side degenerates and the spectrum is empty (every mode leaves
    through the boundary in finite time); the report records that as
    critical damping instead of inventing modes. At zeta = -1, its time
    reverse, the right side is 0, the characteristic is -exp(i lam), and the
    spectrum is empty too. The ratio is formed as 1 + 2/(zeta-1), which
    stays finite for every finite zeta.
    """
    if not 1 <= count <= MAX_STRING_COUNT:
        raise InvalidInputError(f"count must be between 1 and {MAX_STRING_COUNT}")
    zeta = complex(spec.zeta)
    meta = {
        "model": "string",
        "zeta": [zeta.real, zeta.imag],
        "count": count,
        "critically_damped": spec.critically_damped,
    }
    if spec.critically_damped or abs(zeta + 1.0) < CRITICAL_MATCH_TOL:
        return SpectrumReport("string", [], metadata=meta)

    base = cmath.log(1.0 + 2.0 / (zeta - 1.0)) / 2j
    # shift the ladder so reported modes start just above Re = 0
    start = int(np.ceil((1e-12 - base.real) / np.pi))
    entries = []
    for k in range(start, start + count):
        lam = base + k * np.pi
        lam = _newton_polish_string(spec, lam)
        residual = abs(string_characteristic(spec, lam))
        # |sin|, |cos| <= max |e^{+-i lam}|, and zeta multiplies sin
        scale = max(abs(np.exp(complex(0, 1) * lam)), abs(np.exp(complex(0, -1) * lam)))
        residual = float(residual / max(scale, 1.0) / max(abs(zeta), 1.0))
        if not residual <= STRING_RESIDUAL_TOL:
            raise NumericalFailureError(
                f"string mode at {lam:.6g} has residual {residual:.3e} above "
                f"{STRING_RESIDUAL_TOL:g}"
            )
        entries.append(
            ModeEntry(
                re_lambda=float(lam.real),
                im_lambda=float(lam.imag),
                residual=residual,
                mode_tag="string",
            )
        )
    return SpectrumReport("string", entries, metadata=meta)


def _newton_polish_string(spec: StringSpec, lam: complex) -> complex:
    zeta = complex(spec.zeta)
    for _ in range(8):
        f = 1j * zeta * cmath.sin(lam) - cmath.cos(lam)
        df = 1j * zeta * cmath.cos(lam) + cmath.sin(lam)
        if abs(df) == 0:
            break
        step = f / df
        lam = lam - step
        if abs(step) < 1e-15 * max(abs(lam), 1.0):
            break
    return lam


# ---------------------------------------------------------------------------
# Cylinder functions


def _bessel_table(m_max: int, z: np.ndarray) -> np.ndarray:
    """J_m(z) for m = 0..m_max over a flat complex array.

    Every point with |z| >= 1e-8 runs the three-term recurrence downward
    from an order well above both m_max and |z| (Miller), then rescales
    against one of two even-order sum rules: J_0 + 2 J_2 + 2 J_4 + ... = 1
    away from the real axis is a sum of e^{|Im z|}-sized terms collapsing to
    1, so off-axis points instead use J_0 - 2 J_2 + 2 J_4 - ... = cos z,
    whose value is as large as its terms. Rescaling guards keep the
    unnormalized sweep in double range. Each point has its own start order
    and rescaling, so its value does not depend on the other points of the
    array: the points run in order of falling start order, each is seeded
    once at its own start, and a step touches only the points already
    started. Below 1e-8 the sweep, which divides by z, gives way to the
    leading term (z/2)^m / m!, exact at z = 0 and within
    |z|^2 / (4 (m + 1)) relative elsewhere (docs/derivations.md section 10).
    """
    if m_max < 0 or m_max > MAX_BESSEL_ORDER:
        raise InvalidInputError(f"order must lie in 0..{MAX_BESSEL_ORDER}")
    z = np.asarray(z, dtype=complex).ravel()
    mag = np.abs(z)
    if z.size and mag.max() > BESSEL_ARG_CAP:
        raise InvalidInputError(
            f"cylinder function argument exceeds the workbench cap {BESSEL_ARG_CAP:g}"
        )
    out = np.empty((m_max + 1, z.size), dtype=complex)
    tiny = mag < 1e-8
    if tiny.any():
        half = z[tiny] / 2.0
        for m in range(m_max + 1):
            out[m, tiny] = half**m / float(math.factorial(m))
    swept = ~tiny
    if not swept.any():
        return out
    z, mag = z[swept], mag[swept]

    start = np.maximum((mag + 12 + 9 * mag ** (1.0 / 3.0)).astype(int), m_max + 12)
    start += start % 2
    size = z.size
    top = int(start.max())
    cols = swept
    if start.min() == top:
        live_from = {top: size}
    else:
        # points run in order of falling start, so the ones whose recurrence
        # has begun are a prefix of the work arrays; live_from[k] is its
        # length from step k on
        by_start = np.argsort(-start, kind="stable")
        z, start = z[by_start], start[by_start]
        cols = np.flatnonzero(swept)[by_start]
        firsts, counts = np.unique(start, return_counts=True)
        live_from = dict(zip(firsts[::-1].tolist(), np.cumsum(counts[::-1]).tolist()))
    factors = (2.0 * np.arange(top + 1) + 0j).reshape(-1, 1)  # 2k, as the scalar casts
    two = factors[1]
    jp = np.zeros(size, dtype=complex)
    jc = np.empty(size, dtype=complex)
    jn = np.empty(size, dtype=complex)
    term = np.empty(size, dtype=complex)
    parts = np.empty(2 * size)
    rows = np.zeros((m_max + 1, size), dtype=complex)
    norm_one = np.zeros(size, dtype=complex)
    norm_cos = np.zeros(size, dtype=complex)
    # bound_c bounds |J| over the running points and bound_p one order up; a
    # step grows it by at most 2k / min|z|, the factor 1 + 1e-12 covers
    # rounding, and no point is tested for rescaling until it passes 1e250
    # (docs/derivations.md section 10)
    growth = 2.0 / float(mag.min())
    bound_c = bound_p = 0.0
    live = 0
    for k in range(top, 0, -1):
        grown = live_from.get(k)
        if grown is not None:
            # seed the points whose recurrence starts at this step, once
            jp[live:grown] = 0.0
            jc[live:grown] = 1e-200
            live = grown
            zv, pv, cv, nv = z[:live], jp[:live], jc[:live], jn[:live]
            tv, fv, one_v, cos_v = term[:live], parts[: 2 * live], norm_one[:live], norm_cos[:live]
            bound_c = max(bound_c, 1e-200)
        np.multiply(factors[k], cv, nv)
        np.divide(nv, zv, nv)
        np.subtract(nv, pv, nv)
        jp, jc, jn = jc, jn, jp
        pv, cv, nv = cv, nv, pv
        bound_c, bound_p = (k * growth * bound_c + bound_p) * (1.0 + 1e-12), bound_c
        order = k - 1
        if order <= m_max:
            rows[order] = cv
        if order % 2 == 0:
            t = np.multiply(two, cv, tv) if order else cv
            np.add(one_v, t, one_v)
            (np.subtract if (order // 2) % 2 else np.add)(cos_v, t, cos_v)
        if bound_c > 1e250:
            # tighten the bound to 1.5 (> sqrt 2) times the largest real or
            # imaginary part; only then test each point
            bound_c = 1.5 * float(np.abs(cv.view(float), out=fv).max())
            if bound_c > 1e250:
                big = np.abs(cv) > 1e250
                if big.any():
                    cv[big] *= 1e-250
                    pv[big] *= 1e-250
                    one_v[big] *= 1e-250
                    cos_v[big] *= 1e-250
                    rows[:, :live][:, big] *= 1e-250
    off_axis = np.abs(z.imag) > 1.0
    scaled_cos = np.where(off_axis, np.cos(z), 1.0)
    norm = np.where(off_axis, norm_cos / scaled_cos, norm_one)
    if (np.abs(norm) < 1e-280).any():
        raise NumericalFailureError("cylinder recurrence normalization collapsed")
    out[:, cols] = rows / norm
    return out


def _bessel_column(m_max: int, z) -> list:
    """J_0..J_{m_max} at one point z, as numpy complex128 scalars.

    _bessel_table's column at z, bit for bit: the sweep runs the table's
    operations in its order (seed, recurrence, both sum rules, bound and
    rescale guards, normalizer) on scalars, without the ufunc dispatch that
    dominates a one-point table (docs/derivations.md section 10). Below
    |z| = 1e-8 the table's leading term serves, as it does in the table.
    """
    if m_max < 0 or m_max > MAX_BESSEL_ORDER:
        raise InvalidInputError(f"order must lie in 0..{MAX_BESSEL_ORDER}")
    z = np.complex128(z)
    mag = abs(z)
    if mag > BESSEL_ARG_CAP:
        raise InvalidInputError(
            f"cylinder function argument exceeds the workbench cap {BESSEL_ARG_CAP:g}"
        )
    if mag < 1e-8:
        # the leading term from the table itself: its array power and a
        # scalar one can differ in the sign of a zero
        return list(_bessel_table(m_max, np.array([z]))[:, 0])
    start = max(int(mag + 12 + 9 * mag ** (1.0 / 3.0)), m_max + 12)
    start += start % 2
    two = _STEP_FACTORS[1]
    jp, jc = np.complex128(0.0), np.complex128(1e-200)
    rows = [jp] * (m_max + 1)
    norm_one = norm_cos = jp
    growth = 2.0 / float(mag)
    bound_c, bound_p = 1e-200, 0.0
    for k in range(start, 0, -1):
        jp, jc = jc, _STEP_FACTORS[k] * jc / z - jp
        bound_c, bound_p = (k * growth * bound_c + bound_p) * (1.0 + 1e-12), bound_c
        order = k - 1
        if order <= m_max:
            rows[order] = jc
        if order % 2 == 0:
            t = two * jc if order else jc
            norm_one = norm_one + t
            norm_cos = norm_cos - t if (order // 2) % 2 else norm_cos + t
        if bound_c > 1e250:
            bound_c = 1.5 * float(max(abs(jc.real), abs(jc.imag)))
            if bound_c > 1e250 and abs(jc) > 1e250:
                # through the table's array product: where a part underflows,
                # its sign of zero can differ from a scalar product's
                jc, jp, norm_one, norm_cos, *rows = (
                    np.array([jc, jp, norm_one, norm_cos, *rows]) * 1e-250
                )
    norm = norm_cos / np.cos(z) if abs(z.imag) > 1.0 else norm_one
    if abs(norm) < 1e-280:
        raise NumericalFailureError("cylinder recurrence normalization collapsed")
    return [r / norm for r in rows]


def _order(table: np.ndarray, k: int) -> np.ndarray:
    """J_k for any integer k from a table of orders 0..|k|, by the reflection
    J_{-k} = (-1)^k J_k."""
    row = table[abs(k)]
    return -row if k < 0 and k % 2 else row


def _derivative(table: np.ndarray, k: int) -> np.ndarray:
    """J_k' = (J_{k-1} - J_{k+1}) / 2 from a table of orders 0..|k|+1."""
    return (_order(table, k - 1) - _order(table, k + 1)) / 2.0


# ---------------------------------------------------------------------------
# Disk with impedance rim


@dataclass(frozen=True)
class DiskModeProblem:
    """Angular sector m of the unit disk with rim impedance zeta.

    Eigenvalues solve i zeta J_m(lam) - J_m'(lam) = 0; the zeta = 0 case
    reduces to the classical rigid-rim condition J_m'(lam) = 0.
    """

    m: int
    zeta: complex

    def __post_init__(self):
        if self.m < 0 or self.m > MAX_SECTOR_ORDER:
            raise InvalidInputError(f"angular order must lie in 0..{MAX_SECTOR_ORDER}")

    def _jet(self, lam):
        """J_m, J_m' and J_m'' at the one point lam, from its column."""
        column = _bessel_column(self.m + 2, lam)
        m = self.m
        jm = column[m]
        jpp = (_order(column, m - 2) - 2.0 * jm + column[m + 2]) / 4.0
        return jm, _derivative(column, m), jpp

    @cached_property
    def scale(self) -> float:
        """2^-e with max(1, |Re zeta|, |Im zeta|) < 2^e; char comes times it, exact, finite."""
        zeta = complex(self.zeta)
        return 2.0 ** -int(np.frexp(max(1.0, abs(zeta.real), abs(zeta.imag)))[1])

    def char_on(self, table) -> np.ndarray:
        """char at the points of a table of orders 0..m + 1 or more."""
        coef = 1j * (complex(self.zeta) * self.scale)
        return coef * table[self.m] - _derivative(table, self.m) * self.scale

    def char_and_deriv(self, lam):
        """char and its derivative at the one point lam, as complex128 scalars."""
        jm, jp, jpp = self._jet(lam)
        scale = self.scale
        coef = 1j * (complex(self.zeta) * scale)
        # through the array product that char_on takes: for a fully complex
        # coef, numpy's scalar product can differ from it in the last bit
        cm, cp = coef * np.array([jm, jp])
        return cm - jp * scale, cp - jpp * scale


@dataclass(frozen=True)
class SearchBox:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise InvalidInputError("search box edges must be finite")
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise InvalidInputError("search box must have positive extent")

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.re_max - self.re_min, self.im_max - self.im_min))

    def split(self):
        if (self.re_max - self.re_min) >= (self.im_max - self.im_min):
            mid = 0.5 * (self.re_min + self.re_max)
            return (
                SearchBox(self.re_min, mid, self.im_min, self.im_max),
                SearchBox(mid, self.re_max, self.im_min, self.im_max),
            )
        mid = 0.5 * (self.im_min + self.im_max)
        return (
            SearchBox(self.re_min, self.re_max, self.im_min, mid),
            SearchBox(self.re_min, self.re_max, mid, self.im_max),
        )

    def perturbed(self, rng, amount: float) -> "SearchBox":
        d = amount * (1.0 + rng.random(4))
        return SearchBox(
            self.re_min - d[0], self.re_max + d[1], self.im_min - d[2], self.im_max + d[3]
        )


def _boundary_samples(box: SearchBox, n: int) -> np.ndarray:
    """Counterclockwise closed contour along the box edges."""
    per = n // 4
    bottom = np.linspace(box.re_min, box.re_max, per, endpoint=False)
    east = np.linspace(box.im_min, box.im_max, per, endpoint=False)
    topside = np.linspace(box.re_max, box.re_min, per, endpoint=False)
    west = np.linspace(box.im_max, box.im_min, per, endpoint=False)
    return np.concatenate(
        [
            bottom + 1j * box.im_min,
            box.re_max + 1j * east,
            topside + 1j * box.im_max,
            box.re_min + 1j * west,
        ]
    )


class ContourTables:
    """Cylinder tables on the contours of one disk search, shared by its sectors.

    The table over a contour depends on the box, the sample count and the
    highest order read, not on the sector or on zeta, so the sectors
    0..m_max of one search read one table of orders 0..m_max + 2 per
    (box, samples) and sweep each contour once. Create one per search and
    drop it with the search: no table outlives it.
    """

    def __init__(self, m_max: int):
        if not 0 <= m_max <= MAX_SECTOR_ORDER:
            raise InvalidInputError(f"m_max must lie in 0..{MAX_SECTOR_ORDER}")
        self.m_max = int(m_max)
        self.sweep_points = 0  # contour points run through the Miller sweep
        self._tables = {}

    def table(self, box: SearchBox, samples: int) -> np.ndarray:
        """J_0..J_{m_max+2} at _boundary_samples(box, samples)."""
        key = (box, samples)
        if key not in self._tables:
            pts = _boundary_samples(box, samples)
            self._tables[key] = _bessel_table(self.m_max + 2, pts)
            self.sweep_points += pts.size
        return self._tables[key]


def _count_in(char, box: SearchBox, samples: int, rng, work: dict, failure: str):
    """Zeros of an analytic function inside box, by the argument principle.

    char(sub, n) gives the function's values at _boundary_samples(sub, n).

    The contour takes samples points, then 2x and 4x as many, until no phase
    step exceeds 2.5 and the turn is within 0.05 of an integer. A zero on (or
    numerically on) the contour keeps the phase jumping, or underflows; the
    box then moves outward by (attempt + 1) finest sample spacings (longest
    edge / samples), at most five times. A merely tiny |char| is normal: near
    the origin sector m's characteristic is smaller than its contour max by
    ~re_min^m while its phase stays smooth.

    Returns the box the count holds for and the count.
    """
    spacing = max(box.re_max - box.re_min, box.im_max - box.im_min) / samples
    sub = box
    for attempt in range(6):
        for n in (samples, 2 * samples, 4 * samples):
            vals = char(sub, n)
            work["contour_points"] += vals.size
            if not np.all(np.isfinite(vals)) or np.abs(vals).min() <= 1e-300:
                break
            closed = np.append(vals, vals[0])
            with np.errstate(over="ignore", invalid="ignore"):
                turns = np.angle(closed[1:] / closed[:-1])
            # undersampled near a zero, or a quotient overflowed to nan
            if not np.abs(turns).max() <= 2.5:
                continue
            total = turns.sum() / (2.0 * np.pi)
            if abs(total - round(total)) < 0.05:
                work["boxes_counted"] += 1
                return sub, int(round(total))
        if attempt == 5:
            raise NumericalFailureError(failure)
        work["box_nudges"] += 1
        sub = box.perturbed(rng, spacing * (attempt + 1))


def _newton_batch(problem: DiskModeProblem, starts, boxes, work: dict):
    """Newton iterations from every start, each on one-point cylinder columns.

    Iterate i stops when its step falls below 1e-13 max(|lam|, 1), and drops
    out when the derivative vanishes, when it leaves boxes[i] widened by
    2 diameter + 0.5, or when it lies past the cylinder functions' argument
    cap BESSEL_ARG_CAP (a start there never runs); it takes at most 60
    steps. A root is accepted when its residual, relative to max(1, |zeta|)
    because the characteristic carries a factor zeta, is at most 1e-10 and
    it lies in its box: the contour count attributed the zero to that box,
    so a polished point far outside (e.g. the trivial origin zero of higher
    sectors) is a miss. work["newton_steps"] counts the evaluations and
    work["newton_evals"] the steps of the batch run in lockstep, the most
    any iterate took.
    Returns (lam, residual) or None per start.
    """

    def inside(box, z, pad):
        return (
            box.re_min - pad <= z.real <= box.re_max + pad
            and box.im_min - pad <= z.imag <= box.im_max + pad
        )

    lams, kept, evals = [], [], 0
    for i, (lam, box) in enumerate(zip(starts, boxes)):
        lam = np.complex128(lam)
        lams.append(lam)
        if not abs(lam) <= BESSEL_ARG_CAP:
            continue
        slack = 2.0 * box.diameter + 0.5
        for steps in range(1, 61):
            f, df = problem.char_and_deriv(lam)
            if df == 0.0:
                break
            step = f / df
            lam = lam - step
            if not inside(box, lam, slack) or abs(lam) > BESSEL_ARG_CAP:
                break
            if abs(step) < 1e-13 * max(abs(lam), 1.0):
                kept.append(i)
                break
        else:
            kept.append(i)
        lams[i] = lam
        evals = max(evals, steps)
        work["newton_steps"] += steps
    work["newton_evals"] += evals
    out = [None] * len(lams)
    if kept:
        # the columns of the surviving iterates, read as one table
        table = np.array([_bessel_column(problem.m + 2, lams[i]) for i in kept]).T
        scale = problem.scale  # max(1, |zeta|) scale cannot overflow
        resid = np.abs(problem.char_on(table)) / max(scale, abs(complex(problem.zeta) * scale))
        for i, r in zip(kept, resid):
            if r <= 1e-10 and inside(boxes[i], lams[i], 1e-6):
                out[i] = (complex(lams[i]), float(r))
    return out


def _merge_roots(roots, residuals):
    """Roots sorted by (Re, Im), with duplicates found through overlapping
    perturbed sub-boxes merged into one."""
    merged, merged_res = [], []
    for lam, res in sorted(zip(roots, residuals), key=lambda t: (t[0].real, t[0].imag)):
        if merged and abs(lam - merged[-1]) < 1e-6:
            merged_res[-1] = min(merged_res[-1], res)
            continue
        merged.append(lam)
        merged_res.append(res)
    return merged, merged_res


def disk_mode_roots(
    m: int, zeta, box: SearchBox = None, lowest: int = None, tables: ContourTables = None
) -> dict:
    """Characteristic roots of one angular sector inside a search box.

    Counts zeros by the phase winding of the characteristic function along
    the box boundary and bisects until each sub-box holds one (or shrinks
    below 2e-2 around a cluster). Those leaf boxes are then polished together
    by batched Newton steps from their centers, then from three shifted
    starts; a leaf that still fails is bisected further. When a zero sits on
    a contour the box is nudged outward a few times before giving up.

    By default every root in the box is found. With lowest=k only the k roots
    of lowest real part are wanted, and the bisection runs best-first: the
    box of lowest re_min is refined next, each leaf is polished as soon as it
    is isolated, and a box whose re_min exceeds the real part of the k-th
    lowest root polished so far is dropped without being counted. The roots
    returned are then the first k of the full search, bit for bit unless a
    box had to be nudged (see docs/derivations.md section 7).

    Returns the roots sorted by real part, per-root residuals, the count of
    the whole box (expected_count), count_matches and the work done; its
    max_depth is the deepest bisection level of any counted box, the outer
    box being level 0.
    count_matches says that expected_count roots were returned, or
    min(lowest, expected_count) with lowest set.

    tables, the contour tables of a search over sectors up to tables.m_max,
    lets sectors share their contour sweeps; without it the sector sweeps
    its own. Either way the result is the same bit for bit: the counts read
    the contour values, and nothing else does (docs/derivations.md
    section 7).
    """
    if lowest is not None and lowest < 1:
        raise InvalidInputError("lowest must be at least 1")
    problem = DiskModeProblem(m=int(m), zeta=complex(zeta))
    if tables is None:
        tables = ContourTables(problem.m)
    elif problem.m > tables.m_max:
        raise InvalidInputError(
            f"sector {problem.m} exceeds the contour tables' m_max {tables.m_max}"
        )
    if box is None:
        box = SearchBox(0.05, 20.0, -5.0, 0.05)
    rng = np.random.default_rng(BOX_NUDGE_SEED)
    work = dict.fromkeys(
        (
            "contour_points", "boxes_counted", "box_nudges", "newton_evals", "newton_steps",
            "max_depth",
        ),
        0,
    )

    def char(sub, n):
        try:
            table = tables.table(sub, n)
        except InvalidInputError:
            if sub is box:
                raise
            # a nudge carried the contour past the argument cap, where the
            # characteristic is not evaluated: that attempt stays unresolved
            return np.full(n, np.nan)
        return problem.char_on(table)

    outer, expected = _count_in(
        char, box, OUTER_SAMPLES, rng, work,
        "could not move the search contour off a characteristic zero",
    )
    roots, residuals = [], []
    cut = math.inf  # real part of the lowest-th root polished so far
    # a box is counted when it is popped; only the outer box enters counted.
    # Each entry carries its bisection depth, the outer box's being 0.
    stack = [(outer, expected, 0)] if expected else []
    while stack:
        leaves = []
        while stack:
            if lowest is not None:
                # best-first: polish each leaf as soon as it is isolated, and
                # refine the box of lowest re_min next, dropping every box
                # whose roots all lie right of the cut
                if leaves:
                    break
                stack = [item for item in stack if item[0].re_min <= cut]
                stack.sort(key=lambda item: item[0].re_min, reverse=True)
                if not stack:
                    break
            current, count, depth = stack.pop()
            if count is None:
                current, count = _count_in(
                    char, current, INNER_SAMPLES, rng, work,
                    "bisection could not isolate the characteristic zeros",
                )
                work["max_depth"] = max(work["max_depth"], depth)
                if not count:
                    continue
            if count == 1 or current.diameter < 2e-2:
                leaves.append((current, count, depth))
            else:
                stack.extend((piece, None, depth + 1) for piece in current.split())
        boxes = [leaf for leaf, _, _ in leaves]
        got = _newton_batch(problem, [b.center for b in boxes], boxes, work)
        # fall back on a few shifted starts before splitting further
        for shift in (0.3 + 0.2j, -0.25 + 0.1j, 0.1 - 0.3j):
            retry = [i for i, g in enumerate(got) if g is None]
            if not retry:
                break
            again = _newton_batch(
                problem,
                [boxes[i].center + shift * boxes[i].diameter for i in retry],
                [boxes[i] for i in retry],
                work,
            )
            for i, g in zip(retry, again):
                got[i] = g
        for (current, count, depth), g in zip(leaves, got):
            if g is not None:
                # count > 1 only for a tight cluster the contour says holds
                # several zeros
                roots.extend([g[0]] * count)
                residuals.extend([g[1]] * count)
            elif current.diameter < 1e-6:
                raise NumericalFailureError(
                    f"failed to converge on a root near {current.center:g}"
                )
            else:
                stack.extend((piece, None, depth + 1) for piece in current.split())
        if lowest is not None:
            found, _ = _merge_roots(roots, residuals)
            if len(found) >= lowest:
                cut = found[lowest - 1].real

    merged, merged_res = _merge_roots(roots, residuals)
    wanted = int(expected)
    if lowest is not None:
        merged, merged_res = merged[:lowest], merged_res[:lowest]
        wanted = min(lowest, wanted)
    return {
        "m": int(m),
        "zeta": complex(zeta),
        "roots": np.array(merged, dtype=complex),
        "residuals": np.array(merged_res, dtype=float),
        "expected_count": int(expected),
        "count_matches": len(merged) == wanted,
        "work": work,
    }


def disk_spectrum(zeta, m_max: int = 8, box: SearchBox = None) -> SpectrumReport:
    """Impedance-rim disk eigenvalues across angular orders 0..m_max.

    Angular order zero contributes simple eigenvalues; every higher order
    carries the two rotation directions and is reported with multiplicity 2.
    The sectors share their contour sweeps; metadata sweep_points counts the
    contour points swept, each (box, samples) once.
    """
    tables = ContourTables(m_max)
    entries = []
    counts = {}
    matches = {}
    work = {}
    for m in range(m_max + 1):
        result = disk_mode_roots(m, zeta, box=box, tables=tables)
        counts[str(m)] = int(result["roots"].size)
        matches[str(m)] = bool(result["count_matches"])
        work[str(m)] = result["work"]
        for lam, res in zip(result["roots"], result["residuals"]):
            entries.append(
                ModeEntry(
                    re_lambda=float(lam.real),
                    im_lambda=float(lam.imag),
                    residual=float(res),
                    mode_tag=f"disk-m{m}",
                    multiplicity=1 if m == 0 else 2,
                )
            )
    zeta = complex(zeta)
    meta = {
        "model": "disk",
        "zeta": [zeta.real, zeta.imag],
        "m_max": m_max,
        "roots_per_order": counts,
        "count_matches": matches,
        "all_counts_match": bool(all(matches.values())),
        "work_per_order": work,
        "sweep_points": tables.sweep_points,
    }
    return SpectrumReport("disk", entries, metadata=meta)
