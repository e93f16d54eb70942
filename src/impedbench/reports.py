"""Report containers and deterministic on-disk formats.

Every writer goes through an atomic temp-file swap so a crashed run never
leaves a half-written table, and every float is rendered with 17 significant
digits so reruns produce byte-identical files.
"""

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def fmt_complex(z) -> str:
    """z as :g prints it, but with repr for each part that :g would round."""
    re, im = (f"{x:g}" if float(f"{x:g}") == x else repr(float(x)) for x in (z.real, z.imag))
    return f"{re}{'' if im.startswith('-') else '+'}{im}j"


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path through a same-directory temp file and os.replace."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-report-", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def json_ready(value):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_ready(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.complexfloating, complex)):
        return [float(np.real(value)), float(np.imag(value))]
    return value


def write_json(path: str, payload: dict) -> None:
    write_text_atomic(path, json.dumps(json_ready(payload), indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Eigenvalue tables


@dataclass
class ModeEntry:
    re_lambda: float
    im_lambda: float
    residual: float
    mode_tag: str = "interior"
    multiplicity: int = 1

    @property
    def value(self) -> complex:
        return complex(self.re_lambda, self.im_lambda)


@dataclass
class SpectrumReport:
    """Sorted eigenvalue listing with residuals and classification tags."""

    label: str
    entries: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.entries = sorted(
            self.entries, key=lambda e: (e.re_lambda, e.im_lambda, e.mode_tag)
        )

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries], dtype=complex)

    def max_im(self, include_tags=None) -> float:
        vals = [
            e.im_lambda
            for e in self.entries
            if include_tags is None or e.mode_tag in include_tags
        ]
        if not vals:
            return float("-inf")
        return float(max(vals))

    def to_csv(self) -> str:
        lines = ["re_lambda,im_lambda,residual,mode_tag,multiplicity"]
        for e in self.entries:
            lines.append(
                ",".join(
                    (
                        fmt_float(e.re_lambda),
                        fmt_float(e.im_lambda),
                        fmt_float(e.residual),
                        e.mode_tag,
                        str(int(e.multiplicity)),
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "metadata": self.metadata,
            "modes": [
                {
                    "re_lambda": e.re_lambda,
                    "im_lambda": e.im_lambda,
                    "residual": e.residual,
                    "mode_tag": e.mode_tag,
                    "multiplicity": e.multiplicity,
                }
                for e in self.entries
            ],
        }

    def write_csv(self, path: str) -> None:
        write_text_atomic(path, self.to_csv())

    def write_json(self, path: str) -> None:
        write_json(path, self.to_json_dict())


# ---------------------------------------------------------------------------
# Compactness gate tables


@dataclass
class CompactnessReport:
    """Tail-block singular values over a frequency schedule plus a verdict."""

    label: str
    s: float
    schedule: tuple
    indicators: list
    section_norms: list
    corner_sigmas: dict
    verdict: str
    re_defect: float
    thresholds: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["N,k,sigma_k"]
        for n in self.schedule:
            sig = self.corner_sigmas[n]
            for k, value in enumerate(sig):
                lines.append(f"{n},{k},{fmt_float(value)}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "s": self.s,
            "schedule": list(self.schedule),
            "indicators": list(self.indicators),
            "section_norms": list(self.section_norms),
            "verdict": self.verdict,
            "re_defect": self.re_defect,
            "thresholds": self.thresholds,
            "metadata": self.metadata,
        }

    def write_csv(self, path: str) -> None:
        write_text_atomic(path, self.to_csv())

    def write_json(self, path: str) -> None:
        write_json(path, self.to_json_dict())


# ---------------------------------------------------------------------------
# Time-march energy traces


@dataclass
class EnergyTrace:
    """Discrete energy history of a time march."""

    label: str
    dt: float
    energies: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        if self.energies.ndim != 1 or self.energies.size == 0:
            raise InvalidInputError("energy trace must be a nonempty vector")
        if self.dt <= 0:
            raise InvalidInputError("time step must be positive")

    @property
    def steps(self) -> int:
        return self.energies.size - 1

    def max_step_increase(self) -> float:
        """Largest single-step energy growth; <= 0 for a monotone decay."""
        if self.energies.size < 2:
            return 0.0
        return float(np.diff(self.energies).max())

    def relative_drift(self) -> float:
        """Total change relative to the initial energy."""
        e0 = self.energies[0]
        scale = max(abs(e0), 1e-30)
        return float((self.energies - e0).max() - (self.energies - e0).min()) / scale

    def to_csv(self) -> str:
        lines = ["step,time,energy"]
        for k, e in enumerate(self.energies):
            lines.append(f"{k},{fmt_float(k * self.dt)},{fmt_float(e)}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        write_text_atomic(path, self.to_csv())

    def write_json(self, path: str) -> None:
        write_json(
            path,
            {
                "label": self.label,
                "dt": self.dt,
                "steps": self.steps,
                "max_step_increase": self.max_step_increase(),
                "relative_drift": self.relative_drift(),
                "metadata": self.metadata,
            },
        )
