"""Independent checks of every command's output.

The checks never reuse the routine they check. Disk roots are polished again
with a Newton iteration built on ``scipy.special`` and counted again by the
argument principle on ``scipy.special`` values; the Crank-Nicolson energies
are recomputed by a separate first-order march; the boundary commands are
held to the verdicts and tolerances of the acceptance criteria.
"""

import json
import math
import os

import numpy as np
import scipy.linalg as sla
from scipy.special import jv, jvp

from workloads import (
    DISK_M_MAX,
    DISK_ZETA,
    MARCH_DT,
    MARCH_N,
    MARCH_STEPS,
    MARCH_ZETA,
    Command,
    cli_seed,
)

DISK_BOX = (0.05, 20.0, -5.0, 0.05)  # the default search box of models.disk_mode_roots
MARCH_CHECK_STEPS = 50  # steps recomputed by the independent march

# Thresholds of acceptance criteria 07 and 09 and of the energy identity.
ORDER_RANGE = (1.7, 2.3)
MAX_REL_FEM_ERR = 0.05
MAX_ROOT_RESIDUAL = 1e-10
ROOT_AGREEMENT = 1e-8
MAX_STEP_RISE = 1e-12
ENERGY_AGREEMENT = 1e-9
MAX_GREEN_DEFECT = 1e-8
EXPECTED_GATE_VERDICT = "compact"


class CheckFailure(Exception):
    """A command's output disagrees with the independent route."""


# ---------------------------------------------------------------------------
# Independent routes


def _disk_char(m: int, zeta: complex, lam):
    """i zeta J_m - J_m' on scipy.special."""
    return 1j * zeta * jv(m, lam) - jvp(m, lam, 1)


def polish_disk_root(m: int, zeta: complex, start: complex) -> complex:
    """Newton polish of a disk characteristic root on scipy.special."""
    lam = complex(start)
    for _ in range(50):
        df = 1j * zeta * jvp(m, lam, 1) - jvp(m, lam, 2)
        step = complex(_disk_char(m, zeta, lam) / df)
        lam -= step
        if abs(step) <= 1e-15 * max(abs(lam), 1.0):
            break
    return lam


def disk_root_count(m: int, zeta: complex, box=DISK_BOX, per_edge: int = 4096) -> int:
    """Zeros of the sector-m characteristic inside box, by the argument principle."""
    re0, re1, im0, im1 = box
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    contour = np.concatenate([
        re0 + (re1 - re0) * t + 1j * im0,
        re1 + 1j * (im0 + (im1 - im0) * t),
        re1 - (re1 - re0) * t + 1j * im1,
        re0 + 1j * (im1 - (im1 - im0) * t),
    ])
    f = _disk_char(m, zeta, contour)
    closed = np.append(f, f[0])
    turns = np.angle(closed[1:] / closed[:-1])
    if np.abs(turns).max() > 1.0:
        raise CheckFailure(f"sector {m}: independent contour undersampled")
    return int(round(turns.sum() / (2.0 * math.pi)))


def reference_energies(seed: int, steps: int = MARCH_CHECK_STEPS):
    """First energies of the march, by a separate first-order CN march.

    The initial state is drawn as the march command draws it from --seed.

    The state (u, p) obeys y' = A y with A = [[0, I], [-M^-1 K, -M^-1 C]];
    (I - dt/2 A) y_next = (I + dt/2 A) y is the trapezoidal rule written on
    the first-order system, solved here with one dense LU of the block
    matrix, independently of the program's p-update.
    """
    from impedbench.fem import assemble, build_mesh

    q = assemble(build_mesh(f"square{{{MARCH_N}}}"), zeta=MARCH_ZETA)
    k, c, m = (np.asarray(x, dtype=complex) for x in (q.k_stiff, q.c_bdry, q.m_mass))
    n = q.dim
    rng = np.random.default_rng(cli_seed(seed))
    u = rng.standard_normal(n).astype(complex)
    p = rng.standard_normal(n).astype(complex)
    minv = sla.inv(m)
    a = np.block([[np.zeros((n, n)), np.eye(n)], [-minv @ k, -minv @ c]])
    eye = np.eye(2 * n)
    lu = sla.lu_factor(eye - 0.5 * MARCH_DT * a)
    forward = eye + 0.5 * MARCH_DT * a
    y = np.concatenate([u, p])
    energies = []
    for step in range(steps + 1):
        u, p = y[:n], y[n:]
        energies.append(float((u.conj() @ k @ u).real + (p.conj() @ m @ p).real))
        if step < steps:
            y = sla.lu_solve(lu, forward @ y)
    return energies


# ---------------------------------------------------------------------------
# Output checks


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _check_converge(path: str) -> float:
    study = _load_json(path)
    _require(study["unmatched"] == 0, f"unmatched references: {study['unmatched']}")
    lo, hi = ORDER_RANGE
    for p in study["finest_orders"]:
        _require(p is not None and lo <= p <= hi, f"finest order {p} outside [{lo}, {hi}]")
    # the references are the lowest roots of sectors 0 and 1, listed sorted
    worst, sectors = 0.0, set()
    for (re, im), err in zip(study["reference"], study["errors"][-1]):
        ref = complex(re, im)
        m = min((0, 1), key=lambda k: abs(_disk_char(k, DISK_ZETA, ref)))
        sectors.add(m)
        oracle = polish_disk_root(m, DISK_ZETA, ref)
        _require(abs(oracle - ref) <= ROOT_AGREEMENT,
                 f"reference {ref} disagrees with the scipy root {oracle}")
        rel = err / abs(oracle)
        _require(rel < MAX_REL_FEM_ERR, f"sector {m} finest relative error {rel:.3e}")
        worst = max(worst, rel)
    _require(sectors == {0, 1}, f"references cover sectors {sorted(sectors)}, not 0 and 1")
    return worst


def _check_disk(path: str) -> float:
    report = _load_json(path)
    by_sector = {}
    for entry in report["modes"]:
        m = int(entry["mode_tag"].removeprefix("disk-m"))
        by_sector.setdefault(m, []).append(entry)
    worst = 0.0
    for m in range(DISK_M_MAX + 1):
        entries = by_sector.get(m, [])
        expected = disk_root_count(m, DISK_ZETA)
        _require(len(entries) == expected,
                 f"sector {m}: {len(entries)} roots, independent count {expected}")
        _require(report["metadata"]["count_matches"][str(m)], f"sector {m}: count mismatch")
        for entry in entries:
            _require(entry["residual"] <= MAX_ROOT_RESIDUAL,
                     f"sector {m}: residual {entry['residual']:.3e}")
            root = complex(entry["re_lambda"], entry["im_lambda"])
            oracle = polish_disk_root(m, DISK_ZETA, root)
            gap = abs(oracle - root)
            _require(gap <= ROOT_AGREEMENT, f"sector {m}: root {root} vs scipy {oracle}")
            worst = max(worst, gap)
    return worst


def _check_march(path: str, seed: int) -> float:
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    _require(rows[0] == "step,time,energy", "unexpected march CSV header")
    _require(len(rows) == MARCH_STEPS + 2, f"{len(rows) - 1} energy rows")
    energies = [float(row.split(",")[2]) for row in rows[1:]]
    e0 = energies[0]
    rise = max(b - a for a, b in zip(energies, energies[1:])) / e0
    _require(rise <= MAX_STEP_RISE, f"energy rose by {rise:.3e} relative in one step")
    _require(energies[-1] / e0 < 1.0, "energy did not decay")
    ref = reference_energies(seed)
    gap = max(abs(a - b) / e0 for a, b in zip(energies, ref))
    _require(gap <= ENERGY_AGREEMENT, f"energies differ from the independent march by {gap:.3e}")
    return gap


def _check_boundary(label: str, workdir: str) -> float:
    if label == "green-check":
        defect = _load_json(os.path.join(workdir, "green.json"))["max_defect"]
        _require(defect <= MAX_GREEN_DEFECT, f"green defect {defect:.3e}")
        return defect
    if label == "cayley":
        _require(_load_json(os.path.join(workdir, "cayley.json"))["passed"], "cayley sweep failed")
    elif label == "rank":
        _require(_load_json(os.path.join(workdir, "rank.json"))["satisfied"], "rank bound violated")
    elif label == "mdiss":
        _require(_load_json(os.path.join(workdir, "mdiss.json"))["all_checks_ok"],
                 "dissipativity checks failed")
    elif label in ("gate-power", "gate-file"):
        verdict = _load_json(os.path.join(workdir, label + ".json"))["verdict"]
        _require(verdict == EXPECTED_GATE_VERDICT, f"{label} verdict {verdict}")
    elif label == "lq":
        _require(_load_json(os.path.join(workdir, "lq.json"))["theorem_applies"],
                 "Lq condition does not apply")
    return 0.0


def check(workload: str, command: Command, workdir: str, seed: int) -> float:
    """Check one command's outputs; return the achieved error against the
    independent route, or raise CheckFailure."""
    for name in command.outputs:
        _require(os.path.isfile(os.path.join(workdir, name)), f"missing output {name}")
    path = os.path.join(workdir, command.outputs[0])
    try:
        if workload == "fem-converge":
            return _check_converge(path)
        if workload == "disk-oracle":
            return _check_disk(path)
        if workload == "cn-march":
            return _check_march(path, seed)
        return _check_boundary(command.label, workdir)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckFailure(f"malformed output: {exc!r}") from exc
