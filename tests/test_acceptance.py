"""Workbench acceptance gate.

Ten checks, each printing exactly one PASS/FAIL line with its measured
numbers (run pytest -s to see the lines for passing tests too). Tolerances
and runtime budgets are asserted, not just reported.
"""

import math
from time import perf_counter

import numpy as np
import scipy.linalg as sla

from impedbench import extensions as ex
from impedbench.circle import DiagonalSymbol, ImpedanceCoefficient, compactness_gate
from impedbench.fem import (
    assemble,
    build_mesh,
    cn_energy_march,
    convergence_references,
    convergence_study,
    solve_qep,
)
from impedbench.fixtures import (
    fixture_registry,
    get_fixture,
    green_check,
    transport_fixture,
)
from impedbench.models import (
    StringSpec,
    disk_mode_roots,
    disk_spectrum,
    string_characteristic,
    string_spectrum,
)

SEED = 20240801


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d} [{name}] {detail}")
    assert ok, f"criterion {num:02d} [{name}] {detail}"


def rand_accretive(rng, dim: int, floor: float = 0.05):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = 0.5 * (a + a.conj().T)
    skew = 0.5 * (a - a.conj().T)
    w = np.linalg.eigvalsh(herm)
    return herm + (max(0.0, -float(w[0])) + floor) * np.eye(dim) + skew


def test_criterion_01_green_identity():
    t0 = perf_counter()
    fx = transport_fixture(64)
    res = green_check(fx, trials=100, seed=SEED)
    elapsed = perf_counter() - t0
    ok = res.max_defect < 1e-8 and elapsed < 1.0
    verdict(1, "green-identity", ok,
            f"max defect {res.max_defect:.3e} over 100 pairs in {elapsed:.2f}s")


def test_criterion_02_cayley_correspondence():
    t0 = perf_counter()
    rng = np.random.default_rng(SEED)
    worst_round = worst_identity = 0.0
    equivalence_ok = True
    for trial in range(70):
        dim = int(rng.integers(1, 17))
        z = rand_accretive(rng, dim)
        if trial >= 50:
            # push clearly past accretivity so the iff has both branches
            w = np.linalg.eigvalsh(0.5 * (z + z.conj().T))
            z = z - (float(w[0]) + float(rng.uniform(0.05, 0.5))) * np.eye(dim)
        defect = float(np.linalg.eigvalsh(0.5 * (z + z.conj().T))[0])
        k = ex.cayley(z)
        norm = float(np.linalg.norm(k, 2))
        if (norm <= 1.0 + 1e-10) != (defect >= -1e-10):
            equivalence_ok = False
        if defect >= 0.0:
            back = ex.inverse_cayley(k)
            scale = max(float(np.abs(z).max()), 1.0)
            worst_round = max(worst_round, float(np.abs(back - z).max()) / scale)
            worst_identity = max(worst_identity, ex.cayley_identity_defect(z))
    elapsed = perf_counter() - t0
    ok = (worst_round < 1e-9 and worst_identity < 1e-10
          and equivalence_ok and elapsed < 5.0)
    verdict(2, "cayley-correspondence", ok,
            f"round-trip {worst_round:.3e}, identity {worst_identity:.3e}, "
            f"norm<=>accretive iff {equivalence_ok}, {elapsed:.2f}s")


def test_criterion_03_condition_form_equivalence():
    t0 = perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for name in fixture_registry():
        fx = get_fixture(name)
        z = rand_accretive(rng, fx.boundary.trace_dim)
        mz = ex.restrict_extension(fx, z=z)
        mk = ex.restrict_extension(fx, k=ex.impedance_to_contraction(z, fx))
        angles = sla.subspace_angles(mz.basis, mk.basis)
        if angles.size:
            worst = max(worst, float(angles.max()))
    elapsed = perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    verdict(3, "condition-form-equivalence", ok,
            f"max principal angle {worst:.3e} over {len(fixture_registry())} "
            f"fixtures in {elapsed:.2f}s")


def test_criterion_04_resolvent_rank():
    t0 = perf_counter()
    rng = np.random.default_rng(SEED)
    violations = 0
    cases = 0
    for name in ("transport-64", "transport2-48"):
        fx = get_fixture(name)
        dim = fx.boundary.trace_dim
        for rank in sorted({0, 1, dim}):
            for z_pt in (1j, 1 + 2j):
                z1 = rand_accretive(rng, dim)
                bump = np.zeros((dim, dim), dtype=complex)
                for _ in range(rank):
                    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                    bump += np.outer(v, v.conj())
                k1 = ex.impedance_to_contraction(z1, fx)
                k2 = ex.impedance_to_contraction(z1 + bump, fx)
                rep = ex.resolvent_difference_rank(fx, k1, k2, z=z_pt)
                cases += 1
                if not rep.satisfied or rep.rank_parameter != rank:
                    violations += 1
    elapsed = perf_counter() - t0
    ok = violations == 0
    verdict(4, "resolvent-difference-rank", ok,
            f"{violations} violations over {cases} rank-0/1/full cases "
            f"at z in {{i, 1+2i}} in {elapsed:.2f}s")


def test_criterion_05_multiplier_gate():
    t0 = perf_counter()
    verdicts = {}
    verdicts["const-1"] = compactness_gate(ImpedanceCoefficient.constant(1.0), s=0.5).verdict
    for a in (0.3, 0.5, 0.9):
        coef = ImpedanceCoefficient.power(a)
        verdicts[f"power-{a}"] = compactness_gate(coef, s=0.5).verdict
    control = compactness_gate(DiagonalSymbol(1.0, 1j), s=0.5)
    verdicts["order-one"] = control.verdict
    flat = all(
        np.allclose(np.asarray(control.corner_sigmas[n]), 1.0, atol=1e-12)
        for n in control.schedule
    )
    elapsed = perf_counter() - t0
    compact_names = ["const-1", "power-0.3", "power-0.5", "power-0.9"]
    ok = (all(verdicts[k] == "compact" for k in compact_names)
          and verdicts["order-one"] == "noncompact" and flat and elapsed < 30.0)
    verdict(5, "multiplier-gate", ok,
            f"verdicts {verdicts}, control sigmas all 1: {flat}, {elapsed:.2f}s")


def test_criterion_06_string_oracle():
    t0 = perf_counter()
    spec = StringSpec(0.5)
    report = string_spectrum(spec, count=10)
    target = np.array(
        [(n + 0.5) * math.pi - 0.5j * math.log(3.0) for n in range(10)], dtype=complex
    )

    def secant_root(guess):
        x0, x1 = guess + 0.05, guess + 0.03j
        f0 = string_characteristic(spec, x0)
        for _ in range(60):
            f1 = string_characteristic(spec, x1)
            if abs(f1 - f0) == 0.0:
                break
            x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
            if abs(x1 - x0) < 1e-13:
                break
        return x1

    found = np.array([secant_root(t) for t in target])
    ladder = report.values()
    err_ladder = float(np.abs(ladder - target).max())
    err_finder = float(np.abs(np.sort_complex(found) - np.sort_complex(target)).max())

    rng = np.random.default_rng(SEED)
    max_im = -np.inf
    for _ in range(50):
        zeta = complex(rng.uniform(0.0, 4.0), rng.uniform(-2.0, 2.0))
        s = StringSpec(zeta)
        if s.critically_damped:
            continue
        max_im = max(max_im, string_spectrum(s, count=6).max_im())
    elapsed = perf_counter() - t0
    ok = (err_ladder < 1e-8 and err_finder < 1e-8
          and max_im <= 1e-12 and elapsed < 1.0)
    verdict(6, "string-oracle", ok,
            f"ladder err {err_ladder:.3e}, finder err {err_finder:.3e}, "
            f"max Im {max_im:.3e} over 50 random accretive, {elapsed:.2f}s")


def test_criterion_07_disk_oracle():
    t0 = perf_counter()
    neumann = disk_mode_roots(0, 0.0)
    first = neumann["roots"][0]
    err_first = abs(first - 3.831706)

    counts_ok = bool(neumann["count_matches"])
    worst_im = -np.inf
    for zeta in (0.5, 1.0):
        rep = disk_spectrum(zeta, m_max=8)
        counts_ok = counts_ok and bool(rep.metadata["all_counts_match"])
        worst_im = max(worst_im, rep.max_im())
    dissipative_ok = worst_im < 0.0

    reactive = disk_spectrum(0.3j, m_max=8)
    counts_ok = counts_ok and bool(reactive.metadata["all_counts_match"])
    reactive_im = float(max(abs(e.im_lambda) for e in reactive.entries))

    elapsed = perf_counter() - t0
    ok = (err_first < 1e-6 and dissipative_ok and reactive_im < 1e-8
          and counts_ok and elapsed < 30.0)
    verdict(7, "disk-oracle", ok,
            f"first Neumann root off by {err_first:.2e}, damped max Im {worst_im:.3e}, "
            f"reactive |Im| {reactive_im:.2e}, counts match {counts_ok}, {elapsed:.1f}s")


def test_criterion_08_fem_enclosure_and_symmetry():
    t0 = perf_counter()
    mesh = build_mesh("square{32}")
    n = mesh.n_vertices

    damped = solve_qep(assemble(mesh, zeta=1.0), n_want=2 * n)
    damped_im = damped.max_im(include_tags={"fem"})

    reactive = solve_qep(assemble(mesh, zeta=0.5j), n_want=2 * n)
    reactive_im = float(
        max(abs(e.im_lambda) for e in reactive.entries if e.mode_tag == "fem")
    )
    elapsed = perf_counter() - t0
    ok = damped_im <= 1e-8 and reactive_im <= 1e-8 and elapsed < 60.0
    verdict(8, "fem-enclosure-symmetry", ok,
            f"square{{32}} damped max Im {damped_im:.3e}, reactive max |Im| "
            f"{reactive_im:.3e}, {elapsed:.1f}s")


def test_criterion_09_fem_convergence():
    t0 = perf_counter()
    sq = convergence_study("square", [8, 16, 32], 0.0, [complex(math.pi)])
    sq_rel = sq["errors"][-1][0] / math.pi
    sq_order = sq["finest_orders"][0]

    worst_rel = {}
    for zeta in (0.0, 0.5):
        ref, _ = convergence_references("disk_polygon", zeta)
        study = convergence_study("disk_polygon", [4, 8, 16], zeta, ref)
        refs = [complex(re, im) for re, im in study["reference"]]
        rels = [
            err / abs(val)
            for err, val in zip(study["errors"][-1], refs)
            if err is not None
        ]
        worst_rel[zeta] = max(rels) if len(rels) == len(refs) else float("inf")

    elapsed = perf_counter() - t0
    ok = (sq_rel < 0.01 and sq_order is not None and 1.7 <= sq_order <= 2.3
          and worst_rel[0.0] < 0.02 and worst_rel[0.5] < 0.05)
    verdict(9, "fem-convergence", ok,
            f"square rel err {sq_rel:.4f} at h=1/32 (order {sq_order:.2f}), "
            f"disk rel err {worst_rel[0.0]:.4f} (rigid rim) / "
            f"{worst_rel[0.5]:.4f} (damped rim), {elapsed:.1f}s")


def test_criterion_10_contraction_semigroup():
    t0 = perf_counter()
    mesh = build_mesh("square{16}")
    rng = np.random.default_rng(SEED)
    n = mesh.n_vertices
    initial = (rng.standard_normal(n), rng.standard_normal(n))

    lossless = cn_energy_march(assemble(mesh, zeta=0.0), initial, dt=1e-3, steps=2000)
    drift = lossless.relative_drift()

    damped = cn_energy_march(assemble(mesh, zeta=1.0), initial, dt=1e-3, steps=2000)
    rel_increase = damped.max_step_increase() / damped.energies[0]

    elapsed = perf_counter() - t0
    ok = drift <= 1e-10 and rel_increase <= 1e-12 and elapsed < 30.0
    verdict(10, "contraction-semigroup", ok,
            f"lossless drift {drift:.3e}, damped max step increase "
            f"{rel_increase:.3e} relative, 2000 steps each, {elapsed:.1f}s")
