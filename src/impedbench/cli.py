"""Command line front end for the workbench.

Every capability is a subcommand with deterministic, atomically written
CSV/JSON outputs and a one-line summary on stdout. Exit codes: 0 success,
2 a checked invariant failed beyond tolerance (enclosure breach, defect
above tolerance, count mismatch), 3 invalid input (including argument
errors), 4 numerical failure or an output I/O error.

One grammar, parse_coefficient, reads every --zeta and --z. The routes that
take one number (string, disk, fem, march, converge, extension rank) read it
through _constant, which refuses any other kind with exit 3.

WORKBENCH_THREADS caps the BLAS thread pools; it must take effect before
numpy first loads, which is why all heavy imports in this module sit inside
the command handlers.
"""

import argparse
import cmath
import functools
import os
import sys

from .errors import InvalidInputError, InvariantViolationError, NumericalFailureError

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_INVALID = 3
EXIT_NUMERICAL = 4

DEFAULT_SEED = 20240801
ZETA_HELP = "const:re,im | a real or complex literal | power:a=..,c=.. or file:path (gate, lq)"

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _configure_threads() -> None:
    raw = os.environ.get("WORKBENCH_THREADS")
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        raise _UsageError(f"WORKBENCH_THREADS must be an integer, got '{raw}'")
    if n < 1:
        raise _UsageError("WORKBENCH_THREADS must be positive")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))


class _UsageError(argparse.ArgumentTypeError):
    """Bad CLI input. Subclassing ArgumentTypeError lets the same parser
    helpers serve as argparse type= callables."""


# ---------------------------------------------------------------------------
# Argument grammar helpers


def parse_coefficient(text: str):
    """The one impedance grammar, for every --zeta and --z: power:a=..,c=.. |
    file:path | const:re,im | a finite real or complex literal."""
    from .circle import ImpedanceCoefficient

    text = text.strip()
    if text.startswith("file:"):
        return _coefficient_from_file(text[len("file:"):])
    try:
        if text.startswith("power:"):
            fields = {}
            for item in text[len("power:"):].split(","):
                key, _, val = item.partition("=")
                key = key.strip()
                if not val:
                    raise _UsageError(f"expected power:a=..,c=.., got '{text}'")
                if key not in ("a", "c"):
                    raise _UsageError(f"power coefficient has no key '{key}' (only a and c)")
                if key in fields:
                    raise _UsageError(f"power coefficient key '{key}' given twice")
                fields[key] = val.strip()
            if "a" not in fields:
                raise _UsageError("power coefficient needs a=<exponent>")
            return ImpedanceCoefficient.power(float(fields["a"]), complex(fields.get("c", "1")))
        if text.startswith("const:"):
            real, imag = text[len("const:"):].split(",")
            value = complex(float(real), float(imag))
        else:
            value = complex(text.replace(" ", ""))
    except ValueError:
        raise _UsageError(f"cannot parse impedance '{text}'")
    if not cmath.isfinite(value):
        raise _UsageError(f"impedance must be finite, got '{text}'")
    return ImpedanceCoefficient.constant(value)


def _coefficient_from_file(path: str):
    """JSON coefficient data: {'kind': 'fourier'|'samples', ...} or a bare list.

    A bare list (entries either numbers or [re, im] pairs) is read as uniform
    samples on [-pi, pi), interpolated periodically.
    """
    import json

    import numpy as np

    from .circle import ImpedanceCoefficient

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read coefficient file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"coefficient file {path} is not valid JSON: {exc}")

    def to_complex_array(items):
        vals = []
        for item in items:
            if isinstance(item, (list, tuple)) and len(item) == 2:
                vals.append(complex(item[0], item[1]))
            elif isinstance(item, (int, float)):
                vals.append(complex(item))
            else:
                raise _UsageError(f"coefficient file {path}: bad entry {item!r}")
            if not cmath.isfinite(vals[-1]):
                raise _UsageError(f"coefficient file {path}: entry {item!r} is not finite")
        return np.array(vals, dtype=complex)

    if isinstance(data, dict):
        kind = data.get("kind")
        if kind == "fourier":
            return ImpedanceCoefficient.fourier(
                to_complex_array(data.get("coeffs", [])), label=f"file:{os.path.basename(path)}"
            )
        if kind == "samples":
            data = data.get("values", [])
        else:
            raise _UsageError(f"coefficient file {path}: kind must be 'fourier' or 'samples'")
    if not isinstance(data, list) or not data:
        raise _UsageError(f"coefficient file {path}: expected a nonempty list of samples")
    samples = to_complex_array(data)

    def interp(theta):
        grid = np.linspace(-np.pi, np.pi, samples.size, endpoint=False)
        wrapped = np.mod(np.asarray(theta) + np.pi, 2.0 * np.pi) - np.pi
        re = np.interp(wrapped, grid, samples.real, period=2.0 * np.pi)
        im = np.interp(wrapped, grid, samples.imag, period=2.0 * np.pi)
        return re + 1j * im

    return ImpedanceCoefficient.sampled(interp, label=f"file:{os.path.basename(path)}")


def parse_int_list(text: str):
    try:
        vals = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise _UsageError(f"expected a comma-separated integer list, got '{text}'")
    if not vals:
        raise _UsageError("empty integer list")
    return vals


def _parse_tol(text: str) -> float:
    """A pass/fail tolerance: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise _UsageError(f"expected a number, got '{text}'")
    if not 0 <= value < float("inf"):
        raise _UsageError(f"tolerance must be finite and >= 0, got '{text}'")
    return value


def _parse_seed(text: str) -> int:
    """A random seed: an integer >= 0, of any size."""
    try:
        value = int(text)
    except ValueError:
        raise _UsageError(f"expected an integer, got '{text}'")
    if value < 0:
        raise _UsageError(f"seed must be >= 0, got '{text}'")
    return value


def _json_path(text: str) -> str:
    """An --out name for the subcommands that write only JSON."""
    if not text.endswith(".json"):
        raise _UsageError(f"this subcommand writes only JSON; expected a .json name, got '{text}'")
    return text


def parse_box(text: str):
    from .models import SearchBox

    parts = text.split(",")
    if len(parts) != 4:
        raise _UsageError("box must be re_min,re_max,im_min,im_max")
    try:
        return SearchBox(*(float(p) for p in parts))
    except ValueError:
        raise _UsageError(f"malformed box '{text}'")


def _mesh_spec(shape: str, n) -> str:
    """Combine a bare shape name with --n; braced specs and files pass through."""
    from .fem import ladder_spec

    default = {"square": 16, "disk_polygon": 8}.get(shape)
    if default is not None:
        return ladder_spec(shape, default if n is None else n)
    if n is not None:
        raise _UsageError("--n only applies to the bare shape names square/disk_polygon")
    return shape


def _constant(text: str, route: str, allow_nonaccretive: bool = True):
    """(value, exact printed form) of the constant a scalar route reads; any
    other kind is invalid, and Re < 0 is refused unless allow_nonaccretive."""
    from .reports import fmt_complex

    coef = parse_coefficient(text)
    if coef.kind != "constant":
        raise _UsageError(f"{route} takes only constants, not {coef.label}")
    shown = fmt_complex(coef.value)
    if coef.value.real < 0 and not allow_nonaccretive:
        raise InvariantViolationError(
            f"{route}: impedance {shown} has negative real part, which breaks the "
            "lower-half-plane enclosure; pass --allow-nonaccretive to study it anyway"
        )
    return coef.value, shown


def _emit_report(report, path: str) -> None:
    if path.endswith(".json"):
        report.write_json(path)
    else:
        report.write_csv(path)


# ---------------------------------------------------------------------------
# Handlers


def _cmd_green_check(args) -> int:
    from .fixtures import get_fixture, green_check
    from .reports import write_json

    result = green_check(
        get_fixture(args.fixture), trials=args.trials, seed=args.seed, tol=args.tol
    )
    print(result.summary())
    if args.out:
        write_json(
            args.out,
            {
                "fixture": result.label,
                "trials": result.trials,
                "max_defect": result.max_defect,
                "tolerance": result.tolerance,
                "passed": result.passed,
            },
        )
    return EXIT_OK if result.passed else EXIT_INVARIANT


def _random_accretive(rng, dim: int, count=None):
    """A random accretive dim x dim matrix, or a stack of count of them
    drawn as count single ones (real, then imaginary part)."""
    import numpy as np

    d = rng.standard_normal((2, dim, dim) if count is None else (count, 2, dim, dim))
    a = d[..., 0, :, :] + 1j * d[..., 1, :, :]
    herm = a + a.conj().swapaxes(-1, -2)
    skew = a - a.conj().swapaxes(-1, -2)
    w = np.linalg.eigvalsh(herm)
    shift = np.maximum(0.0, -w[..., 0]) + 0.1
    return 0.5 * (herm + skew) + shift[..., None, None] * np.eye(dim)


def _cmd_extension_cayley(args) -> int:
    import numpy as np

    from .extensions import (
        cayley_identity_defect,
        contraction_to_impedance,
        impedance_to_contraction,
    )
    from .fixtures import TRIAL_CHUNK, get_fixture
    from .linalg import gram_operator_norm
    from .reports import write_json

    if args.trials < 1:
        raise InvalidInputError("trials must be >= 1")
    fx = get_fixture(args.fixture)
    dim = fx.boundary.trace_dim
    g = fx.boundary.gram_pivot
    rng = np.random.default_rng(args.seed)
    worst_round, worst_identity, worst_norm = 0.0, 0.0, 0.0
    for start in range(0, args.trials, TRIAL_CHUNK):
        z = _random_accretive(rng, dim, min(TRIAL_CHUNK, args.trials - start))
        k = impedance_to_contraction(z, fx)
        back = contraction_to_impedance(k, fx)
        scale = np.maximum(np.abs(z).max(axis=(1, 2)), 1.0)
        worst_round = max(worst_round, float((np.abs(back - z).max(axis=(1, 2)) / scale).max()))
        worst_identity = max(worst_identity, float(cayley_identity_defect(z).max()))
        worst_norm = max(worst_norm, float(gram_operator_norm(k, g, g).max()))
    ok = worst_round <= args.tol and worst_identity <= args.tol and worst_norm <= 1.0 + args.tol
    print(
        f"extension cayley {args.fixture}: round-trip {worst_round:.3e} "
        f"identity {worst_identity:.3e} max contraction norm {worst_norm:.12f} "
        f"({args.trials} trials) {'ok' if ok else 'FAIL'}"
    )
    if args.out:
        write_json(
            args.out,
            {
                "fixture": args.fixture,
                "trials": args.trials,
                "max_round_trip": worst_round,
                "max_identity_defect": worst_identity,
                "max_contraction_norm": worst_norm,
                "tolerance": args.tol,
                "passed": ok,
            },
        )
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_extension_mdiss(args) -> int:
    import numpy as np

    from .extensions import mdissipativity_report, restrict_extension
    from .fixtures import get_fixture
    from .reports import write_json
    from .tuples import accretivity_defect

    fx = get_fixture(args.fixture)
    rng = np.random.default_rng(args.seed)
    z = _random_accretive(rng, fx.boundary.trace_dim)
    if args.skew:
        z = 0.5 * (z - z.conj().T)  # accretivity defect exactly zero
    model = restrict_extension(fx, z=z)
    report = mdissipativity_report(model)
    # the boundary-form route: the extension is dissipative iff z is accretive
    # in the fixture's duality
    report["accretivity_defect"] = accretivity_defect(z, fx.boundary)
    agree = report["dissipative"] == (report["accretivity_defect"] >= -1e-10)
    ok = bool(report["all_checks_ok"]) and agree
    print(
        f"extension mdiss {args.fixture}: dim {report['dim']} "
        f"max Im numrange {report['max_im_numrange']:.3e} "
        f"dissipative {report['dissipative']} "
        f"accretivity defect {report['accretivity_defect']:.3e} {'ok' if ok else 'FAIL'}"
    )
    if args.out:
        write_json(args.out, report)
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_extension_rank(args) -> int:
    import numpy as np

    from .extensions import impedance_to_contraction, resolvent_difference_rank
    from .fixtures import get_fixture
    from .reports import write_json

    z, _ = _constant(args.z, "extension rank")
    fx = get_fixture(args.fixture)
    dim = fx.boundary.trace_dim
    if not 0 <= args.rank <= dim:
        raise _UsageError(f"perturbation rank must lie in 0..{dim} for this fixture")
    rng = np.random.default_rng(args.seed)
    z1 = _random_accretive(rng, dim)
    bump = np.zeros((dim, dim), dtype=complex)
    for _ in range(args.rank):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        bump += np.outer(v, v.conj())
    k1 = impedance_to_contraction(z1, fx)
    k2 = impedance_to_contraction(z1 + bump, fx)
    report = resolvent_difference_rank(fx, k1, k2, z=z, tol=args.tol)
    print(report.summary())
    if args.out:
        write_json(
            args.out,
            {
                "fixture": args.fixture,
                "z": [report.z.real, report.z.imag],
                "rank_resolvent": report.rank_resolvent,
                "rank_parameter": report.rank_parameter,
                "satisfied": report.satisfied,
                "realization_residual": report.realization_residual,
            },
        )
    return EXIT_OK if report.satisfied else EXIT_INVARIANT


def _cmd_gate(args) -> int:
    from .circle import compactness_gate

    coef = parse_coefficient(args.zeta)
    report = compactness_gate(coef, s=args.s, schedule=tuple(args.sections))
    print(
        f"gate {coef.label}: verdict {report.verdict} "
        f"(indicators {report.indicators[0]:.3e} -> {report.indicators[-1]:.3e})"
    )
    if args.out:
        _emit_report(report, args.out)
        if not args.out.endswith(".json"):
            # verdict sidecar next to the raw singular-value table
            stem, _, _ = args.out.rpartition(".")
            report.write_json((stem or args.out) + ".json")
    return EXIT_OK


def _cmd_lq(args) -> int:
    from .circle import lq_report
    from .reports import write_json

    coef = parse_coefficient(args.zeta)
    report = lq_report(coef, s=args.s, q=args.q)
    print(
        f"lq {coef.label}: |zeta|_q {report['lq_norm']} "
        f"requirement q > {report['exponent_requirement']:.3f} "
        f"theorem_applies {report['theorem_applies']}"
    )
    if args.out:
        write_json(args.out, report)
    return EXIT_OK


def _cmd_string(args) -> int:
    from .models import StringSpec, string_spectrum

    zeta, shown = _constant(args.zeta, "string", args.allow_nonaccretive)
    spec = StringSpec(zeta)
    report = string_spectrum(spec, count=args.count)
    if not report.entries:
        # zeta = 1, or its time reverse zeta = -1
        kind = "critically damped" if spec.critically_damped else "time-reversed critical damping"
        print(f"string zeta={shown}: {kind}, spectrum empty")
        if args.out:
            _emit_report(report, args.out)
        return EXIT_OK
    max_im = report.max_im()
    worst = max(e.residual for e in report.entries)
    print(
        f"string zeta={shown}: {len(report.entries)} modes, "
        f"max Im {max_im:.6e}, max residual {worst:.3e}"
    )
    if args.out:
        _emit_report(report, args.out)
    if zeta.real >= 0 and max_im > args.tol:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_disk(args) -> int:
    from .models import disk_spectrum

    zeta, shown = _constant(args.zeta, "disk", args.allow_nonaccretive)
    box = parse_box(args.box) if args.box else None
    report = disk_spectrum(zeta, m_max=args.m_max, box=box)
    counts_ok = bool(report.metadata["all_counts_match"])
    max_im = report.max_im()
    print(
        f"disk zeta={shown}: {len(report.entries)} modes over m<={args.m_max}, "
        f"max Im {max_im:.6e}, counts {'match' if counts_ok else 'MISMATCH'}"
    )
    if args.out:
        _emit_report(report, args.out)
    if not counts_ok:
        return EXIT_INVARIANT
    if zeta.real >= 0 and report.entries and max_im > args.tol:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_fem(args) -> int:
    from .fem import assemble, build_mesh, solve_qep

    zeta, shown = _constant(args.zeta, "fem", args.allow_nonaccretive)
    spec = _mesh_spec(args.shape, args.n)
    mesh = build_mesh(spec)
    q = assemble(mesh, zeta=zeta)
    report = solve_qep(q, n_want=args.nev)
    max_im = report.max_im(include_tags={"fem"})
    modes = sum(e.mode_tag == "fem" for e in report.entries)
    print(
        f"fem {spec} zeta={shown}: {modes} modes "
        f"({report.metadata['artifacts']} artifact), max Im {max_im:.6e}, "
        f"path {report.metadata['path']}"
    )
    if args.out:
        _emit_report(report, args.out)
    if zeta.real >= 0 and max_im > args.tol:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_march(args) -> int:
    import numpy as np

    from .fem import assemble, build_mesh, cn_energy_march

    zeta, shown = _constant(args.zeta, "march", args.allow_nonaccretive)
    spec = _mesh_spec(args.shape, args.n)
    mesh = build_mesh(spec)
    q = assemble(mesh, zeta=zeta)
    rng = np.random.default_rng(args.seed)
    u0 = rng.standard_normal(q.dim)
    p0 = rng.standard_normal(q.dim)
    trace = cn_energy_march(q, (u0, p0), dt=args.dt, steps=args.steps)
    e0 = max(trace.energies[0], 1e-30)
    rel_increase = trace.max_step_increase() / e0
    print(
        f"march {spec} zeta={shown}: {trace.steps} steps, "
        f"E_end/E_0 {trace.energies[-1] / e0:.6e}, "
        f"max step increase {rel_increase:.3e} relative"
    )
    if args.out:
        _emit_report(trace, args.out)
    if zeta.real >= 0 and rel_increase > args.tol:
        return EXIT_INVARIANT
    if zeta.real == 0 and trace.relative_drift() > 1e-10:
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_converge(args) -> int:
    import numpy as np

    from .fem import convergence_study, convergence_table_csv
    from .models import ContourTables, disk_mode_roots
    from .reports import ModeEntry, SpectrumReport, write_json, write_text_atomic

    zeta, shown = _constant(args.zeta, "converge", args.allow_nonaccretive)
    oracle_work = {}
    if args.shape == "square":
        if zeta != 0:
            raise _UsageError(
                "the square ladder has a closed-form reference only for zeta = 0"
            )
        ref = SpectrumReport("square-exact", [ModeEntry(float(np.pi), 0.0, 0.0, "exact")])
    else:
        # the references are the lowest roots of sectors 0 and 1, which
        # share their contour sweeps
        entries = []
        tables = ContourTables(1)
        for m in (0, 1):
            oracle = disk_mode_roots(m, zeta, lowest=1, tables=tables)
            if not oracle["roots"].size:
                raise InvalidInputError(
                    f"the disk oracle finds no root of sector {m} in its search box, "
                    "so this zeta has no reference"
                )
            lam = oracle["roots"][0]
            oracle_work[str(m)] = oracle["work"]
            entries.append(ModeEntry(float(lam.real), float(lam.imag), 0.0, f"m{m}"))
        del tables  # no contour table outlives the oracle's search
        ref = SpectrumReport("disk-oracle", entries)
    study = convergence_study(args.shape, args.levels, zeta, ref)
    if oracle_work:
        study["oracle_work"] = oracle_work
    orders = ["none" if p is None else f"{p:.2f}" for p in study["finest_orders"]]
    finest = ["unmatched" if e is None else f"{e:.3e}" for e in study["errors"][-1]]
    print(
        f"converge {args.shape} zeta={shown}: finest errors [{', '.join(finest)}], "
        f"orders [{', '.join(orders)}], unmatched {study['unmatched']}"
    )
    if args.out:
        if args.out.endswith(".json"):
            write_json(args.out, study)
        else:
            write_text_atomic(args.out, convergence_table_csv(study))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="impedbench",
        description="Desk-scale spectral workbench for impedance boundary damping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes --tol and --seed only if its handler reads them
    p = sub.add_parser("green-check", help="integration-by-parts defect on a fixture")
    p.add_argument("--fixture", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=_parse_tol, default=1e-8, help="pass/fail tolerance")
    p.add_argument("--out", type=_json_path, default=None, help="output file (.json)")
    p.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p.set_defaults(handler=_cmd_green_check)

    p = sub.add_parser("extension", help="boundary-condition parametrization checks")
    modes = p.add_subparsers(dest="mode", required=True)

    pc = modes.add_parser("cayley", help="round-trip and identity defects")
    pc.add_argument("--fixture", required=True)
    pc.add_argument("--trials", type=int, default=50)
    pc.add_argument("--tol", type=_parse_tol, default=1e-9, help="pass/fail tolerance")
    pc.add_argument("--out", type=_json_path, default=None, help="output file (.json)")
    pc.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    pc.set_defaults(handler=_cmd_extension_cayley)

    pm = modes.add_parser("mdiss", help="dissipativity report for a random admissible condition")
    pm.add_argument("--fixture", required=True)
    pm.add_argument("--skew", action="store_true", help="use the selfadjoint (skew) case")
    pm.add_argument("--out", type=_json_path, default=None, help="output file (.json)")
    pm.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    pm.set_defaults(handler=_cmd_extension_mdiss)

    pr = modes.add_parser("rank", help="resolvent-difference rank inequality")
    pr.add_argument("--fixture", required=True)
    pr.add_argument("--rank", type=int, default=1, help="rank of the condition perturbation")
    pr.add_argument("--z", default="1j", help="spectral point, a constant in the --zeta grammar")
    pr.add_argument("--tol", type=_parse_tol, default=1e-8, help="pass/fail tolerance")
    pr.add_argument("--out", type=_json_path, default=None, help="output file (.json)")
    pr.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    pr.set_defaults(handler=_cmd_extension_rank)

    p = sub.add_parser("gate", help="finite-section compactness gate on the circle")
    p.add_argument("--zeta", required=True, help=ZETA_HELP)
    p.add_argument("--s", type=float, default=0.5, help="trace smoothness index")
    p.add_argument("--sections", type=parse_int_list, default=[16, 32, 64, 128])
    p.add_argument("--out", default=None, help="output file (.csv or .json)")
    p.set_defaults(handler=_cmd_gate)

    p = sub.add_parser("lq", help="integrability sufficient condition")
    p.add_argument("--zeta", required=True, help=ZETA_HELP)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--out", type=_json_path, default=None, help="output file (.json)")
    p.set_defaults(handler=_cmd_lq)

    p = sub.add_parser("string", help="damped string spectrum (closed form)")
    p.add_argument("--zeta", required=True, help=ZETA_HELP)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--allow-nonaccretive", action="store_true")
    p.add_argument("--tol", type=_parse_tol, default=1e-12, help="pass/fail tolerance")
    p.add_argument("--out", default=None, help="output file (.csv or .json)")
    p.set_defaults(handler=_cmd_string)

    p = sub.add_parser("disk", help="impedance-rim disk spectrum (contour counted)")
    p.add_argument("--zeta", required=True, help=ZETA_HELP)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument(
        "--box",
        default=None,
        help="re_min,re_max,im_min,im_max; a negative first edge needs the = form, "
        "--box=-2,2,-2,0",
    )
    p.add_argument("--allow-nonaccretive", action="store_true")
    p.add_argument("--tol", type=_parse_tol, default=1e-10, help="pass/fail tolerance")
    p.add_argument("--out", default=None, help="output file (.csv or .json)")
    p.set_defaults(handler=_cmd_disk)

    p = sub.add_parser("fem", help="P1 discretization eigenvalues")
    p.add_argument("--shape", default="square")
    p.add_argument("--n", type=int, default=None, help="resolution for bare shapes")
    p.add_argument("--zeta", required=True, help=ZETA_HELP)
    p.add_argument("--nev", type=int, default=24)
    p.add_argument("--allow-nonaccretive", action="store_true")
    p.add_argument("--tol", type=_parse_tol, default=1e-8, help="pass/fail tolerance")
    p.add_argument("--out", default=None, help="output file (.csv or .json)")
    p.set_defaults(handler=_cmd_fem)

    p = sub.add_parser("march", help="Crank-Nicolson energy decay march")
    p.add_argument("--shape", default="square")
    p.add_argument("--n", type=int, default=None, help="resolution for bare shapes")
    p.add_argument("--zeta", required=True, help=ZETA_HELP)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--allow-nonaccretive", action="store_true")
    p.add_argument("--tol", type=_parse_tol, default=1e-12, help="pass/fail tolerance")
    p.add_argument("--out", default=None, help="output file (.csv or .json)")
    p.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p.set_defaults(handler=_cmd_march)

    p = sub.add_parser("converge", help="FEM refinement study against oracles")
    p.add_argument("--shape", choices=("square", "disk_polygon"), default="square")
    p.add_argument("--levels", type=parse_int_list, default=[8, 16, 32])
    p.add_argument("--zeta", default="0", help=ZETA_HELP)
    p.add_argument("--allow-nonaccretive", action="store_true")
    p.add_argument("--out", default=None, help="output file (.csv or .json)")
    p.set_defaults(handler=_cmd_converge)

    return parser


def main(argv=None) -> int:
    try:
        _configure_threads()
    except _UsageError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on grammar errors and 0 on --help
        return EXIT_OK if exc.code == 0 else EXIT_INVALID

    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
