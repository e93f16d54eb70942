"""Spans around the public functions of the workbench, installed from outside.

``Tracer.install`` replaces every public module-level function of the traced
modules at every module attribute that binds it: ``fem.solve_qep`` is looked
up at call time both by the CLI handler and by ``fem.convergence_study``,
and ``tuples.green_defect`` is also bound inside ``fixtures``. A wrapped call
records a span (name, layer, parent, start, end) in memory, so calls nest
under their caller. Private functions get no span; their time is self time
of the nearest public caller. ``uninstall`` restores the original bindings,
so untraced passes run the program unchanged.

A few spans also record counts taken from their arguments and results
(matrix sizes, roots found, bytes written); they are listed in ``_HOOKS``.
"""

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("cli", "fem", "models", "circle", "fixtures", "tuples", "extensions", "linalg", "reports")
_PACKAGE = "impedbench"
MB = float(1 << 20)


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _max(counts, key, value):
    counts[key] = max(counts.get(key, value), value)


def _solve_qep(counts, args, kwargs, result):
    q = args[0] if args else kwargs["q"]
    _max(counts, "fem.dim_max", q.dim)
    _add(counts, "fem.modes_returned", result.metadata["returned"])
    _add(counts, "fem.artifacts", result.metadata["artifacts"])


def _assemble(counts, args, kwargs, result):
    nbytes = result.k_stiff.nbytes + result.c_bdry.nbytes + result.m_mass.nbytes
    _max(counts, "fem.matrix_mb", nbytes / MB)


def _cn_energy_march(counts, args, kwargs, result):
    _add(counts, "fem.steps", result.steps)


def _disk_mode_roots(counts, args, kwargs, result):
    _add(counts, "models.roots_found", len(result["roots"]))
    _add(counts, "models.roots_expected", result["expected_count"])
    _add(counts, "models.sectors", 1)
    _add(counts, "models.sectors_matched", int(bool(result["count_matches"])))
    _max(counts, "models.max_root_residual", max(map(float, result["residuals"]), default=0.0))


def _compactness_gate(counts, args, kwargs, result):
    _max(counts, "circle.section_dim_max", 2 * max(result.schedule) + 1)


def _write_text_atomic(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    _add(counts, "reports.bytes_written", len(text.encode("utf-8")))


_HOOKS = {
    "fem.solve_qep": _solve_qep,
    "fem.assemble": _assemble,
    "fem.cn_energy_march": _cn_energy_march,
    "models.disk_mode_roots": _disk_mode_roots,
    "circle.compactness_gate": _compactness_gate,
    "reports.write_text_atomic": _write_text_atomic,
}

# Per-layer metrics that are the summed outermost span time of one function.
_FUNCTION_TIMES = {
    "fem.solve_qep_s": "fem.solve_qep",
    "fem.assemble_s": "fem.assemble",
    "fem.build_mesh_s": "fem.build_mesh",
    "fem.cn_energy_march_s": "fem.cn_energy_march",
    "models.disk_spectrum_s": "models.disk_spectrum",
    "models.disk_mode_roots_s": "models.disk_mode_roots",
    "circle.compactness_gate_s": "circle.compactness_gate",
    "circle.lq_report_s": "circle.lq_report",
    "fixtures.get_fixture_s": "fixtures.get_fixture",
    "fixtures.green_check_s": "fixtures.green_check",
    "tuples.green_defect_s": "tuples.green_defect",
    "extensions.impedance_to_contraction_s": "extensions.impedance_to_contraction",
    "extensions.contraction_to_impedance_s": "extensions.contraction_to_impedance",
    "extensions.restrict_extension_s": "extensions.restrict_extension",
    "extensions.mdissipativity_report_s": "extensions.mdissipativity_report",
    "extensions.resolvent_difference_rank_s": "extensions.resolvent_difference_rank",
    "cli.main_s": "cli.main",
}


def _public_functions(module):
    """Public functions defined in one of the traced modules, by attribute."""
    traced = {f"{_PACKAGE}.{layer}" for layer in LAYERS}
    for attr, value in vars(module).items():
        if (
            inspect.isfunction(value)
            and value.__module__ in traced
            and not value.__name__.startswith("_")
        ):
            yield attr, value


class Tracer:
    """In-memory span recorder for the workbench's public functions."""

    def __init__(self):
        # one record per finished or open span: [name, layer, parent, start, end]
        self.spans = []
        self.counts = {}
        self._stack = []
        self._wrappers = {}
        self._patches = []

    def _wrap(self, fn):
        layer = fn.__module__.rpartition(".")[2]
        name = f"{layer}.{fn.__name__}"
        hook = _HOOKS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, layer, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"{_PACKAGE}.{layer}")
            for attr, fn in list(_public_functions(module)):
                wrapper = self._wrappers.get(fn)
                if wrapper is None:
                    wrapper = self._wrappers[fn] = self._wrap(fn)
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def pass_metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, layer, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def outermost(i, key):
            # True unless an ancestor shares the key (recursion, nested layer calls)
            want = spans[i][key]
            parent = spans[i][2]
            while parent >= 0:
                if spans[parent][key] == want:
                    return False
                parent = spans[parent][2]
            return True

        fn_time, fn_calls, fn_self, layer_time, layer_self = {}, {}, {}, {}, {}
        root_time = 0.0
        for i, (name, layer, parent, start, end) in enumerate(spans):
            duration = end - start
            fn_calls[name] = fn_calls.get(name, 0) + 1
            fn_self[name] = fn_self.get(name, 0.0) + duration - child_time[i]
            layer_self[layer] = layer_self.get(layer, 0.0) + duration - child_time[i]
            if outermost(i, 0):
                fn_time[name] = fn_time.get(name, 0.0) + duration
            if outermost(i, 1):
                layer_time[layer] = layer_time.get(layer, 0.0) + duration
            if parent < 0:
                root_time += duration

        c = self.counts
        metrics = {metric: fn_time.get(fn, 0.0) for metric, fn in _FUNCTION_TIMES.items()}
        march_s = metrics["fem.cn_energy_march_s"]
        sectors = c.get("models.sectors", 0)
        metrics.update({
            "fem.solve_calls": fn_calls.get("fem.solve_qep", 0),
            "fem.dim_max": c.get("fem.dim_max", 0),
            "fem.modes_returned": c.get("fem.modes_returned", 0),
            "fem.artifacts": c.get("fem.artifacts", 0),
            "fem.matrix_mb": c.get("fem.matrix_mb", 0.0),
            "fem.steps_per_s": c.get("fem.steps", 0) / march_s if march_s > 0 else 0.0,
            "fem.convergence_study_self_s": fn_self.get("fem.convergence_study", 0.0),
            "models.disk_mode_roots_max_s": max(
                (end - start for name, _, _, start, end in spans
                 if name == "models.disk_mode_roots"),
                default=0.0,
            ),
            "models.roots_found": c.get("models.roots_found", 0),
            "models.roots_expected": c.get("models.roots_expected", 0),
            "models.count_match_ratio": (
                c.get("models.sectors_matched", 0) / sectors if sectors else 0.0
            ),
            "models.max_root_residual": c.get("models.max_root_residual", 0.0),
            "circle.section_dim_max": c.get("circle.section_dim_max", 0),
            "tuples.green_defect_calls": fn_calls.get("tuples.green_defect", 0),
            "linalg.total_s": layer_time.get("linalg", 0.0),
            "reports.write_s": layer_time.get("reports", 0.0),
            "reports.bytes_written": c.get("reports.bytes_written", 0),
            "cli.self_s": layer_self.get("cli", 0.0),
            "trace.coverage": root_time / pass_s if pass_s > 0 else 0.0,
        })
        return metrics


def median_metrics(per_pass: list) -> dict:
    """Median of each per-layer metric over the traced passes; counts stay whole."""
    medians = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        whole = all(isinstance(v, int) for v in values)
        medians[key] = statistics.median_low(values) if whole else statistics.median(values)
    return medians
