"""impedbench benchmark: one workload, one seed, one fresh process.

Run from the repository root:

    python3 bench/run.py --workload fem-converge --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): fem-converge, disk-oracle, cn-march and
boundary-checks. BENCHMARK.json lists only fem-converge and boundary-checks:
together they enter every layer, and on a shared host whose speed drifts by a
third over minutes, two workloads are what the time limit for all runs allows
at runs long enough to keep the spread within the bounds. disk-oracle and
cn-march stay runnable by hand. The process pins the BLAS pools to one thread by setting
WORKBENCH_THREADS=1, which the CLI maps onto the BLAS variables before numpy
loads. It then acts as one closed-loop client: it calls impedbench.cli.main
in-process, sends the next command only after the previous one returned, and
has every command write its --out file to a scratch directory inside the
checkout (.bench_tmp/, removed at exit). A pass is the workload's command
sequence. The modules the workload's handlers import are loaded, and one
untimed warm-up pass runs, before the first measured pass, so every measured
pass is warm; the load time is setup_s. The warm-up pass's outputs are
checked like any other.

--trace 0 measures untraced passes for --seconds seconds, and at least
MIN_PASSES of them, and reports the end-to-end metrics:

  setup_s      median over SETUP_SAMPLES fresh interpreters, launched between
               passes and spread over the run, of the time from launch until
               impedbench and the modules the workload's handlers import are
               loaded
  wall_s       median wall time of one warm pass, taken over blocks of BLOCK
               consecutive passes: the median of the blocks' mean pass times.
               The host's speed switches between two levels every few
               seconds, so single pass times fall into two clusters and their
               median jumps between them from run to run; block means smooth
               that over
  wall_s_tail  the highest percentile of pass time with at least ten passes
               beyond it
  peak_rss_mb  peak resident set of this process after the passes, in MB
               (2**20 bytes)

--trace 1 alternates untraced passes with passes traced by spans.Tracer over
the same --seconds and reports the per-layer metrics: the median over the
traced passes of each layer metric, trace.overhead_s (traced minus untraced
pass median), trace.coverage (share of the traced pass inside root spans),
error_rate and check.max_ref_err.

Every command's output is checked against an independent route (checks.py)
and against the bytes the first pass wrote: a command fails on a nonzero
exit, an exception, a failed check, or output bytes that differ between
passes. attempted/failed count the commands of every pass.

The lines before the last give every metric with its sample count and the
environment; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from workloads import SETUP_IMPORTS, WORKLOADS, commands, write_inputs  # noqa: E402

SETUP_SAMPLES = 7
TAIL_BEYOND = 10  # passes the tail percentile must leave above it
MIN_PASSES = TAIL_BEYOND + 3  # so that the tail is not simply the fastest pass
BLOCK = 3  # consecutive passes averaged into one wall_s sample
MIN_TRACE_PASSES = 3  # of each kind, traced and untraced, in a --trace 1 run
MEASURE_LIMIT_S = 120.0  # stop early rather than overrun the run's time limit
SCRATCH = ".bench_tmp"

# Units other than the defaults: "s" for names ending in _s, else "count".
UNITS = {
    "wall_s_tail": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "check.max_ref_err": "1",
    "trace.coverage": "ratio",
    "fem.matrix_mb": "MB",
    "fem.steps_per_s": "1/s",
    "models.count_match_ratio": "ratio",
    "models.max_root_residual": "1",
    "reports.bytes_written": "bytes",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


class Client:
    """One closed-loop client running a workload's passes in-process."""

    def __init__(self, cli, workload: str, seed: int, workdir: str):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.snapdir = os.path.join(workdir, "snapshots")
        self.cmds = commands(workload, seed, workdir)
        self.first_digest = {}  # command label -> digest of its first outputs
        self.snapshots = {}  # (label, digest) -> directory holding those outputs
        self.runs = []  # one (label, digest, failure) per command executed

    def _call(self, argv):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(list(argv))
        except Exception as exc:  # a traceback is a failed command, not a dead run
            return f"exception {type(exc).__name__}: {exc}"
        return None if code == 0 else f"exit {code}: {sink.getvalue().strip()[-300:]}"

    def run_pass(self) -> float:
        """Run the commands in order; return the pass's wall time."""
        gc.collect()  # every pass starts from the same collector state
        start = time.perf_counter()
        failures = [self._call(cmd.argv) for cmd in self.cmds]
        elapsed = time.perf_counter() - start
        for cmd, failure in zip(self.cmds, failures):
            self._record(cmd, failure)
        return elapsed

    def _record(self, cmd, failure) -> None:
        digest = None
        if failure is None:
            blobs = []
            for name in cmd.outputs:
                try:
                    with open(os.path.join(self.workdir, name), "rb") as fh:
                        blobs.append(fh.read())
                except OSError as exc:
                    failure = f"output {name} unreadable: {exc}"
                    break
        if failure is None:
            h = hashlib.sha256()
            for name, blob in zip(cmd.outputs, blobs):
                h.update(name.encode() + b"\0" + blob + b"\0")
            digest = h.hexdigest()
            first = self.first_digest.setdefault(cmd.label, digest)
            if digest != first:
                failure = "output bytes differ from the first pass"
            key = (cmd.label, digest)
            if key not in self.snapshots:
                target = os.path.join(self.snapdir, f"{len(self.snapshots)}")
                os.makedirs(target)
                for name, blob in zip(cmd.outputs, blobs):
                    with open(os.path.join(target, name), "wb") as fh:
                        fh.write(blob)
                self.snapshots[key] = target
        self.runs.append((cmd.label, digest, failure))

    def check_outputs(self):
        """Check each distinct output once; return (failed, max error, reasons)."""
        import checks

        by_label = {cmd.label: cmd for cmd in self.cmds}
        verdicts, worst = {}, 0.0
        for (label, digest), target in self.snapshots.items():
            try:
                err = checks.check(self.workload, by_label[label], target, self.seed)
                worst = max(worst, err)
                verdicts[(label, digest)] = None
            except checks.CheckFailure as exc:
                verdicts[(label, digest)] = f"check failed: {exc}"
        failed, reasons = 0, []
        for label, digest, failure in self.runs:
            failure = failure or verdicts.get((label, digest))
            if failure:
                failed += 1
                reasons.append(f"{label}: {failure}")
        return failed, worst, reasons

    def outputs_digest(self) -> str:
        h = hashlib.sha256()
        for label in sorted(self.first_digest):
            h.update(f"{label}={self.first_digest[label]};".encode())
        return h.hexdigest()


def setup_timer(workload: str, src: str):
    """A callable giving the launch-to-loaded time of one fresh interpreter
    importing the workload's modules."""
    code = "\n".join(
        ["import time", "from impedbench import cli", "cli._configure_threads()"]
        + [f"import {name}" for name in SETUP_IMPORTS[workload]]
        + ["print(repr(time.monotonic()))"]
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def launch() -> float:
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        return float(done.stdout.split()[-1]) - start

    return launch


def tail(samples: list):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _time_passes(client, seconds: float, min_passes: int, tracer=None, launch=None):
    """Untraced pass times, and traced ones when a tracer is given, alternating.

    With a launch timer, SETUP_SAMPLES set-up times are taken between passes,
    spread evenly over the run, so that they see the same host as the passes
    do and not only its state in the run's first seconds."""
    plain, traced, layer, setup = [], [], [], []
    wanted = 0 if launch is None else SETUP_SAMPLES
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = (len(plain) >= min_passes and len(setup) >= wanted
                  and (tracer is None or len(traced) >= min_passes))
        if (elapsed >= seconds and enough) or elapsed >= MEASURE_LIMIT_S:
            break
        if len(setup) < wanted and elapsed >= len(setup) * seconds / wanted:
            setup.append(launch())
        elif tracer is not None and len(traced) < len(plain):
            tracer.reset()
            tracer.install()
            try:
                duration = client.run_pass()
            finally:
                tracer.uninstall()
            traced.append(duration)
            layer.append(tracer.pass_metrics(duration))
        else:
            plain.append(client.run_pass())
    return plain, traced, layer, setup


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str,
            min_passes: int = None) -> dict:
    """Run one workload and return its metrics, counts and run details."""
    src = os.path.join(root, "src")
    from impedbench import cli

    os.environ["WORKBENCH_THREADS"] = "1"
    cli._configure_threads()  # before numpy loads in this process

    scratch = os.path.join(root, SCRATCH)
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        write_inputs(workload, seed, workdir)
        for name in SETUP_IMPORTS[workload]:
            importlib.import_module(name)
        client = Client(cli, workload, seed, workdir)
        client.run_pass()  # warm-up: first calls fill caches, not timed
        if trace:
            from spans import Tracer, median_metrics

            plain, traced, layer, setup = _time_passes(
                client, seconds, min_passes or MIN_TRACE_PASSES, Tracer()
            )
        else:
            plain, traced, layer, setup = _time_passes(
                client, seconds, min_passes or MIN_PASSES, launch=setup_timer(workload, src)
            )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, max_err, reasons = client.check_outputs()
        digest = client.outputs_digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)

    attempted = len(client.runs)
    if trace:
        metrics = median_metrics(layer)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics["error_rate"] = failed / attempted
        metrics["check.max_ref_err"] = max_err
        samples = {"untraced passes": len(plain), "traced passes": len(traced)}
    else:
        tail_s, pct = tail(plain)
        blocks = [statistics.fmean(plain[i:i + BLOCK])
                  for i in range(0, len(plain) - BLOCK + 1, BLOCK)]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(blocks),
            "wall_s_tail": tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        samples = {
            "setup_s": len(setup),
            "wall_s": f"median of {len(blocks)} means of {BLOCK} of {len(plain)} passes",
            "wall_s_tail": f"p{pct:.1f} of {len(plain)}",
            "peak_rss_mb": 1,
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "samples": samples,
        "error_rate": failed / attempted,
        "outputs_sha256": digest,
        "pass_s": {"untraced": plain, "traced": traced},
    }


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    from impedbench import cli

    def blas(config):
        try:
            return config["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config(mode="dicts")),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in ("WORKBENCH_THREADS",) + cli._THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "impedbench", "cli.py")):
        print(f"bench: no impedbench sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    env = environment(root, args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = result["metrics"]
    for name in metrics:
        print(f"{name:40s} {metrics[name]!r:>24} {unit_of(name)}")
    print(f"{'error_rate':40s} {result['error_rate']!r:>24} ratio "
          f"({result['failed']} of {result['attempted']} commands)")
    for reason in result["failures"][:5]:
        print(f"failure: {reason}")
    print(json.dumps({"environment": env, "samples": result["samples"],
                      "outputs_sha256": result["outputs_sha256"],
                      "pass_s": result["pass_s"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
