"""The exit-code contract of every subcommand under drawn argument vectors.

Every argv is built from the documented grammar of green-check, extension
cayley|mdiss|rank, gate and lq, or of the spectral commands string, disk,
fem, march and converge, with values that are valid, malformed, non-finite,
negative or huge; every --zeta and --z is drawn from the whole coefficient
grammar, power: and file: included. main() must answer each with a
documented exit code (0, 2, 3 or 4) and never raise. Work stays small: at
most 5 trials and section cutoffs of at most 128, apart from one cutoff over
the 1024 cap; for the spectral commands at most 5 string modes, disk sectors
0 and 1, meshes of resolution 4 or less, fewer than 10 time steps and
convergence levels of 4 or less.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from impedbench import cli

# hypothesis caches the constants it reads from local modules, at collection
# and with no example database too, under ./.hypothesis unless told otherwise
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "impedbench-hypothesis")

# coefficient files the file: grammar may name, among them malformed JSON
# and samples or Fourier data whose values overflow downstream
COEFFICIENT_FILES = {
    "smooth.json": json.dumps([[1.0, 0.1], [1.2, 0.0], [0.9, -0.1], [1.1, 0.2]]),
    "fourier.json": json.dumps({"kind": "fourier", "coeffs": [[0.1, 0], [1, 0], [0.1, 0]]}),
    "huge-samples.json": json.dumps([1.7e308, -1.7e308, 1e308, 1.7e308]),
    "huge-pairs.json": json.dumps([[1.7e308, 1.7e308], [-1.7e308, 1e308]]),
    "huge-fourier.json": json.dumps({"kind": "fourier", "coeffs": [[1e308, 1e308], [1.7e308, 0]]}),
    "overflow.json": "[1e309, 0.5]",
    "malformed.json": "[1.0, 2.0",
    "empty.json": "[]",
    "wrong-kind.json": json.dumps({"kind": "taylor", "coeffs": [1]}),
    "bad-entry.json": json.dumps([[1, 2, 3], "x"]),
    "object.json": json.dumps({"values": 3}),
}

FIXTURES = st.sampled_from(
    ["transport-64", "transport-32", "transport-64-weighted", "transport2-48", "no-such-fixture"]
)
NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "0.5", "2", "1e308", "-1e308",
                     "1.7e308", "x"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
SEED = st.one_of(st.integers(-(2**70), 2**70).map(str), st.sampled_from(["-1", "1.5", "x"]))
SCALAR = st.one_of(
    NUMBER,
    st.tuples(NUMBER, NUMBER).map(lambda p: f"const:{p[0]},{p[1]}"),
    st.sampled_from(["1j", "1e308j", "-1e308j", "1+1e308j", "1e300+1e300j", "const:1", "j"]),
)
COEFFICIENT = st.one_of(
    SCALAR,
    st.tuples(NUMBER, NUMBER).map(lambda p: f"power:a={p[0]},c={p[1]}"),
    st.sampled_from(["power:c=1", "power:a", "file:missing.json"]),
    st.sampled_from(sorted(COEFFICIENT_FILES)).map(lambda name: "file:" + name),
)
CUTOFF = st.one_of(st.integers(-2, 128), st.just(1025))
SECTIONS = st.one_of(
    st.lists(CUTOFF, min_size=1, max_size=4).map(lambda v: ",".join(map(str, v))),
    # increasing schedules, which get past the grammar to the gate
    st.lists(CUTOFF, min_size=2, max_size=4, unique=True).map(
        lambda v: ",".join(map(str, sorted(v)))
    ),
    st.sampled_from(["", "16,x", "1e3"]),
)
OUT = st.sampled_from(["r.json", "r.csv", "r", "missing-dir/r.json"])


def option(flag, values):
    """Either nothing or [flag, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def command(head, *options):
    return st.tuples(st.just(head), *options).map(lambda parts: sum(parts[1:], list(parts[0])))


TRIALS = st.integers(-1, 5).map(str)
ARGV = st.one_of(
    command(["green-check"], FIXTURES.map(lambda f: ["--fixture", f]),
            option("--trials", TRIALS), option("--tol", NUMBER), option("--seed", SEED),
            option("--out", OUT)),
    command(["extension", "cayley"], FIXTURES.map(lambda f: ["--fixture", f]),
            option("--trials", TRIALS), option("--tol", NUMBER), option("--seed", SEED),
            option("--out", OUT)),
    command(["extension", "mdiss"], FIXTURES.map(lambda f: ["--fixture", f]),
            st.sampled_from([[], ["--skew"]]), option("--seed", SEED), option("--out", OUT)),
    command(["extension", "rank"], FIXTURES.map(lambda f: ["--fixture", f]),
            option("--rank", st.integers(-1, 3).map(str)), option("--z", COEFFICIENT),
            option("--tol", NUMBER), option("--seed", SEED), option("--out", OUT)),
    command(["gate"], COEFFICIENT.map(lambda z: ["--zeta", z]), option("--s", NUMBER),
            # the default schedule runs to 128, within the budget
            option("--sections", SECTIONS), option("--out", OUT)),
    command(["lq"], COEFFICIENT.map(lambda z: ["--zeta", z]), option("--s", NUMBER),
            option("--q", NUMBER), option("--out", OUT)),
)


# impedances for the spectral commands: accretive, reactive (the disk at
# -0.3i once stopped on a contour zero), nonaccretive, huge and non-finite,
# and every other kind of the coefficient grammar
ZETA = st.one_of(
    st.sampled_from(["0", "0.5", "1", "2", "0.3+0.4j", "0.3j", "-0.3j", "const:0,-0.3",
                     "const:0,0.5", "-1", "-0.5", "const:-1,-1", "1e308", "1.7e308",
                     "const:1e308,1e308", "const:1.7e308,1.7e308", "-1e308j", "1e-300",
                     "nan", "inf", "const:0,inf", "const:1", "x"]),
    COEFFICIENT,
)
NONACCRETIVE = st.sampled_from([[], ["--allow-nonaccretive"]])
BOX = st.sampled_from(["0.05,20,-5,0.05", "3,4.5,-0.5,0.05", "-2,2,-2,0",
                       # an east edge through the first rigid-rim root
                       "0.05,3.8317059702075125,-0.5,0.05",
                       "0.05,inf,-5,0.05", "nan,1,-1,0", "1,0,-1,0", "0,1e308,-1,0",
                       "1,2,3", "a,b,c,d"]).map(lambda b: "--box=" + b)
SHAPE = st.sampled_from(["square", "disk_polygon", "square{2}", "disk_polygon{2,8}",
                         "rectangle{2,3,1,0.5}", "rectangle{2,2,inf,1}", "square{0}",
                         "circle", "missing.mesh"])
RESOLUTION = st.integers(-1, 4).map(str)
LEVELS = st.sampled_from(["2,3", "2", "3,4", "0,2", "-1", "2,x", ""])
SPECTRAL_ARGV = st.one_of(
    command(["string"], ZETA.map(lambda z: ["--zeta", z]),
            option("--count", st.integers(-1, 5).map(str)), NONACCRETIVE,
            option("--tol", NUMBER), option("--out", OUT)),
    command(["disk"], ZETA.map(lambda z: ["--zeta", z]),
            option("--m-max", st.integers(-1, 1).map(str)),
            st.one_of(st.just([]), BOX.map(lambda b: [b])), NONACCRETIVE,
            option("--tol", NUMBER), option("--out", OUT)),
    command(["fem"], option("--shape", SHAPE), option("--n", RESOLUTION),
            ZETA.map(lambda z: ["--zeta", z]), option("--nev", st.integers(-1, 4).map(str)),
            NONACCRETIVE, option("--tol", NUMBER), option("--out", OUT)),
    command(["march"], option("--shape", SHAPE), option("--n", RESOLUTION),
            ZETA.map(lambda z: ["--zeta", z]), option("--dt", NUMBER),
            option("--steps", st.integers(-1, 9).map(str)), NONACCRETIVE,
            option("--tol", NUMBER), option("--seed", SEED), option("--out", OUT)),
    command(["converge"], option("--shape", st.sampled_from(["square", "disk_polygon", "x"])),
            option("--levels", LEVELS), option("--zeta", ZETA), NONACCRETIVE,
            option("--out", OUT)),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in COEFFICIENT_FILES.items():
        (path / name).write_text(text)
    return path


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV)
def test_documented_exit_code(workdir, argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        assert cli.main(argv) in (0, 2, 3, 4)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=SPECTRAL_ARGV)
def test_spectral_documented_exit_code(workdir, argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        assert cli.main(argv) in (0, 2, 3, 4)
