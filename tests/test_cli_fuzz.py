"""The exit-code contract of the boundary commands under drawn argument vectors.

Every argv is built from the documented grammar of green-check, extension
cayley|mdiss|rank, gate and lq, with values that are valid, malformed,
non-finite, negative or huge. main() must answer each with a documented exit
code (0, 2, 3 or 4) and never raise. Work stays small: at most 5 trials and
section cutoffs of at most 128, apart from one cutoff over the 1024 cap.
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
            option("--rank", st.integers(-1, 3).map(str)), option("--z", SCALAR),
            option("--tol", NUMBER), option("--seed", SEED), option("--out", OUT)),
    command(["gate"], COEFFICIENT.map(lambda z: ["--zeta", z]), option("--s", NUMBER),
            # the default schedule runs to 128, within the budget
            option("--sections", SECTIONS), option("--out", OUT)),
    command(["lq"], COEFFICIENT.map(lambda z: ["--zeta", z]), option("--s", NUMBER),
            option("--q", NUMBER), option("--out", OUT)),
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
