"""Exit codes, argument grammar, and output determinism of the CLI."""

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from impedbench import cli, tuples

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    return cli.main(argv)


def quick_start_examples():
    """(argv, printed line) for each `$ impedbench ...` line of the README quick start."""
    lines = README.read_text(encoding="utf-8").split("## Quick start", 1)[1].splitlines()
    return [
        (shlex.split(line)[2:], lines[i + 1])
        for i, line in enumerate(lines)
        if line.startswith("$ impedbench ")
    ]


QUICK_START = quick_start_examples()

# the boundary-checks benchmark's seven commands and the two closed-form
# oracles, each writing --out into the working directory
SCIPY_FREE_COMMANDS = {
    "green-check": ["green-check", "--fixture", "transport-64", "--out", "green.json"],
    "cayley": ["extension", "cayley", "--fixture", "transport-64", "--out", "cayley.json"],
    "rank": ["extension", "rank", "--fixture", "transport2-48", "--rank", "2",
             "--out", "rank.json"],
    "mdiss": ["extension", "mdiss", "--fixture", "transport2-48", "--out", "mdiss.json"],
    "gate-power": ["gate", "--zeta", "power:a=0.3", "--sections", "16,32,64,128,256",
                   "--out", "gate-power.csv"],
    "gate-file": ["gate", "--zeta", "file:coef.json", "--sections", "16,32,64,128,256",
                  "--out", "gate-file.csv"],
    "lq": ["lq", "--zeta", "power:a=0.3", "--out", "lq.json"],
    "string": ["string", "--zeta", "0.5", "--out", "string.json"],
    "disk": ["disk", "--zeta", "0.5", "--m-max", "1", "--out", "disk.json"],
}

# input files holding a non-finite number; Python's json reads NaN and Infinity
NON_FINITE_INPUT_FILES = {
    "nan-samples.json": "[0.5, NaN, 1.0]",
    "inf-pairs.json": "[[0.5, 0.0], [1.0, Infinity], [1.0, 0.0]]",
    "nan-fourier.json": '{"kind": "fourier", "coeffs": [[0, 0], [NaN, 0], [0, 0]]}',
    "nan.mesh": "mesh2d v1\n3\nv 0 0\nv 1 0\nv nan 1\nt 0 1 2\nb 0 1 rim\nb 1 2 rim\nb 2 0 rim\n",
}


class TestGrammar:
    def test_scalar_forms(self):
        for text, value in [("const:0.5,-1.0", 0.5 - 1.0j), ("2.0", 2.0 + 0j),
                            ("1+2j", 1 + 2j), ("-0.5", -0.5 + 0j)]:
            coef = cli.parse_coefficient(text)
            assert coef.kind == "constant" and coef.value == value

    def test_scalar_rejects_garbage(self):
        for bad in ("const:1", "const:a,b", "one", ""):
            with pytest.raises(cli._UsageError):
                cli.parse_coefficient(bad)

    def test_power_form(self):
        coef = cli.parse_coefficient("power:a=0.3,c=2")
        assert "power" in coef.label
        with pytest.raises(cli._UsageError):
            cli.parse_coefficient("power:c=2")
        # the label carries the exponent to its last digit, not rounded to 1
        assert "a=0.9999999999" in cli.parse_coefficient("power:a=0.9999999999").label

    def test_box_form(self):
        box = cli.parse_box("0.1,5,-2,0")
        assert box.re_max == 5.0
        with pytest.raises(cli._UsageError):
            cli.parse_box("1,2,3")

    def test_file_samples(self, tmp_path):
        path = tmp_path / "samples.json"
        theta = np.linspace(-np.pi, np.pi, 32, endpoint=False)
        path.write_text(json.dumps([[float(np.cos(t)), 0.0] for t in theta]))
        coef = cli.parse_coefficient(f"file:{path}")
        ck = coef.fourier_coeffs(2)
        # cos has centered coefficients 1/2 at indices +-1
        assert abs(ck[3] - 0.5) < 1e-2 and abs(ck[1] - 0.5) < 1e-2
        assert abs(ck[2]) < 1e-2

    def test_file_fourier(self, tmp_path):
        path = tmp_path / "fourier.json"
        path.write_text(json.dumps({"kind": "fourier", "coeffs": [[0, 0], [1, 0], [0, 0]]}))
        coef = cli.parse_coefficient(f"file:{path}")
        assert "file:" in coef.label

    def test_file_rejects_bad_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "mystery"}')
        with pytest.raises(cli._UsageError):
            cli.parse_coefficient(f"file:{path}")
        with pytest.raises(cli._UsageError):
            cli.parse_coefficient("file:/does/not/exist.json")


class TestExitCodes:
    def test_green_check_passes(self, capsys):
        assert run(["green-check", "--fixture", "transport-64", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and out.count("\n") == 1

    def test_green_check_impossible_tol_exit2(self):
        code = run(["green-check", "--fixture", "transport-64", "--trials", "5", "--tol", "1e-17"])
        assert code == 2

    def test_unknown_fixture_exit3(self, capsys):
        assert run(["green-check", "--fixture", "nope"]) == 3
        assert "invalid input" in capsys.readouterr().err

    def test_unknown_flag_exit3(self, capsys):
        assert run(["string", "--zeta", "0.5", "--frobnicate"]) == 3
        capsys.readouterr()

    def test_missing_subcommand_exit3(self, capsys):
        assert run([]) == 3
        capsys.readouterr()

    def test_help_exit0(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        printed = []
        for _ in range(2):
            assert run(["string", "--zeta", "0.5", "--count", "2"]) == 0
            printed.append(capsys.readouterr().out)
        assert built.count("impedbench") == 1
        assert printed[0] == printed[1] != ""
        # argparse's own exits keep their codes through the shared parser
        assert run(["string", "--zeta", "0.5", "--frobnicate"]) == 3
        assert run(["--help"]) == 0
        capsys.readouterr()
        assert built.count("impedbench") == 1

    def test_nonaccretive_fem_refused(self, capsys):
        assert run(["fem", "--shape", "square", "--n", "8", "--zeta", "-1.0"]) == 2
        assert "allow-nonaccretive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["string", "disk", "fem", "march", "converge"])
    def test_nonaccretive_refusal_is_an_invariant_violation(self, capsys, command):
        assert run([command, "--zeta", "-0.5"]) == 2
        assert capsys.readouterr().err.startswith("invariant violation: ")

    # a route that reads one number names itself and the kind it cannot read
    @pytest.mark.parametrize("zeta,label", [
        ("power:a=0.3", "power(a=0.3,c=1+0j)"),
        ("file:samples.json", "file:samples.json"),
    ])
    @pytest.mark.parametrize("command", [
        ["string"], ["disk", "--m-max", "0"], ["fem", "--n", "2"], ["march", "--n", "2"],
        ["converge"],
    ])
    def test_scalar_route_refuses_other_kinds_exit3(self, capsys, tmp_path, monkeypatch,
                                                    command, zeta, label):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "samples.json").write_text("[1.0, 0.5, 0.25]")
        assert run(command + ["--zeta", zeta]) == 3
        err = capsys.readouterr().err
        assert err == f"invalid input: {command[0]} takes only constants, not {label}\n"

    @pytest.mark.parametrize("z", ["power:a=0.3", "power:a=2", "file:missing.json"])
    def test_rank_refuses_other_kinds_exit3(self, capsys, z):
        assert run(["extension", "rank", "--fixture", "transport-64", "--z", z]) == 3
        assert capsys.readouterr().err.startswith("invalid input: ")

    def test_nonaccretive_refusal_prints_zeta_exactly(self, capsys):
        assert run(["string", "--zeta", "-1.0000001"]) == 2
        assert "impedance -1.0000001+0j has negative real part" in capsys.readouterr().err

    def test_nonaccretive_string_escape_hatch(self, capsys):
        assert run(["string", "--zeta", "-0.5"]) == 2
        capsys.readouterr()
        assert run(["string", "--zeta", "-0.5", "--allow-nonaccretive"]) == 0
        capsys.readouterr()

    def test_out_into_missing_directory_exit4(self, tmp_path, capsys):
        target = str(tmp_path / "absent" / "r.json")
        assert run(["string", "--zeta", "0.5", "--out", target]) == 4
        assert "i/o failure" in capsys.readouterr().err

    def test_bad_threads_env_exit3(self, monkeypatch, capsys):
        monkeypatch.setenv("WORKBENCH_THREADS", "many")
        assert run(["string", "--zeta", "0.5"]) == 3
        capsys.readouterr()

    # flags no handler reads are not accepted
    @pytest.mark.parametrize("argv", [
        ["gate", "--zeta", "power:a=0.5", "--tol", "5"],
        ["gate", "--zeta", "power:a=0.5", "--seed", "1"],
        ["lq", "--zeta", "power:a=0.5", "--tol", "5"],
        ["lq", "--zeta", "power:a=0.5", "--seed", "1"],
        ["converge", "--levels", "4,8", "--tol", "7"],
        ["converge", "--levels", "4,8", "--seed", "1"],
        ["extension", "mdiss", "--fixture", "transport-64", "--tol", "-1"],
        ["string", "--zeta", "0.5", "--seed", "1"],
        ["disk", "--zeta", "0.5", "--seed", "1"],
        ["fem", "--n", "4", "--zeta", "0.5", "--seed", "1"],
        ["disk", "--zeta", "0.5", "--m-max", "0", "--samples", "2048"],
    ])
    def test_removed_flag_exit3(self, capsys, argv):
        assert run(argv) == 3
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fem", "--n", "4", "--zeta", "nan"],
        ["fem", "--n", "4", "--zeta", "inf"],
        ["fem", "--n", "4", "--zeta", "const:0,inf"],
        ["fem", "--shape", "rectangle{2,2,inf,1}", "--zeta", "0.5"],
        ["fem", "--shape", "rectangle{2,2,1,nan}", "--zeta", "0.5"],
        ["march", "--n", "4", "--zeta", "nan"],
        ["march", "--n", "4", "--zeta", "1.0", "--dt", "nan"],
        ["march", "--n", "4", "--zeta", "1.0", "--dt", "inf"],
        ["march", "--n", "4", "--zeta", "1.0", "--dt", "1e308"],
        ["disk", "--zeta", "nan", "--m-max", "0"],
        # the edge blocks of C overflow
        ["fem", "--shape", "disk_polygon", "--n", "1", "--zeta", "1.7e308", "--nev", "1"],
        # |zeta| overflows
        ["string", "--zeta", "const:1.7e308,1.7e308"],
        ["lq", "--zeta", "power:a=0.3", "--q", "nan"],
        ["string", "--zeta", "0.5", "--count", "0"],
        ["string", "--zeta", "0.5", "--count", "100001"],
        ["gate", "--zeta", "power:a=0.3", "--sections", "16,2048"],
        ["gate", "--zeta", "power:a=0.3", "--s", "inf"],
        ["gate", "--zeta", "power:a=0.3", "--s", "1e3"],
        ["fem", "--shape", "square{100000}", "--zeta", "0.5"],
        ["march", "--shape", "disk_polygon{1000,4000}", "--zeta", "0.5"],
        ["gate", "--zeta", "power:a=0.3,c=nan"],
        ["gate", "--zeta", "power:a=0.3,c=inf"],
        ["lq", "--zeta", "power:a=0.3,c=nan"],
        ["gate", "--zeta", "file:nan-samples.json"],
        ["gate", "--zeta", "file:inf-pairs.json"],
        ["gate", "--zeta", "file:nan-fourier.json"],
        ["lq", "--zeta", "file:nan-samples.json"],
        ["fem", "--shape", "nan.mesh", "--zeta", "0.5"],
        # a cutoff-0 section has an empty corner
        ["gate", "--zeta", "1", "--sections", "0,4"],
        ["gate", "--zeta", "power:a=0.3", "--sections", "0,1"],
        ["gate", "--zeta", "power:a=0.3", "--sections=-1,2"],
        # power takes a and c, each once
        ["gate", "--zeta", "power:a=0.3,b=2"],
        ["gate", "--zeta", "power:a=0.3,a=0.5"],
        ["lq", "--zeta", "power:a=0.3,q=9"],
    ])
    def test_bad_value_exit3(self, capsys, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in NON_FINITE_INPUT_FILES.items():
            (tmp_path / name).write_text(text)
        assert run(argv) == 3
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fem", "march"])
    def test_overflowing_element_area_exit3(self, capsys, recwarn, command):
        # signed areas of 2.5e319 used to reach assembly as inf, warn twice
        # and fail the stiffness check (exit 4)
        assert run([command, "--shape", "rectangle{2,2,1e160,1e160}", "--zeta", "0.5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and len(err.splitlines()) == 1
        assert "non-finite signed area" in err
        assert len(recwarn) == 0

    # coefficients whose Fourier data or section norms overflow; an
    # overflowed norm would read as a zero indicator. The entries of the
    # last section have finite parts and an infinite modulus.
    @pytest.mark.parametrize("zeta,reason", [
        ("power:a=0.9,c=1e308", "Fourier coefficients"),
        ("power:a=0.3,c=1.7e308", "section norm"),
        ("const:1.7e308,1.7e308", "section norm"),
    ])
    def test_gate_overflow_exit3(self, capsys, zeta, reason):
        assert run(["gate", "--zeta", zeta]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and reason in err

    def test_gate_hermitian_part_of_huge_section_is_finite(self, capsys, tmp_path):
        # S + S^H overflows for this section, S / 2 + S^H / 2 does not; the
        # indicators are scale-invariant and re_defect scales with zeta
        sidecars = {}
        for zeta in ("const:1,0.5", "const:1e308,1e308"):
            out = tmp_path / f"{zeta}.json"
            assert run(["gate", "--zeta", zeta, "--out", str(out)]) == 0
            sidecars[zeta] = json.loads(out.read_text())
        assert "verdict compact" in capsys.readouterr().out
        unit, huge = sidecars["const:1,0.5"], sidecars["const:1e308,1e308"]
        assert huge["verdict"] == unit["verdict"] == "compact"
        np.testing.assert_allclose(huge["indicators"], unit["indicators"], rtol=1e-12)
        assert huge["re_defect"] == pytest.approx(1e308 * unit["re_defect"], rel=1e-12)
        assert huge["re_defect"] == pytest.approx(7.81e305, rel=1e-3)

    @pytest.mark.parametrize("command", [
        ["green-check", "--fixture", "transport-64"],
        ["extension", "cayley", "--fixture", "transport-64"],
        ["extension", "mdiss", "--fixture", "transport-64"],
        ["extension", "rank", "--fixture", "transport2-48"],
        ["march", "--n", "4", "--zeta", "0.5", "--steps", "2"],
    ])
    def test_negative_seed_exit3(self, capsys, command):
        assert run(command + ["--seed", "-1"]) == 3
        assert "argument --seed: seed must be >= 0" in capsys.readouterr().err

    def test_huge_seed_accepted(self, capsys):
        argv = ["green-check", "--fixture", "transport-32", "--trials", "2", "--seed", str(2**100)]
        assert run(argv) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize("z", ["1e308j", "const:1.7e306,0"])
    def test_rank_overflowing_spectral_point_exit3(self, capsys, z):
        assert run(["extension", "rank", "--fixture", "transport-64", "--z", z]) == 3
        assert "the shifted operator overflows" in capsys.readouterr().err

    def test_dense_companion_overflow_exit4(self, capsys):
        # the shift-invert path already fails numerically at this zeta
        for shape in ("disk_polygon", "square"):
            n = "2" if shape == "disk_polygon" else "16"
            assert run(["fem", "--shape", shape, "--n", n, "--zeta", "1e308"]) == 4
            assert capsys.readouterr().err.startswith("numerical failure: ")

    @pytest.mark.parametrize("zeta", ["1e200", "1e300", "1.7e308"])
    def test_converge_huge_zeta_exit0(self, capsys, zeta):
        # the residual columns hold entries near zeta; each is scaled by a
        # power of two before its squares are summed, so the norm is finite
        argv = ["converge", "--shape", "disk_polygon", "--levels", "4,8,12", "--zeta", zeta]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "orders [2.00, 2.00], unmatched 0" in out

    def test_fem_huge_zeta_small_group_exit4(self, capsys):
        # a finite residual now, but the modes near -i sigma / zeta are still
        # solved in the unscaled pencil, and they miss the gate
        assert run(["fem", "--zeta", "1e300"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "residual inf" not in err

    def test_string_enclosure_violation_exit2(self, monkeypatch, capsys):
        from impedbench import models
        from impedbench.reports import ModeEntry, SpectrumReport

        monkeypatch.setattr(models, "string_spectrum", lambda spec, count: SpectrumReport(
            "string", [ModeEntry(1.0, 1e-3, 0.0, "string")]))
        assert run(["string", "--zeta", "0.5"]) == 2
        assert "max Im 1.000000e-03" in capsys.readouterr().out

    def test_disk_count_mismatch_exit2(self, monkeypatch, capsys):
        from impedbench import models

        spectrum = models.disk_spectrum

        def mismatched(*args, **kwargs):
            report = spectrum(*args, **kwargs)
            report.metadata["all_counts_match"] = False
            return report

        monkeypatch.setattr(models, "disk_spectrum", mismatched)
        assert run(["disk", "--zeta", "0.5", "--m-max", "0"]) == 2
        assert "counts MISMATCH" in capsys.readouterr().out

    def test_disk_enclosure_violation_exit2(self, capsys):
        # the polished rigid-rim roots carry Im of about +1e-17
        assert run(["disk", "--zeta", "0", "--m-max", "3", "--tol", "0"]) == 2
        assert "counts match" in capsys.readouterr().out

    def test_fem_enclosure_violation_exit2(self, monkeypatch, capsys):
        from impedbench import fem
        from impedbench.reports import ModeEntry, SpectrumReport

        monkeypatch.setattr(fem, "solve_qep", lambda q, n_want: SpectrumReport(
            "fem", [ModeEntry(1.0, 1e-3, 0.0, "fem")],
            metadata={"path": "complex", "artifacts": 0}))
        assert run(["fem", "--n", "4", "--zeta", "0.5"]) == 2
        assert "max Im 1.000000e-03" in capsys.readouterr().out

    @pytest.mark.parametrize("zeta,energies", [
        # an accretive rim whose energy grows in one step
        ("0.5", [1.0, 0.9, 0.95]),
        # a conservative rim whose energy decays instead of staying put
        ("const:0,0.5", [1.0, 0.9, 0.8]),
    ])
    def test_march_energy_violation_exit2(self, monkeypatch, capsys, zeta, energies):
        from impedbench import fem
        from impedbench.reports import EnergyTrace

        monkeypatch.setattr(fem, "cn_energy_march",
                            lambda q, initial, dt, steps: EnergyTrace("march", dt, energies))
        assert run(["march", "--n", "4", "--zeta", zeta]) == 2
        assert "2 steps" in capsys.readouterr().out

    def test_infinite_box_edge_exit3(self, capsys):
        argv = ["disk", "--zeta", "0.5", "--m-max", "0", "--box", "0.05,inf,-5,0.05"]
        assert run(argv) == 3
        assert "search box edges must be finite" in capsys.readouterr().err

    def test_cayley_zero_trials_exit3(self, capsys):
        assert run(["extension", "cayley", "--fixture", "transport-64", "--trials", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be >= 1" in captured.err

    # these subcommands write only JSON, so a .csv name is refused before any work
    @pytest.mark.parametrize("command", [
        ["green-check", "--fixture", "transport-64"],
        ["extension", "cayley", "--fixture", "transport-64"],
        ["extension", "mdiss", "--fixture", "transport-64"],
        ["extension", "rank", "--fixture", "transport2-48"],
        ["lq", "--zeta", "power:a=0.3"],
    ])
    def test_json_only_out_refuses_other_names(self, capsys, tmp_path, command):
        target = tmp_path / "r.csv"
        assert run(command + ["--out", str(target)]) == 3
        assert "argument --out" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", [
        ["green-check", "--fixture", "transport-64"],
        ["extension", "cayley", "--fixture", "transport-64"],
        ["extension", "rank", "--fixture", "transport2-48", "--rank", "2"],
        ["string", "--zeta", "0.5"],
        ["disk", "--zeta", "0.5", "--m-max", "0"],
        ["fem", "--n", "4", "--zeta", "0.5"],
        ["march", "--n", "4", "--zeta", "0.5"],
    ])
    def test_bad_tol_exit3(self, capsys, command, value):
        assert run(command + ["--tol", value]) == 3
        assert "argument --tol" in capsys.readouterr().err


class TestExtension:
    def test_cayley_mode(self, capsys, tmp_path):
        out = tmp_path / "cayley.json"
        code = run([
            "extension", "cayley", "--fixture", "transport-64",
            "--trials", "5", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["max_round_trip"] < 1e-9
        capsys.readouterr()

    def test_mdiss_mode(self, capsys, tmp_path):
        out = tmp_path / "mdiss.json"
        assert run(["extension", "mdiss", "--fixture", "transport2-48", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["all_checks_ok"] is True
        assert run(["extension", "mdiss", "--fixture", "transport-64", "--skew"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("fixture", ["transport-64", "transport-64-weighted", "transport2-48"])
    def test_mdiss_boundary_form_route(self, capsys, tmp_path, fixture):
        # the drawn z is strictly accretive, its skew part exactly not
        defects = {}
        for skew in (False, True):
            out = tmp_path / f"mdiss-{skew}.json"
            argv = ["extension", "mdiss", "--fixture", fixture, "--out", str(out)]
            assert run(argv + (["--skew"] if skew else [])) == 0
            payload = json.loads(out.read_text())
            assert payload["dissipative"] is True
            defects[skew] = payload["accretivity_defect"]
        assert defects[False] > 0.0
        assert defects[True] == 0.0
        assert "accretivity defect" in capsys.readouterr().out

    def test_mdiss_fails_when_routes_disagree(self, capsys, monkeypatch):
        monkeypatch.setattr(tuples, "accretivity_defect", lambda z, tup: -1.0)
        assert run(["extension", "mdiss", "--fixture", "transport-64"]) == 2
        assert capsys.readouterr().out.rstrip().endswith("FAIL")

    def test_rank_mode(self, capsys, tmp_path):
        out = tmp_path / "rank.json"
        code = run([
            "extension", "rank", "--fixture", "transport2-48", "--rank", "1",
            "--z", "const:1,2", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["satisfied"] is True
        assert payload["rank_parameter"] == 1
        capsys.readouterr()

    def test_rank_summary_prints_z_exactly(self, capsys):
        argv = ["extension", "rank", "--fixture", "transport2-48", "--z", "0.1234567+1j"]
        assert run(argv) == 0
        assert " at z=0.1234567+1j: " in capsys.readouterr().out

    def test_rank_zero_perturbation(self, capsys):
        assert run(["extension", "rank", "--fixture", "transport-64", "--rank", "0"]) == 0
        assert "rank(resolvent diff)=0" in capsys.readouterr().out

    def test_rank_too_large_exit3(self, capsys):
        assert run(["extension", "rank", "--fixture", "transport-64", "--rank", "99"]) == 3
        capsys.readouterr()


class TestQuickStart:
    # the README promises these exact lines; a refactor must not move them
    @pytest.mark.parametrize("argv,line", QUICK_START, ids=[a[0] for a, _ in QUICK_START])
    def test_readme_line(self, capsys, argv, line):
        assert run(argv) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_examples_found(self):
        assert len(QUICK_START) == 5


class TestOutputs:
    def test_gate_csv_plus_verdict_sidecar(self, tmp_path, capsys):
        out = tmp_path / "gate.csv"
        code = run(["gate", "--zeta", "const:1,0", "--sections", "8,16,32", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "N,k,sigma_k"
        sidecar = json.loads((tmp_path / "gate.json").read_text())
        assert sidecar["verdict"] == "compact"
        assert len(sidecar["indicators"]) == 3
        # real diagonal sections: symmetric eigensolves throughout
        assert sidecar["metadata"] == {"norm_steps": [None] * 3}
        capsys.readouterr()

    def test_gate_norm_survives_extreme_coefficient_scale(self, tmp_path, capsys):
        # purely imaginary constants take the Lanczos norm; squaring entries
        # of 1e200 overflows and of 1e-170 underflows, yet the verdict and
        # indicators must match the unit constant's
        sidecars = {}
        for im in ("1", "1e200", "1e-170"):
            out = tmp_path / f"gate-{im}.csv"
            argv = ["gate", "--zeta", f"const:0,{im}", "--sections", "8,16,32", "--out", str(out)]
            assert run(argv) == 0
            sidecars[im] = json.loads((tmp_path / f"gate-{im}.json").read_text())
        capsys.readouterr()
        unit = sidecars["1"]
        for im in ("1e200", "1e-170"):
            sidecar = sidecars[im]
            assert sidecar["verdict"] == unit["verdict"]
            assert all(steps is not None for steps in sidecar["metadata"]["norm_steps"])
            np.testing.assert_allclose(sidecar["indicators"], unit["indicators"], rtol=1e-12)
            np.testing.assert_allclose(
                sidecar["section_norms"], float(im) * np.array(unit["section_norms"]), rtol=1e-12
            )

    @pytest.mark.parametrize("label", sorted(SCIPY_FREE_COMMANDS))
    def test_boundary_and_oracle_commands_load_no_scipy(self, tmp_path, label):
        # these commands need only numpy.linalg; scipy's import would be
        # about half of their start-up time. A fresh interpreter sees every
        # module the command loads.
        argv = SCIPY_FREE_COMMANDS[label]
        (tmp_path / "coef.json").write_text(json.dumps(
            [[1.0 + 0.2 * np.cos(t), 0.1 * np.sin(2 * t)]
             for t in np.linspace(-np.pi, np.pi, 32, endpoint=False)]
        ))
        script = (
            "import json, sys\n"
            "from impedbench import cli\n"
            f"code = cli.main({argv!r})\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "print(json.dumps([code, sorted(loaded)]))\n"
        )
        src = str(README.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]
        assert (tmp_path / argv[-1]).is_file()
        if label == "gate-file":
            # the complex sampled coefficient takes the Lanczos norm
            metadata = json.loads((tmp_path / "gate-file.json").read_text())["metadata"]
            assert all(isinstance(steps, int) for steps in metadata["norm_steps"])

    def test_lq_json(self, tmp_path, capsys):
        out = tmp_path / "lq.json"
        assert run(["lq", "--zeta", "power:a=0.5", "--q", "1.5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["theorem_applies"] is True
        capsys.readouterr()

    def test_lq_fourier_file(self, tmp_path, capsys):
        # 1 + cos(theta) has mean square 1.5 over the circle
        path = tmp_path / "coef.json"
        path.write_text('{"kind": "fourier", "coeffs": [[0.5, 0], [1, 0], [0.5, 0]]}')
        assert run(["lq", "--zeta", f"file:{path}"]) == 0
        norm = float(capsys.readouterr().out.split("|zeta|_q ", 1)[1].split()[0])
        assert abs(norm - math.sqrt(1.5)) <= 1e-15

    def test_lq_fourier_file_large_q_stays_finite(self, tmp_path, capsys):
        # |1 + 0.2 cos(theta)|^q overflows at q = 1e4; its mean is
        # 0.96^(q/2) P_q(1/sqrt(0.96)) (Laplace's integral for P_q)
        import mpmath

        path, out = tmp_path / "coef.json", tmp_path / "lq.json"
        path.write_text('{"kind": "fourier", "coeffs": [[0.1, 0], [1, 0], [0.1, 0]]}')
        assert run(["lq", "--zeta", f"file:{path}", "--q", "1e4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["theorem_applies"] is True
        q, d = 10000, mpmath.mpf("0.96")
        exact = float((d ** (q // 2) * mpmath.legendre(q, 1 / mpmath.sqrt(d))) ** (mpmath.mpf(1) / q))
        assert abs(payload["lq_norm"] - exact) <= 1e-13 * exact
        capsys.readouterr()

    def test_string_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["string", "--zeta", "const:0.5,0", "--out", str(a)]) == 0
        assert run(["string", "--zeta", "const:0.5,0", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    # both commands run the shift-invert eigensolver, which ARPACK starts
    # from a random vector unless it is given one
    @pytest.mark.parametrize("argv", [
        ["fem", "--shape", "square", "--n", "16", "--zeta", "1.0", "--nev", "8"],
        ["converge", "--shape", "disk_polygon", "--levels", "4,8", "--zeta", "0.5"],
    ])
    def test_shift_invert_reruns_byte_identical(self, tmp_path, capsys, argv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_string_residual_relative_to_huge_zeta(self, capsys):
        # zeta sin(lam) is as large as |zeta| times the rounding of lam
        assert run(["string", "--zeta", "1e308", "--count", "2"]) == 0
        worst = float(capsys.readouterr().out.rsplit("max residual ", 1)[1])
        assert worst <= 1e-15

    def test_string_residual_gated_exit4(self, monkeypatch, capsys):
        from impedbench import models

        polish = models._newton_polish_string
        monkeypatch.setattr(models, "_newton_polish_string",
                            lambda spec, lam: polish(spec, lam) + 1e-6)
        assert run(["string", "--zeta", "0.5"]) == 4
        assert "residual" in capsys.readouterr().err

    def test_string_critical_message(self, capsys):
        assert run(["string", "--zeta", "1.0"]) == 0
        assert "critically damped" in capsys.readouterr().out

    def test_string_time_reversed_critical_load_empty(self, capsys):
        # exp(2i lam) = 0 has no solution: an empty spectrum, as at zeta = 1
        assert run(["string", "--zeta", "-1", "--allow-nonaccretive"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("spectrum empty")

    def test_disk_json_report(self, tmp_path, capsys):
        out = tmp_path / "disk.json"
        assert run(["disk", "--zeta", "const:0,0.3", "--m-max", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["all_counts_match"] is True
        capsys.readouterr()

    def test_disk_huge_zeta_exit0(self, tmp_path, capsys):
        # the root residual is gated relative to max(1, |zeta|)
        out = tmp_path / "disk.json"
        assert run(["disk", "--zeta", "1e6", "--m-max", "0", "--out", str(out)]) == 0
        assert "6 modes over m<=0" in capsys.readouterr().out
        meta = json.loads(out.read_text())["metadata"]
        assert meta["count_matches"] == {"0": True}
        assert meta["work_per_order"]["0"]["newton_steps"] > 0
        assert "newton_evals" not in meta["work_per_order"]["0"]

    def test_disk_box_near_argument_cap(self, capsys):
        # every contour point has |lam| <= 199.003; a Newton iterate that steps
        # past |lam| = 200 drops out instead of refusing the whole batch
        assert run(["disk", "--zeta", "0.5", "--m-max", "0", "--box=150,199,-1,0"]) == 0
        out = capsys.readouterr().out
        assert "16 modes over m<=0" in out
        assert "counts match" in out

    def test_disk_reports_sweep_points(self, tmp_path, capsys):
        # the sectors share their contour sweeps: the points swept are fewer
        # than the points the sectors' counts read
        out = tmp_path / "disk.json"
        assert run(["disk", "--zeta", "0.5", "--m-max", "2", "--out", str(out)]) == 0
        meta = json.loads(out.read_text())["metadata"]
        read = sum(w["contour_points"] for w in meta["work_per_order"].values())
        assert 0 < meta["sweep_points"] < read
        capsys.readouterr()

    def test_disk_box_with_negative_first_edge(self, capsys):
        # the = form keeps argparse from reading -2,... as an option; the top
        # edge samples lam = 0, where J_m is its leading term
        assert run(["disk", "--zeta", "0.5", "--m-max", "1", "--box=-2,2,-2,0"]) == 0
        out = capsys.readouterr().out
        assert "3 modes over m<=1" in out
        assert "counts match" in out

    def test_disk_reactive_rim_with_root_near_bisection_edge(self, tmp_path, capsys):
        # a real sector-1 root lies 1.25e-4 from a bisection edge, well inside
        # one sample spacing; the box is nudged off it by whole spacings
        from test_models import scipy_disk_root

        out = tmp_path / "disk.json"
        assert run(["disk", "--zeta=-0.3j", "--m-max", "1", "--out", str(out)]) == 0
        assert "counts match" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["metadata"]["work_per_order"]["1"]["box_nudges"] >= 1
        assert len(payload["modes"]) == 12
        for mode in payload["modes"]:
            lam = complex(mode["re_lambda"], mode["im_lambda"])
            m = int(mode["mode_tag"].removeprefix("disk-m"))
            ref = scipy_disk_root(m, -0.3j, lam)
            assert abs(lam - ref) <= 1e-10 * abs(ref)

    def test_disk_huge_impedance_box_through_root_answers(self, capsys):
        # the characteristic is counted divided by a power of two near |zeta|,
        # so quotients of neighbouring samples next to the root on the east
        # edge no longer overflow to nan
        argv = ["disk", "--zeta", "const:1e308,1e308", "--m-max", "0",
                "--box=0.05,3.8317059702075125,-0.5,0.05"]
        assert run(argv) == 0
        assert "1 modes over m<=0" in capsys.readouterr().out

    def test_disk_largest_impedance_answers(self, tmp_path, capsys):
        # i zeta J_0 overflows unscaled; the roots approach the zeros of J_0
        import scipy.special

        out = tmp_path / "disk.json"
        assert run(["disk", "--zeta", "1.7e308", "--m-max", "0", "--out", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("counts match")
        modes = json.loads(out.read_text())["modes"]
        lams = [complex(e["re_lambda"], e["im_lambda"]) for e in modes]
        zeros = scipy.special.jn_zeros(0, 6)
        assert np.abs(np.array(lams) - zeros).max() <= 1e-12 * zeros.max()

    def test_march_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "march.csv"
        code = run([
            "march", "--shape", "square", "--n", "5", "--zeta", "1.0",
            "--dt", "0.002", "--steps", "50", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,time,energy"
        assert len(lines) == 52
        capsys.readouterr()

    def test_converge_square_csv(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert run(["converge", "--shape", "square", "--levels", "5,10,20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,h,ref_re,ref_im,abs_error"
        assert len(lines) == 4
        capsys.readouterr()

    def test_converge_strong_damping_matches_every_reference(self, tmp_path, capsys):
        # overdamped rim modes crowd the origin: the 32 modes of
        # disk_polygon{8,32} nearest it end at |lam| = 2.418, short of the
        # sector-1 reference near 3.83; each level asks for the one mode
        # nearest each reference
        out = tmp_path / "conv.json"
        argv = ["converge", "--shape", "disk_polygon", "--levels", "4,8", "--zeta", "1000"]
        assert run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("unmatched 0")
        study = json.loads(out.read_text())
        assert study["modes_requested"] == [[1, 1], [1, 1]]
        assert sorted(study["oracle_work"]) == ["0", "1"]

    def test_converge_without_disk_reference_exit3(self, capsys):
        # the roots of this rim lie above the oracle's search box
        argv = ["converge", "--shape", "disk_polygon", "--levels", "2,3",
                "--zeta", "const:-1,-1", "--allow-nonaccretive"]
        assert run(argv) == 3
        assert "no root of sector 0" in capsys.readouterr().err

    def test_converge_square_needs_zero_zeta(self, capsys):
        assert run(["converge", "--shape", "square", "--zeta", "0.5"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv,head", [
        (["gate", "--zeta", "const:1.0000001,0", "--sections", "8,16"],
         "gate const(1.0000001+0j): "),
        (["fem", "--shape", "square", "--n", "2", "--zeta", "1.0000001", "--nev", "2"],
         "fem square{2} zeta=1.0000001+0j: "),
    ])
    def test_summary_prints_zeta_exactly(self, capsys, argv, head):
        # :g printed both as 1+0j, the value 1
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith(head)

    def test_fem_summary_names_path(self, capsys):
        # 9 of 49 modes is more than a SPARSE_MAX_SHARE-th: the dense companion
        assert run(["fem", "--shape", "square", "--n", "6", "--zeta", "const:0,0.5", "--nev", "9"]) == 0
        assert "path real-direct" in capsys.readouterr().out

    @pytest.mark.parametrize("n,nev", [("8", "4"), ("12", "8")])
    def test_fem_strong_damping_few_modes_answer(self, tmp_path, capsys, n, nev):
        # at most n/6 modes go to shift-invert whatever the mesh size; the
        # dense companion's residuals fail the gate at zeta = 1e6
        out = tmp_path / "fem.json"
        argv = ["fem", "--shape", "square", "--n", n, "--zeta", "1e6", "--nev", nev]
        assert run(argv + ["--out", str(out)]) == 0
        assert "path shift-invert-arnoldi" in capsys.readouterr().out
        modes = json.loads(out.read_text())["modes"]
        assert max(e["residual"] for e in modes) <= 1e-9

    def test_fem_summary_names_shift_invert_path(self, capsys):
        assert run(["fem", "--shape", "square", "--n", "16", "--zeta", "const:0,0.5", "--nev", "4"]) == 0
        assert "path shift-invert-arnoldi" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "zeta,arithmetic", [("0.5", "real"), ("const:0,0.5", "real"), ("const:0.3,0.4", "complex")]
    )
    def test_fem_out_names_shift_invert_arithmetic(self, tmp_path, capsys, zeta, arithmetic):
        out = tmp_path / "fem.json"
        argv = ["fem", "--shape", "square", "--n", "16", "--zeta", zeta, "--nev", "8"]
        assert run(argv + ["--out", str(out)]) == 0
        meta = json.loads(out.read_text())["metadata"]
        assert meta["path"] == "shift-invert-arnoldi"
        assert meta["arithmetic"] == arithmetic
        assert meta["arpack_k"] >= 8
        capsys.readouterr()

    def test_mesh_file_shape_roundtrip(self, tmp_path, capsys):
        from impedbench.fem import square_mesh

        path = tmp_path / "tiny.mesh"
        mesh = square_mesh(4)
        path.write_text("\n".join(
            ["mesh2d v1", str(mesh.n_vertices)]
            + [f"v {x!r} {y!r}" for x, y in mesh.vertices.tolist()]
            + [f"t {i} {j} {k}" for i, j, k in mesh.triangles.tolist()]
            + [f"b {i} {j} {label}"
               for (i, j), label in zip(mesh.boundary_edges.tolist(), mesh.boundary_labels)]
        ) + "\n")
        assert run(["fem", "--shape", str(path), "--zeta", "0.5", "--nev", "4"]) == 0
        capsys.readouterr()

    def test_n_with_braced_spec_exit3(self, capsys):
        assert run(["fem", "--shape", "square{8}", "--n", "4", "--zeta", "0.5"]) == 3
        capsys.readouterr()

    def test_disconnected_mesh_exit3(self, tmp_path, capsys):
        path = tmp_path / "two.mesh"
        path.write_text(
            "mesh2d v1\n6\n"
            "v 0 0\nv 1 0\nv 0 1\nv 3 0\nv 4 0\nv 3 1\n"
            "t 0 1 2\nt 3 4 5\n"
            "b 0 1 rim\nb 1 2 rim\nb 2 0 rim\nb 3 4 rim\nb 4 5 rim\nb 5 3 rim\n"
        )
        assert run(["fem", "--shape", str(path), "--zeta", "0.5"]) == 3
        assert "not connected: 2 components" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fem", "march"])
    def test_mesh_over_assembly_cap_exit3(self, capsys, command):
        assert run([command, "--shape", "square", "--n", "64", "--zeta", "0.5"]) == 3
        assert "assembly capped" in capsys.readouterr().err
