"""Tests for report containers, formatting, and atomic file writes."""

import json
import os

import numpy as np
import pytest

from impedbench.errors import InvalidInputError
from impedbench.reports import (
    EnergyTrace,
    ModeEntry,
    SpectrumReport,
    fmt_complex,
    fmt_float,
    json_ready,
    write_text_atomic,
)


class TestFormatting:
    def test_fmt_float_round_trips(self):
        rng = np.random.default_rng(11)
        for x in rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50):
            assert float(fmt_float(x)) == x

    def test_fmt_complex_matches_g_where_g_is_exact(self):
        # every value :g reads back exactly keeps its :g text byte for byte
        for z in (0.5, 1, 1e6, 0.3 + 0.4j, -0.3j, complex(-0.0, 1), 1e-300, 1.7e308):
            assert fmt_complex(complex(z)) == f"{complex(z):g}"
        assert fmt_complex(-0.3j) == "-0-0.3j"

    def test_fmt_complex_reads_back_what_g_rounds(self):
        assert fmt_complex(1.0000001 + 0j) == "1.0000001+0j"
        assert fmt_complex(0.1234567 + 1j) == "0.1234567+1j"
        rng = np.random.default_rng(12)
        for re, im in rng.standard_normal((50, 2)) * 10.0 ** rng.integers(-12, 12, (50, 2)):
            assert complex(fmt_complex(complex(re, im))) == complex(re, im)

    def test_json_ready_handles_numpy(self):
        payload = json_ready(
            {
                "a": np.float64(1.5),
                "b": np.int32(3),
                "c": np.array([1.0, 2.0]),
                "d": np.bool_(True),
                "e": 1 + 2j,
            }
        )
        text = json.dumps(payload)
        assert json.loads(text) == {"a": 1.5, "b": 3, "c": [1.0, 2.0], "d": True, "e": [1.0, 2.0]}


class TestAtomicWrite:
    def test_write_and_replace(self, tmp_path):
        target = str(tmp_path / "out.csv")
        write_text_atomic(target, "one\n")
        write_text_atomic(target, "two\n")
        with open(target) as handle:
            assert handle.read() == "two\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-report-")]
        assert leftovers == []


class TestSpectrumReport:
    def build(self):
        entries = [
            ModeEntry(2.0, -0.5, 1e-12, "interior"),
            ModeEntry(-1.0, 0.0, 1e-13, "interior"),
            ModeEntry(0.0, 0.0, 0.0, "artifact"),
        ]
        return SpectrumReport("demo", entries, metadata={"zeta": [0.5, 0.0]})

    def test_sorted_by_real_part(self):
        rep = self.build()
        assert [e.re_lambda for e in rep.entries] == [-1.0, 0.0, 2.0]

    def test_max_im_with_tag_filter(self):
        rep = self.build()
        assert rep.max_im() == 0.0
        assert rep.max_im(include_tags={"interior"}) == 0.0
        entries = [e for e in rep.entries if e.mode_tag == "interior"]
        assert max(e.im_lambda for e in entries) == 0.0
        assert rep.max_im(include_tags={"missing"}) == float("-inf")

    def test_csv_layout(self):
        text = self.build().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "re_lambda,im_lambda,residual,mode_tag,multiplicity"
        assert len(lines) == 4
        assert lines[1].endswith(",interior,1")

    def test_write_files(self, tmp_path):
        rep = self.build()
        csv_path = str(tmp_path / "modes.csv")
        json_path = str(tmp_path / "modes.json")
        rep.write_csv(csv_path)
        rep.write_json(json_path)
        with open(json_path) as handle:
            data = json.load(handle)
        assert data["label"] == "demo"
        assert len(data["modes"]) == 3
        with open(csv_path) as handle:
            assert handle.read() == rep.to_csv()


class TestEnergyTrace:
    def test_monotone_decay_metrics(self):
        tr = EnergyTrace("decay", dt=0.1, energies=[4.0, 2.0, 1.0, 0.5])
        assert tr.steps == 3
        assert tr.max_step_increase() == -0.5
        assert abs(tr.relative_drift() - 3.5 / 4.0) < 1e-15

    def test_conserved_trace(self):
        tr = EnergyTrace("flat", dt=0.5, energies=np.full(10, 2.0))
        assert tr.max_step_increase() == 0.0
        assert tr.relative_drift() == 0.0

    def test_csv_rows(self):
        tr = EnergyTrace("t", dt=0.25, energies=[1.0, 0.75])
        lines = tr.to_csv().strip().split("\n")
        assert lines[0] == "step,time,energy"
        assert lines[1].startswith("0,0,")
        assert lines[2].startswith("1,0.25")

    def test_validation(self):
        with pytest.raises(InvalidInputError, match="nonempty"):
            EnergyTrace("bad", dt=0.1, energies=[])
        with pytest.raises(InvalidInputError, match="positive"):
            EnergyTrace("bad", dt=0.0, energies=[1.0])
