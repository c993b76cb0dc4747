"""Config parsing, trace/sweep export, comparison reports, CLI."""

import json

import numpy as np
import pytest

from lzdrive.cli import main as cli_main
from lzdrive.errors import ConfigError
from lzdrive.harness import (
    SweepSpec,
    parse_config,
    parse_sweep,
    run_compare,
    run_sweep,
    run_trace,
    selftest,
)

CASCADE_TEXT = """
# cascade reference drive
delta = 0.07
eps0 = 0.5
amp_rf = 25
freq_rf = 1
amp_mw = 0.08
freq_mw = 1
phase = 0
"""


def test_parse_config_defaults():
    spec = parse_config("")
    assert spec.mode == "trace"
    assert (spec.tau_start, spec.tau_end) == (-50.0, 50.0)
    assert spec.tol == 1e-10
    assert spec.stride == 0.1
    assert spec.cfg.v == 1.0
    assert spec.cfg.delta == 0.0 and spec.cfg.amp_rf == 0.0
    assert spec.truncation().n_max == 40


def test_parse_config_cascade_keys():
    spec = parse_config(CASCADE_TEXT)
    assert spec.cfg.amp_rf == 25.0
    assert spec.cfg.eps0 == 0.5
    assert spec.cfg.freq_rf == 1.0 and spec.cfg.freq_mw == 1.0
    assert spec.cfg.amp_mw == 0.08
    assert spec.cfg.delta == 0.07


def test_parse_config_json_equivalent():
    doc = {"delta": 0.07, "amp_rf": 25, "freq_rf": 1, "amp_mw": 0.08,
           "freq_mw": 1, "eps0": 0.5, "tau_start": -10, "tau_end": 10,
           "n_max": 44}
    spec = parse_config(json.dumps(doc))
    assert spec.cfg.delta == 0.07
    assert spec.tau_start == -10.0
    assert spec.trunc.n_max == 44


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="v > 0"):
        parse_config("v = -1\n")
    with pytest.raises(ConfigError) as err:
        parse_config("delta = 0.1\nwidget = 3\n")
    assert err.value.key == "widget"
    assert err.value.line == 2
    with pytest.raises(ConfigError, match="not numeric"):
        parse_config("delta = fast\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("delta = 1\ndelta = 2\n")
    with pytest.raises(ConfigError, match="ordered"):
        parse_config("tau_start = 5\ntau_end = -5\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def test_parse_sweep_forms():
    flat = parse_sweep(
        "axis1_field = delta\naxis1_min = 0\naxis1_max = 0.5\naxis1_steps = 3\n"
        "observable = p_up_final\n"
    )
    assert flat.axis1 == ("delta", 0.0, 0.5, 3)
    assert flat.axis2 is None
    doc = {"axis1": {"field": "delta", "min": 0, "max": 0.5, "steps": 3},
           "axis2": {"field": "amp_rf", "min": 1, "max": 2, "steps": 2},
           "observable": "delta_param"}
    nested = parse_sweep(json.dumps(doc))
    assert nested.axis2 == ("amp_rf", 1.0, 2.0, 2)
    with pytest.raises(ConfigError):
        parse_sweep("observable = p_up_final\n")
    with pytest.raises(ConfigError):
        parse_sweep("axis1_field = nope\naxis1_min = 0\naxis1_max = 1\n"
                    "axis1_steps = 2\nobservable = p_up_final\n")
    with pytest.raises(ConfigError, match="integer"):
        parse_sweep("axis1_field = delta\naxis1_min = 0\naxis1_max = 1\n"
                    "axis1_steps = 2.9\nobservable = p_up_final\n")
    doc["axis2"]["steps"] = 2.9
    with pytest.raises(ConfigError, match="integer"):
        parse_sweep(json.dumps(doc))
    with pytest.raises(ConfigError):
        SweepSpec(("delta", 0.0, 1.0, 1), None, "p_up_final")
    with pytest.raises(ConfigError):
        SweepSpec(("delta", 0.0, 1.0, 2), None, "energy")


def test_run_trace_zero_drive_and_determinism():
    spec = parse_config("tau_start = -2\ntau_end = 2\nstride = 0.5\n")
    text = run_trace(spec)
    lines = text.strip().split("\n")
    assert lines[0] == "tau,p_up,p_dn,ux,uy,uz"
    assert len(lines) == 1 + 9
    for row in lines[1:]:
        cols = row.split(",")
        assert float(cols[1]) == 1.0
        assert float(cols[2]) == 0.0
    assert run_trace(spec) == text  # byte determinism


def test_run_trace_population_closure():
    spec = parse_config(
        "delta = 0.07\namp_rf = 2\nfreq_rf = 1\n"
        "tau_start = -10\ntau_end = 10\nstride = 0.25\n"
    )
    text = run_trace(spec)
    rows = [r.split(",") for r in text.strip().split("\n")[1:]]
    p = np.array([[float(c[1]), float(c[2])] for c in rows])
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-9


def test_run_sweep_uniform_grid_and_workers():
    spec = parse_config("tau_start = -2\ntau_end = 2\n")
    sweep = parse_sweep(json.dumps({
        "axis1": {"field": "eps0", "min": -1, "max": 1, "steps": 2},
        "axis2": {"field": "phase", "min": 0, "max": 1, "steps": 2},
        "observable": "p_up_final",
    }))
    text1 = run_sweep(spec, sweep, workers=1)
    lines = text1.strip().split("\n")
    assert lines[0] == "eps0,phase,p_up_final"
    assert len(lines) == 5
    vals = {line.split(",")[2] for line in lines[1:]}
    assert vals == {"1"}  # zero coupling keeps p_up at exactly 1
    text2 = run_sweep(spec, sweep, workers=2)
    assert text1 == text2


def test_run_sweep_records_cell_failures_and_continues():
    spec = parse_config("delta = 0.1\nfreq_rf = 1\nfreq_mw = 2\n")
    sweep = parse_sweep(json.dumps({
        "axis1": {"field": "eps0", "min": 0.0, "max": 0.5, "steps": 2},
        "observable": "delta_param",
    }))
    text = run_sweep(spec, sweep, workers=1)
    lines = text.strip().split("\n")[1:]
    assert len(lines) == 2
    ok_cell = lines[0].split(",")[1]
    assert float(ok_cell) == pytest.approx(0.1**2 / 4.0)
    assert lines[1].split(",")[1] == "error(OffResonanceError)"


def test_run_sweep_propagates_programming_errors(monkeypatch):
    # only numeric and domain failures become error cells
    def broken(*args, **kwargs):
        raise TypeError("not a cell failure")

    monkeypatch.setattr("lzdrive.harness.propagate_tdse", broken)
    spec = parse_config("delta = 0.1\n")
    sweep = parse_sweep(json.dumps({
        "axis1": {"field": "eps0", "min": 0.0, "max": 0.5, "steps": 2},
        "observable": "p_up_final",
    }))
    with pytest.raises(TypeError, match="not a cell failure"):
        run_sweep(spec, sweep, workers=1)


def test_run_compare_zero_coupling_exact():
    spec = parse_config("tau_start = -5\ntau_end = 5\nfreq_rf = 1\nfreq_mw = 1\n")
    report = run_compare(spec, "strong_drive", threshold=1e-9)
    assert report.max_abs_dev == 0.0
    assert report.rms_dev == 0.0
    assert report.passed
    assert report.max_abs_dev >= report.rms_dev >= 0.0


def test_run_compare_pass_iff_threshold():
    spec = parse_config(
        "delta = 0.07\ntau_start = -30\ntau_end = 30\nfreq_rf = 1\nfreq_mw = 2\n"
    )
    rep = run_compare(spec, "strong_drive", threshold=2e-2)
    assert rep.passed == (rep.max_abs_dev <= rep.threshold)
    assert rep.passed
    tight = run_compare(spec, "strong_drive", threshold=rep.max_abs_dev / 2.0)
    assert not tight.passed
    # report serializes
    doc = json.loads(rep.to_json())
    assert doc["method"] == "strong_drive"
    assert doc["passed"] is True


def test_run_compare_rabi_method():
    spec = parse_config(
        "v = 0\namp_rf = 1\nfreq_rf = 1\namp_mw = 1\nfreq_mw = 1\ntol = 1e-12\n"
    )
    rep = run_compare(spec, "rabi", threshold=1e-6)
    assert rep.passed
    assert len(rep.samples) == 2 * 80


def test_run_compare_large_shift_warns_but_runs():
    spec = parse_config(
        "delta = 0.05\neps0 = 1\nfreq_rf = 1\nfreq_mw = 2\n"
        "tau_start = -20\ntau_end = 20\n"
    )
    with pytest.warns(UserWarning, match="static shift"):
        rep = run_compare(spec, "strong_drive", threshold=0.5)
    assert rep.samples  # degraded regime still produces a report


def test_run_compare_validation():
    spec = parse_config("")
    with pytest.raises(ConfigError):
        run_compare(spec, "magic", 0.1)
    with pytest.raises(ConfigError):
        run_compare(spec, "rabi", 0.0)


def test_selftest_passes(capsys):
    assert selftest()
    outp = capsys.readouterr().out
    assert "all checks passed" in outp


def test_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "delta = 0.07\nfreq_rf = 1\nfreq_mw = 2\n"
        "tau_start = -4\ntau_end = 4\nstride = 1\n"
    )
    out = tmp_path / "trace.csv"
    assert cli_main(["trace", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("tau,p_up,p_dn,ux,uy,uz\n")

    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(
        "axis1_field = delta\naxis1_min = 0\naxis1_max = 0.1\naxis1_steps = 2\n"
        "observable = delta_param\n"
    )
    grid = tmp_path / "grid.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--sweep", str(sweep),
                     "--workers", "1", "--out", str(grid)]) == 0
    assert grid.read_text().splitlines()[0] == "delta,delta_param"

    report = tmp_path / "rep.json"
    code = cli_main(["compare", "--config", str(cfg), "--method",
                     "strong_drive", "--threshold", "0.5", "--out", str(report)])
    assert code == 0
    capsys.readouterr()

    # bad config -> exit 1 with context on stderr
    bad = tmp_path / "bad.cfg"
    bad.write_text("v = -1\n")
    assert cli_main(["trace", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err

    # method precondition failure -> exit 2
    assert cli_main(["compare", "--config", str(cfg), "--method", "rabi",
                     "--threshold", "0.1"]) == 2
    capsys.readouterr()

    # compare failure -> exit 3
    lz = tmp_path / "lz.cfg"
    lz.write_text("delta = 0.2\ntau_start = -6\ntau_end = 6\nfreq_rf = 1\nfreq_mw = 2\n")
    code = cli_main(["compare", "--config", str(lz), "--method", "strong_drive",
                     "--threshold", "1e-12", "--out", str(report)])
    assert code == 3
    assert "compare FAILED" in capsys.readouterr().err
