"""Config parsing, trace/sweep export, comparison reports, CLI."""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import lzdrive.harness as harness
import lzdrive.integrate as integrate
from lzdrive.cli import build_parser
from lzdrive.cli import main as cli_main
from lzdrive.errors import ConfigError
from lzdrive.harness import (
    COMPARE_METHODS,
    OBSERVABLES,
    SELFTEST_CHECKS,
    CompareReport,
    RunSpec,
    SweepSpec,
    parse_config,
    parse_sweep,
    run_compare,
    run_sweep,
    run_trace,
    selftest,
)
from oracles import rowwise_csv, rowwise_labels

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
    with pytest.raises(ConfigError, match="unknown config key 'mode'"):
        parse_config("mode = trace\n")
    with pytest.raises(ConfigError, match=r"tol must lie in \[1e-13, 1e-06\]"):
        parse_config("tol = 1e-5\n")
    for key, raw in (("stride", "nan"), ("stride", "inf"), ("n_max", "nan"),
                     ("n_max", "inf"), ("tau_start", "-inf"), ("tau_end", "inf"),
                     ("delta", "-inf")):
        with pytest.raises(ConfigError, match="must be finite") as err:
            parse_config(f"freq_rf = 1\n{key} = {raw}\n")
        assert (err.value.key, err.value.line) == (key, 2)
    for raw in ("0", "-3"):
        with pytest.raises(ConfigError, match="positive integer") as err:
            parse_config(f"n_max = {raw}\n")
        assert err.value.key == "n_max"
    with pytest.raises(ConfigError, match="not numeric") as err:
        parse_config('{"delta": true}')
    assert err.value.key == "delta"
    with pytest.raises(ConfigError, match="must be finite"):
        parse_config('{"stride": NaN}')
    # JSON keeps the last of two equal keys; the parser refuses them instead
    with pytest.raises(ConfigError, match="duplicate key 'delta'") as err:
        parse_config('{"delta": 0.1, "delta": 0.2}')
    assert err.value.key == "delta"
    # window, stride and tol refusals carry the line of the key they name
    for text, msg, key, line in (
        ("tau_start = 5\ntau_end = 1\n", "ordered", "tau_start", 1),
        ("\ntol = 1\n", "tol must lie", "tol", 2),
        ("delta = 0\nstride = -1\n", "positive", "stride", 2),
        ("output = run.csv\n", "unknown config key 'output'", "output", 1),
    ):
        with pytest.raises(ConfigError, match=msg) as err:
            parse_config(text)
        assert (err.value.key, err.value.line) == (key, line)


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
    with pytest.raises(ConfigError, match="must be finite") as err:
        parse_sweep("axis1_field = delta\naxis1_min = nan\naxis1_max = 1\n"
                    "axis1_steps = 2\nobservable = p_up_final\n")
    assert (err.value.key, err.value.line) == ("axis1_min", 2)
    doc["axis2"]["steps"] = 2
    doc["axis1"]["max"] = math.inf
    with pytest.raises(ConfigError, match="must be finite") as err:
        parse_sweep(json.dumps(doc))
    assert err.value.key == "axis1_max"
    doc["axis1"]["max"] = True
    with pytest.raises(ConfigError, match="not numeric"):
        parse_sweep(json.dumps(doc))
    # a flat key beside the nested axis that also gives it, in either order
    axis = {"field": "delta", "min": 0, "max": 0.5, "steps": 3}
    for text in (json.dumps({"axis1": axis, "axis1_min": 0.5, "observable": "p_up_final"}),
                 json.dumps({"axis1_min": 0.5, "axis1": axis, "observable": "p_up_final"}),
                 '{"axis1": {"field": "delta", "min": 0, "min": 0.5, "max": 1, '
                 '"steps": 3}, "observable": "p_up_final"}'):
        with pytest.raises(ConfigError, match="duplicate key") as err:
            parse_sweep(text)
        assert err.value.key in ("axis1_min", "min")
    with pytest.raises(ConfigError):
        SweepSpec(("delta", 0.0, 1.0, 1), None, "p_up_final")
    with pytest.raises(ConfigError):
        SweepSpec(("delta", 0.0, 1.0, 2), None, "energy")


def test_sweep_refuses_a_field_on_both_axes():
    text = ("axis1_field = eps0\naxis1_min = 0\naxis1_max = 1\naxis1_steps = 2\n"
            "axis2_field = eps0\naxis2_min = 0\naxis2_max = 1\naxis2_steps = 2\n"
            "observable = p_up_final\n")
    with pytest.raises(ConfigError, match="both sweep 'eps0'") as err:
        parse_sweep(text)
    assert (err.value.key, err.value.line) == ("axis2_field", 5)
    with pytest.raises(ConfigError, match="both sweep 'eps0'"):
        SweepSpec(("eps0", 0.0, 1.0, 2), ("eps0", 0.0, 1.0, 2), "p_up_final")
    names, cells = SweepSpec(("eps0", 0.0, 1.0, 2), ("phase", 0.0, 1.0, 3),
                             "p_up_final").grid()
    assert names == ("eps0", "phase")
    assert cells == [(a, b) for a in (0.0, 1.0) for b in (0.0, 0.5, 1.0)]


def test_specs_built_directly_refuse_what_the_parser_refuses():
    for kwargs, msg, key in (
        ({"stride": math.nan}, "must be finite", "stride"),
        ({"tau_start": -math.inf}, "must be finite", "tau_start"),
        ({"tau_end": math.inf}, "must be finite", "tau_end"),
        ({"tol": True}, "not numeric", "tol"),
    ):
        with pytest.raises(ConfigError, match=msg) as err:
            RunSpec(**kwargs)
        assert err.value.key == key
    for axis1, axis2, msg, key in (
        (("delta", math.nan, 0.1, 2), None, "must be finite", "axis1_min"),
        (("delta", 0.0, math.inf, 2), None, "must be finite", "axis1_max"),
        (("delta", 0.0, 0.1, 2.7), None, "must be an integer", "axis1_steps"),
        (("delta", 0.0, 0.1, 2), ("eps0", 0.0, 1.0, 1), ">= 2", "axis2_steps"),
        (("delta", 0.0, 0.1, 2), ("energy", 0.0, 1.0, 2), "unknown sweep field", "axis2_field"),
        (None, None, "needs axis1", None),
    ):
        with pytest.raises(ConfigError, match=msg) as err:
            SweepSpec(axis1, axis2, "p_up_final")
        assert err.value.key == key
    with pytest.raises(ConfigError, match="needs an observable"):
        SweepSpec(("delta", 0.0, 0.1, 2), None, None)
    assert SweepSpec(("delta", 0, 1, 2.0), None, "p_up_final").axis1 == ("delta", 0.0, 1.0, 2)


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


def test_run_sweep_integration_failure_leaves_neighbours(monkeypatch):
    # a budget of 2^8 steps solves the undriven cell and refuses the driven ones
    monkeypatch.setattr(integrate, "_MAX_STEPS", 2**8)
    spec = parse_config(CASCADE_TEXT + "tau_start = -5\ntau_end = 5\ntol = 1e-12\n")
    sweep = parse_sweep(json.dumps({
        "axis1": {"field": "amp_rf", "min": 0.0, "max": 25.0, "steps": 3},
        "observable": "p_up_final",
    }))
    lines = run_sweep(spec, sweep).strip().split("\n")
    assert lines == [
        "amp_rf,p_up_final",
        "0,0.96974546787602456",
        "12.5,error(IntegrationError)",
        "25,error(IntegrationError)",
    ]


def test_run_sweep_refuses_workers_below_one():
    spec = parse_config("tau_start = -2\ntau_end = 2\n")
    sweep = parse_sweep(json.dumps({
        "axis1": {"field": "eps0", "min": -1, "max": 1, "steps": 2},
        "observable": "p_up_final",
    }))
    with pytest.raises(ConfigError) as info:
        run_sweep(spec, sweep, workers=0)
    assert info.value.key == "workers"


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


def test_harness_writes_nothing_to_stdout(capfd):
    # the benchmark's result is its last stdout line; the harness returns text
    spec = parse_config("delta = 0.1\nfreq_rf = 1\nfreq_mw = 2\ntau_start = -2\ntau_end = 2\n")
    sweep = parse_sweep(json.dumps({
        "axis1": {"field": "eps0", "min": 0.0, "max": 0.5, "steps": 2},
        "observable": "p_up_final",
    }))
    assert run_sweep(spec, sweep, workers=1) == run_sweep(spec, sweep, workers=2)
    run_trace(spec)
    run_compare(spec, "strong_drive", threshold=0.5)
    assert capfd.readouterr().out == ""


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


def test_compare_report_json_matches_asdict_dump():
    # to_json skips dataclasses.asdict's deep copy but writes the same bytes
    cascade = parse_config(CASCADE_TEXT + "tau_start = -10\ntau_end = 10\nstride = 0.5\n")
    rabi = parse_config(
        "v = 0\namp_rf = 1\nfreq_rf = 1\namp_mw = 1\nfreq_mw = 1\ntol = 1e-12\n"
    )
    for report in (run_compare(cascade, "bloch_pert", threshold=0.5),
                   run_compare(rabi, "rabi", threshold=1e-6)):
        assert report.samples
        expected = json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
        assert report.to_json() == expected


def test_run_compare_large_shift_warns_but_runs():
    spec = parse_config(
        "delta = 0.05\neps0 = 1\nfreq_rf = 1\nfreq_mw = 2\n"
        "tau_start = -20\ntau_end = 20\n"
    )
    with pytest.warns(UserWarning, match="static shift") as caught:
        rep = run_compare(spec, "strong_drive", threshold=0.5)
    assert rep.samples  # degraded regime still produces a report
    assert [w.filename for w in caught] == [__file__]  # points at run_compare's caller


# one small config per compare method, with the closed form and the
# propagator that its row reaches through the harness module's names
_METHOD_CASES = {
    "strong_drive": ("delta = 0.07\nfreq_rf = 1\nfreq_mw = 2\ntau_start = -10\ntau_end = 10\n",
                     "strong_drive_survival", "propagate_tdse"),
    "weak_drive": ("delta = 0.1\neps0 = 1.3\namp_rf = 8\nfreq_rf = 5\namp_mw = 0.1\n"
                   "freq_mw = 2.2\ntau_start = -10\ntau_end = 10\n",
                   "weak_drive_probabilities", "propagate_tdse"),
    "bloch_pert": (CASCADE_TEXT + "tau_start = -10\ntau_end = 10\nstride = 0.5\n",
                   "bloch_perturbative", "propagate_bloch"),
    "rabi": ("v = 0\namp_rf = 1\nfreq_rf = 1\namp_mw = 1\nfreq_mw = 1\n",
             "rabi_case", "propagate_tdse"),
    "inverse_lz": ("v = 0\namp_rf = 0.5\nfreq_rf = 1\namp_mw = 1\nfreq_mw = 2\n"
                   "phase = 1.5707963267948966\n", "inverse_lz_case", "propagate_tdse"),
}


@pytest.mark.parametrize("method", COMPARE_METHODS)
def test_every_compare_method_builds_one_report_shape(method, monkeypatch):
    text, closed_form, propagator = _METHOD_CASES[method]
    calls = {closed_form: 0, propagator: 0}

    def counting(name):
        fn = getattr(harness, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    # a table that held the function objects would miss these patches
    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    rep = run_compare(parse_config(text), method, threshold=1e-3)
    assert calls[closed_form] >= 1 and calls[propagator] == 1, calls
    assert rep.method == method and rep.samples
    for s in rep.samples:
        assert set(s) == {"where", "analytic", "numeric", "abs_dev"}
        assert s["abs_dev"] == abs(s["analytic"] - s["numeric"])
    devs = [s["abs_dev"] for s in rep.samples]
    assert rep.max_abs_dev == max(devs)
    assert rep.rms_dev == pytest.approx(math.sqrt(math.fsum(d * d for d in devs) / len(devs)),
                                        rel=1e-12, abs=0.0)
    assert rep.passed == (rep.max_abs_dev <= rep.threshold)
    assert len({s["where"] for s in rep.samples}) == len(rep.samples)


@pytest.mark.parametrize("method", COMPARE_METHODS)
def test_compare_report_json_matches_asdict_dump_for_every_method(method):
    report = run_compare(parse_config(_METHOD_CASES[method][0]), method, threshold=1e-3)
    assert report.samples
    expected = json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
    assert report.to_json() == expected


def _sample(where, analytic, numeric):
    return {"where": where, "analytic": analytic, "numeric": numeric,
            "abs_dev": abs(analytic - numeric)}


# labels that an encoder splicing on text would trip over, and floats whose
# spelling is not plain digits
_AWKWARD_SAMPLES = [
    _sample('quote " inside', math.nan, 0.0),
    _sample("back\\slash \\n", math.inf, -math.inf),
    _sample("brace } and {", -0.0, 5e-324),
    _sample("line\nbreak", 1e16, 0.1),
    _sample("},", 0.0, -0.0),
    _sample('"},\n      {"', 1.0, 2.0),
    _sample("\u00e9t\u00e9 \u03c4 \u2192 \U0001d70f", -5e-324, 1.7976931348623157e308),
]


@pytest.mark.parametrize("samples", [[], _AWKWARD_SAMPLES[:1], _AWKWARD_SAMPLES],
                         ids=["empty", "one", "awkward"])
def test_compare_report_json_matches_asdict_dump_on_hand_built_reports(samples):
    report = CompareReport(method='bloch_pert "samples": []', threshold=0.5, samples=samples,
                           max_abs_dev=math.nan, rms_dev=math.inf, passed=False)
    expected = json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
    assert report.to_json() == expected


_RENDER_VALUES = [-0.0, 5e-324, 1e16, 0.1, -5e-324, 1.7976931348623157e308, 2.0**-1022, 1.0 / 3.0]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_run_trace_and_labels_match_the_rowwise_renderer():
    spec = parse_config(CASCADE_TEXT + "tau_start = -10\ntau_end = 10\nstride = 0.25\n")
    text = run_trace(spec)
    tr = integrate.propagate_tdse(spec.cfg, **harness._window(spec))
    cols = np.column_stack([tr.taus, tr.populations(), integrate.spinor_to_bloch(tr.data)])
    assert text == rowwise_csv("tau,p_up,p_dn,ux,uy,uz", cols)
    parsed = np.array([row.split(",") for row in text.splitlines()[1:]], dtype=float)
    assert _bits(parsed) == _bits(cols)

    report = run_compare(spec, "bloch_pert", threshold=0.5)
    taus = integrate.propagate_bloch(spec.cfg, **harness._window(spec)).taus
    assert [s["where"] for s in report.samples] == rowwise_labels(("ux", "uy", "uz"), "tau", taus)

    # the awkward values, one table row and one label each
    table = np.array(_RENDER_VALUES).reshape(2, -1)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    text = harness._bulk(row, table)
    assert "h\n" + text == rowwise_csv("h", table)
    assert _bits([float(x) for x in text.replace("\n", ",").split(",")[:-1]]) == _bits(table.ravel())
    labels = harness._labels(("p_up", "p_dn"), "t", _RENDER_VALUES)
    assert labels == rowwise_labels(("p_up", "p_dn"), "t", _RENDER_VALUES)
    assert _bits([float(w.split("=")[1]) for w in labels[::2]]) == _bits(_RENDER_VALUES)


def test_cli_method_choices_are_the_compare_methods():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    method = next(a for a in sub.choices["compare"]._actions if a.dest == "method")
    assert tuple(method.choices) == COMPARE_METHODS


@pytest.mark.parametrize("observable", OBSERVABLES)
def test_every_observable_gives_numeric_cells(observable):
    spec = parse_config("delta = 0.08\namp_rf = 1.5\nfreq_rf = 1\namp_mw = 0.1\nfreq_mw = 2\n"
                        "tau_start = -5\ntau_end = 5\n")
    sweep = parse_sweep(json.dumps({
        "axis1": {"field": "delta", "min": 0.05, "max": 0.1, "steps": 2},
        "observable": observable,
    }))
    lines = run_sweep(spec, sweep).splitlines()
    assert lines[0] == "delta," + observable
    assert len(lines) == 3
    for line in lines[1:]:
        assert math.isfinite(float(line.split(",")[1])), line


def test_run_compare_validation():
    spec = parse_config("")
    with pytest.raises(ConfigError):
        run_compare(spec, "magic", 0.1)
    with pytest.raises(ConfigError):
        run_compare(spec, "rabi", 0.0)


def test_selftest_passes(capsys):
    assert selftest()
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[:2] for ln in lines[:-1]] == [["PASS", c[0]] for c in SELFTEST_CHECKS]
    assert lines[-1] == "all checks passed"


def test_import_leaves_scipy_integrate_unloaded():
    # quad is imported inside the two selftest checks that use it
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    code = "import sys, lzdrive; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_COLD_START = """
import sys
import lzdrive, lzdrive.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

cfg = lzdrive.DriveConfig(delta=0.08, amp_rf=2.0, freq_rf=1.0, amp_mw=0.1, freq_mw=2.0)
lzdrive.propagate_tdse(cfg, tau_start=-5.0, tau_end=5.0)
spec = lzdrive.parse_config("delta = 0.08\\namp_rf = 2\\nfreq_rf = 1\\namp_mw = 0.1\\n"
                            "freq_mw = 2\\ntau_start = -5\\ntau_end = 5\\n")
lzdrive.run_trace(spec)
lzdrive.run_sweep(spec, lzdrive.parse_sweep("axis1_field = delta\\naxis1_min = 0.02\\n"
                                            "axis1_max = 0.3\\naxis1_steps = 3\\n"
                                            "observable = p_up_final\\n"))
rabi = lzdrive.parse_config("v = 0\\namp_rf = 1.3\\nfreq_rf = 0.8\\namp_mw = 0.7\\n"
                            "freq_mw = 0.8\\ntol = 1e-12\\n")
assert lzdrive.run_compare(rabi, "rabi", 1e-6).passed
print(scipy_modules())
lzdrive.strong_drive_delta(lzdrive.DriveConfig(delta=0.1, eps0=2.0, amp_rf=3.0, freq_rf=1.0,
                                               amp_mw=0.1, freq_mw=2.0, phase=0.3))
print("scipy.special" in sys.modules)
"""


def test_propagation_workflows_load_no_scipy_until_a_closed_form():
    # scipy.special loads on the first special-function call: importing the
    # package and CLI, propagating, tracing, sweeping p_up_final and the rabi
    # compare never make one; a closed form that reads a Bessel weight does
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "True", ""]


def test_cli_usage_errors_exit_with_config_code(tmp_path, capsys):
    # 2 means a numeric failure, so a malformed command line exits 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 0.07\n")
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("axis1_field = delta\naxis1_min = 0\naxis1_max = 0.1\n"
                     "axis1_steps = 2\nobservable = delta_param\n")
    for argv in (["sweep", "--config", str(cfg), "--sweep", str(sweep), "--workers", "abc"],
                 ["compare", "--config", str(cfg), "--method", "rabi"]):
        assert cli_main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("usage: lzdrive " + argv[0])
    assert cli_main(["sweep", "--help"]) == 0
    assert "--workers" in capsys.readouterr().out

    assert cli_main(["sweep", "--config", str(cfg), "--sweep", str(sweep),
                     "--workers", "0"]) == 1
    assert "[key: workers]" in capsys.readouterr().err


def test_cli_compare_unswept_methods_refuse_before_propagating(tmp_path, capsys, monkeypatch):
    # freq_rf = 0 is a valid config while amp_rf = 0, and the rabi and
    # inverse_lz windows divide by it; a swept config must refuse unpropagated
    calls = []
    monkeypatch.setattr(integrate, "solve_ivp", lambda *args: calls.append(args))
    zero_rf = tmp_path / "zero_rf.cfg"
    zero_rf.write_text("v = 0\namp_rf = 0\nfreq_rf = 0\namp_mw = 1\nfreq_mw = 1\n")
    swept = tmp_path / "swept.cfg"
    swept.write_text("delta = 0.07\nfreq_rf = 1\nfreq_mw = 1\n")
    for cfg in (zero_rf, swept):
        for method in ("rabi", "inverse_lz"):
            argv = ["compare", "--config", str(cfg), "--method", method, "--threshold", "0.1"]
            assert cli_main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("numeric error: " + method), argv
    assert calls == []


def test_cli_compare_bloch_pert_refuses_before_propagating(tmp_path, capsys, monkeypatch):
    # the truncation is resolved and checked before the window propagates
    calls = []
    monkeypatch.setattr(integrate, "solve_ivp", lambda *args: calls.append(args))
    unswept = tmp_path / "unswept.cfg"
    unswept.write_text("v = 0\namp_rf = 1\nfreq_rf = 1\namp_mw = 1\nfreq_mw = 1\n")
    short = tmp_path / "short.cfg"
    short.write_text("delta = 0.07\namp_rf = 50\nfreq_rf = 1\nfreq_mw = 1\nn_max = 3\n")
    for cfg, code, err in ((unswept, 1, "config error: cannot rescale a v = 0 config"),
                           (short, 2, "numeric error: n_max = 3 below ceil(|A/omega|) = 50")):
        argv = ["compare", "--config", str(cfg), "--method", "bloch_pert", "--threshold", "0.1"]
        assert cli_main(argv) == code, argv
        assert capsys.readouterr().err.startswith(err), argv
    assert calls == []


def test_cli_trace_stride_beyond_the_budget_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 0.08\nstride = 1e-12\n")
    assert cli_main(["trace", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("numeric error: propagation failed")


# finite configs whose windows or ratios overflow inside the computation
HUGE_WINDOW = "delta = 0.1\ntau_start = -1e300\ntau_end = 1e300\n"
HUGE_RATIO = "eps0 = 1e10\nfreq_rf = 1e-300\n"
HUGE_INVERSE_LZ = ("v = 0\namp_rf = 1\nfreq_rf = 1e-300\namp_mw = 1\nfreq_mw = 2e-300\n"
                   "phase = 1.5707963267948966\n")


def test_cli_overflowing_inputs_exit_2(tmp_path, capsys):
    for text, method, why in (
        (HUGE_WINDOW, "weak_drive", "propagation failed near tau = -1e+300"),
        (HUGE_RATIO, "strong_drive", "(eps0 + -1*freq_mw)/freq_rf overflows"),
        (HUGE_INVERSE_LZ, "inverse_lz", "inverse_lz_case needs a finite"),
    ):
        cfg = tmp_path / f"{method}.cfg"
        cfg.write_text(text)
        argv = ["compare", "--config", str(cfg), "--method", method, "--threshold", "0.1"]
        if method == "strong_drive":
            with pytest.warns(UserWarning, match="static shift"):
                code = cli_main(argv)
        else:
            code = cli_main(argv)
        assert code == 2, method
        assert capsys.readouterr().err.startswith("numeric error: " + why), method


def test_cli_inverse_lz_beyond_the_weber_order_box_exits_2(tmp_path, capsys):
    for amp_rf, amp_mw, why in (
        # A/omega = 4, A_f = 0.25, omega = 1: delta_eff = 8
        (4, 0.25, "delta_eff"),
        # v_eff = 4000: |tau_f| = sqrt(v_eff) |sin(omega t)| passes 60
        (1, 2000, "tau_f"),
    ):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(f"v = 0\namp_rf = {amp_rf}\nfreq_rf = 1\namp_mw = {amp_mw}\n"
                       "freq_mw = 2\nphase = 1.5707963267948966\n")
        argv = ["compare", "--config", str(cfg), "--method", "inverse_lz", "--threshold", "0.1"]
        assert cli_main(argv) == 2, why
        err = capsys.readouterr().err
        assert why in err and "weber_d" not in err, err


def test_run_sweep_types_overflowing_cells():
    for text, observable, marker in (
        (HUGE_WINDOW, "p_up_final", "error(IntegrationError)"),
        (HUGE_RATIO, "delta_param", "error(OffResonanceError)"),
    ):
        sweep = parse_sweep(json.dumps({
            "axis1": {"field": "phase", "min": 0.0, "max": 1.0, "steps": 2},
            "observable": observable,
        }))
        lines = run_sweep(parse_config(text), sweep).strip().split("\n")[1:]
        assert [line.split(",")[1] for line in lines] == [marker, marker]


def test_cli_end_to_end(tmp_path, capsys):
    assert cli_main(["selftest"]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")

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
    for text in ("stride = nan\n", "stride = inf\n", "n_max = 0\n", "tau_end = inf\n",
                 '{"delta": true}'):
        bad.write_text(text)
        assert cli_main(["trace", "--config", str(bad)]) == 1, text
        assert "config error" in capsys.readouterr().err
    bad.write_text("axis1_field = delta\naxis1_min = nan\naxis1_max = 0.1\n"
                   "axis1_steps = 2\nobservable = delta_param\n")
    assert cli_main(["sweep", "--config", str(cfg), "--sweep", str(bad)]) == 1
    assert "[key: axis1_min] [line: 2]" in capsys.readouterr().err
    bad.write_text('{"delta": 0.1, "delta": 0.2}')
    assert cli_main(["trace", "--config", str(bad)]) == 1
    assert "[key: delta]" in capsys.readouterr().err

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
