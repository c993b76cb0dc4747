"""Seeded inputs, timed jobs and output checks of the three workloads.

Every workload is a sequence of rounds.  Round ``r`` of seed ``s`` is drawn
from ``numpy.random.default_rng([s, r])`` and holds plain JSON data only, so
the same seed always yields byte-identical inputs and the package receives
nothing but those inputs.  A round has a fixed composition (which kinds of
job, how many of each); only parameter values vary with the seed, so the
cost of a round depends little on the seed.

``run`` is the timed call into the package.  ``check`` runs outside the
timed region and compares the output with its reference at the acceptance
tolerances; a miss or an exception counts the job's items as failed.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROT = cmath.exp(-0.25j * math.pi)
TWO_PI = 2.0 * math.pi

# Acceptance tolerances the checks use.
TOL_CLOSED_VS_NUMERIC = 2e-2  # criteria 2, 4, 5, 6
TOL_RABI = 1e-6  # criterion 7, commensurate rotation
TOL_INVERSE_LZ = 1e-4  # criterion 7, sinusoidally swept crossing
TOL_UNITARITY = 1e-8  # criterion 8
TOL_FOUR_PATH = 1e-12  # four-path sum vs |c|^2 of the propagator
TOL_NORM = 1e-9  # norm contract of every trajectory
TOL_WEBER = 1e-8  # weber_d relative-error contract on |z| <= 60
TOL_DELTA_PARAM = 1e-10  # strong-drive exponent vs an independent Bessel sum, on its scale


def import_lzdrive():
    """Import the package from this checkout's ``src`` (never an installed
    copy); exit non-zero when the source is not there."""
    src = ROOT / "src"
    if not (src / "lzdrive" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    import lzdrive

    if Path(lzdrive.__file__).resolve().parent != (src / "lzdrive").resolve():
        raise SystemExit(f"perfbench: imported lzdrive from {lzdrive.__file__}, not {src}")
    import lzdrive.cli  # noqa: F401  (the CLI entry point is a job step)

    return lzdrive


@dataclass
class Checked:
    """Outcome of checking one job."""

    items: int
    failed: int = 0
    dev: float = 0.0
    notes: list = field(default_factory=list)

    def expect(self, ok: bool, note: str, items: int | None = None):
        """Record a miss of ``items`` of the job's items (default: all)."""
        if not ok:
            self.failed = min(self.items, self.failed + (items or self.items))
            self.notes.append(note)


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _rows(text: str):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# resonance_sweep
# ---------------------------------------------------------------------------

WINDOW = {"tau_start": -50.0, "tau_end": 50.0, "tol": 1e-10}
WEAK_BASES = {  # criterion 4
    "weak_a": {"amp_rf": 1.0, "freq_rf": 50.0, "amp_mw": 0.08, "freq_mw": 1.0, "delta": 0.07},
    "weak_b": {"amp_rf": 29.0, "freq_rf": 100.0, "amp_mw": 0.08, "freq_mw": 1.0, "delta": 0.0075},
}


def _axis(name, lo, hi, steps=2):
    return {"field": name, "min": lo, "max": hi, "steps": steps}


def _cells(sweep) -> int:
    return sweep["axis1"]["steps"] * (sweep["axis2"]["steps"] if "axis2" in sweep else 1)


class ResonanceSweep:
    """2-D ``run_sweep`` grids of ``p_up_final`` over [-50, 50] at tol 1e-10.

    One job per round: a strong-drive grid (amp_rf x delta, criterion 2) and
    a phase x eps0 grid on each weak-drive basis (criterion 4), 2 x 2 cells
    each.  A user waits on whole grids, so this workload is about throughput
    and its item latency is the round's time per cell.  Axis end points are
    drawn in pairs mirrored about the middle of the validated range, so every
    strong grid has the same mean A/omega and a round's cost hardly depends
    on the seed.
    """

    name = "resonance_sweep"
    trace_rounds = 1

    def round(self, seed: int, r: int) -> list:
        rng = np.random.default_rng([seed, r])
        ratio_lo = _u(rng, 0.5, 0.9)
        delta_lo = _u(rng, 0.05, 0.15)
        grids = [{
            "kind": "strong",
            "config": dict(WINDOW, delta=0.1, amp_rf=100.0, freq_rf=100.0,
                           amp_mw=0.08, freq_mw=200.0),
            "sweep": {
                "axis1": _axis("amp_rf", 100.0 * ratio_lo, 100.0 * (2.5 - ratio_lo)),
                "axis2": _axis("delta", delta_lo, 0.35 - delta_lo),
                "observable": "p_up_final",
            },
        }]
        for kind, base in WEAK_BASES.items():
            phase_lo = _u(rng, 0.0, math.pi)
            eps_hi = _u(rng, 0.5, 2.0)
            grids.append({
                "kind": kind,
                "config": dict(WINDOW, **base),
                "sweep": {
                    "axis1": _axis("phase", phase_lo, phase_lo + math.pi),
                    "axis2": _axis("eps0", -eps_hi, eps_hi),
                    "observable": "p_up_final",
                },
            })
        return [{"kind": "grids", "grids": grids}]

    def warmup(self, seed: int) -> list:
        """The smallest sweep ``run_sweep`` accepts: two weak-drive cells."""
        grid = self.round(seed, 0)[0]["grids"][1]
        sweep = {k: v for k, v in grid["sweep"].items() if k != "axis2"}
        return [{"kind": "grids", "grids": [dict(grid, sweep=sweep)]}]

    @staticmethod
    def items(job) -> int:
        return sum(_cells(g["sweep"]) for g in job["grids"])

    def prepare(self, job, scratch):
        return None

    def run(self, lz, job, ctx):
        return [
            lz.run_sweep(lz.parse_config(json.dumps(g["config"])),
                         lz.parse_sweep(json.dumps(g["sweep"])), workers=1)
            for g in job["grids"]
        ]

    def check(self, lz, job, texts, ctx) -> Checked:
        out = Checked(self.items(job))
        for grid, text in zip(job["grids"], texts):
            self._check_grid(lz, grid, text, out)
        return out

    @staticmethod
    def _check_grid(lz, grid, text, out: Checked):
        kind = grid["kind"]
        axes = [grid["sweep"][k] for k in ("axis1", "axis2") if k in grid["sweep"]]
        names = [a["field"] for a in axes]
        expected = list(itertools.product(*[np.linspace(a["min"], a["max"], a["steps"])
                                            for a in axes]))
        rows = _rows(text)
        if rows[0] != names + ["p_up_final"] or len(rows) - 1 != len(expected):
            out.expect(False, f"{kind} grid: header {rows[0]}, {len(rows) - 1} cells",
                       len(expected))
            return
        for row, cell in zip(rows[1:], expected):
            if row[-1].startswith("error("):
                out.expect(False, f"{kind} cell {cell}: {row[-1]}", 1)
                continue
            kw = {k: v for k, v in grid["config"].items() if k not in WINDOW}
            kw.update(zip(names, cell))
            cfg = lz.DriveConfig(**kw)
            if kind == "strong":
                ref = lz.strong_drive_survival(cfg)
            else:
                ref = lz.weak_drive_probabilities(cfg)[0]
            dev = abs(float(row[-1]) - ref)
            out.dev = max(out.dev, dev)
            got = tuple(float(x) for x in row[:-1])
            out.expect(got == cell and dev <= TOL_CLOSED_VS_NUMERIC,
                       f"{kind} cell {got}: dev {dev:.3g}", 1)


# ---------------------------------------------------------------------------
# staircase_trace
# ---------------------------------------------------------------------------

DENSE = {"tau_start": -50.0, "tau_end": 50.0, "tol": 1e-10, "stride": 0.1, "n_max": 40}
N_DENSE = 1001


class StaircaseTrace:
    """One dense trajectory job per item: ``run_compare(method="bloch_pert")``,
    ``CompareReport.to_json()`` and ``lzdrive.cli.main(["trace", ...])``
    writing the CSV to a temporary file.

    A round is two cascaded-staircase configs (criterion 5, validated on
    u_z) around one polarization config (criterion 6, validated on u_x and
    u_y), each jittered around the criterion's config.  The polarization
    jobs run about 10% fewer right-hand-side evaluations; with two thirds of
    the items in one regime the median item stays inside that regime's
    cluster instead of falling between the two.
    """

    name = "staircase_trace"
    trace_rounds = 2

    def round(self, seed: int, r: int) -> list:
        rng = np.random.default_rng([seed, r])
        staircases = [
            dict(DENSE, delta=_u(rng, 0.06, 0.08), eps0=_u(rng, 0.4, 0.6),
                 amp_rf=_u(rng, 22.0, 28.0), freq_rf=1.0, amp_mw=_u(rng, 0.07, 0.09),
                 freq_mw=1.0, phase=_u(rng, 0.0, 0.5 * math.pi))
            for _ in range(2)
        ]
        polarization = dict(
            DENSE,
            delta=_u(rng, 0.06, 0.075), amp_rf=_u(rng, 0.03, 0.07), freq_rf=1.0,
            amp_mw=_u(rng, 0.075, 0.09), freq_mw=1.0,
        )
        return [
            {"kind": "staircase", "config": staircases[0], "validated": ["uz"]},
            {"kind": "polarization", "config": polarization, "validated": ["ux", "uy"]},
            {"kind": "staircase", "config": staircases[1], "validated": ["uz"]},
        ]

    def warmup(self, seed: int) -> list:
        return self.round(seed, 0)[:1]

    @staticmethod
    def items(job) -> int:
        return 1

    def prepare(self, job, scratch):
        scratch = tempfile.mkdtemp(dir=scratch)
        cfg_path = os.path.join(scratch, "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(job["config"]))
        return cfg_path, os.path.join(scratch, "trace.csv")

    def run(self, lz, job, ctx):
        cfg_path, csv_path = ctx
        spec = lz.parse_config(json.dumps(job["config"]))
        report = lz.run_compare(spec, "bloch_pert", TOL_CLOSED_VS_NUMERIC)
        text = report.to_json()
        code = lz.cli.main(["trace", "--config", cfg_path, "--out", csv_path])
        return report, text, code

    def check(self, lz, job, result, ctx) -> Checked:
        report, text, code = result
        _, csv_path = ctx
        out = Checked(1)
        out.expect(code == 0, f"cli trace exit code {code}")
        doc = json.loads(text)
        out.expect(doc["method"] == "bloch_pert" and len(doc["samples"]) == 3 * N_DENSE,
                   "report JSON does not match the report")
        out.expect(doc["max_abs_dev"] == report.max_abs_dev, "report JSON max_abs_dev differs")
        comps = {"ux": [], "uy": [], "uz": []}
        for s in report.samples:
            comps[s["where"][:2]].append(s)
        for comp in job["validated"]:
            dev = max(s["abs_dev"] for s in comps[comp])
            out.dev = max(out.dev, dev)
            out.expect(dev <= TOL_CLOSED_VS_NUMERIC, f"{comp} dev {dev:.3g}")
        u = np.array([[s["numeric"] for s in comps[c]] for c in ("ux", "uy", "uz")])
        drift = float(np.max(np.abs(np.sqrt(np.sum(u * u, axis=0)) - 1.0)))
        out.expect(drift <= TOL_NORM, f"Bloch radius drift {drift:.3g}")
        if code == 0:
            with open(csv_path, encoding="utf-8") as fh:
                rows = _rows(fh.read())
            os.remove(csv_path)
            out.expect(rows[0] == ["tau", "p_up", "p_dn", "ux", "uy", "uz"], "CSV header")
            data = np.array(rows[1:], dtype=float)
            out.expect(data.shape == (N_DENSE, 6), f"CSV shape {data.shape}")
            taus = -50.0 + 0.1 * np.arange(N_DENSE)
            out.expect(bool(np.allclose(data[:, 0], taus, rtol=0.0, atol=1e-9)), "CSV tau grid")
            norm = float(np.max(np.abs(data[:, 1] + data[:, 2] - 1.0)))
            out.expect(norm <= TOL_NORM, f"CSV norm drift {norm:.3g}")
        return out


# ---------------------------------------------------------------------------
# closed_form_scan
# ---------------------------------------------------------------------------

# |t| ranges whose Weber arguments land in the series, march and asymptotic
# regions (see tracer.weber_region), inside the validated |z| <= 60 box.
REGIONS = {"series": (0.05, 3.45), "march": (3.55, 11.95), "asymptotic": (12.05, 59.5)}
REGION_PAIRS = [(a, b) for i, a in enumerate(REGIONS) for b in list(REGIONS)[i:]]


def _random_config(rng) -> dict:
    """A drive drawn from the randomized ranges of criterion 8."""
    return {
        "delta": _u(rng, 0.0, 0.2), "eps0": _u(rng, -2.0, 2.0),
        "amp_rf": _u(rng, 0.0, 3.0), "freq_rf": _u(rng, 5.0, 100.0),
        "amp_mw": _u(rng, 0.0, 0.3), "freq_mw": _u(rng, 0.2, 3.0),
        "phase": _u(rng, 0.0, TWO_PI),
    }


def _window(rng, pair):
    """(start, end) distances from the crossing; the start side is negative."""
    (lo_a, hi_a), (lo_b, hi_b) = REGIONS[pair[0]], REGIONS[pair[1]]
    if rng.uniform() < 0.5:
        return -_u(rng, lo_a, hi_a), _u(rng, lo_b, hi_b)
    return -_u(rng, lo_b, hi_b), _u(rng, lo_a, hi_a)


def _exponent_oracle(cfg: dict) -> tuple[float, float]:
    """Strong-drive exponent |sum_alpha J_alpha e^{i alpha phi}|^2 from
    scipy's Bessel function, independent of the package's own algebra, and
    its scale (sum_alpha |J_alpha|)^2.  The terms can cancel almost
    completely, so deviations are measured against the scale, not the
    value."""
    from scipy.special import jv

    x = cfg["amp_rf"] / cfg["freq_rf"]
    total = 0.0 + 0.0j
    scale = 0.0
    for alpha in (-1, 0, 1):
        n = round(-(cfg["eps0"] + alpha * cfg["freq_mw"]) / cfg["freq_rf"])
        strength = 2.0 * cfg["delta"] if alpha == 0 else cfg["amp_mw"]
        j = 0.25 * strength * jv(n, x)
        total += j * cmath.exp(1j * alpha * cfg["phase"])
        scale += abs(j)
    return abs(total) ** 2, scale**2


class ClosedFormScan:
    """A seeded mix of closed-form evaluations, one item each.

    A round holds, in a fixed order: 24 ``caley_klein_finite`` and 24
    finite-window ``transfer_matrix`` windows (every pair of end-point
    regions among series/march/asymptotic, four times each), 8
    ``weak_drive_probabilities`` beside ``single_passage_propagator``, 2
    ``delta_param`` sweeps, and one ``run_compare`` on a short unswept
    window, alternating between the ``rabi`` and ``inverse_lz`` methods from
    round to round.  The mix puts about a quarter of the item time in the
    short ``integrate`` windows and over half in ``weber_d``.
    """

    name = "closed_form_scan"
    trace_rounds = 40

    def round(self, seed: int, r: int) -> list:
        rng = np.random.default_rng([seed, r])
        jobs = []
        for pair in REGION_PAIRS * 4:
            t0, t1 = _window(rng, pair)
            jobs.append({"kind": "caley_klein_finite", "delta": _u(rng, 1e-3, 2.0),
                         "t_start": t0, "t_end": t1, "regions": list(pair)})
        for pair in REGION_PAIRS * 4:
            cfg = _random_config(rng)
            n, alpha = int(rng.integers(-3, 4)), int(rng.integers(-1, 2))
            offset = cfg["eps0"] + n * cfg["freq_rf"] + alpha * cfg["freq_mw"]
            t0, t1 = _window(rng, pair)
            jobs.append({"kind": "transfer_matrix", "n": n, "alpha": alpha, "config": cfg,
                         "tau_start": t0 - offset, "tau_end": t1 - offset,
                         "regions": list(pair)})
        for _ in range(8):
            jobs.append({"kind": "weak_passage", "config": _random_config(rng)})
        for _ in range(2):
            m = int(rng.integers(-1, 2))
            freq_rf = _u(rng, 5.0, 100.0)
            ratio_lo = _u(rng, 0.0, 1.5)
            delta_lo = _u(rng, 0.0, 0.15)
            jobs.append({
                "kind": "delta_param_sweep",
                "config": {"eps0": m * freq_rf, "freq_rf": freq_rf, "freq_mw": 2.0 * freq_rf,
                           "amp_rf": freq_rf, "delta": 0.1, "amp_mw": _u(rng, 0.0, 0.3),
                           "phase": _u(rng, 0.0, TWO_PI)},
                "sweep": {
                    "axis1": _axis("amp_rf", freq_rf * ratio_lo, freq_rf * (ratio_lo + 1.5), 3),
                    "axis2": _axis("delta", delta_lo, delta_lo + 0.15, 3),
                    "observable": "delta_param",
                },
            })
        w = _u(rng, 0.5, 2.0)
        if r % 2 == 0:
            cfg = {"v": 0.0, "amp_rf": _u(rng, 0.5, 2.0), "freq_rf": w,
                   "amp_mw": _u(rng, 0.5, 2.0), "freq_mw": w}
            jobs.append({"kind": "rabi", "config": dict(cfg, tol=1e-12), "tol": TOL_RABI})
        else:
            cfg = {"v": 0.0, "amp_rf": _u(rng, 0.2, 1.0), "freq_rf": w,
                   "amp_mw": _u(rng, 0.5, 2.0), "freq_mw": 2.0 * w, "phase": 0.5 * math.pi}
            jobs.append({"kind": "inverse_lz", "config": dict(cfg, tol=1e-12),
                         "tol": TOL_INVERSE_LZ})
        return jobs

    def warmup(self, seed: int) -> list:
        """One job of each kind."""
        jobs = self.round(seed, 0) + self.round(seed, 1)[-1:]
        seen, out = set(), []
        for job in jobs:
            if job["kind"] not in seen:
                seen.add(job["kind"])
                out.append(job)
        return out

    @staticmethod
    def items(job) -> int:
        return 1

    def prepare(self, job, scratch):
        return None

    def run(self, lz, job, ctx):
        kind = job["kind"]
        if kind == "caley_klein_finite":
            return lz.caley_klein_finite(job["delta"], job["t_start"] * ROT, job["t_end"] * ROT)
        if kind == "transfer_matrix":
            return lz.transfer_matrix(
                lz.HarmonicIndex(job["n"], job["alpha"]), lz.DriveConfig(**job["config"]),
                asymptotic=False, tau_start=job["tau_start"], tau_end=job["tau_end"],
            )
        if kind == "weak_passage":
            cfg = lz.DriveConfig(**job["config"])
            return lz.weak_drive_probabilities(cfg), lz.single_passage_propagator(cfg)
        if kind == "delta_param_sweep":
            spec = lz.parse_config(json.dumps(job["config"]))
            return lz.run_sweep(spec, lz.parse_sweep(json.dumps(job["sweep"])), workers=1)
        spec = lz.parse_config(json.dumps(job["config"]))
        return lz.run_compare(spec, kind, job["tol"])

    def check(self, lz, job, res, ctx) -> Checked:
        out = Checked(1)
        kind = job["kind"]
        if kind == "caley_klein_finite":
            dev = res.unitarity_defect()
            out.expect(dev <= TOL_UNITARITY, f"unitarity defect {dev:.3g}")
        elif kind == "transfer_matrix":
            m = res.matrix()
            dev = float(np.max(np.abs(m @ m.conj().T - np.eye(2))))
            out.expect(dev <= TOL_UNITARITY, f"unitarity defect {dev:.3g}")
        elif kind == "weak_passage":
            (p_up, p_dn), prop = res
            dev = abs(p_up - abs(prop.c) ** 2)
            out.expect(dev <= TOL_FOUR_PATH, f"four-path sum vs |c|^2: {dev:.3g}")
            out.expect(prop.unitarity_defect() <= TOL_UNITARITY, "propagator not unitary")
            out.expect(abs(p_up + p_dn - 1.0) <= 1e-15, "p_up + p_dn != 1")
        elif kind == "delta_param_sweep":
            dev = 0.0
            rows = _rows(res)
            out.expect(len(rows) == 10, f"{len(rows) - 1} cells")
            for row in rows[1:]:
                cfg = dict(job["config"], amp_rf=float(row[0]), delta=float(row[1]))
                ref, scale = _exponent_oracle(cfg)
                got = float(row[2])
                rel = abs(got - ref) / max(scale, 1e-300)
                dev = max(dev, rel)
                out.expect(got >= 0.0 and rel <= TOL_DELTA_PARAM, f"delta_param dev {rel:.3g}")
        else:
            dev = res.max_abs_dev
            out.expect(dev <= job["tol"], f"{kind} dev {dev:.3g} > {job['tol']:g}")
        out.dev = max(out.dev, dev)
        return out

    def weber_spot_check(self, lz, seed: int, rounds: int, n_points: int = 24) -> Checked:
        """Replay jobs from a seeded subset of the ``rounds`` rounds that ran,
        record the ``weber_d`` arguments they pass, and compare a seeded
        sample of those calls with ``mpmath.pcfd`` at 30 digits."""
        import mpmath

        rng = np.random.default_rng([seed, 1 << 20])
        picked = rng.choice(rounds, size=min(2, rounds), replace=False)
        jobs = [j for r in sorted(picked) for j in self.round(seed, int(r))
                if j["kind"] in ("caley_klein_finite", "transfer_matrix", "inverse_lz")]
        calls = []
        analytic = sys.modules["lzdrive.analytic"]
        original = analytic.weber_d

        def recording(nu, z):
            value = original(nu, z)
            calls.append((complex(nu), complex(z), value))
            return value

        analytic.weber_d = recording
        try:
            for job in jobs:
                self.run(lz, job, None)
        finally:
            analytic.weber_d = original
        out = Checked(n_points)
        out.expect(bool(calls), "replayed jobs made no weber_d call")
        if not calls:
            return out
        with mpmath.workdps(30):
            for k in rng.choice(len(calls), size=n_points, replace=len(calls) < n_points):
                nu, z, value = calls[k]
                ref = complex(mpmath.pcfd(nu, z))
                rel = abs(value - ref) / abs(ref)
                out.dev = max(out.dev, rel)
                out.expect(rel <= TOL_WEBER, f"weber_d({nu}, {z}) rel err {rel:.3g}", 1)
        return out


WORKLOADS = {w.name: w for w in (ResonanceSweep(), StaircaseTrace(), ClosedFormScan())}


def canonical_inputs(workload: str, seed: int, rounds: int) -> bytes:
    """The first ``rounds`` rounds of a workload as canonical JSON bytes."""
    w = WORKLOADS[workload]
    doc = {"warmup": w.warmup(seed), "rounds": [w.round(seed, r) for r in range(rounds)]}
    return json.dumps(doc, sort_keys=True).encode("utf-8")
