"""Run configuration, sweep execution, comparison reports, and data export.

Two config syntaxes (flat ``key = value`` lines and JSON) map onto one
validated RunSpec.  Sweeps run cell-by-cell with optional process
parallelism; the output grid is assembled in row-major axis order before
writing, so the bytes do not depend on the worker count.  Comparison runs
pit a closed-form method against direct numerical propagation and emit a
JSON report with per-point deviations.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .analytic import (
    inverse_lz_case,
    rabi_case,
    strong_drive_delta,
    strong_drive_survival,
    weak_drive_probabilities,
)
from .blochpert import TruncationSpec, bloch_perturbative, default_truncation
from .errors import ConfigError, IntegrationError
from .integrate import propagate_bloch, propagate_tdse, spinor_to_bloch
from .model import DriveConfig

__all__ = [
    "RunSpec",
    "SweepSpec",
    "CompareReport",
    "parse_config",
    "parse_sweep",
    "run_trace",
    "run_sweep",
    "run_compare",
    "selftest",
    "COMPARE_METHODS",
    "OBSERVABLES",
]

_MODES = ("trace", "sweep", "compare", "selftest")
_CFG_KEYS = ("v", "delta", "eps0", "amp_rf", "freq_rf", "amp_mw", "freq_mw", "phase")
_FLOAT_FMT = ".17g"

COMPARE_METHODS = ("strong_drive", "weak_drive", "bloch_pert", "rabi", "inverse_lz")
OBSERVABLES = ("p_up_final", "p_dn_final", "uz_final", "delta_param")


@dataclass
class RunSpec:
    """One validated run: physical config plus window/integrator settings."""

    mode: str = "trace"
    cfg: DriveConfig = field(default_factory=DriveConfig)
    tau_start: float = -50.0
    tau_end: float = 50.0
    tol: float = 1e-10
    stride: float = 0.1
    trunc: TruncationSpec | None = None
    output_path: str | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode '{self.mode}'", key="mode")
        if not (self.tau_start < self.tau_end):
            raise ConfigError("window must be ordered: tau_start < tau_end", key="tau_start")
        if self.stride <= 0.0:
            raise ConfigError("stride must be positive", key="stride")
        if not (1e-13 <= self.tol <= 1e-6):
            raise ConfigError("tol must lie in [1e-13, 1e-6]", key="tol")

    def truncation(self) -> TruncationSpec:
        return self.trunc if self.trunc is not None else default_truncation(self.cfg)


@dataclass
class SweepSpec:
    """Grid over one or two DriveConfig fields and one observable."""

    axis1: tuple[str, float, float, int]
    axis2: tuple[str, float, float, int] | None
    observable: str

    def __post_init__(self):
        for ax in (self.axis1, self.axis2):
            if ax is None:
                continue
            name, lo, hi, steps = ax
            if name not in _CFG_KEYS:
                raise ConfigError(f"unknown sweep field '{name}'", key=name)
            if int(steps) < 2:
                raise ConfigError("sweep steps must be >= 2", key=name)
        if self.observable not in OBSERVABLES:
            raise ConfigError(
                f"unknown observable '{self.observable}'", key="observable"
            )

    def grid(self):
        name1, lo1, hi1, n1 = self.axis1
        vals1 = np.linspace(lo1, hi1, int(n1))
        if self.axis2 is None:
            return [(name1, None), [(v, None) for v in vals1]]
        name2, lo2, hi2, n2 = self.axis2
        vals2 = np.linspace(lo2, hi2, int(n2))
        cells = [(v1, v2) for v1 in vals1 for v2 in vals2]
        return [(name1, name2), cells]


@dataclass
class CompareReport:
    """Analytic-vs-numeric deviations of one method on one config."""

    method: str
    threshold: float
    samples: list
    max_abs_dev: float
    rms_dev: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_RUN_KEYS = _CFG_KEYS + ("mode", "tau_start", "tau_end", "tol", "stride", "n_max", "output")


def _coerce_number(key: str, raw, line: int | None = None) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"value for '{key}' is not numeric: {raw!r}", key=key, line=line
        ) from None


def _build_runspec(entries: dict, lines: dict | None = None) -> RunSpec:
    lines = lines or {}
    cfg_kwargs = {}
    run_kwargs = {}
    trunc = None
    for key, raw in entries.items():
        line = lines.get(key)
        if key not in _RUN_KEYS:
            raise ConfigError(f"unknown config key '{key}'", key=key, line=line)
        if key == "mode":
            run_kwargs["mode"] = str(raw)
        elif key == "output":
            run_kwargs["output_path"] = str(raw)
        elif key == "n_max":
            val = _coerce_number(key, raw, line)
            if val != int(val):
                raise ConfigError("n_max must be an integer", key=key, line=line)
            trunc = TruncationSpec(int(val))
        elif key in _CFG_KEYS:
            cfg_kwargs[key] = _coerce_number(key, raw, line)
        else:
            run_kwargs[key] = _coerce_number(key, raw, line)
    try:
        cfg = DriveConfig(**cfg_kwargs)
    except ConfigError as exc:
        raise ConfigError(str(exc), key=exc.key, line=lines.get(exc.key)) from None
    return RunSpec(cfg=cfg, trunc=trunc, **run_kwargs)


def _parse_flat(text: str):
    entries = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"expected 'key = value' on line {lineno}: {raw!r}", line=lineno
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in entries:
            raise ConfigError(f"duplicate key '{key}'", key=key, line=lineno)
        entries[key] = value.strip()
        lines[key] = lineno
    return entries, lines


def parse_config(text: str) -> RunSpec:
    """Parse a run config from JSON or flat key = value text."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
        if not isinstance(entries, dict):
            raise ConfigError("JSON config must be an object")
        return _build_runspec(entries)
    entries, lines = _parse_flat(text)
    return _build_runspec(entries, lines)


_SWEEP_AXIS_KEYS = ("field", "min", "max", "steps")


def _flatten_sweep_json(doc) -> dict:
    """JSON sweep spec -> flat entries: {"axis1": {"min": 0, ...}} becomes
    {"axis1_min": 0, ...}; a null axis is left out."""
    if not isinstance(doc, dict):
        raise ConfigError("JSON sweep spec must be an object")
    entries = {}
    for key, value in doc.items():
        if key not in ("axis1", "axis2"):
            entries[key] = value
        elif value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object", key=key)
            entries.update((f"{key}_{sub}", v) for sub, v in value.items())
    return entries


def _sweep_axis(entries: dict, lines: dict, prefix: str):
    keys = [f"{prefix}_{s}" for s in _SWEEP_AXIS_KEYS]
    if not any(k in entries for k in keys):
        return None
    missing = [k for k in keys if k not in entries]
    if missing:
        raise ConfigError(f"sweep axis incomplete, missing {missing}", key=prefix)
    lo, hi, steps = (_coerce_number(k, entries[k], lines.get(k)) for k in keys[1:])
    if not steps.is_integer():
        raise ConfigError(
            f"{keys[3]} must be an integer, got {entries[keys[3]]!r}",
            key=keys[3],
            line=lines.get(keys[3]),
        )
    return str(entries[keys[0]]), lo, hi, int(steps)


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep spec from JSON or flat key = value text.

    JSON form: {"axis1": {"field":..., "min":..., "max":..., "steps":...},
    "axis2": {...} (optional), "observable": ...}.  Flat form uses keys
    axis1_field, axis1_min, axis1_max, axis1_steps, likewise axis2_*, and
    observable.  The JSON form is flattened to those keys, so both syntaxes
    are validated by the same code."""
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON sweep spec: {exc}") from None
        entries, lines = _flatten_sweep_json(doc), {}
    else:
        entries, lines = _parse_flat(text)
    known = {"observable"} | {
        f"{p}_{s}" for p in ("axis1", "axis2") for s in _SWEEP_AXIS_KEYS
    }
    extra = set(entries) - known
    if extra:
        k = sorted(extra)[0]
        raise ConfigError(f"unknown sweep key '{k}'", key=k, line=lines.get(k))
    axis1 = _sweep_axis(entries, lines, "axis1")
    if axis1 is None:
        raise ConfigError("sweep spec needs axis1_field/min/max/steps")
    axis2 = _sweep_axis(entries, lines, "axis2")
    if "observable" not in entries:
        raise ConfigError("sweep spec needs an observable", key="observable")
    return SweepSpec(axis1, axis2, str(entries["observable"]))


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


def run_trace(spec: RunSpec) -> str:
    """Propagate the config and render the trajectory as CSV text
    (tau, p_up, p_dn, ux, uy, uz); deterministic bytes for fixed inputs."""
    tr = propagate_tdse(
        spec.cfg,
        tau_start=spec.tau_start,
        tau_end=spec.tau_end,
        tol=spec.tol,
        sample_stride=spec.stride,
    )
    pops = tr.populations()
    bloch = spinor_to_bloch(tr.data)
    buf = io.StringIO()
    buf.write("tau,p_up,p_dn,ux,uy,uz\n")
    for k in range(tr.taus.size):
        row = (
            tr.taus[k],
            pops[k, 0],
            pops[k, 1],
            bloch[k, 0],
            bloch[k, 1],
            bloch[k, 2],
        )
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def _sweep_cell(args):
    """One grid cell; returns the formatted observable or an error marker."""
    index, cfg_kwargs, observable, tau_start, tau_end, tol = args
    try:
        cfg = DriveConfig(**cfg_kwargs)
        if observable == "delta_param":
            value = strong_drive_delta(cfg)
        elif observable == "uz_final":
            tr = propagate_bloch(
                cfg,
                tau_start=tau_start,
                tau_end=tau_end,
                tol=tol,
                sample_stride=tau_end - tau_start,
            )
            value = float(tr.data[-1, 2])
        else:
            tr = propagate_tdse(
                cfg,
                tau_start=tau_start,
                tau_end=tau_end,
                tol=tol,
                sample_stride=tau_end - tau_start,
            )
            p_up, p_dn = tr.final_populations()
            value = p_up if observable == "p_up_final" else p_dn
        return index, _fmt(value)
    except (ValueError, ArithmeticError, IntegrationError) as exc:
        # numeric and domain failures of one cell must not abort the grid
        return index, f"error({type(exc).__name__})"


def run_sweep(spec: RunSpec, sweep: SweepSpec, workers: int = 1) -> str:
    """Evaluate the observable over the grid; CSV text in row-major axis
    order, byte-identical for any worker count."""
    if workers < 1:
        raise ConfigError("workers must be >= 1", key="workers")
    (name1, name2), cells = sweep.grid()
    base = {k: getattr(spec.cfg, k) for k in _CFG_KEYS}
    tasks = []
    for i, (v1, v2) in enumerate(cells):
        kw = dict(base)
        kw[name1] = float(v1)
        if name2 is not None:
            kw[name2] = float(v2)
        tasks.append((i, kw, sweep.observable, spec.tau_start, spec.tau_end, spec.tol))
    if workers == 1:
        results = [_sweep_cell(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, tasks))
    values = [None] * len(tasks)
    for index, text in results:
        values[index] = text
    buf = io.StringIO()
    if name2 is None:
        buf.write(f"{name1},{sweep.observable}\n")
        for (v1, _), text in zip(cells, values):
            buf.write(f"{_fmt(v1)},{text}\n")
    else:
        buf.write(f"{name1},{name2},{sweep.observable}\n")
        for (v1, v2), text in zip(cells, values):
            buf.write(f"{_fmt(v1)},{_fmt(v2)},{text}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------


def _final_population_samples(spec, analytic_pair):
    tr = propagate_tdse(
        spec.cfg,
        tau_start=spec.tau_start,
        tau_end=spec.tau_end,
        tol=spec.tol,
        sample_stride=spec.tau_end - spec.tau_start,
    )
    p_up, p_dn = tr.final_populations()
    a_up, a_dn = analytic_pair
    return [
        {"where": "p_up_final", "analytic": a_up, "numeric": p_up},
        {"where": "p_dn_final", "analytic": a_dn, "numeric": p_dn},
    ]


def _bloch_pert_samples(spec):
    tr = propagate_bloch(
        spec.cfg,
        tau_start=spec.tau_start,
        tau_end=spec.tau_end,
        tol=spec.tol,
        sample_stride=spec.stride,
    )
    pert = bloch_perturbative(tr.taus, spec.cfg, spec.truncation())
    out = []
    for k, tau in enumerate(tr.taus):
        for i, comp in enumerate(("ux", "uy", "uz")):
            out.append(
                {
                    "where": f"{comp}@tau={_fmt(tau)}",
                    "analytic": float(pert[k, i]),
                    "numeric": float(tr.data[k, i]),
                }
            )
    return out


def _zero_sweep_samples(spec, formula, t_max, n_pts):
    taus = np.linspace(0.0, t_max, n_pts + 1)[1:]
    tr = propagate_tdse(
        spec.cfg,
        tau_start=0.0,
        tau_end=float(taus[-1]),
        tol=spec.tol,
        sample_stride=float(taus[0]),
    )
    out = []
    for t in taus:
        k = int(np.argmin(np.abs(tr.taus - t)))
        p_num = tr.populations()[k]
        p_up, p_dn = formula(spec.cfg, float(tr.taus[k]))
        out.append(
            {"where": f"p_up@t={_fmt(tr.taus[k])}", "analytic": p_up, "numeric": float(p_num[0])}
        )
        out.append(
            {"where": f"p_dn@t={_fmt(tr.taus[k])}", "analytic": p_dn, "numeric": float(p_num[1])}
        )
    return out


def run_compare(spec: RunSpec, method: str, threshold: float) -> CompareReport:
    """Compare one closed-form method against direct numerics.

    The numeric side is always a fresh propagation; method preconditions
    (resonance, v = 0 cases) surface as their original exceptions."""
    if method not in COMPARE_METHODS:
        raise ConfigError(f"unknown compare method '{method}'", key="method")
    if not (threshold > 0.0):
        raise ConfigError("threshold must be positive", key="threshold")
    if method == "strong_drive":
        red = spec.cfg.reduced()
        if abs(red.eps0) > 0.5 * red.freq_rf:
            warnings.warn(
                "static shift exceeds half the longitudinal drive frequency; "
                "the resonant closed form degrades there",
                stacklevel=2,
            )
        s = strong_drive_survival(spec.cfg)
        samples = _final_population_samples(spec, (s, 1.0 - s))
    elif method == "weak_drive":
        samples = _final_population_samples(spec, weak_drive_probabilities(spec.cfg))
    elif method == "bloch_pert":
        samples = _bloch_pert_samples(spec)
    elif method == "rabi":
        w = spec.cfg.freq_rf
        samples = _zero_sweep_samples(spec, rabi_case, 4.0 * math.pi / w, 80)
    else:
        w = spec.cfg.freq_rf
        samples = _zero_sweep_samples(spec, inverse_lz_case, 2.0 * math.pi / w, 32)
    devs = []
    for s in samples:
        s["abs_dev"] = abs(s["analytic"] - s["numeric"])
        devs.append(s["abs_dev"])
    devs = np.asarray(devs)
    max_abs = float(np.max(devs))
    rms = float(np.sqrt(np.mean(devs**2)))
    return CompareReport(
        method=method,
        threshold=float(threshold),
        samples=samples,
        max_abs_dev=max_abs,
        rms_dev=rms,
        passed=bool(max_abs <= threshold),
    )


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------


def selftest(out=None) -> bool:
    """Run the special-function oracle checks and print a pass/fail table."""
    import cmath
    import sys

    from scipy.integrate import quad

    from . import specfun as sf
    from .analytic import caley_klein_asymptotic, caley_klein_finite

    out = out if out is not None else sys.stdout
    rng = np.random.default_rng(20240817)
    checks = []

    def check(name, dev, tol):
        checks.append((name, float(dev), float(tol)))

    # Bessel sum rules and Jacobi-Anger resynthesis
    dev_sq = dev_lin = dev_ja = 0.0
    for _ in range(12):
        x = float(rng.uniform(0.0, 30.0))
        nmax = int(abs(x)) + 30
        seq = sf.bessel_j_sequence(nmax, x)
        total_sq = seq[0] ** 2 + 2.0 * np.sum(seq[1:] ** 2)
        dev_sq = max(dev_sq, abs(total_sq - 1.0))
        n = np.arange(-nmax, nmax + 1)
        signed = np.where((n < 0) & (np.abs(n) % 2 == 1), -seq[np.abs(n)], seq[np.abs(n)])
        dev_lin = max(dev_lin, abs(np.sum(signed) - 1.0))
        y = float(rng.uniform(0.0, 2.0 * math.pi))
        resyn = np.sum(signed * np.exp(1j * n * y))
        dev_ja = max(dev_ja, abs(resyn - cmath.exp(1j * x * math.sin(y))))
    check("bessel squared-sum rule", dev_sq, 1e-10)
    check("bessel linear-sum rule", dev_lin, 1e-10)
    check("jacobi-anger resynthesis", dev_ja, 1e-9)

    # Fresnel: oddness, bounds, quadrature identity
    xs = rng.uniform(-8.0, 8.0, size=10)
    c1, s1 = sf.fresnel(xs)
    c2, s2 = sf.fresnel(-xs)
    check("fresnel oddness", np.max(np.abs(c1 + c2)) + np.max(np.abs(s1 + s2)), 1e-14)
    check("fresnel bounds", max(np.max(np.abs(c1)), np.max(np.abs(s1))) - 0.9, 0.0)
    dev_q = 0.0
    for x in (0.4, 1.0, 2.3, 3.7, 5.0):
        ref_c = quad(lambda t: math.cos(0.5 * math.pi * t * t), 0.0, x, limit=200)[0]
        ref_s = quad(lambda t: math.sin(0.5 * math.pi * t * t), 0.0, x, limit=200)[0]
        got = sf.fresnel(x)
        dev_q = max(dev_q, abs(got.c - ref_c), abs(got.s - ref_s))
    check("fresnel vs quadrature", dev_q, 1e-10)
    half = quad(lambda t: math.cos(0.5 * t * t), 0.0, 2.0, limit=200)[0]
    ident = abs(
        math.sqrt(math.pi) * sf.scaled_fresnel(2.0)[0]
        - (0.5 * math.sqrt(math.pi) + half)
    )
    check("shifted-fresnel integral identity", ident, 1e-8)

    # log-gamma reflection and modulus law
    dev_refl = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(0.2, 4.0))
        lhs = cmath.exp(sf.log_gamma(z) + sf.log_gamma(1.0 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        dev_refl = max(dev_refl, abs(lhs - rhs) / abs(rhs))
    check("log-gamma reflection", dev_refl, 1e-10)
    dev_mod = 0.0
    for y in (0.3, 1.0, 2.5, 10.0):
        lhs = abs(cmath.exp(sf.log_gamma(1.0 + 1j * y))) ** 2
        rhs = math.pi * y / math.sinh(math.pi * y)
        dev_mod = max(dev_mod, abs(lhs - rhs) / rhs)
    check("gamma modulus law", dev_mod, 1e-12)
    check(
        "stokes phase endpoints",
        abs(sf.stokes_phase(0.0) - 0.25 * math.pi)
        + abs(sf.stokes_phase(1e-9) - 0.25 * math.pi) / 10.0,
        1e-7,
    )

    # Weber closed forms and recurrence
    dev_cf = 0.0
    for z in (1.0 + 2.0j, 0.5 - 0.3j, -2.0 + 1.0j):
        dev_cf = max(dev_cf, abs(sf.weber_d(0.0, z) - cmath.exp(-0.25 * z * z)))
        dev_cf = max(dev_cf, abs(sf.weber_d(1.0, z) - z * cmath.exp(-0.25 * z * z)))
    check("weber closed forms", dev_cf, 1e-10)
    dev_rec = 0.0
    for _ in range(20):
        nu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        try:
            d0 = sf.weber_d(nu, z)
            dp = sf.weber_d(nu + 1.0, z)
            dm = sf.weber_d(nu - 1.0, z)
        except sf.AccuracyError:  # pragma: no cover - rare honest refusal
            continue
        scale = max(abs(dp), abs(z * d0), abs(nu * dm), 1e-30)
        dev_rec = max(dev_rec, abs(dp - z * d0 + nu * dm) / scale)
    check("weber recurrence", dev_rec, 1e-7)

    # Cayley-Klein unitarity
    dev_ck = 0.0
    for d in (0.0, 0.05, 0.3, 1.0):
        dev_ck = max(dev_ck, caley_klein_asymptotic(d).unitarity_defect())
    rot = cmath.exp(-0.25j * math.pi)
    for d in (0.05, 0.2):
        ck = caley_klein_finite(d, -9.0 * rot, 11.0 * rot)
        dev_ck = max(dev_ck, ck.unitarity_defect())
    check("cayley-klein unitarity", dev_ck, 1e-9)

    all_pass = True
    for name, dev, tol in checks:
        ok = dev <= tol
        all_pass &= ok
        out.write(f"{'PASS' if ok else 'FAIL'}  {name:<36s} dev={dev:.3e} tol={tol:.1e}\n")
    out.write(("all checks passed" if all_pass else "SELFTEST FAILED") + "\n")
    return all_pass
