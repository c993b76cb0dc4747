"""Run configuration, sweep execution, comparison reports, and data export.

Two config syntaxes (flat ``key = value`` lines and JSON) go through one
front end onto a validated RunSpec or SweepSpec.  A sweep is the product of
its axes: one flat list of cells in row-major order, evaluated one after
another in this process, so the bytes do not depend on the worker count.
Comparison runs pit a closed-form method against direct numerical
propagation and emit a JSON report with per-point deviations.

Two tables hold the per-command work: ``_OBSERVABLES`` maps each sweep
observable to its value on one cell, ``_METHODS`` each compare method to a
row whose (where, analytic, numeric) ``run_compare`` turns into the report.
Their keys are ``OBSERVABLES`` and ``COMPARE_METHODS``.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import specfun as sf
from .analytic import (
    caley_klein_asymptotic,
    caley_klein_finite,
    inverse_lz_case,
    rabi_case,
    strong_drive_delta,
    strong_drive_survival,
    weak_drive_probabilities,
)
from .blochpert import TruncationSpec, bloch_perturbative, default_truncation
from .errors import AccuracyError, ConfigError, IntegrationError
from .integrate import _TOL_MAX, _TOL_MIN, propagate_bloch, propagate_tdse, spinor_to_bloch
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
    "SELFTEST_CHECKS",
    "COMPARE_METHODS",
    "OBSERVABLES",
]

_CFG_KEYS = tuple(f.name for f in fields(DriveConfig))
# every exported float: %.17g and format(x, ".17g") share one double-to-string
# conversion, so a batch rendered with % has the bytes of per-value format calls
_FLOAT_FMT = "%.17g"


def _coerce_number(key: str, raw) -> float:
    """float(raw); a bool, non-numeric text or a non-finite value refuses."""
    try:
        val = float(raw)
    except (TypeError, ValueError):
        val = None
    if val is None or isinstance(raw, bool):
        raise ConfigError(f"value for '{key}' is not numeric: {raw!r}", key=key)
    if not math.isfinite(val):
        raise ConfigError(f"value for '{key}' must be finite: {raw!r}", key=key)
    return val


@dataclass
class RunSpec:
    """One validated run: physical config plus window/integrator settings.

    The window, tol and stride are coerced with the parser's number rules,
    so a spec built directly refuses the same values as a parsed one."""

    cfg: DriveConfig = field(default_factory=DriveConfig)
    tau_start: float = -50.0
    tau_end: float = 50.0
    tol: float = 1e-10
    stride: float = 0.1
    trunc: TruncationSpec | None = None

    def __post_init__(self):
        for key in ("tau_start", "tau_end", "tol", "stride"):
            setattr(self, key, _coerce_number(key, getattr(self, key)))
        if not (self.tau_start < self.tau_end):
            raise ConfigError("window must be ordered: tau_start < tau_end", key="tau_start")
        if self.stride <= 0.0:
            raise ConfigError("stride must be positive", key="stride")
        if not (_TOL_MIN <= self.tol <= _TOL_MAX):
            raise ConfigError(f"tol must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}]", key="tol")

    def truncation(self) -> TruncationSpec:
        return self.trunc if self.trunc is not None else default_truncation(self.cfg)


_AXES = ("axis1", "axis2")


@dataclass
class SweepSpec:
    """Grid over one or two distinct DriveConfig fields and one observable.

    An axis is (field, min, max, steps); its numbers are coerced like the
    parser's, and errors name the parser's keys (axis1_min, axis2_steps, ...)."""

    axis1: tuple[str, float, float, int]
    axis2: tuple[str, float, float, int] | None
    observable: str

    def __post_init__(self):
        if self.axis1 is None:
            raise ConfigError("sweep spec needs axis1_field/min/max/steps")
        for prefix in _AXES:
            if getattr(self, prefix) is None:
                continue
            name, lo, hi, steps = getattr(self, prefix)
            key = f"{prefix}_field"
            if name not in _CFG_KEYS:
                raise ConfigError(f"unknown sweep field '{name}'", key=key)
            if prefix == "axis2" and name == self.axis1[0]:
                raise ConfigError(f"axis1 and axis2 both sweep '{name}'", key=key)
            lo = _coerce_number(f"{prefix}_min", lo)
            hi = _coerce_number(f"{prefix}_max", hi)
            key = f"{prefix}_steps"
            n = _coerce_number(key, steps)
            if not n.is_integer():
                raise ConfigError(f"{key} must be an integer, got {steps!r}", key=key)
            if n < 2:
                raise ConfigError("sweep steps must be >= 2", key=key)
            setattr(self, prefix, (name, lo, hi, int(n)))
        if self.observable is None:
            raise ConfigError("sweep spec needs an observable", key="observable")
        if self.observable not in OBSERVABLES:
            raise ConfigError(f"unknown observable '{self.observable}'", key="observable")

    def grid(self):
        """(names, cells): the swept field names and, in row-major order,
        one tuple of field values per cell."""
        axes = [ax for ax in (self.axis1, self.axis2) if ax is not None]
        names = tuple(name for name, *_ in axes)
        cells = list(itertools.product(*(np.linspace(lo, hi, n) for _, lo, hi, n in axes)))
        return names, cells


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
        r"""The bytes of ``json.dumps(asdict(self), indent=2, sort_keys=True)``
        plus a newline, for ``samples`` that are the flat dicts of JSON
        scalars ``run_compare`` builds (one level, each non-empty).

        json's ``indent`` forces its pure-Python encoder, so the samples go
        through the C encoder instead: its item separator carries the
        depth-3 line break and indent, one replace turns the separators
        between samples into depth-2 ones (an encoded string holds no raw
        newline, so only a sample boundary reads ``},\n      {``), and the
        list is spliced into the indented dump of the other five fields."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["samples"] = []
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if not self.samples:
            return text
        body = _SAMPLES_ENCODER.encode(self.samples)
        body = body[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        return text.replace('"samples": []', f'"samples": [\n    {{\n      {body}\n    }}\n  ]', 1)


_SAMPLES_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_RUN_KEYS = _CFG_KEYS + ("tau_start", "tau_end", "tol", "stride", "n_max")
_SWEEP_KEYS = ("observable",) + tuple(
    f"{p}_{s}" for p in _AXES for s in ("field", "min", "max", "steps")
)


def _unique_keys(pairs) -> dict:
    """dict(pairs), refusing a key given twice as the flat form does (the
    JSON object hook)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key '{key}'", key=key)
        out[key] = value
    return out


def _parse(text: str, what: str, build):
    """build(entries) over a JSON object or flat ``key = value`` lines; a
    ConfigError that names a key gets the flat-text line of that key."""
    lines = {}
    if text.lstrip().startswith("{"):
        try:
            entries = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON {what}: {exc}") from None
        if not isinstance(entries, dict):
            raise ConfigError(f"JSON {what} must be an object")
    else:
        entries = {}
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
    try:
        return build(entries)
    except ConfigError as exc:
        exc.line = lines.get(exc.key)
        raise


def _build_runspec(entries: dict) -> RunSpec:
    cfg_kwargs = {}
    run_kwargs = {}
    trunc = None
    for key, raw in entries.items():
        if key not in _RUN_KEYS:
            raise ConfigError(f"unknown config key '{key}'", key=key)
        if key == "n_max":
            val = _coerce_number(key, raw)
            if val < 1 or not val.is_integer():
                raise ConfigError("n_max must be a positive integer", key=key)
            trunc = TruncationSpec(int(val))
        elif key in _CFG_KEYS:
            cfg_kwargs[key] = _coerce_number(key, raw)
        else:
            run_kwargs[key] = raw
    return RunSpec(cfg=DriveConfig(**cfg_kwargs), trunc=trunc, **run_kwargs)


def _build_sweep(doc: dict) -> SweepSpec:
    """The JSON form's {"axis1": {"min": 0, ...}} becomes {"axis1_min": 0,
    ...} (a null axis is left out), so both syntaxes share the checks; a
    flat key that the nested form also gives refuses."""
    pairs = []
    for key, value in doc.items():
        if key not in _AXES:
            pairs.append((key, value))
        elif value is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object", key=key)
            pairs.extend((f"{key}_{sub}", v) for sub, v in value.items())
    entries = _unique_keys(pairs)
    extra = sorted(set(entries) - set(_SWEEP_KEYS))
    if extra:
        raise ConfigError(f"unknown sweep key '{extra[0]}'", key=extra[0])
    axes = []
    for prefix in _AXES:
        keys = [k for k in _SWEEP_KEYS if k.startswith(prefix)]
        missing = [k for k in keys if k not in entries]
        if len(missing) == len(keys):
            axes.append(None)
        elif missing:
            raise ConfigError(f"sweep axis incomplete, missing {missing}", key=prefix)
        else:
            axes.append(tuple(entries[k] for k in keys))
    return SweepSpec(*axes, entries.get("observable"))


def parse_config(text: str) -> RunSpec:
    """Parse a run config from JSON or flat key = value text."""
    return _parse(text, "config", _build_runspec)


def parse_sweep(text: str) -> SweepSpec:
    """Parse a sweep spec from JSON or flat key = value text.

    JSON form: {"axis1": {"field":..., "min":..., "max":..., "steps":...},
    "axis2": {...} (optional), "observable": ...}.  Flat form uses keys
    axis1_field, axis1_min, axis1_max, axis1_steps, likewise axis2_*, and
    observable."""
    return _parse(text, "sweep spec", _build_sweep)


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return _FLOAT_FMT % float(x)


def _bulk(row: str, table) -> str:
    """``row`` %-formatted once per row of the 2-D float array, as one
    %-format over the whole array."""
    return (row * len(table)) % tuple(table.ravel().tolist())


def _labels(names, var: str, values) -> list[str]:
    """f"{name}@{var}={v}" for each value and, within it, each name, with v
    rendered by _fmt; one bulk format for the whole list."""
    row = "".join(f"{name}@{var}={_FLOAT_FMT}\n" for name in names)
    table = np.repeat(np.reshape(values, (-1, 1)), len(names), axis=1)
    return _bulk(row, table).split("\n")[:-1]


def _window(spec: RunSpec, stride: float | None = None) -> dict:
    """The spec's window and tol as propagator keywords; the sample stride
    is the spec's unless given."""
    stride = spec.stride if stride is None else stride
    return dict(tau_start=spec.tau_start, tau_end=spec.tau_end, tol=spec.tol, sample_stride=stride)


def run_trace(spec: RunSpec) -> str:
    """Propagate the config and render the trajectory as CSV text
    (tau, p_up, p_dn, ux, uy, uz); deterministic bytes for fixed inputs."""
    tr = propagate_tdse(spec.cfg, **_window(spec))
    cols = np.column_stack([tr.taus, tr.populations(), spinor_to_bloch(tr.data)])
    return "tau,p_up,p_dn,ux,uy,uz\n" + _bulk(",".join([_FLOAT_FMT] * 6) + "\n", cols)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def _final_populations(cfg: DriveConfig, spec: RunSpec) -> tuple[float, float]:
    """(p_up, p_dn) at the end of the spec's window, sampled only there."""
    tr = propagate_tdse(cfg, **_window(spec, spec.tau_end - spec.tau_start))
    return tr.final_populations()


# observable -> value(cfg, spec) of one grid cell
_OBSERVABLES = {
    "p_up_final": lambda cfg, spec: _final_populations(cfg, spec)[0],
    "p_dn_final": lambda cfg, spec: _final_populations(cfg, spec)[1],
    "uz_final": lambda cfg, spec: np.subtract(*_final_populations(cfg, spec)),
    "delta_param": lambda cfg, spec: strong_drive_delta(cfg),
}
OBSERVABLES = tuple(_OBSERVABLES)


def _sweep_cell(spec: RunSpec, observable: str, changes: dict) -> str:
    """One grid cell; returns the formatted observable or an error marker."""
    try:
        return _fmt(_OBSERVABLES[observable](replace(spec.cfg, **changes), spec))
    except (ValueError, ArithmeticError, IntegrationError) as exc:
        # numeric and domain failures of one cell must not abort the grid
        return f"error({type(exc).__name__})"


def run_sweep(spec: RunSpec, sweep: SweepSpec, workers: int = 1) -> str:
    """Evaluate the observable over the grid; CSV text in row-major axis
    order.  ``workers`` is validated (>= 1) and otherwise unused: the cells
    run one after another in this process."""
    if workers < 1:
        raise ConfigError("workers must be >= 1", key="workers")
    names, cells = sweep.grid()
    values = [_sweep_cell(spec, sweep.observable, dict(zip(names, c))) for c in cells]
    rows = (",".join([*map(_fmt, c), v]) + "\n" for c, v in zip(cells, values))
    return ",".join(names + (sweep.observable,)) + "\n" + "".join(rows)


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------

# Each row below checks its closed form's precondition before it propagates
# and returns (where, analytic, numeric): one label per compared value and
# two sequences of those values in the same order.

_FINAL = ("p_up_final", "p_dn_final")


def _strong_drive(spec):
    red = spec.cfg.reduced()
    if abs(red.eps0) > 0.5 * red.freq_rf:
        warnings.warn(
            "static shift exceeds half the longitudinal drive frequency; "
            "the resonant closed form degrades there",
            stacklevel=3,  # run_compare's caller
        )
    s = strong_drive_survival(spec.cfg)
    return _FINAL, (s, 1.0 - s), _final_populations(spec.cfg, spec)


def _bloch_pert(spec):
    trunc = spec.truncation()
    trunc.validate_for(spec.cfg)
    tr = propagate_bloch(spec.cfg, **_window(spec))
    where = _labels(("ux", "uy", "uz"), "tau", tr.taus)
    return where, bloch_perturbative(tr.taus, spec.cfg, trunc), tr.data


def _zero_sweep(spec, formula, periods, n_pts):
    """Formula vs numerics at n_pts samples spread evenly over the given
    number of longitudinal drive periods after t = 0.

    The formula runs once first, so its precondition refuses before the
    window divides by freq_rf and before any propagation."""
    formula(spec.cfg, 0.0)
    t_max = periods * 2.0 * math.pi / spec.cfg.freq_rf
    tr = propagate_tdse(
        spec.cfg, tau_start=0.0, tau_end=t_max, tol=spec.tol, sample_stride=t_max / n_pts
    )
    ts = tr.taus[1:].tolist()
    where = _labels(("p_up", "p_dn"), "t", ts)
    return where, [formula(spec.cfg, t) for t in ts], tr.populations()[1:]


# method -> row(spec).  Rows reach the closed forms and propagators through
# this module's names at call time, so a patched binding (tests, the traced
# benchmark) is the one that runs.
_METHODS = {
    "strong_drive": _strong_drive,
    "weak_drive": lambda spec: (
        _FINAL, weak_drive_probabilities(spec.cfg), _final_populations(spec.cfg, spec)
    ),
    "bloch_pert": _bloch_pert,
    "rabi": lambda spec: _zero_sweep(spec, rabi_case, 2, 80),
    "inverse_lz": lambda spec: _zero_sweep(spec, inverse_lz_case, 1, 32),
}
COMPARE_METHODS = tuple(_METHODS)


def run_compare(spec: RunSpec, method: str, threshold: float) -> CompareReport:
    """Compare one closed-form method against direct numerics.

    The numeric side is always a fresh propagation; method preconditions
    (resonance, v = 0 cases) surface as their original exceptions, before
    anything propagates."""
    if method not in _METHODS:
        raise ConfigError(f"unknown compare method '{method}'", key="method")
    if not (threshold > 0.0):
        raise ConfigError("threshold must be positive", key="threshold")
    where, analytic, numeric = _METHODS[method](spec)
    analytic = np.asarray(analytic, dtype=float).ravel()
    numeric = np.asarray(numeric, dtype=float).ravel()
    devs = np.abs(analytic - numeric)
    samples = [
        {"where": w, "analytic": a, "numeric": n, "abs_dev": d}
        for w, a, n, d in zip(where, analytic.tolist(), numeric.tolist(), devs.tolist())
    ]
    max_abs = float(np.max(devs))
    return CompareReport(
        method=method,
        threshold=float(threshold),
        samples=samples,
        max_abs_dev=max_abs,
        rms_dev=float(np.sqrt(np.mean(devs**2))),
        passed=bool(max_abs <= threshold),
    )


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

# Each random check draws from its own generator, seeded _CHECK_SEED + k, so
# adding, dropping or reordering entries never moves another entry's points.
_CHECK_SEED = 20240311


def _bessel_sum_rules():
    """Worst deviations of sum J_n^2 = 1, sum J_n = 1 and the Jacobi-Anger
    resynthesis sum J_n(x) e^{iny} = e^{ix sin y}, over 25 random x <= 30."""
    rng = np.random.default_rng(_CHECK_SEED + 2)
    dev = np.zeros(3)
    for _ in range(25):
        x = float(rng.uniform(0.0, 30.0))
        nmax = int(x) + 30
        n = np.arange(-nmax, nmax + 1)
        signed = sf.bessel_j(n, x)
        y = float(rng.uniform(0.0, 2.0 * math.pi))
        resyn = np.sum(signed * np.exp(1j * n * y))
        dev = np.maximum(dev, [
            abs(np.sum(signed**2) - 1.0),
            abs(np.sum(signed) - 1.0),
            abs(resyn - cmath.exp(1j * x * math.sin(y))),
        ])
    return dev


def _fresnel_at_pm_x():
    """(C, S) rows at 200 random x in [-50, 50], and the same at -x."""
    x = np.random.default_rng(_CHECK_SEED + 3).uniform(-50.0, 50.0, size=200)
    return np.array(sf.fresnel(x)), np.array(sf.fresnel(-x))


def _fresnel_vs_quadrature():
    from scipy.integrate import quad

    dev = 0.0
    for x in (0.3, 0.9, 1.7, 2.6, 3.4, 3.9, 4.3, 5.5, 8.0):
        ref_c = quad(lambda t: math.cos(0.5 * math.pi * t * t), 0.0, x, limit=400)[0]
        ref_s = quad(lambda t: math.sin(0.5 * math.pi * t * t), 0.0, x, limit=400)[0]
        got = sf.fresnel(x)
        dev = max(dev, abs(got.c - ref_c), abs(got.s - ref_s))
    return dev


def _scaled_fresnel_identity():
    """sqrt(pi) * first component = integral of cos(s^2/2) from -inf to tau."""
    from scipy.integrate import quad

    dev = 0.0
    for tau in (2.0, -1.3, 0.7):
        ref = 0.5 * math.sqrt(math.pi) + quad(
            lambda t: math.cos(0.5 * t * t), 0.0, tau, limit=400
        )[0]
        dev = max(dev, abs(math.sqrt(math.pi) * sf.scaled_fresnel(tau)[0] - ref))
    return dev


def _log_gamma_reflection():
    """Relative deviation of Gamma(z) Gamma(1 - z) = pi / sin(pi z)."""
    rng = np.random.default_rng(_CHECK_SEED + 5)
    dev = 0.0
    for _ in range(60):
        z = complex(rng.uniform(-6.0, 6.0), rng.uniform(0.1, 6.0))
        lhs = cmath.exp(sf.log_gamma(z) + sf.log_gamma(1.0 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        dev = max(dev, abs(lhs - rhs) / abs(rhs))
    return dev


def _gamma_modulus_law():
    """Relative deviation of |Gamma(1 + iy)|^2 = pi y / sinh(pi y)."""
    dev = 0.0
    for y in (0.25, 0.3, 1.0, 2.5, 3.0, 10.0, 12.0):
        lhs = abs(cmath.exp(sf.log_gamma(1.0 + 1j * y))) ** 2
        rhs = math.pi * y / math.sinh(math.pi * y)
        dev = max(dev, abs(lhs - rhs) / rhs)
    return dev


def _weber_closed_forms():
    """D_0(z) = e^{-z^2/4} and D_1(z) = z e^{-z^2/4}."""
    dev = 0.0
    for z in (1.0 + 2.0j, 0.5 - 0.3j, -2.0 + 1.0j):
        gauss = cmath.exp(-0.25 * z * z)
        dev = max(dev, abs(sf.weber_d(0.0, z) - gauss), abs(sf.weber_d(1.0, z) - z * gauss))
    return dev


def _weber_recurrence():
    """Relative deviation of D_{nu+1} - z D_nu + nu D_{nu-1} = 0 over 120
    random draws with |z| <= 14; inf unless at least 100 evaluate."""
    rng = np.random.default_rng(_CHECK_SEED + 7)
    dev = 0.0
    checked = 0
    for _ in range(120):
        nu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        r = float(rng.uniform(0.1, 14.0))
        th = float(rng.uniform(-math.pi, math.pi))
        z = r * cmath.exp(1j * th)
        try:
            d0, dp, dm = (sf.weber_d(nu + k, z) for k in (0.0, 1.0, -1.0))
        except AccuracyError:
            continue
        scale = max(abs(dp), abs(z * d0), abs(nu * dm), 1e-30)
        dev = max(dev, abs(dp - z * d0 + nu * dm) / scale)
        checked += 1
    return dev if checked >= 100 else math.inf


def _cayley_klein_unitarity():
    dev = max(caley_klein_asymptotic(d).unitarity_defect() for d in (0.0, 0.05, 0.3, 1.0))
    rot = cmath.exp(-0.25j * math.pi)
    for d in (0.05, 0.2):
        dev = max(dev, caley_klein_finite(d, -9.0 * rot, 11.0 * rot).unitarity_defect())
    return dev


# (name, tolerance, deviation()) of every check the selftest prints;
# tests/test_specfun.py runs the same table.
SELFTEST_CHECKS = (
    ("bessel_squared_sum_rule", 1e-10, lambda: _bessel_sum_rules()[0]),
    ("bessel_linear_sum_rule", 1e-10, lambda: _bessel_sum_rules()[1]),
    ("jacobi_anger_resynthesis", 1e-9, lambda: _bessel_sum_rules()[2]),
    ("fresnel_oddness", 1e-15, lambda: np.max(np.abs(np.add(*_fresnel_at_pm_x())))),
    ("fresnel_bound", 0.9, lambda: np.max(np.abs(_fresnel_at_pm_x()[0]))),
    ("fresnel_vs_quadrature", 1e-10, _fresnel_vs_quadrature),
    ("scaled_fresnel_identity", 1e-8, _scaled_fresnel_identity),
    ("log_gamma_reflection", 1e-10, _log_gamma_reflection),
    ("gamma_modulus_law", 1e-12, _gamma_modulus_law),
    (
        "stokes_phase_endpoints",
        1e-7,
        lambda: abs(sf.stokes_phase(0.0) - 0.25 * math.pi)
        + abs(sf.stokes_phase(1e-9) - 0.25 * math.pi) / 10.0,
    ),
    ("weber_closed_forms", 1e-12, _weber_closed_forms),
    ("weber_recurrence", 1e-7, _weber_recurrence),
    ("cayley_klein_unitarity", 1e-9, _cayley_klein_unitarity),
)


def selftest(out=None) -> bool:
    """Run SELFTEST_CHECKS and print a pass/fail table."""
    out = out if out is not None else sys.stdout
    all_pass = True
    for name, tol, check in SELFTEST_CHECKS:
        dev = float(check())
        ok = dev <= tol
        all_pass &= ok
        out.write(f"{'PASS' if ok else 'FAIL'}  {name:<36s} dev={dev:.3e} tol={tol:.1e}\n")
    out.write(("all checks passed" if all_pass else "SELFTEST FAILED") + "\n")
    return all_pass
