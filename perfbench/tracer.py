"""Span recorder for the per-layer (traced) benchmark run.

The recorder wraps the public functions and public methods of the package's
layer modules at every module binding that refers to them.  The package binds
names with ``from .x import y``, so ``lzdrive.analytic.weber_d``,
``lzdrive.harness.propagate_tdse`` and ``lzdrive.cli.run_trace`` are separate
bindings of one function and each is replaced.  Spans are kept in memory as
``(name_id, parent, item, start, end)`` tuples and written out when the run
ends; self time and counts are derived from them afterwards.

Nothing here changes the package: ``uninstall`` restores every binding.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "model", "integrate", "analytic", "blochpert", "harness", "cli")

#: Radii of the ``|z|`` regions the Weber evaluation is split into (power
#: series inside, asymptotic expansion outside, ODE march between).  They
#: classify the inputs the workload passes, so the shares stay comparable
#: when the evaluation itself changes.
WEBER_SERIES_RADIUS = 3.5
WEBER_ASYM_RADIUS = 12.0


def weber_region(z) -> str:
    r = abs(complex(z))
    if r <= WEBER_SERIES_RADIUS:
        return "series"
    if r >= WEBER_ASYM_RADIUS:
        return "asymptotic"
    return "march"


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover."""
    kids = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        if parent >= 0:
            kids[parent].append((t0, t1))
    out = []
    for i, (_, _, _, t0, t1) in enumerate(spans):
        cover = union_length(kids[i], t0, t1) if i in kids else 0.0
        out.append((t1 - t0) - cover)
    return out


class Tracer:
    """In-memory span and counter recorder with reversible patching."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(int)
        self.item = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the item roots)."""
        nid = self._name_id(name)
        idx = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, nid, t0, perf_counter())

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, nid: int, t0: float, t1: float):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (nid, parent, self.item, t0, t1)

    def wrap(self, name: str, fn, on_return=None, on_error=None):
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, nid, t0, perf_counter())
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._close(idx, nid, t0, perf_counter())
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, name: str, value: float = 1):
        self.counters[name] += value

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and public method of the layer
        modules at every ``lzdrive`` module binding."""
        mods = {layer: importlib.import_module(f"lzdrive.{layer}") for layer in LAYERS}
        hooks = _Hooks(self, mods)
        replace = {}
        for layer, mod in mods.items():
            for attr in _public_names(mod):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    replace[id(obj)] = (obj, self.wrap(name, obj, *hooks.for_name(name)))
                elif inspect.isclass(obj):
                    for meth, val in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(val):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._set(obj, meth, self.wrap(name, val, *hooks.for_name(name)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "lzdrive" or modname.startswith("lzdrive.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])
        hooks.install_solver_counter()

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def aggregate(self):
        """{span name: (calls, self seconds, inclusive seconds)}."""
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl = defaultdict(float)
        for (nid, _, _, t0, t1), s in zip(self.spans, selfs):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += s
            incl[name] += t1 - t0
        return {n: (calls[n], self_s[n], incl[n]) for n in calls}

    def write(self, path: str):
        """Write the name table and every span as CSV text."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# names: " + ",".join(self.names) + "\n")
            fh.write("name_id,parent,item,start_s,end_s\n")
            for nid, parent, item, t0, t1 in self.spans:
                fh.write(f"{nid},{parent},{item},{t0!r},{t1!r}\n")


def _public_names(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return [n for n in names if hasattr(mod, n)]


class _Hooks:
    """Counters recorded at the layer boundaries, keyed by span name."""

    def __init__(self, tracer: Tracer, mods):
        self.t = tracer
        self.mods = mods
        self.errors = importlib.import_module("lzdrive.errors")
        blochpert = mods["blochpert"]
        self._default_truncation = blochpert.default_truncation

    def for_name(self, name: str):
        """(on_return, on_error) for one wrapped name."""
        table = {
            "integrate.propagate_tdse": (self._trajectory, self._integration_error),
            "integrate.propagate_bloch": (self._trajectory, self._integration_error),
            "specfun.weber_d": (self._weber, self._weber_refused),
            "specfun.scaled_fresnel": (self._fresnel_points, None),
            "blochpert.bloch_perturbative": (self._bloch_points, None),
            "harness.run_sweep": (self._sweep_output, None),
            "harness.run_trace": (self._text_out, None),
            "harness.CompareReport.to_json": (self._text_out, None),
            "cli.main": (self._cli_exit, None),
        }
        return table.get(name, (None, None))

    def _trajectory(self, args, kwargs, traj):
        self.t.count("integrate.samples", len(traj.taus))
        self.t.count("integrate.tau_span", float(traj.taus[-1] - traj.taus[0]))

    def _integration_error(self, exc):
        if isinstance(exc, self.errors.IntegrationError):
            self.t.count("integrate.errors")

    def _weber(self, args, kwargs, out):
        z = args[1] if len(args) > 1 else kwargs["z"]
        self.t.count(f"specfun.weber_d.region.{weber_region(z)}")

    def _weber_refused(self, exc):
        if isinstance(exc, (self.errors.AccuracyError, self.errors.DomainError)):
            self.t.count("specfun.weber_d.refused")

    def _fresnel_points(self, args, kwargs, out):
        x = args[0] if args else kwargs["x"]
        self.t.count("specfun.scaled_fresnel.points", int(np.size(x)))

    def _bloch_points(self, args, kwargs, out):
        tau = args[0] if args else kwargs["tau"]
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        trunc = args[2] if len(args) > 2 else kwargs.get("trunc")
        if trunc is None:
            trunc = self._default_truncation(cfg)
        n_harm = 3 * (2 * trunc.n_max + 1)
        self.t.count("blochpert.bloch_perturbative.points", int(np.size(tau)) * n_harm)

    def _sweep_output(self, args, kwargs, text):
        rows = text.splitlines()[1:]
        self.t.count("harness.sweep.cells", len(rows))
        self.t.count("harness.sweep.error_cells", sum(",error(" in r for r in rows))
        self._text_out(args, kwargs, text)

    def _text_out(self, args, kwargs, text):
        self.t.count("harness.bytes_out", len(text.encode("utf-8")))

    def _cli_exit(self, args, kwargs, code):
        argv = list(args[0] if args else kwargs.get("argv") or [])
        if code != 0:
            self.t.count("cli.nonzero_exits")
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if path != "-" and os.path.exists(path):
                self.t.count("cli.bytes_written", os.path.getsize(path))

    def install_solver_counter(self):
        """Count calls and right-hand-side evaluations of the solver entry
        point that ``lzdrive.integrate`` binds.  Implementation-specific: when
        the module binds no ``solve_ivp`` the counters are reported absent."""
        integrate = self.mods["integrate"]
        solver = getattr(integrate, "solve_ivp", None)
        if solver is None:
            self.t.absent += ["integrate.solver.calls", "integrate.solver.nfev"]
            return
        tracer = self.t

        def counted(*args, **kwargs):
            sol = solver(*args, **kwargs)
            tracer.count("integrate.solver.calls")
            tracer.count("integrate.solver.nfev", int(getattr(sol, "nfev", 0)))
            return sol

        counted.__wrapped__ = solver
        tracer.counters["integrate.solver.calls"] = 0
        tracer.counters["integrate.solver.nfev"] = 0
        tracer._set(integrate, "solve_ivp", counted)
