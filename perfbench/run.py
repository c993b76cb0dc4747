#!/usr/bin/env python3
"""Layered benchmark of lzdrive: whole workflows end to end, layers traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload resonance_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with no instrumentation and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs a fixed, seeded set of
jobs once plainly and once under the span recorder of ``tracer.py`` and
reports the per-layer metrics.  ``--workload all`` runs every workload in
turn, one child process each.  Every run prints a table of metrics with
their units, writes the full result to ``perfbench/out/`` and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` of the checkout; without it the run
exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("resonance_sweep", "staircase_trace", "closed_form_scan")
#: Set-ups per run: this process plus fresh child processes.
SETUPS = 3


def setup(workload: str, seed: int):
    """Import the package, generate the first round and run the warm-up
    jobs; returns (seconds, package, workload, first round).  The benchmark's
    own modules (and with them numpy) are first imported here, so their
    import time counts as set-up."""
    t0 = time.perf_counter()
    import workloads

    lz = workloads.import_lzdrive()
    w = workloads.WORKLOADS[workload]
    first = w.round(seed, 0)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for job in w.warmup(seed):
            w.run(lz, job, w.prepare(job, scratch))
    return time.perf_counter() - t0, lz, w, first


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Tally:
    """Items attempted, failed and verified, with the latency of every item
    attempted (a job's time divided by its items)."""

    def __init__(self):
        self.attempted = self.failed = self.verified = 0
        self.item_s = 0.0
        self.latencies: list[float] = []
        self.dev_max = 0.0
        self.notes: list[str] = []

    def add(self, items: int, seconds: float, checked):
        self.attempted += items
        self.item_s += seconds
        self.latencies.append(seconds / items)
        if checked.failed:
            self.failed += checked.failed
            self.notes.extend(checked.notes[:3])
        else:
            self.verified += items
        self.dev_max = max(self.dev_max, checked.dev)

    def merge(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes += other.notes
        self.dev_max = max(self.dev_max, other.dev_max)


def run_job(lz, w, job, scratch, tally, tracer=None):
    """Time one job; check it (untimed) unless ``tracer`` is set, in which
    case the result is returned for checking after the tracer is removed."""
    import workloads

    ctx = w.prepare(job, scratch)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            res = w.run(lz, job, ctx)
        else:
            with tracer.span("bench.item"):
                res = w.run(lz, job, ctx)
    except Exception as exc:  # a failing job is counted, not fatal
        seconds = time.perf_counter() - t0
        failed = workloads.Checked(w.items(job))
        failed.expect(False, f"{job['kind']}: {type(exc).__name__}: {exc}")
        tally.add(w.items(job), seconds, failed)
        return None
    seconds = time.perf_counter() - t0
    if tracer is not None:
        return res, ctx, seconds
    tally.add(w.items(job), seconds, check(lz, w, job, res, ctx))
    return None


def check(lz, w, job, res, ctx):
    import workloads

    try:
        return w.check(lz, job, res, ctx)
    except Exception as exc:  # a check that cannot run is a miss
        out = workloads.Checked(w.items(job))
        out.expect(False, f"{job['kind']} check: {type(exc).__name__}: {exc}")
        return out


def spot_check(lz, w, seed, rounds):
    """The ``weber_d`` spot check of a workload that calls it, else None."""
    checker = getattr(w, "weber_spot_check", None)
    return checker(lz, seed, rounds) if checker else None


def tail(samples):
    """(value, percentile, count): the highest percentile with at least ten
    samples beyond it; with ten or fewer samples no percentile qualifies and
    the maximum is reported as percentile 100."""
    s = sorted(samples)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n, n
    return s[-1], 100.0, n


def measure(lz, w, seed, seconds, first, tally):
    """Run whole rounds until another round would overrun ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        while True:
            jobs = first if rounds == 0 else w.round(seed, rounds)
            for job in jobs:
                run_job(lz, w, job, scratch, tally)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                return rounds, elapsed


def end_to_end(args):
    setup_s, lz, w, first = setup(args.workload, args.seed)
    tally = Tally()
    rounds, wall = measure(lz, w, args.seed, args.seconds, first, tally)
    spot = spot_check(lz, w, args.seed, rounds)
    setups = [setup_s] + [setup_in_child(args.workload, args.seed) for _ in range(SETUPS - 1)]
    import resource

    value, pct, count = tail(tally.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": tally.verified / tally.item_s,
        "item_s_p50": statistics.median(tally.latencies),
        "item_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "rounds": rounds, "wall_s": wall, "setups_s": setups, "dev_max": tally.dev_max,
        "fail_frac": tally.failed / tally.attempted,
        "item_s_tail_percentile": pct, "item_s_tail_samples": count,
    }
    return tally, spot, metrics, info


def traced(args):
    import tracer as tracing

    _, lz, w, _ = setup(args.workload, args.seed)
    jobs = [job for r in range(w.trace_rounds) for job in w.round(args.seed, r)]
    plain, traced_tally = Tally(), Tally()
    rec = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        for job in jobs:
            run_job(lz, w, job, scratch, plain)
        rec.install()
        results = []
        try:
            for k, job in enumerate(jobs):
                rec.item = k
                results.append(run_job(lz, w, job, scratch, traced_tally, rec))
        finally:
            rec.uninstall()
        for job, got in zip(jobs, results):
            if got is not None:
                res, ctx, seconds = got
                traced_tally.add(w.items(job), seconds, check(lz, w, job, res, ctx))
    spot = spot_check(lz, w, args.seed, w.trace_rounds)
    rec.write(str(OUT / f"spans_{args.workload}_seed{args.seed}.csv"))
    metrics = per_layer_metrics(rec, traced_tally.item_s, plain.item_s, traced_tally.attempted)
    tally = Tally()
    tally.merge(plain)
    tally.merge(traced_tally)
    info = {"jobs": len(jobs), "plain_item_s": plain.item_s, "traced_item_s": traced_tally.item_s,
            "dev_max": tally.dev_max, "fail_frac": tally.failed / tally.attempted,
            "absent": rec.absent}
    return tally, spot, metrics, info


def per_layer_metrics(rec, traced_s: float, plain_s: float, items: int) -> dict:
    """Every declared per-layer metric from the spans and counters.  A layer
    name (``model``) sums over all of its spans; a longer name
    (``specfun.weber_d``) is one wrapped function."""
    import tracer as tracing

    agg = rec.aggregate()

    def span_stat(prefix, stat):
        k = 0 if stat == "calls" else 1
        if prefix in tracing.LAYERS:
            return sum(v[k] for name, v in agg.items() if name.startswith(prefix + "."))
        return agg[prefix][k] if prefix in agg else 0

    out = {"trace.overhead_frac": traced_s / plain_s - 1.0, "trace.item_s": traced_s,
           "trace.items": items}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_frac"] = span_stat(layer, "self_s") / traced_s
    for name in declared("per_layer"):
        if name in out or name in rec.absent:
            continue
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s") and name not in rec.counters:
            out[name] = span_stat(base, stat)
        else:
            out[name] = rec.counters.get(name, 0)
    return out


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def metadata(args, info) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_sha": git_sha(),
        "src_sha256": src_digest(), **info,
    }


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured
    also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lzdrive").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(args, tally, spot, metrics, info):
    units = declared("per_layer" if args.trace else "end_to_end")
    missing = [n for n in units if n not in metrics and n not in info.get("absent", [])]
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    shown = {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics}
    meta = metadata(args, info)
    correct = tally.failed == 0 and (spot is None or spot.failed == 0)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, m in shown.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:<44s} {value} {m['unit']}")
    print(f"  {'dev_max':<44s} {info['dev_max']:.6g} (worst deviation from its reference)")
    print(f"  {'fail_frac':<44s} {info['fail_frac']:.6g} "
          f"({tally.failed} of {tally.attempted} items)")
    if "item_s_tail_percentile" in info:
        print(f"  item_s_tail is p{info['item_s_tail_percentile']:.4g} of "
              f"{info['item_s_tail_samples']} item latencies")
    if spot is not None:
        print(f"  weber_d spot check vs mpmath: {spot.items - spot.failed}/{spot.items} within "
              f"1e-8, worst rel err {spot.dev:.3g}")
    for note in tally.notes[:10] + (spot.notes[:5] if spot else []):
        print(f"  MISS {note}")
    for name in info.get("absent", []):
        print(f"  {name}: absent (the integrator binds no solve_ivp)")
    print("  metadata " + json.dumps(meta, sort_keys=True))
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": shown}
    path = OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "metadata": meta}, indent=1, sort_keys=True))
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, so each reports its own memory."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=900,
        )
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit("perfbench: BENCHMARK.json not found at the checkout root")
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        seconds = setup(args.workload, args.seed)[0]
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    report(args, *(traced(args) if args.trace else end_to_end(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
