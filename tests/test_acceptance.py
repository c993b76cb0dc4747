"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass lines.  Every threshold is asserted; the prints are a convenience.
"""

import math
import time

import numpy as np

from lzdrive.analytic import (
    caley_klein_asymptotic,
    caley_klein_finite,
    inverse_lz_case,
    rabi_case,
    single_passage_propagator,
    strong_drive_survival,
    transfer_matrix,
    weak_drive_probabilities,
)
from lzdrive.blochpert import TruncationSpec, bloch_perturbative, fg_kernels, lm_kernel
from lzdrive.harness import parse_config, parse_sweep, run_sweep
from lzdrive.integrate import propagate_bloch, propagate_tdse
from lzdrive.model import DriveConfig, HarmonicIndex
from lzdrive.specfun import bessel_j_sequence
from oracles import evolve_bloch

WINDOW = dict(tau_start=-50.0, tau_end=50.0)
ROT = np.exp(-0.25j * math.pi)


def _report(num, detail):
    print(f"[criterion {num}] PASS - {detail}")


def test_criterion_1_pure_crossing_regression():
    t0 = time.time()
    tr = propagate_tdse(DriveConfig(delta=0.07), sample_stride=100.0, **WINDOW)
    elapsed = time.time() - t0
    p_up, _ = tr.final_populations()
    target = math.exp(-math.pi * 0.07**2 / 2.0)
    dev = abs(p_up - target)
    assert dev <= 2e-3
    assert elapsed < 5.0
    _report(1, f"pure-crossing dev={dev:.2e} (tol 2e-3), runtime {elapsed:.2f}s")


def test_criterion_2_strong_drive_grid():
    t0 = time.time()
    worst = 0.0
    for delta in (0.05, 0.1, 0.2, 0.3):
        for ratio in (0.5, 1.0, 2.0):
            cfg = DriveConfig(
                delta=delta,
                amp_rf=ratio * 100.0,
                freq_rf=100.0,
                amp_mw=0.08,
                freq_mw=200.0,
            )
            pred = strong_drive_survival(cfg)
            tr = propagate_tdse(cfg, sample_stride=100.0, **WINDOW)
            dev = abs(tr.final_populations()[0] - pred)
            worst = max(worst, dev)
            assert dev <= 2e-2, (delta, ratio, dev)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(2, f"12-cell grid worst dev={worst:.2e} (tol 2e-2), runtime {elapsed:.0f}s")


def test_criterion_3_coherent_destruction_of_tunneling():
    cfg = DriveConfig(delta=0.3, amp_rf=2.404826 * 100.0, freq_rf=100.0,
                      amp_mw=0.0, freq_mw=200.0)
    analytic_dn = 1.0 - strong_drive_survival(cfg)
    assert analytic_dn <= 1e-10
    tr = propagate_tdse(cfg, sample_stride=100.0, **WINDOW)
    numeric_dn = tr.final_populations()[1]
    assert numeric_dn <= 2e-2
    _report(3, f"transfer suppressed: analytic={analytic_dn:.1e} (tol 1e-10), "
               f"numeric={numeric_dn:.2e} (tol 2e-2)")


WEAK_CONFIGS = (
    dict(amp_rf=1.0, freq_rf=50.0, amp_mw=0.08, freq_mw=1.0, delta=0.07),
    dict(amp_rf=29.0, freq_rf=100.0, amp_mw=0.08, freq_mw=1.0, delta=0.0075),
)


def test_criterion_4_weak_drive_interference():
    t0 = time.time()
    worst = 0.0
    for base in WEAK_CONFIGS:
        for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            cfg = DriveConfig(phase=float(phi), **base)
            pred, _ = weak_drive_probabilities(cfg)
            tr = propagate_tdse(cfg, sample_stride=100.0, **WINDOW)
            dev = abs(tr.final_populations()[0] - pred)
            worst = max(worst, dev)
            assert dev <= 2e-2, (base["amp_rf"], "phase", phi, dev)
        for eps0 in np.linspace(-2.0, 2.0, 9):
            cfg = DriveConfig(eps0=float(eps0), **base)
            pred, _ = weak_drive_probabilities(cfg)
            tr = propagate_tdse(cfg, sample_stride=100.0, **WINDOW)
            dev = abs(tr.final_populations()[0] - pred)
            worst = max(worst, dev)
            assert dev <= 2e-2, (base["amp_rf"], "eps0", eps0, dev)
    elapsed = time.time() - t0
    _report(4, f"50 sweep points worst dev={worst:.2e} (tol 2e-2), "
               f"runtime {elapsed:.0f}s")


def _count_plateaus(taus, uz):
    """Distinct flat levels of a staircase trace."""
    slope = np.abs(np.diff(uz)) / np.diff(taus)
    flat = slope < 2e-3
    levels = []
    start = None
    for k, ok in enumerate(flat):
        if ok and start is None:
            start = k
        elif not ok and start is not None:
            if taus[k] - taus[start] >= 1.0:
                levels.append(float(np.mean(uz[start:k + 1])))
            start = None
    if start is not None and taus[-1] - taus[start] >= 1.0:
        levels.append(float(np.mean(uz[start:])))
    distinct = []
    for lv in levels:
        if not distinct or abs(lv - distinct[-1]) > 2e-3:
            distinct.append(lv)
    return len(distinct)


def test_criterion_5_cascaded_bloch_staircase():
    base = dict(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0, amp_mw=0.08,
                freq_mw=1.0)
    trunc = TruncationSpec(40)
    finals = []
    worst = 0.0
    plateaus = None
    for phi in (0.0, math.pi / 4, math.pi / 2):
        cfg = DriveConfig(phase=phi, **base)
        tr = propagate_bloch(cfg, sample_stride=0.1, **WINDOW)
        pert = bloch_perturbative(tr.taus, cfg, trunc)
        dev = float(np.max(np.abs(pert[:, 2] - tr.data[:, 2])))
        worst = max(worst, dev)
        assert dev <= 2e-2, (phi, dev)
        finals.append(0.5 * (1.0 - tr.data[-1, 2]))
        if phi == 0.0:
            plateaus = _count_plateaus(tr.taus, tr.data[:, 2])
    assert plateaus >= 3
    assert finals[0] < finals[1] < finals[2]
    _report(5, f"staircase worst dev={worst:.2e} (tol 2e-2), {plateaus} plateaus, "
               f"transfer rises {finals[0]:.3f} -> {finals[1]:.3f} -> {finals[2]:.3f}")


def test_criterion_6_spin_polarizations():
    cfg = DriveConfig(delta=0.07, amp_rf=0.05, freq_rf=1.0, amp_mw=0.085,
                      freq_mw=1.0)
    tr = propagate_bloch(cfg, sample_stride=0.1, **WINDOW)
    pert = bloch_perturbative(tr.taus, cfg, TruncationSpec(40))
    dev_x = float(np.max(np.abs(pert[:, 0] - tr.data[:, 0])))
    dev_y = float(np.max(np.abs(pert[:, 1] - tr.data[:, 1])))
    assert dev_x <= 2e-2 and dev_y <= 2e-2
    _report(6, f"polarization devs ux={dev_x:.2e}, uy={dev_y:.2e} (tol 2e-2)")


def test_criterion_7_zero_field_special_cases():
    # commensurate-drive rotation
    cfg = DriveConfig(v=0.0, amp_rf=1.0, freq_rf=1.0, amp_mw=1.0, freq_mw=1.0)
    t_end = 4.0 * math.pi
    tr = propagate_tdse(cfg, tau_start=0.0, tau_end=t_end, tol=1e-12,
                        sample_stride=t_end / 80.0)
    pops = tr.populations()
    dev_rabi = 0.0
    for k, t in enumerate(tr.taus):
        p_up, p_dn = rabi_case(cfg, float(t))
        dev_rabi = max(dev_rabi, abs(p_up - pops[k, 0]), abs(p_dn - pops[k, 1]))
    assert dev_rabi <= 1e-6

    # sinusoidally swept crossing
    cfg = DriveConfig(v=0.0, amp_rf=0.5, freq_rf=1.0, amp_mw=1.0, freq_mw=2.0,
                      phase=math.pi / 2)
    t_end = 2.0 * math.pi
    tr = propagate_tdse(cfg, tau_start=0.0, tau_end=t_end, tol=1e-12,
                        sample_stride=t_end / 32.0)
    pops = tr.populations()
    dev_ilz = 0.0
    for k, t in enumerate(tr.taus):
        if k == 0:
            continue
        p_up, p_dn = inverse_lz_case(cfg, float(t))
        dev_ilz = max(dev_ilz, abs(p_up - pops[k, 0]), abs(p_dn - pops[k, 1]))
    assert dev_ilz <= 1e-4
    _report(7, f"rotation-case dev={dev_rabi:.2e} (tol 1e-6), "
               f"swept-case dev={dev_ilz:.2e} (tol 1e-4, no basis offset needed)")


def test_criterion_8_invariant_suites():
    t0 = time.time()
    rng = np.random.default_rng(20240817)

    # unitarity of every SU(2) object
    worst_unit = 0.0
    for _ in range(100):
        d = float(rng.uniform(0.0, 2.0))
        worst_unit = max(worst_unit, caley_klein_asymptotic(d).unitarity_defect())
    for _ in range(100):
        d = float(rng.uniform(1e-4, 1.0))
        a = float(rng.uniform(-25.0, 23.0))
        b = float(rng.uniform(a + 0.5, 25.0))
        ck = caley_klein_finite(d, a * ROT, b * ROT)
        worst_unit = max(worst_unit, ck.unitarity_defect())
    for _ in range(100):
        cfg = DriveConfig(
            delta=rng.uniform(0.0, 0.2), eps0=rng.uniform(-2.0, 2.0),
            amp_rf=rng.uniform(0.0, 3.0), freq_rf=rng.uniform(5.0, 100.0),
            amp_mw=rng.uniform(0.0, 0.3), freq_mw=rng.uniform(0.2, 3.0),
            phase=rng.uniform(0.0, 2.0 * math.pi),
        )
        n = int(rng.integers(-3, 4))
        alpha = int(rng.integers(-1, 2))
        m = transfer_matrix(HarmonicIndex(n, alpha), cfg).matrix()
        worst_unit = max(worst_unit, float(np.max(np.abs(m @ m.conj().T - np.eye(2)))))
        pp = single_passage_propagator(cfg)
        worst_unit = max(worst_unit, pp.unitarity_defect())
    assert worst_unit <= 1e-8

    # Schrodinger <-> Bloch equivalence
    worst_eqv = 0.0
    for _ in range(100):
        cfg = DriveConfig(
            delta=rng.uniform(0.0, 0.1), eps0=rng.uniform(-0.5, 0.5),
            amp_rf=rng.uniform(0.0, 25.0), freq_rf=rng.uniform(0.8, 2.0),
            amp_mw=rng.uniform(0.0, 0.1), freq_mw=rng.uniform(0.5, 2.0),
            phase=rng.uniform(0.0, 2.0 * math.pi),
        )
        tb = propagate_bloch(cfg, tau_start=-6.0, tau_end=6.0, tol=1e-11,
                             sample_stride=1.0)
        _, ref = evolve_bloch(cfg, [0.0, 0.0, 1.0], -6.0, 6.0, 1e-11, t_eval=tb.taus)
        worst_eqv = max(worst_eqv, float(np.max(np.abs(ref - tb.data))))
    assert worst_eqv <= 1e-8

    # kernel algebra identities (product expansions, shifts, derivatives)
    worst_alg = 0.0
    worst_fd = 0.0
    h = 1e-5
    for _ in range(120):
        x, xp = rng.uniform(-6.0, 6.0, 2)
        y, yp = rng.uniform(0.0, 2.0 * math.pi, 2)
        l1, m1 = lm_kernel(x, y)
        l2, m2 = lm_kernel(xp, yp)
        fp, fm, gp, gm = fg_kernels(x, xp)
        ll = (math.cos(y - yp) * fp - math.cos(y + yp) * fm
              - math.sin(y + yp) * gp - math.sin(y - yp) * gm)
        mm = (math.cos(y - yp) * fp + math.cos(y + yp) * fm
              + math.sin(y + yp) * gp - math.sin(y - yp) * gm)
        worst_alg = max(worst_alg, abs(l1 * l2 - ll), abs(m1 * m2 - mm))
        ls, ms = lm_kernel(x, y + yp)
        worst_alg = max(
            worst_alg,
            abs(ls - (math.cos(yp) * l1 + math.sin(yp) * m1)),
            abs(ms - (math.cos(yp) * m1 - math.sin(yp) * l1)),
        )
        lp_, _ = lm_kernel(x, y + h)
        lm_, _ = lm_kernel(x, y - h)
        worst_fd = max(worst_fd, abs((lp_ - lm_) / (2 * h) - m1),
                       abs((lp_ - 2 * l1 + lm_) / h**2 + l1))
    assert worst_alg <= 1e-10
    assert worst_fd <= 1e-5

    # Bessel sum rules
    worst_bes = 0.0
    for _ in range(100):
        x = float(rng.uniform(0.0, 30.0))
        nmax = int(x) + 30
        seq = bessel_j_sequence(nmax, x)
        n = np.arange(-nmax, nmax + 1)
        signed = np.where((n < 0) & (np.abs(n) % 2 == 1), -seq[np.abs(n)],
                          seq[np.abs(n)])
        worst_bes = max(worst_bes, abs(float(np.sum(signed**2)) - 1.0),
                        abs(float(np.sum(signed)) - 1.0))
    assert worst_bes <= 1e-10

    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(8, f"unitarity={worst_unit:.1e} (1e-8), equivalence={worst_eqv:.1e} "
               f"(1e-8), kernels={worst_alg:.1e}/{worst_fd:.1e} (1e-10/1e-5), "
               f"bessel={worst_bes:.1e} (1e-10), runtime {elapsed:.0f}s")


def test_criterion_9_sweep_determinism():
    spec = parse_config("delta = 0.08\nfreq_rf = 1\nfreq_mw = 2\n"
                        "tau_start = -5\ntau_end = 5\n")
    sweep = parse_sweep(
        '{"axis1": {"field": "delta", "min": 0.02, "max": 0.3, "steps": 3},'
        ' "axis2": {"field": "eps0", "min": -1, "max": 1, "steps": 3},'
        ' "observable": "p_up_final"}'
    )
    one = run_sweep(spec, sweep, workers=1)
    eight = run_sweep(spec, sweep, workers=8)
    assert one.encode() == eight.encode()
    sweep2 = parse_sweep(
        '{"axis1": {"field": "delta", "min": 0.0, "max": 0.4, "steps": 5},'
        ' "observable": "delta_param"}'
    )
    one2 = run_sweep(spec, sweep2, workers=1)
    eight2 = run_sweep(spec, sweep2, workers=8)
    assert one2.encode() == eight2.encode()
    _report(9, "sweep bytes identical at workers in {1, 8} for both grids")
