"""Propagator correctness: conservation laws, closed-form limits, the
Schrodinger/Bloch equivalence, agreement with the exact bare-crossing pair
and with an independent DOP853 solve, and the solver's own accounting."""

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import lzdrive.integrate as integrate
from lzdrive.analytic import caley_klein_finite
from lzdrive.errors import DomainError, IntegrationError
from lzdrive.integrate import (
    _evolve_tdse,
    bloch_angles,
    populations,
    propagate_bloch,
    propagate_tdse,
    spinor_to_bloch,
)
from lzdrive.model import DriveConfig
from oracles import evolve_bloch, evolve_tdse

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def random_config(rng, amp_cap=25.0):
    return DriveConfig(
        delta=rng.uniform(0.0, 0.1),
        eps0=rng.uniform(-0.5, 0.5),
        amp_rf=rng.uniform(0.0, amp_cap),
        freq_rf=rng.uniform(0.5, 2.0),
        amp_mw=rng.uniform(0.0, 0.1),
        freq_mw=rng.uniform(0.5, 2.0),
        phase=rng.uniform(0.0, 2.0 * math.pi),
    )


def test_zero_coupling_is_stationary():
    tr = propagate_tdse(DriveConfig(eps0=0.3, amp_rf=2.0, freq_rf=1.0),
                        tau_start=-10.0, tau_end=10.0, sample_stride=0.5)
    pops = tr.populations()
    np.testing.assert_allclose(pops[:, 0], 1.0, atol=1e-15)


def test_pure_sweep_matches_crossing_formula():
    tr = propagate_tdse(DriveConfig(delta=0.07))
    p_up, _ = tr.final_populations()
    assert p_up == pytest.approx(math.exp(-math.pi * 0.07**2 / 2.0), abs=2e-3)


def test_sampling_grid_contract():
    tr = propagate_tdse(DriveConfig(delta=0.05), tau_start=-3.0, tau_end=3.0,
                        sample_stride=0.7)
    assert tr.taus[0] == -3.0
    assert tr.taus[-1] == 3.0
    assert np.all(np.diff(tr.taus) > 0.0)


def test_norm_conservation_along_trajectory():
    cfg = DriveConfig(delta=0.07, amp_rf=5.0, freq_rf=1.0, amp_mw=0.08, freq_mw=2.0)
    tr = propagate_tdse(cfg, tau_start=-20.0, tau_end=20.0, sample_stride=0.25)
    norms = np.abs(tr.data[:, 0]) ** 2 + np.abs(tr.data[:, 1]) ** 2
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_bloch_radius_conservation():
    cfg = DriveConfig(delta=0.07, amp_rf=5.0, freq_rf=1.0)
    tr = propagate_bloch(cfg, tau_start=-20.0, tau_end=20.0, sample_stride=0.25)
    radii = np.linalg.norm(tr.data, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-9


def test_zero_field_keeps_bloch_vector():
    u0 = np.array([0.3, -0.2, 0.5])
    tr = propagate_bloch(DriveConfig(), u0=u0, tau_start=-5.0, tau_end=5.0,
                        sample_stride=0.5)
    # pure sweep precesses about z only when transverse field vanishes;
    # with all couplings zero the z axis rotation leaves uz fixed and the
    # transverse magnitude fixed
    np.testing.assert_allclose(tr.data[:, 2], 0.5, atol=1e-12)
    np.testing.assert_allclose(np.hypot(tr.data[:, 0], tr.data[:, 1]),
                               math.hypot(0.3, 0.2), atol=1e-12)


def test_tdse_bloch_pointwise_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        cfg = random_config(rng)
        tb = propagate_bloch(cfg, tau_start=-8.0, tau_end=8.0, tol=1e-11,
                             sample_stride=0.5)
        _, ref = evolve_bloch(cfg, [0.0, 0.0, 1.0], -8.0, 8.0, 1e-11, t_eval=tb.taus)
        worst = max(worst, float(np.max(np.abs(ref - tb.data))))
    assert worst <= 1e-8


def test_bloch_from_any_initial_vector_matches_bloch_equation():
    # the spinor-derived Bloch path is linear in u0: inside the ball, on the
    # southern hemisphere, at the south pole and at the origin
    cfg = DriveConfig(delta=0.07, eps0=0.3, amp_rf=5.0, freq_rf=1.0,
                      amp_mw=0.08, freq_mw=1.5, phase=0.4)
    worst = 0.0
    for u0 in ([0.3, -0.2, 0.5], [0.6, 0.1, -0.7], [-0.48, 0.6, -0.64],
               [0.0, 0.0, -1.0], [0.0, 0.0, 0.0]):
        tb = propagate_bloch(cfg, u0=u0, tau_start=-8.0, tau_end=8.0, tol=1e-11,
                             sample_stride=0.5)
        _, ref = evolve_bloch(cfg, u0, -8.0, 8.0, 1e-11, t_eval=tb.taus)
        worst = max(worst, float(np.max(np.abs(ref - tb.data))))
        np.testing.assert_allclose(np.linalg.norm(tb.data, axis=1),
                                   np.linalg.norm(u0), atol=1e-9)
    assert worst <= 1e-8


def test_time_reversal_returns_initial_state():
    cfg = DriveConfig(delta=0.07, amp_rf=3.0, freq_rf=1.0, amp_mw=0.05, freq_mw=1.5)
    psi0 = np.array([1.0 + 0.0j, 0.0j])
    _, fwd = _evolve_tdse(cfg, psi0, -10.0, 10.0, 1e-11)
    _, back = _evolve_tdse(cfg, fwd[-1], 10.0, -10.0, 1e-11)
    assert np.max(np.abs(back[-1] - psi0)) <= 1e-7
    u0 = np.array([0.0, 0.0, 1.0])
    _, fwd = evolve_bloch(cfg, u0, -10.0, 10.0, 1e-11)
    _, back = evolve_bloch(cfg, fwd[-1], 10.0, -10.0, 1e-11)
    assert np.max(np.abs(back[-1] - u0)) <= 1e-7


def test_tolerance_self_convergence():
    # one config per acceptance family: bare crossing, weak drive, strong
    # drive, and the cascade (Bloch side)
    for cfg in (DriveConfig(delta=0.07),
                DriveConfig(delta=0.07, amp_rf=1.0, freq_rf=50.0, amp_mw=0.08,
                            freq_mw=1.0),
                DriveConfig(delta=0.2, amp_rf=100.0, freq_rf=100.0,
                            amp_mw=0.08, freq_mw=200.0)):
        coarse = propagate_tdse(cfg, tol=1e-10, sample_stride=100.0)
        fine = propagate_tdse(cfg, tol=5e-11, sample_stride=100.0)
        dev = abs(coarse.final_populations()[0] - fine.final_populations()[0])
        assert dev <= 1e-6
    cascade = DriveConfig(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0,
                          amp_mw=0.08, freq_mw=1.0)
    coarse = propagate_bloch(cascade, tol=1e-10, sample_stride=100.0)
    fine = propagate_bloch(cascade, tol=5e-11, sample_stride=100.0)
    assert abs(coarse.data[-1, 2] - fine.data[-1, 2]) <= 2e-6


def test_determinism():
    cfg = DriveConfig(delta=0.07, amp_rf=2.0, freq_rf=1.0)
    a = propagate_tdse(cfg, tau_start=-5.0, tau_end=5.0, sample_stride=0.5)
    b = propagate_tdse(cfg, tau_start=-5.0, tau_end=5.0, sample_stride=0.5)
    assert np.array_equal(a.data, b.data)


def test_populations_accessors():
    assert populations([1.0 + 0.0j, 0.0j]).tolist() == [1.0, 0.0]
    assert populations([0.0, 0.0, -1.0]).tolist() == [0.0, 1.0]
    rng = np.random.default_rng(11)
    amp = rng.normal(size=2) + 1j * rng.normal(size=2)
    amp /= np.linalg.norm(amp)
    p = populations(amp)
    assert p[0] + p[1] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        populations([1.0, 0.0, 0.0, 0.0])


def test_bloch_angles():
    assert bloch_angles([0.0, 0.0, 1.0]) == (0.0, 0.0)
    az, pol = bloch_angles([0.0, 0.0, -1.0])
    assert az == pytest.approx(math.pi) and pol == 0.0
    az, pol = bloch_angles([1.0, 0.0, 0.0])
    assert az == pytest.approx(math.pi / 2) and pol == 0.0
    with pytest.raises(DomainError):
        bloch_angles([0.0, 0.0, 0.0])


def test_window_and_state_validation():
    with pytest.raises(DomainError):
        propagate_tdse(DriveConfig(), tau_start=1.0, tau_end=-1.0)
    with pytest.raises(DomainError):
        propagate_tdse(DriveConfig(), tol=1e-3)
    with pytest.raises(DomainError):
        propagate_tdse(DriveConfig(), sample_stride=0.0)
    for window in (dict(tau_start=-math.inf), dict(tau_end=math.inf),
                   dict(tau_start=math.nan), dict(sample_stride=math.inf),
                   dict(sample_stride=math.nan)):
        with pytest.raises(DomainError):
            propagate_tdse(DriveConfig(), **window)
        with pytest.raises(DomainError):
            propagate_bloch(DriveConfig(), **window)
    with pytest.raises(DomainError):
        propagate_tdse(DriveConfig(), psi0=np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(DomainError):
        propagate_bloch(DriveConfig(), u0=np.array([0.0, 0.0, 1.5]))


def test_spinor_to_bloch_pure_states():
    assert spinor_to_bloch(np.array([1.0 + 0j, 0j])).tolist() == [0.0, 0.0, 1.0]
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    np.testing.assert_allclose(spinor_to_bloch(plus), [1.0, 0.0, 0.0], atol=1e-15)


def test_bare_crossing_matches_exact_finite_window_pair():
    # exact for b_x = delta: the Weber-function pair of exponent delta^2/4
    rot = cmath.exp(-0.25j * math.pi)
    worst = 0.0
    for big_t in (20.0, 50.0):
        for delta in (0.02, 0.07, 0.2, 0.5):
            tr = propagate_tdse(DriveConfig(delta=delta), tau_start=-big_t,
                                tau_end=big_t, tol=1e-11, sample_stride=2.0 * big_t)
            ck = caley_klein_finite(delta**2 / 4.0, -big_t * rot, big_t * rot)
            c_up, c_dn = tr.data[-1]
            worst = max(worst, abs(abs(ck.a) - abs(c_up)), abs(abs(ck.b) - abs(c_dn)))
    assert worst <= 1e-10


def test_amplitudes_match_dop853_oracle():
    strong = DriveConfig(delta=0.1, amp_rf=100.0, freq_rf=100.0, amp_mw=0.08,
                         freq_mw=200.0, phase=0.7)
    weak = DriveConfig(delta=0.07, amp_rf=1.0, freq_rf=50.0, amp_mw=0.08,
                       freq_mw=1.0, phase=1.2)
    staircase = DriveConfig(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0,
                            amp_mw=0.08, freq_mw=1.0)
    for cfg in (strong, weak, staircase):
        tr = propagate_tdse(cfg, tau_start=-10.0, tau_end=10.0, sample_stride=0.5)
        _, ref = evolve_tdse(cfg, tr.data[0], -10.0, 10.0, 1e-10, t_eval=tr.taus)
        assert np.max(np.abs(ref - tr.data)) <= 1e-9


def test_stats_record_the_solve():
    cfg = DriveConfig(delta=0.07, amp_rf=5.0, freq_rf=1.0, amp_mw=0.08, freq_mw=2.0)
    for tol in (1e-8, 1e-10, 1e-12):
        tr = propagate_tdse(cfg, tau_start=-20.0, tau_end=20.0, tol=tol, sample_stride=0.5)
        st = tr.stats
        assert 0.0 <= st.error_estimate <= tol
        # the returned pass and the half-size pass before it were both evaluated
        assert st.steps > 0 and st.nfev >= 3 * st.steps
        assert st.wall_s > 0.0
    tb = propagate_bloch(cfg, tau_start=-20.0, tau_end=20.0, sample_stride=0.5)
    assert tb.stats.error_estimate <= 1e-10


def test_step_budget_exhaustion_raises_with_tau(monkeypatch):
    # three doubling passes fit the budget; tol 1e-12 needs more
    monkeypatch.setattr(integrate, "_MAX_STEPS", 2**11)
    cfg = DriveConfig(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0, amp_mw=0.08,
                      freq_mw=1.0)
    with pytest.raises(IntegrationError, match="error estimate") as info:
        propagate_tdse(cfg, tau_start=-5.0, tau_end=5.0, tol=1e-12, sample_stride=1.0)
    # the first sample whose estimate exceeds tol
    assert info.value.tau is not None and -5.0 < info.value.tau <= 5.0


def test_traced_run_counts_the_solver():
    # the benchmark's traced run reports integrate.solver.* from the solver
    # entry point that lzdrive.integrate binds as solve_ivp
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    rec = tracing.Tracer()
    rec.install()
    try:
        integrate.propagate_tdse(DriveConfig(delta=0.07), tau_start=-5.0, tau_end=5.0,
                                 sample_stride=1.0)
    finally:
        rec.uninstall()
    assert rec.absent == []
    assert rec.counters["integrate.solver.calls"] >= 1
    assert rec.counters["integrate.solver.nfev"] > 0
    assert rec.aggregate()["integrate.propagate_tdse"][0] == 1
