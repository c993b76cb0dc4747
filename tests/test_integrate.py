"""Propagator correctness: conservation laws, closed-form limits, the
Schrodinger/Bloch equivalence, agreement with the exact bare-crossing pair
and with an independent DOP853 solve, and the solver's own accounting."""

import cmath
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import lzdrive.integrate as integrate
import lzdrive.su2 as su2
from lzdrive.analytic import caley_klein_finite
from lzdrive.errors import DomainError, IntegrationError
from lzdrive.integrate import (
    bloch_angles,
    populations,
    propagate_bloch,
    propagate_tdse,
    spinor_to_bloch,
)
from lzdrive.model import DriveConfig
from lzdrive.su2 import CayleyKlein
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
    # the solver run forward and then back on one interaction frame
    c = cfg.working()
    psi0 = np.array([1.0 + 0.0j, 0.0j])
    fwd = integrate.solve_ivp(c, [-10.0, 10.0], psi0, 1e-11).y[:, -1]
    back = integrate.solve_ivp(c, [10.0, -10.0], fwd, 1e-11).y[:, -1]
    assert np.max(np.abs(back - psi0)) <= 1e-7
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
    worst = worst_frame = 0.0
    for big_t in (20.0, 50.0):
        for delta in (0.02, 0.07, 0.2, 0.5):
            tr = propagate_tdse(DriveConfig(delta=delta), tau_start=-big_t,
                                tau_end=big_t, tol=1e-11, sample_stride=2.0 * big_t)
            ck = caley_klein_finite(delta**2 / 4.0, -big_t * rot, big_t * rot)
            c_up, c_dn = tr.data[-1]
            worst = max(worst, abs(abs(ck.a) - abs(c_up)), abs(abs(ck.b) - abs(c_dn)))
            # in the frame of theta = tau^2/2 the upper state starts as
            # e^{i theta(-T)/2}, and (a, -conj(b)) carries it to the end:
            # a = c_up e^{i(theta(T) - theta(-T))/2} = c_up and
            # -conj(b) = c_dn e^{-i(theta(T) + theta(-T))/2} = c_dn e^{-i T^2/2}
            worst_frame = max(worst_frame, abs(ck.a - c_up),
                              abs(-ck.b.conjugate() - c_dn * cmath.exp(-0.5j * big_t**2)))
    assert worst <= 1e-10
    assert worst_frame <= 1e-9


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
        assert st.nfev % 3 == 0  # three field evaluations per Magnus step
        assert st.wall_s > 0.0
    tb = propagate_bloch(cfg, tau_start=-20.0, tau_end=20.0, sample_stride=0.5)
    assert tb.stats.error_estimate <= 1e-10


def test_step_doubling_shows_sixth_order():
    # each doubling must cut the pass-to-pass difference by about 2^6 = 64;
    # a wrong commutator term drops the order, and the /63 Richardson
    # divisor would then under-report the error.  The strong and weak drives
    # couple weakly (delta << rates); the third config has a coupling of
    # order one, where the nested commutators are not negligible.
    strong = DriveConfig(delta=0.1, amp_rf=100.0, freq_rf=100.0, amp_mw=0.08,
                         freq_mw=200.0, phase=0.7)
    weak = DriveConfig(delta=0.07, amp_rf=1.0, freq_rf=50.0, amp_mw=0.08,
                       freq_mw=1.0, phase=1.2)
    order_one = DriveConfig(delta=1.0, eps0=0.5, amp_rf=2.0, freq_rf=1.0,
                            amp_mw=0.5, freq_mw=1.5)
    for cfg, big_t, m0 in ((strong, 10.0, 2**12), (weak, 10.0, 2**9),
                           (order_one, 5.0, 2**7)):
        edges = np.array([-big_t, big_t])
        passes = [np.concatenate(integrate._interval_pairs(cfg.working(), edges, m0 << k))
                  for k in range(4)]
        diffs = [np.max(np.abs(fine - coarse)) for coarse, fine in zip(passes, passes[1:])]
        for coarse, fine in zip(diffs, diffs[1:]):
            assert 40.0 <= coarse / fine <= 100.0


def test_error_estimate_bounds_the_actual_error():
    # resonance-sweep cells: two strong-drive cells and one cell of each
    # weak-drive basis, sampled at the window's end, and criterion 5's dense
    # staircase trace, against a tol-1e-13 solve of the same samples
    cells = (
        (DriveConfig(delta=0.1, amp_rf=50.0, freq_rf=100.0, amp_mw=0.08, freq_mw=200.0),
         100.0),
        (DriveConfig(delta=0.25, amp_rf=200.0, freq_rf=100.0, amp_mw=0.08, freq_mw=200.0),
         100.0),
        (DriveConfig(delta=0.07, eps0=1.5, amp_rf=1.0, freq_rf=50.0, amp_mw=0.08,
                     freq_mw=1.0, phase=2.0), 100.0),
        (DriveConfig(delta=0.0075, eps0=-0.8, amp_rf=29.0, freq_rf=100.0, amp_mw=0.08,
                     freq_mw=1.0, phase=4.0), 100.0),
        (DriveConfig(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0, amp_mw=0.08,
                     freq_mw=1.0), 0.1),
    )
    tol = 1e-10
    for cfg, stride in cells:
        tr = propagate_tdse(cfg, tol=tol, sample_stride=stride)
        ref = propagate_tdse(cfg, tol=1e-13, sample_stride=stride)
        err = float(np.max(np.abs(tr.data - ref.data)))
        assert err <= tol
        assert err <= 4.0 * tr.stats.error_estimate + 1e-13
    # the staircase's passes are 2000, 4000 and 14 000 steps; step doubling
    # went on through 8000 to 16 000
    assert tr.stats.nfev <= 3 * 20_000


def _ordered_matrix_product(a, b):
    """U_{n-1} ... U_0 of the Cayley-Klein pairs as 2x2 matrices."""
    out = np.eye(2, dtype=complex)
    for ak, bk in zip(a, b):
        out = np.array([[ak, bk], [-np.conj(bk), np.conj(ak)]]) @ out
    return out


def _random_pairs(rng, shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    r = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return a / r, b / r


def test_tree_product_of_any_length_is_the_ordered_product():
    # an odd last step waits one level; a leading axis is carried along
    rng = np.random.default_rng(22)
    for n in (1, 3, 5, 6, 7):
        a, b = _random_pairs(rng, (2, n))
        got_a, got_b = su2.tree_product(CayleyKlein(a, b))
        for row in range(2):
            want = _ordered_matrix_product(a[row], b[row])
            assert abs(got_a[row] - want[0, 0]) <= 1e-15
            assert abs(got_b[row] - want[0, 1]) <= 1e-15


def test_running_product_matches_the_sequential_states():
    # the log-depth scan reorders the products; over 1000 steps the states
    # keep to 1e-13 of one multiplication after another
    rng = np.random.default_rng(23)
    a, b = _random_pairs(rng, 1000)
    y0 = np.array([0.6, 0.8j])
    states = [y0]
    for ak, bk in zip(a, b):
        u, d = states[-1]
        states.append(np.array([ak * u + bk * d, np.conj(ak) * d - np.conj(bk) * u]))
    got = np.array(su2.prefix_scan(CayleyKlein(a, b)).apply(*y0))
    assert got.shape == (2, 1000)
    assert np.max(np.abs(got - np.array(states[1:]).T)) <= 1e-13


def test_pair_exponential_and_product_match_the_matrices():
    # exp(-i c.sigma/2) against expm: zero, in-plane (a tail U(zeta)),
    # generic, and |c| at and near 2 pi, where sin(|c|/2)/|c| passes zero
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    rng = np.random.default_rng(26)
    cs = [np.zeros(3), np.array([0.3, -1.2, 0.0]), rng.normal(size=3)]
    for norm in (2.0 * math.pi, 2.0 * math.pi * (1.0 - 1e-9), 2.0 * math.pi + 1e-3):
        c = rng.normal(size=3)
        cs.append(norm * c / np.linalg.norm(c))
    for c in cs:
        ck = su2.exp(complex(c[0], c[1]), c[2])
        want = expm(-0.5j * np.einsum("k,kij->ij", c, sigma))
        assert np.max(np.abs(ck.matrix() - want)) <= 1e-14
    assert su2.exp(0j, 0.0) == (1.0, 0.0)
    # @ is the 2x2 product, on scalars and on arrays that broadcast
    u, v = CayleyKlein(*_random_pairs(rng, (3, 1))), CayleyKlein(*_random_pairs(rng, 4))
    uv = u @ v
    assert np.shape(uv.a) == np.shape(uv.b) == (3, 4)
    for i in range(3):
        for j in range(4):
            left = CayleyKlein(complex(u.a[i, 0]), complex(u.b[i, 0]))
            right = CayleyKlein(complex(v.a[j]), complex(v.b[j]))
            want = left.matrix() @ right.matrix()
            assert np.max(np.abs((left @ right).matrix() - want)) <= 1e-15
            assert abs(uv.a[i, j] - want[0, 0]) <= 1e-15
            assert abs(uv.b[i, j] - want[0, 1]) <= 1e-15


def test_step_budget_exhaustion_raises_with_tau(monkeypatch):
    # three doubling passes fit the budget; tol 1e-12 needs more
    monkeypatch.setattr(integrate, "_MAX_STEPS", 2**10)
    cfg = DriveConfig(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0, amp_mw=0.08,
                      freq_mw=1.0)
    with pytest.raises(IntegrationError, match="error estimate") as info:
        propagate_tdse(cfg, tau_start=-5.0, tau_end=5.0, tol=1e-12, sample_stride=1.0)
    # the first sample whose estimate exceeds tol
    assert info.value.tau is not None and -5.0 < info.value.tau <= 5.0


def test_first_pass_filling_the_budget_raises_at_tau_start(monkeypatch):
    # the first pass alone takes the whole budget, so no estimate exists
    monkeypatch.setattr(integrate, "_MAX_STEPS", 2**4)
    cfg = DriveConfig(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0, amp_mw=0.08,
                      freq_mw=1.0)
    with pytest.raises(IntegrationError, match="needs more than") as info:
        propagate_tdse(cfg, tau_start=-5.0, tau_end=5.0, sample_stride=1.0)
    assert info.value.tau == -5.0


def test_stride_beyond_the_budget_refuses_before_allocating():
    # 1e14 sample intervals would need 728 TiB for the grid alone
    with pytest.raises(IntegrationError, match="needs more than") as info:
        propagate_tdse(DriveConfig(delta=0.07), sample_stride=1e-12)
    assert info.value.tau == -50.0


def test_window_beyond_the_budget_refuses_before_evaluating_theta():
    # past |tau| ~ 1.3e154 theta overflows to inf, and the first pass alone
    # could never fit the budget: the solve refuses as that pass would
    for start, end in ((-1e300, 1e300), (-1e5, 1e5), (0.0, 1.7e308)):
        with pytest.raises(IntegrationError, match="needs more than") as info:
            propagate_tdse(DriveConfig(delta=0.1), tau_start=start, tau_end=end,
                           sample_stride=end - start)
        assert info.value.tau == start


def test_non_finite_psi0_refuses():
    # NaN makes every comparison false, so the norm check must fail on it
    for psi0 in ([math.nan, 0.0], [complex(0.0, math.nan), 1.0], [math.inf, 0.0]):
        with pytest.raises(DomainError, match="psi0"):
            propagate_tdse(DriveConfig(delta=0.07), psi0=psi0, tau_start=-2.0,
                           tau_end=2.0)


def test_non_finite_u0_refuses():
    for u0 in ([math.nan, 0.0, 0.0], [0.0, 0.0, math.inf]):
        with pytest.raises(DomainError, match="u0"):
            propagate_bloch(DriveConfig(delta=0.07), u0=u0, tau_start=-2.0, tau_end=2.0)


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
