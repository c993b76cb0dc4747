"""Closed-form results against algebraic identities and numeric oracles."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lzdrive.analytic import (
    caley_klein_asymptotic,
    caley_klein_finite,
    inverse_lz_case,
    rabi_case,
    resonance_index,
    single_passage_propagator,
    strong_drive_delta,
    strong_drive_survival,
    transfer_matrix,
    weak_drive_probabilities,
)
from lzdrive.errors import DomainError, OffResonanceError, UnsupportedConfigError
from lzdrive.integrate import propagate_tdse
from lzdrive.model import DriveConfig, HarmonicIndex, crossings, level_offset, longitudinal_phase
from oracles import (
    passage_entries_expanded,
    strong_drive_delta_regrouped,
    strong_drive_delta_zero_shift,
    weak_drive_four_path,
)

ROT = cmath.exp(-0.25j * math.pi)


def random_weak_config(rng):
    return DriveConfig(
        delta=rng.uniform(0.0, 0.2),
        eps0=rng.uniform(-2.0, 2.0),
        amp_rf=rng.uniform(0.0, 3.0),
        freq_rf=rng.uniform(5.0, 100.0),
        amp_mw=rng.uniform(0.0, 0.3),
        freq_mw=rng.uniform(0.2, 3.0),
        phase=rng.uniform(0.0, 2.0 * math.pi),
    )


def random_signed_config(rng):
    """random_weak_config with delta and amp_mw of both signs and A/omega
    up to 4, past the first zero of J_0, so the three n = 0 couplings take
    every sign pattern."""
    w = rng.uniform(5.0, 100.0)
    return DriveConfig(
        delta=rng.uniform(-0.2, 0.2),
        eps0=rng.uniform(-2.0, 2.0),
        amp_rf=rng.uniform(0.0, 4.0) * w,
        freq_rf=w,
        amp_mw=rng.uniform(-0.3, 0.3),
        freq_mw=rng.uniform(0.2, 3.0),
        phase=rng.uniform(0.0, 2.0 * math.pi),
    )


# ---------------------------------------------------------------------------
# resonance bookkeeping and the strong-drive exponent
# ---------------------------------------------------------------------------


def test_resonance_index_values():
    assert resonance_index(0, DriveConfig(freq_rf=1.0)) == 0
    cfg = DriveConfig(freq_rf=100.0, freq_mw=200.0)
    assert resonance_index(1, cfg) == -2
    assert resonance_index(-1, cfg) == 2
    with pytest.raises(OffResonanceError):
        resonance_index(0, DriveConfig(eps0=0.3, freq_rf=1.0))


def test_strong_drive_delta_pure_crossing_reduction():
    # no longitudinal drive and sidebands off resonance with zero weight
    cfg = DriveConfig(delta=0.07, freq_rf=1.0, freq_mw=2.0)
    assert strong_drive_delta(cfg) == pytest.approx(0.07**2 / 4.0, abs=1e-15)


def test_strong_drive_delta_even_sideband_cancellation():
    # phase pi/2 kills the cosine head; even sideband order kills the sine
    # tail by Bessel parity, leaving the bare crossing exponent
    cfg = DriveConfig(delta=0.1, amp_mw=0.3, freq_rf=1.0, freq_mw=2.0,
                      phase=math.pi / 2)
    assert strong_drive_delta(cfg) == pytest.approx(0.1**2 / 4.0, abs=1e-15)
    # with the longitudinal drive on, the same cancellation leaves the
    # static branch scaled by its own Bessel weight
    from lzdrive.specfun import bessel_j

    cfg = DriveConfig(delta=0.1, amp_rf=3.0, freq_rf=1.0, amp_mw=0.3,
                      freq_mw=2.0, phase=math.pi / 2)
    target = (0.05 * bessel_j(0, 3.0)) ** 2
    assert strong_drive_delta(cfg) == pytest.approx(target, rel=1e-13)


def test_strong_drive_delta_form_equivalences():
    rng = np.random.default_rng(21)
    for _ in range(60):
        w = rng.uniform(0.5, 5.0)
        cfg = DriveConfig(
            delta=rng.uniform(0.0, 0.2),
            eps0=float(rng.integers(-2, 3)) * w,
            amp_rf=rng.uniform(0.0, 8.0),
            freq_rf=w,
            amp_mw=rng.uniform(0.0, 0.3),
            freq_mw=float(rng.integers(1, 4)) * w,
            phase=rng.uniform(0.0, 2.0 * math.pi),
        )
        d1 = strong_drive_delta(cfg)
        assert d1 >= 0.0
        assert abs(d1 - strong_drive_delta_regrouped(cfg)) <= 1e-12
        if cfg.eps0 == 0.0:
            assert abs(d1 - strong_drive_delta_zero_shift(cfg)) <= 1e-12


def test_coherent_destruction_of_tunneling():
    cfg = DriveConfig(delta=0.3, amp_rf=2.404826 * 100.0, freq_rf=100.0,
                      amp_mw=0.0, freq_mw=200.0)
    assert strong_drive_survival(cfg) >= 1.0 - 1e-10


def test_survival_values():
    assert strong_drive_survival(DriveConfig(freq_rf=1.0, freq_mw=1.0)) == 1.0
    cfg = DriveConfig(delta=0.07, freq_rf=1.0, freq_mw=2.0)
    assert strong_drive_survival(cfg) == pytest.approx(
        math.exp(-math.pi * 0.07**2 / 2.0), abs=1e-15
    )


def test_survival_phase_sign_symmetry():
    # cos-only dependence on the drive phase at integer sideband order
    base = dict(delta=0.08, amp_rf=120.0, freq_rf=100.0, amp_mw=0.08,
                freq_mw=200.0)
    for phi in (0.3, 1.1, 2.9):
        s1 = strong_drive_survival(DriveConfig(phase=phi, **base))
        s2 = strong_drive_survival(DriveConfig(phase=-phi, **base))
        assert s1 == pytest.approx(s2, rel=1e-14)


# ---------------------------------------------------------------------------
# Cayley-Klein pairs
# ---------------------------------------------------------------------------


def test_caley_klein_asymptotic_limits():
    ck = caley_klein_asymptotic(0.0)
    assert ck.a == 1.0 and ck.b == 0.0
    ck = caley_klein_asymptotic(50.0)
    assert abs(ck.a) <= 1e-60
    assert abs(abs(ck.b) - 1.0) <= 1e-12
    ck = caley_klein_asymptotic(0.1)
    assert abs(ck.a) == pytest.approx(math.exp(-0.1 * math.pi), abs=1e-15)
    assert ck.unitarity_defect() <= 1e-15
    with pytest.raises(DomainError):
        caley_klein_asymptotic(-0.2)


def test_caley_klein_finite_identity_cases():
    ck = caley_klein_finite(0.3, 2.0 * ROT, 2.0 * ROT)
    assert ck.a == 1.0 and ck.b == 0.0
    ck = caley_klein_finite(0.0, -3.0 * ROT, 5.0 * ROT)
    assert ck.a == 1.0 and ck.b == 0.0


def test_caley_klein_finite_refuses_off_the_ray():
    # the connection identity that gives the mirrored Weber values holds on
    # z = tau e^{-i pi/4} only
    for z_start, z_end in ((-2.0 * ROT, 3.0), (2.0j * ROT, 5.0 * ROT),
                           (-1.0 * ROT, (4.0 + 1e-12j) * ROT)):
        with pytest.raises(DomainError):
            caley_klein_finite(0.3, z_start, z_end)
    # the box's ends, both ways round
    for t0, t1 in ((-60.0, 60.0), (60.0, -60.0), (0.0, -60.0)):
        ck = caley_klein_finite(0.3, t0 * ROT, t1 * ROT)
        assert ck.unitarity_defect() <= 1e-8


def framed_crossing_oracle(coupling, offset, t0, t1):
    """Direct integration of one crossing in the stationary-phase frame."""

    def rhs(t, y):
        ph = cmath.exp(0.5j * (t + offset) ** 2)
        return (-1j * coupling * ph * y[1], -1j * coupling * y[0] / ph)

    sol = solve_ivp(rhs, (t0, t1), np.array([1.0 + 0j, 0j]), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    return sol.y[:, -1]


def test_caley_klein_finite_matches_integration():
    for d, off, t0, t1 in [(0.1, 0.0, -10.0, 10.0), (0.05, 1.5, -8.0, 12.0),
                           (0.25, 0.0, -10.0, 10.0), (0.1, 0.0, 0.0, 6.0)]:
        c_up, c_dn = framed_crossing_oracle(math.sqrt(d), off, t0, t1)
        ck = caley_klein_finite(d, (t0 + off) * ROT, (t1 + off) * ROT)
        assert abs(ck.a) == pytest.approx(abs(c_up), abs=1e-4)
        assert abs(ck.b) == pytest.approx(abs(c_dn), abs=1e-4)
        # the pair is the crossing-frame propagator: its first column is
        # (a, -conj(b)), the state that starts in the upper level
        assert abs(ck.a - c_up) <= 1e-9
        assert abs(-ck.b.conjugate() - c_dn) <= 1e-9
        assert ck.unitarity_defect() <= 1e-6


def test_caley_klein_finite_is_continuous_at_the_floor():
    # just above the delta floor the pair is already the identity it
    # returns below it
    for t0, t1 in ((-3.0, 4.0), (0.0, 6.0), (-20.0, -2.5)):
        ck = caley_klein_finite(2e-14, t0 * ROT, t1 * ROT)
        assert abs(ck.a - 1.0) <= 1e-12
        assert abs(ck.b) <= 1e-6


def test_caley_klein_finite_composes_over_adjacent_windows():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(300):
        d = float(rng.uniform(1e-3, 1.5))
        t0, t1, t2 = np.sort(rng.uniform(-25.0, 25.0, size=3))
        first = caley_klein_finite(d, t0 * ROT, t1 * ROT).matrix()
        second = caley_klein_finite(d, t1 * ROT, t2 * ROT).matrix()
        whole = caley_klein_finite(d, t0 * ROT, t2 * ROT).matrix()
        worst = max(worst, float(np.max(np.abs(second @ first - whole))))
    assert worst <= 1e-12


def test_caley_klein_finite_unitarity_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        d = rng.uniform(1e-4, 1.5)
        t0 = rng.uniform(-30.0, 28.0)
        t1 = rng.uniform(t0 + 0.2, 30.0)
        ck = caley_klein_finite(float(d), t0 * ROT, t1 * ROT)
        assert ck.unitarity_defect() <= 1e-8


def test_caley_klein_finite_approaches_asymptotic_moduli():
    d = 0.1
    asym = caley_klein_asymptotic(d)
    for half in (20.0, 40.0):
        ck = caley_klein_finite(d, -half * ROT, half * ROT)
        assert abs(abs(ck.a) - abs(asym.a)) <= 2.0 / half


# ---------------------------------------------------------------------------
# transfer matrices and the passage propagator
# ---------------------------------------------------------------------------


def test_transfer_matrix_zero_coupling_keeps_phase_bookkeeping():
    cfg = DriveConfig(eps0=0.4, freq_rf=1.0, freq_mw=1.0, phase=0.3)
    idx = HarmonicIndex(0, 1)
    np.testing.assert_allclose(transfer_matrix(idx, cfg).matrix(), np.eye(2), atol=0.0)
    assert crossings(idx, cfg).phase == pytest.approx(0.5 * (0.4 + 1.0) ** 2 - 0.3)
    # with the coupling on, b carries the passage phase on top of the
    # Stokes phase of the bare pair
    cfg = dataclasses.replace(cfg, amp_mw=0.2)
    ck = transfer_matrix(idx, cfg)
    x = crossings(idx, cfg)
    bare = caley_klein_asymptotic(x.coupling ** 2)
    assert ck.a == bare.a
    assert abs(ck.b - bare.b * cmath.exp(1j * x.phase)) <= 1e-15


def test_transfer_matrix_unitarity_random():
    rng = np.random.default_rng(29)
    for _ in range(100):
        cfg = random_weak_config(rng)
        n = int(rng.integers(-3, 4))
        alpha = int(rng.integers(-1, 2))
        m = transfer_matrix(HarmonicIndex(n, alpha), cfg).matrix()
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-9)


def test_transfer_matrix_finite_window_variant():
    cfg = DriveConfig(delta=0.2, freq_rf=1.0, freq_mw=1.0)
    tm = transfer_matrix(HarmonicIndex(0, 0), cfg, asymptotic=False,
                         tau_start=-12.0, tau_end=12.0)
    m = tm.matrix()
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-6)
    with pytest.raises(DomainError):
        transfer_matrix(HarmonicIndex(0, 0), cfg, asymptotic=False)
    # the asymptotic pair has no window; dropping one would answer a
    # finite-window question with the infinite-window pair
    for window in (dict(tau_start=-2.0, tau_end=2.0), dict(tau_start=-2.0),
                   dict(tau_end=2.0)):
        with pytest.raises(DomainError, match="asymptotic=False"):
            transfer_matrix(HarmonicIndex(0, 0), cfg, **window)


def test_transfer_matrix_refuses_more_than_one_crossing():
    cfg = DriveConfig(delta=0.2, amp_rf=1.0, freq_rf=1.0, amp_mw=0.1, freq_mw=1.0)
    for idx in (HarmonicIndex(np.arange(3), 0), HarmonicIndex(0, np.array([-1, 1])),
                HarmonicIndex(np.arange(2), np.array([0, 1]))):
        for asymptotic, window in ((True, {}),
                                   (False, dict(tau_start=-2.0, tau_end=2.0))):
            with pytest.raises(DomainError, match="one"):
                transfer_matrix(idx, cfg, asymptotic=asymptotic, **window)


def test_finite_transfer_matrices_compose_over_adjacent_windows():
    cfg = DriveConfig(delta=0.15, eps0=0.6, amp_rf=1.3, freq_rf=2.0, amp_mw=0.2,
                      freq_mw=1.1, phase=0.8)
    for n in (-1, 0, 1):
        for alpha in (-1, 0, 1):
            idx = HarmonicIndex(n, alpha)
            # the crossing sits at tau = -offset, inside the second window
            cross = -level_offset(idx, cfg)
            t0, t1, t2 = cross - 7.0, cross - 1.0, cross + 5.0
            parts = [transfer_matrix(idx, cfg, asymptotic=False, tau_start=a, tau_end=b).matrix()
                     for a, b in ((t0, t1), (t1, t2), (t0, t2))]
            np.testing.assert_allclose(parts[1] @ parts[0], parts[2], rtol=0.0, atol=1e-12)


def _frame_propagator(cfg, tau_start, tau_end):
    """(a, b) of the numeric propagator over the window in the frame of the
    longitudinal phase: the lab propagator, one column per basis state,
    with the state rotated by e^{+-i theta/2} at both ends."""
    lab = np.array([propagate_tdse(cfg, np.array(psi0, dtype=complex), tau_start, tau_end,
                                   tol=1e-12, sample_stride=tau_end - tau_start).data[-1]
                    for psi0 in ((1.0, 0.0), (0.0, 1.0))]).T
    c = cfg.working()
    r0, r1 = (cmath.exp(0.5j * longitudinal_phase(t, c)) for t in (tau_start, tau_end))
    frame = np.diag([r1, 1.0 / r1]) @ lab @ np.diag([1.0 / r0, r0])
    return frame[0, 0], frame[0, 1]


def test_finite_transfer_matrix_is_the_frame_propagator():
    # a finite pair is the frame propagator over its window entry by entry,
    # passage phase included; the opposite sign of the passage phase misses
    # the bare rows by 0.085-0.37 and the isolated crossings by 0.05-0.34
    bare = ((DriveConfig(delta=0.2, eps0=1.3), -5.0, 7.0),
            (DriveConfig(delta=0.2, eps0=-2.1), -3.0, 9.0),
            (DriveConfig(v=2.5, delta=0.3, eps0=0.9), -6.0, 5.0))
    # an isolated crossing of a driven config, where the off-resonant
    # partners in the same window set the floor (1.1e-3 to 1.9e-3)
    sidebands = DriveConfig(amp_mw=0.3, freq_mw=40.0, phase=0.7)
    isolated = ((sidebands, HarmonicIndex(0, 1), -50.0, -30.0),
                (sidebands, HarmonicIndex(0, -1), 30.0, 50.0),
                (DriveConfig(delta=0.1, amp_rf=20.0, freq_rf=40.0), HarmonicIndex(1, 0),
                 -50.0, -30.0))
    rows = [(cfg, HarmonicIndex(0, 0), t0, t1, 1e-8) for cfg, t0, t1 in bare]
    rows += [row + (5e-3,) for row in isolated]
    for cfg, idx, t0, t1, tol in rows:
        a, b = _frame_propagator(cfg, t0, t1)
        ck = transfer_matrix(idx, cfg, asymptotic=False, tau_start=t0, tau_end=t1)
        assert abs(ck.a - a) <= tol, (idx, cfg)
        assert abs(ck.b - b) <= tol, (idx, cfg)


def test_passage_propagator_zero_coupling():
    pp = single_passage_propagator(DriveConfig(freq_rf=1.0, freq_mw=1.0))
    assert pp.c == 1.0 and pp.d == 0.0


def test_identity_passages_compose_to_identity():
    # a chain of coupling-free passages multiplies out to the identity, so
    # the single-passage reduction loses nothing when the other passages
    # carry no weight
    cfg = DriveConfig(eps0=0.7, freq_rf=1.0, freq_mw=2.0, phase=0.4)
    total = np.eye(2, dtype=complex)
    for _ in range(5):
        total = total @ single_passage_propagator(cfg).matrix()
    np.testing.assert_allclose(total, np.eye(2), atol=1e-14)


def test_passage_propagator_matches_matrix_product():
    for rng, draw in ((np.random.default_rng(31), random_weak_config),
                      (np.random.default_rng(33), random_signed_config)):
        for _ in range(100):
            cfg = draw(rng)
            c, d = passage_entries_expanded(cfg)
            pp = single_passage_propagator(cfg)
            assert abs(c - pp.c) <= 1e-12
            assert abs(d - pp.d) <= 1e-12
            assert pp.unitarity_defect() <= 1e-8


def test_sideband_pair_symmetry():
    # both transverse sidebands share coupling, so their amplitude pairs match
    rng = np.random.default_rng(37)
    for _ in range(20):
        cfg = random_weak_config(rng)
        pairs = []
        for alpha in (1, -1):
            idx = HarmonicIndex(0, alpha)
            ck = transfer_matrix(idx, cfg)
            pairs.append((ck.a, ck.b * cmath.exp(-1j * crossings(idx, cfg).phase)))
        (ap, bp), (am, bm) = pairs
        # b differs between the two only by the passage phase it carries
        assert ap == am
        assert abs(bp - bm) <= 1e-15


def test_weak_drive_probabilities_identity():
    for rng, draw in ((np.random.default_rng(41), random_weak_config),
                      (np.random.default_rng(47), random_signed_config)):
        for _ in range(100):
            cfg = draw(rng)
            p_up, p_dn = weak_drive_probabilities(cfg)
            assert abs(p_up - weak_drive_four_path(cfg)[0]) <= 1e-10
            assert p_up + p_dn == pytest.approx(1.0, abs=0.0)
    assert weak_drive_probabilities(DriveConfig(freq_rf=1.0, freq_mw=1.0)) == (1.0, 0.0)
    # exactly one branch (alpha = 0) with b = 0: no coupling, or one so small
    # that 1 - a^2 rounds to 0; its Stokes phase must not leak into the sum
    rng = np.random.default_rng(43)
    for delta in (0.0, 1e-12):
        for _ in range(20):
            cfg = dataclasses.replace(random_weak_config(rng), delta=delta)
            assert cfg.amp_mw > 0.0
            assert transfer_matrix(HarmonicIndex(0, 0), cfg).b == 0.0
            p_up, p_dn = weak_drive_probabilities(cfg)
            assert abs(p_up - weak_drive_four_path(cfg)[0]) <= 1e-10
            assert p_up + p_dn == pytest.approx(1.0, abs=0.0)


def test_weak_drive_against_numerics_spotcheck():
    cfg = DriveConfig(delta=0.07, amp_rf=1.0, freq_rf=50.0, amp_mw=0.08,
                      freq_mw=1.0, phase=1.2)
    p_up, _ = weak_drive_probabilities(cfg)
    tr = propagate_tdse(cfg, sample_stride=100.0)
    assert p_up == pytest.approx(tr.final_populations()[0], abs=2e-2)


def test_weak_drive_keeps_the_coupling_sign():
    # delta < 0 turns the alpha = 0 coupling against the alpha = +-1 ones;
    # a sign-blind transfer matrix is off here by 4e-2 to 9e-2
    for phase in (0.0, 1.0, 2.0):
        cfg = DriveConfig(delta=-0.08, eps0=0.5, amp_rf=2.0, freq_rf=100.0,
                          amp_mw=0.3, freq_mw=6.0, phase=phase)
        p_up, _ = weak_drive_probabilities(cfg)
        num = propagate_tdse(cfg, sample_stride=100.0).final_populations()[0]
        assert p_up == pytest.approx(num, abs=5e-3), phase
        # (delta, amp_mw) -> (-delta, -amp_mw) is conjugation by sigma_z
        flipped = dataclasses.replace(cfg, delta=0.08, amp_mw=-0.3)
        assert weak_drive_probabilities(flipped)[0] == pytest.approx(p_up, abs=1e-12)
        flipped_num = propagate_tdse(flipped, sample_stride=100.0).final_populations()[0]
        assert flipped_num == pytest.approx(num, abs=1e-9)


# ---------------------------------------------------------------------------
# unswept special cases
# ---------------------------------------------------------------------------


def test_rabi_case_values_and_preconditions():
    cfg = DriveConfig(v=0.0, amp_rf=1.0, freq_rf=1.0, amp_mw=1.0, freq_mw=1.0)
    assert rabi_case(cfg, 0.0) == (1.0, 0.0)
    cfg0 = DriveConfig(v=0.0, amp_rf=0.0, freq_rf=1.0, amp_mw=0.5, freq_mw=1.0)
    _, p_dn = rabi_case(cfg0, 0.8)
    assert p_dn == pytest.approx(math.sin(0.25 * math.sin(0.8)) ** 2, abs=1e-15)
    with pytest.raises(UnsupportedConfigError):
        rabi_case(DriveConfig(v=1.0, amp_rf=1.0, freq_rf=1.0, amp_mw=1.0,
                              freq_mw=1.0), 0.1)
    with pytest.raises(UnsupportedConfigError):
        rabi_case(DriveConfig(v=0.0, amp_rf=1.0, freq_rf=1.0, amp_mw=1.0,
                              freq_mw=2.0), 0.1)


def test_rabi_case_matches_numerics():
    cfg = DriveConfig(v=0.0, amp_rf=1.0, freq_rf=1.0, amp_mw=1.0, freq_mw=1.0)
    tr = propagate_tdse(cfg, tau_start=0.0, tau_end=math.pi / 2, tol=1e-12,
                        sample_stride=math.pi / 2)
    p_up, p_dn = rabi_case(cfg, math.pi / 2)
    n_up, n_dn = tr.final_populations()
    assert p_up == pytest.approx(n_up, abs=1e-6)
    assert p_dn == pytest.approx(n_dn, abs=1e-6)
    assert p_up + p_dn == pytest.approx(1.0, abs=0.0)


def test_inverse_lz_completeness_and_zero_coupling():
    cfg = DriveConfig(v=0.0, amp_rf=0.5, freq_rf=1.0, amp_mw=1.0, freq_mw=2.0,
                      phase=math.pi / 2)
    rng = np.random.default_rng(43)
    for t in rng.uniform(0.0, 6.0, size=12):
        p_up, p_dn = inverse_lz_case(cfg, float(t))
        assert p_up + p_dn == pytest.approx(1.0, abs=1e-6)
    # zero effective coupling: populations follow the bare transverse drive
    cfg0 = DriveConfig(v=0.0, amp_rf=0.0, freq_rf=1.0, amp_mw=1.0, freq_mw=2.0,
                       phase=math.pi / 2)
    for t in (0.0, 0.4, 1.1, 2.0):
        _, p_dn = inverse_lz_case(cfg0, t)
        ref = math.sin(0.5 * math.sin(t) ** 2) ** 2  # exact rotation angle
        assert p_dn == pytest.approx(ref, abs=1e-12)


# delta_eff = (A/omega)^2 omega/(8 A_f): 0.5^2/8 = 0.03125, and 9/3 = 3 on
# the edge of the Weber order box
INVERSE_LZ_EDGE = DriveConfig(v=0.0, amp_rf=3.0, freq_rf=1.0, amp_mw=0.375, freq_mw=2.0,
                              phase=math.pi / 2)


def test_inverse_lz_matches_numerics():
    weak = DriveConfig(v=0.0, amp_rf=0.5, freq_rf=1.0, amp_mw=1.0, freq_mw=2.0,
                       phase=math.pi / 2)
    for cfg, t_f in ((weak, math.pi / 4), (INVERSE_LZ_EDGE, 1.0)):
        tr = propagate_tdse(cfg, tau_start=0.0, tau_end=t_f, tol=1e-12,
                            sample_stride=t_f)
        p_up, p_dn = inverse_lz_case(cfg, t_f)
        n_up, n_dn = tr.final_populations()
        assert p_up == pytest.approx(n_up, abs=1e-4)
        assert p_dn == pytest.approx(n_dn, abs=1e-4)


def test_inverse_lz_preconditions():
    with pytest.raises(UnsupportedConfigError):
        inverse_lz_case(DriveConfig(v=0.0, amp_rf=0.5, freq_rf=1.0, amp_mw=1.0,
                                    freq_mw=2.0, phase=0.0), 0.3)
    with pytest.raises(UnsupportedConfigError):
        inverse_lz_case(DriveConfig(v=1.0, amp_rf=0.5, freq_rf=1.0, amp_mw=1.0,
                                    freq_mw=2.0, phase=math.pi / 2), 0.3)
    # past the Weber order box (delta_eff = 16/2 = 8) the config refuses,
    # not the special function
    beyond = dataclasses.replace(INVERSE_LZ_EDGE, amp_rf=4.0, amp_mw=0.25)
    with pytest.raises(UnsupportedConfigError, match="delta_eff <= 3") as info:
        inverse_lz_case(beyond, 0.3)
    assert "weber_d" not in str(info.value)
    # and so does a window past the Weber argument box: v_eff = 4000 puts
    # |tau_f| = 63.1 beyond 60 at t = 1.5, while t = 0.01 stays inside it
    steep = dataclasses.replace(INVERSE_LZ_EDGE, amp_rf=1.0, amp_mw=2000.0)
    with pytest.raises(UnsupportedConfigError, match="tau_f") as info:
        inverse_lz_case(steep, 1.5)
    assert "v_eff" in str(info.value) and "weber_d" not in str(info.value)
    assert inverse_lz_case(steep, 0.01)[0] == pytest.approx(0.990034006523344, abs=1e-12)
