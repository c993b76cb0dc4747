"""Closed-form results against algebraic identities and numeric oracles."""

import cmath
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
from lzdrive.model import DriveConfig, HarmonicIndex
from oracles import (
    passage_entries_expanded,
    strong_drive_delta_regrouped,
    strong_drive_delta_zero_shift,
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
        # the pair carries a window-dependent gauge; moduli are physical
        assert abs(ck.a) == pytest.approx(abs(c_up), abs=1e-4)
        assert abs(ck.b) == pytest.approx(abs(c_dn), abs=1e-4)
        assert ck.unitarity_defect() <= 1e-6


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
    tm = transfer_matrix(HarmonicIndex(0, 1), cfg)
    np.testing.assert_allclose(tm.ck.matrix(), np.eye(2), atol=0.0)
    assert tm.psi == pytest.approx(0.5 * (0.4 + 1.0) ** 2 - 0.3)


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
    rng = np.random.default_rng(31)
    for _ in range(100):
        cfg = random_weak_config(rng)
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
        tp = transfer_matrix(HarmonicIndex(0, 1), cfg)
        tm = transfer_matrix(HarmonicIndex(0, -1), cfg)
        assert tp.ck.a == tm.ck.a
        assert tp.ck.b == tm.ck.b


def test_weak_drive_probabilities_identity():
    rng = np.random.default_rng(41)
    for _ in range(100):
        cfg = random_weak_config(rng)
        p_up, p_dn = weak_drive_probabilities(cfg)
        pp = single_passage_propagator(cfg)
        assert abs(p_up - abs(pp.c) ** 2) <= 1e-10
        assert p_up + p_dn == pytest.approx(1.0, abs=0.0)
    assert weak_drive_probabilities(DriveConfig(freq_rf=1.0, freq_mw=1.0)) == (1.0, 0.0)


def test_weak_drive_against_numerics_spotcheck():
    cfg = DriveConfig(delta=0.07, amp_rf=1.0, freq_rf=50.0, amp_mw=0.08,
                      freq_mw=1.0, phase=1.2)
    p_up, _ = weak_drive_probabilities(cfg)
    tr = propagate_tdse(cfg, sample_stride=100.0)
    assert p_up == pytest.approx(tr.final_populations()[0], abs=2e-2)


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


def test_inverse_lz_matches_numerics():
    cfg = DriveConfig(v=0.0, amp_rf=0.5, freq_rf=1.0, amp_mw=1.0, freq_mw=2.0,
                      phase=math.pi / 2)
    t_f = math.pi / 4
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
