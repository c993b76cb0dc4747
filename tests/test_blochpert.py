"""Kernel algebra and perturbative Bloch solutions."""

import math

import numpy as np
import pytest

from lzdrive.blochpert import (
    TruncationSpec,
    ac_as,
    bloch_asymptotic_uz,
    bloch_perturbative,
    default_truncation,
    fg_kernels,
    lm_kernel,
    phase_kernel,
)
from lzdrive.errors import DomainError
from lzdrive.model import DriveConfig, HarmonicIndex
from lzdrive.specfun import scaled_fresnel
from oracles import bloch_perturbative_pairform

CASCADE = dict(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0, amp_mw=0.08,
               freq_mw=1.0)

INF = math.inf


def test_lm_kernel_trivial_slices():
    for x in (-2.0, 0.0, 1.7):
        cc, ss = scaled_fresnel(x)
        l, m = lm_kernel(x, 0.0)
        assert l == pytest.approx(-ss, abs=0.0)
        assert m == pytest.approx(cc, abs=0.0)
    for y in (0.0, 0.9, -2.0):
        l, m = lm_kernel(INF, y)
        assert l == pytest.approx(math.sin(y) - math.cos(y), abs=1e-15)
        assert m == pytest.approx(math.cos(y) + math.sin(y), abs=1e-15)
        l, m = lm_kernel(-INF, y)
        assert l == 0.0 and m == 0.0


def test_lm_kernel_pythagorean_combination():
    rng = np.random.default_rng(3)
    x = rng.uniform(-6.0, 6.0, 64)
    y = rng.uniform(0.0, 2.0 * math.pi, 64)
    l, m = lm_kernel(x, y)
    cc, ss = scaled_fresnel(x)
    np.testing.assert_allclose(l * l + m * m, cc * cc + ss * ss, atol=1e-14)


def test_fg_kernels_limits_and_symmetry():
    assert fg_kernels(INF, INF) == (1.0, 0.0, 1.0, 0.0)
    for y in (-1.0, 0.3, INF):
        assert fg_kernels(-INF, y) == (0.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(5)
    x, xp = rng.uniform(-5.0, 5.0, (2, 40))
    fp1, fm1, gp1, gm1 = fg_kernels(x, xp)
    fp2, fm2, gp2, gm2 = fg_kernels(xp, x)
    np.testing.assert_allclose(fp1, fp2, atol=0.0)
    np.testing.assert_allclose(fm1, fm2, atol=0.0)
    np.testing.assert_allclose(gp1, gp2, atol=0.0)
    np.testing.assert_allclose(gm1, -gm2, atol=0.0)


def test_product_expansion_identities():
    # L L', M M', and their sum/difference expand over the F/G kernels
    rng = np.random.default_rng(7)
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
        assert l1 * l2 == pytest.approx(ll, abs=1e-10)
        assert m1 * m2 == pytest.approx(mm, abs=1e-10)
        both = 2.0 * math.cos(y - yp) * fp - 2.0 * math.sin(y - yp) * gm
        diff = -2.0 * math.cos(y + yp) * fm - 2.0 * math.sin(y + yp) * gp
        assert l1 * l2 + m1 * m2 == pytest.approx(both, abs=1e-10)
        assert l1 * l2 - m1 * m2 == pytest.approx(diff, abs=1e-10)


def test_shift_laws():
    rng = np.random.default_rng(9)
    for _ in range(60):
        x = rng.uniform(-6.0, 6.0)
        y, yp = rng.uniform(0.0, 2.0 * math.pi, 2)
        l0, m0 = lm_kernel(x, y)
        l1, m1 = lm_kernel(x, y + yp)
        assert l1 == pytest.approx(math.cos(yp) * l0 + math.sin(yp) * m0, abs=1e-12)
        assert m1 == pytest.approx(math.cos(yp) * m0 - math.sin(yp) * l0, abs=1e-12)


def test_derivative_laws_finite_difference():
    h = 1e-5
    rng = np.random.default_rng(11)
    for _ in range(40):
        x = rng.uniform(-5.0, 5.0)
        y = rng.uniform(0.0, 2.0 * math.pi)
        l0, m0 = lm_kernel(x, y)
        lp, mp_ = lm_kernel(x, y + h)
        lm_, mm_ = lm_kernel(x, y - h)
        assert (lp - lm_) / (2 * h) == pytest.approx(m0, abs=1e-6)
        assert (mp_ - mm_) / (2 * h) == pytest.approx(-l0, abs=1e-6)
        # second-order residual: d2/dy2 + identity ~ 0
        assert (lp - 2 * l0 + lm_) / h**2 + l0 == pytest.approx(0.0, abs=1e-5)
        assert (mp_ - 2 * m0 + mm_) / h**2 + m0 == pytest.approx(0.0, abs=1e-5)


def test_magnitude_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(60):
        x = rng.uniform(-6.0, 6.0)
        y = rng.uniform(0.0, 2.0 * math.pi)
        l0, m0 = lm_kernel(x, y)
        fp, _, _, _ = fg_kernels(x, x)
        assert l0 * l0 + m0 * m0 == pytest.approx(2.0 * fp, abs=1e-10)


def test_phase_kernel_minimized_at_crossing():
    cfg = DriveConfig(**CASCADE, phase=0.4)
    idx = HarmonicIndex(3, 1)
    from lzdrive.model import level_offset, passage_phase

    off = level_offset(idx, cfg)
    taus = np.linspace(-off - 2.0, -off + 2.0, 801)
    vals = phase_kernel(taus, idx, cfg)
    k = int(np.argmin(vals))
    assert taus[k] == pytest.approx(-off, abs=1e-2)
    assert vals[k] == pytest.approx(-passage_phase(idx, cfg), abs=1e-4)


def test_ac_as_single_term_limit():
    cfg = DriveConfig(delta=0.1, eps0=0.3)
    for tau in (-3.0, 0.0, 2.5):
        a_c, a_s = ac_as(tau, cfg, TruncationSpec(5))
        assert a_c**2 + a_s**2 == pytest.approx(1.0, abs=1e-14)


def test_ac_as_trig_expansion_identity():
    cfg = DriveConfig(**CASCADE)
    trunc = TruncationSpec(40)
    from lzdrive.blochpert import _harmonic_grid

    _, _, _, n, j_signed = _harmonic_grid(cfg, trunc)
    red = cfg.reduced()
    for tau in (-7.0, 0.4, 11.0):
        a_c, a_s = ac_as(tau, cfg, trunc)
        off = red.eps0 + n * red.freq_rf
        kern = 0.5 * (tau + off) ** 2 - 0.5 * off**2
        pair = np.sum(
            j_signed[:, None] * j_signed[None, :]
            * np.cos(kern[:, None] - kern[None, :])
        )
        assert a_c**2 + a_s**2 == pytest.approx(pair, abs=1e-12)


def test_bloch_perturbative_initial_and_trivial_limits():
    cfg = DriveConfig(**CASCADE)
    u = bloch_perturbative(-1e8, cfg, TruncationSpec(40))
    np.testing.assert_allclose(u, [0.0, 0.0, 1.0], atol=1e-7)
    cfg0 = DriveConfig(freq_rf=1.0, freq_mw=1.0)
    for tau in (-20.0, 0.0, 20.0):
        np.testing.assert_allclose(
            bloch_perturbative(tau, cfg0, TruncationSpec(4)), [0.0, 0.0, 1.0],
            atol=0.0,
        )


def test_uz_two_evaluations_agree():
    cfg = DriveConfig(**CASCADE, phase=0.7)
    taus = np.linspace(-40.0, 40.0, 9)
    direct = bloch_perturbative(taus, cfg, TruncationSpec(40))[:, 2]
    paired = bloch_perturbative_pairform(taus, cfg, TruncationSpec(40))
    np.testing.assert_allclose(direct, paired, atol=1e-10)


def test_truncation_convergence():
    cfg = DriveConfig(**CASCADE)
    taus = np.linspace(-50.0, 50.0, 201)
    u40 = bloch_perturbative(taus, cfg, TruncationSpec(40))[:, 2]
    u60 = bloch_perturbative(taus, cfg, TruncationSpec(60))[:, 2]
    assert np.max(np.abs(u40 - u60)) <= 1e-4


def test_truncation_validation():
    with pytest.raises(DomainError):
        TruncationSpec(0)
    # a half-integer would evaluate a half-integer harmonic grid
    for bad in (2.5, 40.0, math.nan, math.inf, True, -3):
        with pytest.raises(DomainError):
            TruncationSpec(bad)
    assert TruncationSpec(np.int64(3)).n_max == 3
    cfg = DriveConfig(**CASCADE)  # A/omega = 25
    with pytest.raises(DomainError):
        bloch_perturbative(0.0, cfg, TruncationSpec(10))
    assert default_truncation(cfg).n_max == 45
    assert default_truncation(DriveConfig()).n_max == 40


def test_asymptotic_uz_values():
    assert bloch_asymptotic_uz(DriveConfig(freq_rf=1.0, freq_mw=1.0),
                               TruncationSpec(4)) == 1.0
    # bare crossing: the full harmonic sum collapses to the resonant term
    d = 0.05
    cfg = DriveConfig(delta=d)
    from lzdrive.analytic import strong_drive_delta

    cfg_res = DriveConfig(delta=d, freq_rf=1.0, freq_mw=2.0)
    uz = bloch_asymptotic_uz(cfg, TruncationSpec(40))
    assert uz == pytest.approx(1.0 - 4.0 * math.pi * strong_drive_delta(cfg_res),
                               abs=1e-14)


def test_asymptotic_uz_consistent_with_survival_exponent():
    from lzdrive.analytic import strong_drive_survival

    for d in (1e-4, 5e-4, 1e-3):
        cfg = DriveConfig(delta=d)
        cfg_res = DriveConfig(delta=d, freq_rf=1.0, freq_mw=2.0)
        p_up = 0.5 * (1.0 + bloch_asymptotic_uz(cfg, TruncationSpec(6)))
        target = strong_drive_survival(cfg_res)
        # agreement to second order in the exponent
        assert abs(p_up - target) <= 40.0 * (math.pi * d**2) ** 2 + 1e-14
