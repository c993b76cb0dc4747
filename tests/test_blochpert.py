"""Kernel algebra and perturbative Bloch solutions."""

import math

import numpy as np
import pytest

import lzdrive.analytic as analytic
import lzdrive.blochpert as blochpert
import lzdrive.model as model
from lzdrive.blochpert import (
    TruncationSpec,
    _zeta,
    ac_as,
    bloch_asymptotic_uz,
    bloch_perturbative,
    default_truncation,
    fg_kernels,
    lm_kernel,
    phase_kernel,
)
from lzdrive.errors import DomainError
from lzdrive.model import ALPHAS, Crossings, DriveConfig, HarmonicIndex, crossings
from lzdrive.specfun import bessel_j, scaled_fresnel
from oracles import bloch_perturbative_pairform, zeta_per_column

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
    x = crossings(idx, cfg)
    taus = np.linspace(-x.offset - 2.0, -x.offset + 2.0, 801)
    vals = phase_kernel(taus, idx, cfg)
    k = int(np.argmin(vals))
    assert taus[k] == pytest.approx(-x.offset, abs=1e-2)
    assert vals[k] == pytest.approx(-x.phase, abs=1e-4)


def test_ac_as_single_term_limit():
    cfg = DriveConfig(delta=0.1, eps0=0.3)
    for tau in (-3.0, 0.0, 2.5):
        a_c, a_s = ac_as(tau, cfg, TruncationSpec(5))
        assert a_c**2 + a_s**2 == pytest.approx(1.0, abs=1e-14)


def test_ac_as_trig_expansion_identity():
    # a_c + i a_s is e^{i theta}; at the default truncation the harmonic sums
    # sum_n J_n e^{i K_n} and their pair form agree with it
    cfg = DriveConfig(**CASCADE)
    trunc = default_truncation(cfg)
    red = cfg.reduced()
    n = np.arange(-trunc.n_max, trunc.n_max + 1)
    j_signed = bessel_j(n, red.rf_ratio())
    for tau in (-7.0, 0.4, 11.0):
        a_c, a_s = ac_as(tau, cfg, trunc)
        off = red.eps0 + n * red.freq_rf
        kern = 0.5 * (tau + off) ** 2 - 0.5 * off**2
        assert a_c == pytest.approx(np.sum(j_signed * np.cos(kern)), abs=1e-12)
        assert a_s == pytest.approx(np.sum(j_signed * np.sin(kern)), abs=1e-12)
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
    # the +inf end: every Fresnel pair is (1, 1), and F+ = 1, G- = 0
    final = bloch_asymptotic_uz(cfg, TruncationSpec(40))
    assert final == pytest.approx(
        bloch_perturbative_pairform(INF, cfg, TruncationSpec(40)), abs=1e-10)
    late = bloch_perturbative(1e8, cfg, TruncationSpec(40))[2]
    assert late == pytest.approx(final, abs=1e-7)


@pytest.mark.parametrize("shape", [(), (7,), (2, 3), (3, 1), (1, 243)])
def test_bloch_perturbative_keeps_the_shape_of_tau(shape):
    cfg = DriveConfig(**CASCADE, phase=0.7)
    taus = np.linspace(-30.0, 30.0, max(1, math.prod(shape))).reshape(shape)
    u = bloch_perturbative(taus, cfg, TruncationSpec(40))
    flat = bloch_perturbative(taus.ravel(), cfg, TruncationSpec(40))
    assert u.shape == shape + (3,)
    np.testing.assert_array_equal(u, flat.reshape(shape + (3,)))


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
    assert default_truncation(cfg).n_max == 60
    assert default_truncation(DriveConfig()).n_max == 40
    # J_n(-x) = (-1)^n J_n(x): the sign of A/omega moves no sideband, so it
    # changes neither the cutoff nor the guard
    for amp in (30.0, -30.0):
        cfg = DriveConfig(amp_rf=amp, freq_rf=1.0)
        assert default_truncation(cfg).n_max == 67
        with pytest.raises(DomainError, match=r"ceil\(\|A/omega\|\) = 30"):
            TruncationSpec(5).validate_for(cfg)


def test_default_truncation_leaves_only_negligible_bessel_weights():
    # over the validated |A/omega| <= 100 every J_m beyond the default cutoff
    # is below 1e-16; past m = |x|, |J_m(x)| falls monotonically in m, so the
    # first 40 orders beyond the cutoff bound the rest
    for x in np.linspace(-100.0, 100.0, 4001):
        n_max = default_truncation(DriveConfig(amp_rf=x, freq_rf=1.0)).n_max
        tail = bessel_j(np.arange(n_max + 1, n_max + 41), x)
        assert np.max(np.abs(tail)) < 1e-16, (x, n_max)


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


def test_harmonic_grid_is_the_stacked_scalar_calls():
    # the crossing table over the (n, alpha) grid that _zeta reads, raveled
    # alpha-major, against one scalar table per crossing
    rng = np.random.default_rng(19)
    for _ in range(20):
        w = rng.uniform(0.5, 20.0)
        cfg = DriveConfig(
            v=rng.uniform(0.3, 3.0), delta=rng.uniform(-0.3, 0.3),
            eps0=rng.uniform(-3.0, 3.0), amp_rf=rng.uniform(-6.0, 6.0) * w,
            freq_rf=w, amp_mw=rng.uniform(-0.3, 0.3), freq_mw=rng.uniform(0.2, 3.0),
            phase=rng.uniform(-7.0, 7.0),
        )
        trunc = default_truncation(cfg)
        ks = np.arange(-trunc.n_max, trunc.n_max + 1)
        table = crossings(HarmonicIndex(ks, np.array(ALPHAS)[:, None]), cfg)
        for field in Crossings._fields:
            want = [getattr(crossings(HarmonicIndex(k, alpha), cfg), field)
                    for alpha in ALPHAS for k in ks.tolist()]
            assert np.array_equal(getattr(table, field).ravel(), want), field


def _bessel_calls(monkeypatch, fn, *args):
    """Calls of bessel_j, through the module bindings, made by fn(*args)."""
    calls = []

    def counted(n, x):
        calls.append(n)
        return bessel_j(n, x)

    monkeypatch.setattr(model, "bessel_j", counted)
    fn(*args)
    return len(calls)


def test_harmonic_table_evaluates_bessel_weights_once_per_use(monkeypatch):
    # one broadcast call gives every coupling
    cfg = DriveConfig(**CASCADE)
    assert _bessel_calls(monkeypatch, bloch_perturbative, np.linspace(-5.0, 5.0, 11),
                         cfg) == 1
    resonant = DriveConfig(delta=0.1, eps0=2.0, amp_rf=3.0, freq_rf=1.0, amp_mw=0.1,
                           freq_mw=2.0, phase=0.3)
    assert _bessel_calls(monkeypatch, analytic.strong_drive_delta, resonant) == 1


# crossings coincide at omega_f = omega (criterion 5's staircase and criterion
# 6's polarizations), omega_f = 2 omega and omega = omega_f = 0; at
# omega_f = sqrt(2) omega every offset is distinct
ZETA_CONFIGS = {
    "staircase phi=0": dict(CASCADE),
    "staircase phi=pi/4": dict(CASCADE, phase=math.pi / 4),
    "staircase phi=pi/2": dict(CASCADE, phase=math.pi / 2),
    "polarization": dict(delta=0.07, amp_rf=0.05, freq_rf=1.0, amp_mw=0.085, freq_mw=1.0),
    "resonant omega_f=2omega": dict(delta=0.1, eps0=2.0, amp_rf=3.0, freq_rf=1.0,
                                    amp_mw=0.1, freq_mw=2.0, phase=0.3),
    "bare": dict(delta=0.05, eps0=0.3),
    "incommensurate": dict(CASCADE, freq_mw=math.sqrt(2.0), phase=0.7),
    "v=2.5": dict(v=2.5, delta=0.1, eps0=0.9, amp_rf=12.0, freq_rf=1.5, amp_mw=0.09,
                  freq_mw=1.5, phase=0.4),
}


def _offsets(cfg, n_max):
    n = np.arange(-n_max, n_max + 1)
    return crossings(HarmonicIndex(n, np.array(ALPHAS)[:, None]), cfg).offset.ravel()


@pytest.mark.parametrize("name", list(ZETA_CONFIGS))
def test_zeta_matches_the_per_column_oracle(name):
    # summing the weights of bit-equal offsets first only reassociates the sum
    cfg = DriveConfig(**ZETA_CONFIGS[name])
    trunc = TruncationSpec(40)
    for tau in (0.3, np.linspace(-50.0, 50.0, 1001).reshape(7, 143), INF):
        got = _zeta(tau, cfg, trunc)
        want = zeta_per_column(tau, cfg, trunc)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def _fresnel_points(monkeypatch, cfg, taus):
    """Points handed to each scaled_fresnel call by one bloch_perturbative at
    n_max 40."""
    points = []

    def counted(x):
        points.append(np.size(x))
        return scaled_fresnel(x)

    monkeypatch.setattr(blochpert, "scaled_fresnel", counted)
    bloch_perturbative(taus, cfg, TruncationSpec(40))
    return points


def test_zeta_evaluates_one_fresnel_pair_per_distinct_offset(monkeypatch):
    taus = np.linspace(-50.0, 50.0, 1001)
    staircase = DriveConfig(**CASCADE)
    distinct = np.unique(_offsets(staircase, 40)).size
    assert 2 * distinct < 243
    assert _fresnel_points(monkeypatch, staircase, taus) == [distinct * 1001]
    # offsets that are close but not bit-equal keep their own pair: at
    # omega_f = omega + 1e-12 the (n, 1) and (n + 1, 0) crossings are 1e-12 apart
    for cfg in (DriveConfig(**ZETA_CONFIGS["incommensurate"]),
                DriveConfig(**dict(CASCADE, freq_mw=1.0 + 1e-12))):
        assert np.unique(_offsets(cfg, 40)).size == 243
        assert _fresnel_points(monkeypatch, cfg, taus) == [243 * 1001]


def test_coincident_crossings_share_an_offset_over_the_criterion_drives():
    # criteria 5 and 6 drive at omega_f = omega = 1, where |n + alpha| <= 41
    # leaves 83 distinct crossings; the drive multiples are summed exactly
    # before eps0 is added, so jittered statics keep the count at 83 (adding
    # eps0 + n first left 83-104 offsets, 83 only for some eps0)
    rng = np.random.default_rng(55)
    trunc = TruncationSpec(40)
    taus = np.linspace(-50.0, 50.0, 1001)
    for _ in range(12):
        staircase = dict(CASCADE, delta=rng.uniform(0.06, 0.08), eps0=rng.uniform(0.4, 0.6),
                         amp_rf=rng.uniform(22.0, 28.0), amp_mw=rng.uniform(0.07, 0.09),
                         phase=rng.uniform(0.0, 0.5 * math.pi))
        polarization = dict(ZETA_CONFIGS["polarization"], delta=rng.uniform(0.06, 0.075),
                            amp_rf=rng.uniform(0.03, 0.07), amp_mw=rng.uniform(0.075, 0.09))
        for kw in (staircase, polarization):
            cfg = DriveConfig(**kw)
            offsets = _offsets(cfg, 40).reshape(3, -1)
            assert np.unique(offsets).size == 83
            # the n = 0 column is eps0 + alpha omega_f as before
            assert offsets[:, 40].tolist() == [cfg.eps0 + a * cfg.freq_mw for a in ALPHAS]
            np.testing.assert_allclose(_zeta(taus, cfg, trunc), zeta_per_column(taus, cfg, trunc),
                                       rtol=0.0, atol=1e-14)
