"""Special-function checks against independent oracles.

Oracles used here are deliberately different algorithms from the package:
truncated defining power series (Bessel, Weber at the origin), adaptive
quadrature of the defining integrals (Fresnel), and the Weierstrass product
series plus a shifted Stirling-Bernoulli expansion (log-gamma).
"""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from lzdrive.errors import AccuracyError, DomainError
from lzdrive.specfun import (
    bessel_j,
    bessel_j_sequence,
    fresnel,
    log_gamma,
    reciprocal_gamma,
    scaled_fresnel,
    stokes_phase,
    weber_d,
)

RNG_SEED = 20240311


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def bessel_series_oracle(n, x, terms=60):
    """Defining power series of J_n, adequate for |x| <= 10."""
    term = (0.5 * x) ** n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term *= -(0.5 * x) ** 2 / (k * (n + k))
        total += term
    return total


def loggamma_product_oracle(z, n=200_000):
    """Weierstrass product series with an Euler-Maclaurin tail; |z| <= 3."""
    z = complex(z)
    re, im = [], []
    for k in range(n, 0, -1):
        t = z / k - np.log(1.0 + z / k)
        re.append(t.real)
        im.append(t.imag)
    s = complex(math.fsum(re), math.fsum(im))
    a = n + 1
    tail = 0j
    for j in (2, 3, 4, 5):
        zeta = a ** (1 - j) / (j - 1) + a ** (-j) / 2 + j * a ** (-j - 1) / 12
        tail += (-1) ** j * z**j / j * zeta
    gamma_const = 0.5772156649015328606
    return -gamma_const * z - np.log(z) + s + tail


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def loggamma_stirling_oracle(z):
    """Shifted Stirling expansion with Bernoulli terms; Re z >= 0.5."""
    z = complex(z)
    acc = 0j
    w = z
    while abs(w) < 40.0:
        acc += cmath.log(w)
        w += 1.0
    out = (w - 0.5) * cmath.log(w) - w + 0.5 * math.log(2.0 * math.pi)
    for k, b in enumerate(_BERNOULLI, start=1):
        out += b / ((2 * k) * (2 * k - 1) * w ** (2 * k - 1))
    return out - acc


def weber_series_oracle(nu, z, terms=300):
    """Defining Kummer-series representation, adequate for |z| <= 3."""
    nu = complex(nu)
    z = complex(z)
    x = 0.5 * z * z

    def m(a, b):
        term = 1.0 + 0j
        total = term
        for k in range(terms):
            term *= (a + k) * x / ((b + k) * (k + 1))
            total += term
        return total

    pref = math.sqrt(math.pi) * cmath.exp(0.5 * nu * math.log(2.0) - 0.25 * z * z)
    t1 = reciprocal_gamma(0.5 * (1 - nu)) * m(-0.5 * nu, 0.5)
    t2 = math.sqrt(2.0) * z * reciprocal_gamma(-0.5 * nu) * m(0.5 * (1 - nu), 1.5)
    return pref * (t1 - t2)


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0


def test_bessel_first_j0_zero():
    # bisect the series oracle for the first positive root of J_0
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_series_oracle(0, lo) * bessel_series_oracle(0, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.404826, abs=1e-6)
    assert abs(bessel_j(0, 2.404826)) <= 1e-6


def test_bessel_against_series_oracle():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        n = int(rng.integers(0, 12))
        x = float(rng.uniform(-10.0, 10.0))
        assert bessel_j(n, x) == pytest.approx(
            bessel_series_oracle(n, abs(x)) * (-1.0 if (x < 0 and n % 2) else 1.0),
            abs=1e-12,
        )


def test_bessel_negative_order_parity():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        x = float(rng.uniform(-60.0, 60.0))
        assert bessel_j(-n, x) == pytest.approx((-1.0) ** n * bessel_j(n, x), abs=1e-14)


def test_bessel_sum_rules_and_jacobi_anger():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(25):
        x = float(rng.uniform(0.0, 30.0))
        nmax = int(x) + 30
        seq = bessel_j_sequence(nmax, x)
        n = np.arange(-nmax, nmax + 1)
        signed = np.where((n < 0) & (np.abs(n) % 2 == 1), -seq[np.abs(n)], seq[np.abs(n)])
        assert abs(np.sum(signed**2) - 1.0) <= 1e-10
        assert abs(np.sum(signed) - 1.0) <= 1e-10
        y = float(rng.uniform(0.0, 2.0 * math.pi))
        resyn = np.sum(signed * np.exp(1j * n * y))
        assert abs(resyn - cmath.exp(1j * x * math.sin(y))) <= 1e-9


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(10_001, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, math.inf)
    with pytest.raises(AccuracyError):
        bessel_j(0, 1e7)


# ---------------------------------------------------------------------------
# Fresnel
# ---------------------------------------------------------------------------


def test_fresnel_trivial_values():
    c, s = fresnel(0.0)
    assert c == 0.0 and s == 0.0
    c, s = fresnel(1e6)
    assert c == pytest.approx(0.5, abs=1e-6)
    assert s == pytest.approx(0.5, abs=1e-6)


def test_fresnel_reference_point():
    c, s = fresnel(1.0)
    # frozen from the quadrature oracle of the defining integrals
    assert c == pytest.approx(0.7798934003768228, abs=1e-10)
    assert s == pytest.approx(0.4382591473903548, abs=1e-10)


def test_fresnel_against_quadrature_oracle():
    for x in (0.3, 0.9, 1.7, 2.6, 3.4, 3.9, 4.3, 5.5, 8.0):
        ref_c = quad(lambda t: math.cos(0.5 * math.pi * t * t), 0.0, x, limit=400)[0]
        ref_s = quad(lambda t: math.sin(0.5 * math.pi * t * t), 0.0, x, limit=400)[0]
        got = fresnel(x)
        assert got.c == pytest.approx(ref_c, abs=1e-10)
        assert got.s == pytest.approx(ref_s, abs=1e-10)


def test_fresnel_oddness_and_bounds():
    rng = np.random.default_rng(RNG_SEED + 3)
    x = rng.uniform(-50.0, 50.0, size=200)
    c, s = fresnel(x)
    cm, sm = fresnel(-x)
    np.testing.assert_allclose(c, -cm, atol=1e-15)
    np.testing.assert_allclose(s, -sm, atol=1e-15)
    assert np.max(np.abs(c)) <= 0.9
    assert np.max(np.abs(s)) <= 0.9


def test_scaled_fresnel_endpoints_and_identity():
    assert scaled_fresnel(0.0) == (0.5, 0.5)
    assert scaled_fresnel(-math.inf) == (0.0, 0.0)
    assert scaled_fresnel(math.inf) == (1.0, 1.0)
    # sqrt(pi) * first component = integral of cos(s^2/2) from -inf to tau
    for tau in (2.0, -1.3, 0.7):
        ref = 0.5 * math.sqrt(math.pi) + quad(
            lambda t: math.cos(0.5 * t * t), 0.0, tau, limit=400
        )[0]
        got = math.sqrt(math.pi) * scaled_fresnel(tau)[0]
        assert got == pytest.approx(ref, abs=1e-8)


# ---------------------------------------------------------------------------
# log-gamma / Stokes phase
# ---------------------------------------------------------------------------


def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) <= 1e-14
    assert abs(log_gamma(2.0)) <= 1e-14


def test_log_gamma_against_product_oracle():
    for z in (1.0 - 1.0j, 0.5 + 0.5j, 2.3 + 0.4j, -1.5 + 1.0j):
        ref = loggamma_product_oracle(z)
        assert abs(log_gamma(z) - ref) <= 1e-12


def test_log_gamma_reference_point():
    # frozen from the product oracle
    ref = -0.6509231993018384 + 0.30164032046753303j
    assert abs(log_gamma(1.0 - 1.0j) - ref) <= 1e-12


def test_log_gamma_against_stirling_oracle_grid():
    rng = np.random.default_rng(RNG_SEED + 4)
    worst = 0.0
    for _ in range(200):
        z = complex(rng.uniform(0.5, 49.0), rng.uniform(-49.0, 49.0))
        if abs(z) > 50.0:
            continue
        worst = max(worst, abs(log_gamma(z) - loggamma_stirling_oracle(z)))
    assert worst <= 1e-12


def test_log_gamma_reflection_consistency():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(60):
        z = complex(rng.uniform(-6.0, 6.0), rng.uniform(0.1, 6.0))
        lhs = cmath.exp(log_gamma(z) + log_gamma(1.0 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_log_gamma_modulus_law():
    for y in (0.25, 1.0, 3.0, 12.0):
        lhs = abs(cmath.exp(log_gamma(1.0 + 1j * y))) ** 2
        rhs = math.pi * y / math.sinh(math.pi * y)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_log_gamma_pole_errors():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            log_gamma(z)
    assert reciprocal_gamma(-3.0) == 0.0


def test_stokes_phase_values_and_continuity():
    assert stokes_phase(0.0) == pytest.approx(math.pi / 4, abs=0.0)
    # frozen from the log-gamma product oracle
    assert stokes_phase(1.0) == pytest.approx(0.08703848386498136, abs=1e-12)
    assert stokes_phase(0.25) == pytest.approx(0.32706191325871714, abs=1e-12)
    # chi(1) = pi/4 + arg Gamma(1 - i) - 1 by construction
    ref = math.pi / 4 + loggamma_product_oracle(1.0 - 1.0j).imag - 1.0
    assert stokes_phase(1.0) == pytest.approx(ref, abs=1e-12)
    deltas = np.geomspace(1e-12, 1e-2, 25)
    chis = np.array([stokes_phase(float(d)) for d in deltas])
    assert np.max(np.abs(chis - math.pi / 4)) <= 0.06
    assert abs(stokes_phase(1e-12) - math.pi / 4) <= 1e-10
    with pytest.raises(DomainError):
        stokes_phase(-0.1)


# ---------------------------------------------------------------------------
# Weber D
# ---------------------------------------------------------------------------


def test_weber_closed_forms():
    z = 1.0 + 2.0j
    assert abs(weber_d(0.0, z) - cmath.exp(-0.25 * z * z)) <= 1e-12
    z = 0.5 - 0.3j
    assert abs(weber_d(1.0, z) - z * cmath.exp(-0.25 * z * z)) <= 1e-12


def test_weber_origin_value():
    nu = -0.3j
    got = weber_d(nu, 0.0)
    ref = 2.0 ** (nu / 2) * math.sqrt(math.pi) * cmath.exp(
        -loggamma_product_oracle((1.0 - nu) / 2.0)
    )
    assert abs(got - ref) <= 1e-10
    # frozen from the same oracle
    assert got == pytest.approx(1.0376980015055464 + 0.190488582694394j, abs=1e-10)


def test_weber_against_series_oracle_both_half_planes():
    rng = np.random.default_rng(RNG_SEED + 6)
    refused = 0
    for _ in range(80):
        nu = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        ref = weber_series_oracle(nu, z)
        try:
            got = weber_d(nu, z)
        except AccuracyError:
            # near zeros of D the relative contract is unattainable and the
            # function refuses loudly instead of degrading silently
            refused += 1
            assert abs(ref) <= 0.5
            continue
        assert abs(got - ref) <= 1e-8 * max(abs(ref), 1e-10)
    assert refused <= 8


def test_weber_recurrence():
    rng = np.random.default_rng(RNG_SEED + 7)
    checked = 0
    for _ in range(120):
        nu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        r = float(rng.uniform(0.1, 14.0))
        th = float(rng.uniform(-math.pi, math.pi))
        z = r * cmath.exp(1j * th)
        try:
            d0 = weber_d(nu, z)
            dp = weber_d(nu + 1.0, z)
            dm = weber_d(nu - 1.0, z)
        except AccuracyError:
            continue
        scale = max(abs(dp), abs(z * d0), abs(nu * dm), 1e-30)
        assert abs(dp - z * d0 + nu * dm) <= 1e-7 * scale
        checked += 1
    assert checked >= 100


def test_weber_regime_seam_continuity():
    for radius in (3.5, 12.0):
        for th in np.linspace(-math.pi, math.pi, 17):
            for d in (0.05, 0.8):
                nu = -1j * d
                lo = weber_d(nu, (radius - 1e-9) * cmath.exp(1j * th))
                hi = weber_d(nu, (radius + 1e-9) * cmath.exp(1j * th))
                assert abs(lo - hi) <= 1e-7 * max(abs(lo), 1e-30)


def test_weber_domain_errors():
    with pytest.raises(DomainError):
        weber_d(0.0, 61.0)
    with pytest.raises(DomainError):
        weber_d(5.0j, 1.0)
    with pytest.raises(DomainError):
        weber_d(0.0, complex(math.inf, 0.0))
    # the dominant solution overflows near the imaginary axis; that must
    # surface as an error, never as a silent inf
    with pytest.raises(AccuracyError):
        weber_d(0.0, 60.0j)
    assert weber_d(0.0, 59.9) == 0.0  # clean underflow stays finite


def test_weber_subnormal_result_refuses_or_meets_contract():
    # |exp(-z^2/4)| ~ 1e-316 here: a subnormal value has too few bits left
    # for the 1e-8 relative contract
    mpmath = pytest.importorskip("mpmath")
    nu, z = complex(-0.453, 0.454), complex(56.0, -15.1)
    try:
        got = weber_d(nu, z)
    except AccuracyError:
        return
    with mpmath.workdps(30):
        ref = complex(mpmath.pcfd(nu, z))
    assert abs(got - ref) <= 1e-8 * abs(ref)
