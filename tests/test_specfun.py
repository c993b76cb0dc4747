"""Special-function checks against independent oracles.

Oracles used here are deliberately different algorithms from the package
and from the ``scipy.special`` routines behind it: truncated defining power
series (Bessel, Weber at the origin), adaptive quadrature of the defining
integrals (Fresnel), and the Weierstrass product series plus a shifted
Stirling-Bernoulli expansion (log-gamma).  ``test_specfun_fuzz.py`` checks
the same contracts over their whole domains against mpmath.

The identity checks that ``lzdrive selftest`` prints (Bessel sum rules and
Jacobi-Anger, Fresnel oddness, bound and quadrature, the scaled-Fresnel
integral, log-gamma reflection and modulus law, Stokes endpoints, Weber
closed forms and recurrence, Cayley-Klein unitarity) are defined once, in
``lzdrive.harness.SELFTEST_CHECKS``; ``test_selftest_check`` runs each entry.
"""

import cmath
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special

from lzdrive import specfun
from lzdrive.errors import AccuracyError, DomainError
from lzdrive.harness import SELFTEST_CHECKS
from lzdrive.specfun import (
    _WEBER_SERIES_TOL,
    _weber_asym,
    _weber_mirror,
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


def weber_series_seam(nu, ray):
    """Radii lo < hi, 1e-12 apart on the unit ray, between which weber_d
    stops Taylor-marching the ring 3.5 < |z| < 12 and takes the large-|z|
    expansion; a left half-plane ray is tested through its reflection -ray,
    which carries the order nu.  Bisects on the expansion's last term."""
    if ray.real < 0.0:
        ray = -ray
    lo, hi = 3.5, 12.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _weber_asym(nu, mid * ray)[2] <= _WEBER_SERIES_TOL:
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# Shared identity checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, tol, check", SELFTEST_CHECKS, ids=[c[0] for c in SELFTEST_CHECKS]
)
def test_selftest_check(name, tol, check):
    dev = check()
    assert dev <= tol, (name, dev)


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    # tiny arguments: J_0 -> 1 and J_1 ~ x/2, never NaN
    assert bessel_j(0, 1e-300) == 1.0
    assert bessel_j(1, 1e-300) == pytest.approx(5e-301, rel=1e-12)
    assert np.all(np.isfinite(bessel_j_sequence(3, -1e-200)))


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


def test_bessel_broadcasts_over_orders():
    n = np.arange(-60, 61)
    for x in (-37.5, 0.0, 1e-80, 2.404826, 99.0):
        got = bessel_j(n, x)
        assert got.shape == n.shape
        assert got.tobytes() == np.array([bessel_j(int(k), x) for k in n]).tobytes()
    assert bessel_j(n.reshape(11, 11), 3.0).tobytes() == bessel_j(n, 3.0).tobytes()
    with pytest.raises(DomainError):
        bessel_j(np.array([0, 3, -10_001]), 1.0)
    with pytest.raises(AccuracyError):
        bessel_j(np.arange(3), 1e7)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(10_001, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, math.inf)
    with pytest.raises(AccuracyError):
        bessel_j(0, 1e7)
    with pytest.raises(AccuracyError):
        bessel_j_sequence(2, -199_079.0)
    assert math.isfinite(bessel_j(0, 199_078.9))
    # non-integral, bool and non-finite orders refuse; integral floats do not
    for order in (2.5, True, math.nan, math.inf, np.array([1.0, 2.5]), np.array([0, 1]) > 0):
        with pytest.raises(DomainError):
            bessel_j(order, 1.0)
    assert bessel_j(2.0, 1.0) == bessel_j(2, 1.0)
    got = bessel_j(np.array([1.0, -3.0]), 1.0)
    assert got.tobytes() == bessel_j(np.array([1, -3]), 1.0).tobytes()


# ---------------------------------------------------------------------------
# Fresnel
# ---------------------------------------------------------------------------


def test_fresnel_trivial_values():
    c, s = fresnel(0.0)
    assert c == 0.0 and s == 0.0
    c, s = fresnel(1e6)
    assert c == pytest.approx(0.5, abs=1e-6)
    assert s == pytest.approx(0.5, abs=1e-6)
    for x in (1e300, math.inf):
        assert fresnel(x) == (0.5, 0.5)
        assert fresnel(-x) == (-0.5, -0.5)
    with pytest.raises(DomainError):
        fresnel(math.nan)


def test_fresnel_is_scipy_inside_its_range_and_asymptotic_beyond():
    x = np.concatenate([np.linspace(-1e4, 1e4, 20001), [-0.0, 1e-300, -1e-300]])
    s_ref, c_ref = special.fresnel(x)
    c, s = fresnel(x)
    assert np.array_equal(c, c_ref) and np.array_equal(s, s_ref)
    assert np.array_equal(np.signbit(c), np.signbit(c_ref))
    # beyond 1e4, one asymptotic term with an exact phase: the term it drops
    # is 1/(pi^2 x^3) < 1.1e-13
    far = np.array([1e4 * (1.0 + 1e-12), 2.5e4, 3.3e7, 7.7e11])
    c, s = fresnel(np.concatenate([far, -far]))
    with mpmath.workdps(40):
        for k, v in enumerate(far):
            want_c, want_s = float(mpmath.fresnelc(v)), float(mpmath.fresnels(v))
            for got, want in ((c[k], want_c), (s[k], want_s), (-c[k + far.size], want_c),
                              (-s[k + far.size], want_s)):
                assert abs(got - want) <= 1.2e-13
    c, s = fresnel(np.array([1e12, math.inf, -math.inf, -1e300]))
    assert list(c) == list(s) == [0.5, 0.5, -0.5, -0.5]


def test_fresnel_reference_point():
    c, s = fresnel(1.0)
    # frozen from the quadrature oracle of the defining integrals
    assert c == pytest.approx(0.7798934003768228, abs=1e-10)
    assert s == pytest.approx(0.4382591473903548, abs=1e-10)


def test_scaled_fresnel_endpoints_and_identity():
    assert scaled_fresnel(0.0) == (0.5, 0.5)
    assert scaled_fresnel(-math.inf) == (0.0, 0.0)
    assert scaled_fresnel(math.inf) == (1.0, 1.0)
    # the integral identity is the scaled_fresnel_identity entry of
    # SELFTEST_CHECKS


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


def test_log_gamma_pole_errors():
    for z in (0.0, -1.0, -7.0, complex(math.inf, 0.0), complex(1.0, math.nan)):
        with pytest.raises(DomainError):
            log_gamma(z)
    assert reciprocal_gamma(-3.0) == 0.0


def _bits(z) -> bytes:
    return np.complex128(z).tobytes()


def test_reciprocal_gamma_is_exp_of_minus_log_gamma_bit_for_bit():
    # the two arguments of the Weber origin values, (1 - nu)/2 and -nu/2,
    # over the order box, a quarter of the orders real (the negative ones
    # put -nu/2 on the cut of log Gamma)
    rng = np.random.default_rng(RNG_SEED + 30)
    for k in range(2000):
        nu = complex(rng.uniform(-3.0, 3.0), 0.0 if k % 4 == 0 else rng.uniform(-3.0, 3.0))
        for z in (0.5 * (1.0 - nu), -0.5 * nu):
            if z.real <= 0.0 and z.imag == 0.0 and z.real == math.floor(z.real):
                continue
            assert _bits(reciprocal_gamma(z)) == _bits(cmath.exp(-log_gamma(z))), z
    # exactly zero at the poles, whatever the sign of a zero imaginary part
    for z in (0.0, -1.0, -7.0, complex(0.0, -0.0), complex(-2.0, -0.0), -0.0):
        assert _bits(reciprocal_gamma(z)) == _bits(0j), z
    # at subnormal |z| log_gamma's -log z is taken, so 1/Gamma(z) = z to rounding
    for z in (1e-310, complex(3e-320, -2e-315), -4e-318j):
        got = reciprocal_gamma(z)
        assert _bits(got) == _bits(cmath.exp(-log_gamma(z))), z
        assert abs(got - z) <= 1e-15 * abs(z), z
    for z in (math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(-2.0, math.nan)):
        with pytest.raises(DomainError):
            reciprocal_gamma(z)


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


def test_weber_regime_seam_continuity():
    # the disk edge, the radius from which the ring takes the expansion on
    # that ray and order, and the expansion's own radius
    for th in np.linspace(-math.pi, math.pi, 17):
        ray = cmath.exp(1j * th)
        for d in (0.05, 0.8):
            nu = -1j * d
            series_lo, series_hi = weber_series_seam(nu, ray)
            for r_lo, r_hi in ((3.5 - 1e-9, 3.5 + 1e-9), (series_lo, series_hi),
                               (12.0 - 1e-9, 12.0 + 1e-9)):
                lo = weber_d(nu, r_lo * ray)
                hi = weber_d(nu, r_hi * ray)
                assert abs(lo - hi) <= 1e-7 * max(abs(lo), 1e-30), (nu, th, r_lo)


def test_weber_ring_against_mpmath():
    # seeded points of the ring 3.5 < |z| < 12, where the expansion is taken
    # wherever its last term is at most 1e-13 and the Taylor march runs
    # elsewhere: on the diagonals arg z = +-pi/4 (Re z^2 = 0, where the march
    # turns round, and the rays caley_klein_finite passes) and their
    # reflections, on the real axis and at random angles, with orders over
    # the box.  The worst of these draws, 1.4e-11, is a march or reflection
    # point; the right half-plane points that take the expansion meet 1e-13,
    # and the march alone reached 3.2e-10 on 20 000 such draws
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(RNG_SEED + 21)
    for turn in (0.25, -0.25, 0.75, -0.75, 0.0, 1.0, None):
        for _ in range(40):
            nu = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            arg = math.pi * (rng.uniform(-1.0, 1.0) if turn is None else turn)
            z = rng.uniform(3.5, 12.0) * cmath.exp(1j * arg)
            got = weber_d(nu, z)
            with mpmath.workdps(30):
                ref = mpmath.pcfd(nu, z)
                assert abs(mpmath.mpc(got) - ref) <= 2e-11 * abs(ref), (nu, z)


def test_weber_outward_march_starts_at_the_disk_edge(monkeypatch):
    # ring points with Re z^2 < 0 where the expansion misses 1e-13 march
    # outward: one Taylor step from the origin to the disk edge on their
    # ray, then steps of at most 0.75.  The orders are those of the
    # finite-window pair, nu = -i delta and nu - 1; the diagonal points are
    # built as caley_klein_finite builds its arguments, i tau e^{-i pi/4},
    # where the rounding of Re z^2 picks the outward march, and the others
    # lie strictly between the diagonal and the imaginary axis
    steps = []
    taylor = specfun._weber_taylor

    def counting(*args):
        steps[-1] += 1
        return taylor(*args)

    monkeypatch.setattr(specfun, "_weber_taylor", counting)
    rng = np.random.default_rng(RNG_SEED + 31)
    eighth = cmath.exp(-0.25j * math.pi)
    for diagonal in (True, False):
        taken = 0
        while taken < 40:
            nu = -1j * rng.uniform(1e-3, 3.0) - float(rng.integers(0, 2))
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            r = rng.uniform(3.5, 12.0)
            if diagonal:
                z = 1j * (sign * r * eighth)
                z = -z if z.real < 0.0 else z
            else:
                z = r * cmath.exp(1j * sign * math.pi * rng.uniform(0.25, 0.5))
            if not (z * z).real < 0.0 or _weber_asym(nu, z)[2] <= _WEBER_SERIES_TOL:
                continue
            taken += 1
            steps.append(0)
            got = weber_d(nu, z)
            assert steps[-1] == 1 + math.ceil((abs(z) - 3.5) / 0.75), (nu, z)
            with mpmath.workdps(30):
                ref = mpmath.pcfd(nu, z)
                assert abs(mpmath.mpc(got) - ref) <= 2e-11 * abs(ref), (nu, z)
    # one ulp past the disk edge on the diagonal, z minus the edge rounds to
    # 0: the march still takes its one (empty) step after the disk step
    z = 1j * (math.nextafter(3.5, 4.0) * eighth)
    assert abs(z) > 3.5 and (z * z).real < 0.0 and z - 3.5 * z / abs(z) == 0
    steps.append(0)
    got = weber_d(-0.3j, z)
    assert steps[-1] == 2
    with mpmath.workdps(30):
        ref = mpmath.pcfd(-0.3j, z)
        assert abs(mpmath.mpc(got) - ref) <= 2e-11 * abs(ref)


def test_weber_mirror_matches_the_direct_reflection():
    # on both diagonals w = r e^{+-i pi/4}, the values at -w from the
    # connection identity closed on the orders nu = -i delta and nu - 1 match
    # weber_d's own reflection at -w, and refuse where it refuses.  Both
    # carry the identity's rounding: on these draws each misses mpmath by at
    # most 1.4e-11, and they differ by at most 1.3e-11
    rng = np.random.default_rng(RNG_SEED + 23)
    for sign in (1.0, -1.0):
        ray = cmath.exp(0.25j * sign * math.pi)
        for _ in range(300):
            delta = rng.uniform(1e-6, 3.0)
            w = rng.uniform(0.0, 60.0) * ray
            nu = -1j * delta
            d0, d1 = weber_d(nu, w), weber_d(nu - 1.0, w)
            lg = log_gamma(1.0 + 1j * delta)
            try:
                direct = (weber_d(nu, -w), weber_d(nu - 1.0, -w))
            except AccuracyError:
                with pytest.raises(AccuracyError):
                    _weber_mirror(delta, w, d0, d1, lg)
                continue
            mirror = _weber_mirror(delta, w, d0, d1, lg)
            for got, ref in zip(mirror, direct):
                assert abs(got - ref) <= 1e-10 * abs(ref), (delta, w)


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
    # likewise an underflow to zero (true value ~e^-897) refuses instead of
    # returning a silent 0 with relative error 1
    with pytest.raises(AccuracyError):
        weber_d(0.0, 59.9)
    # |D| ~ 8.1e306 and, from a seeded box draw below the real axis,
    # ~ 1.1e308 are representable, and the left-half-plane reflection
    # evaluates them: its connection terms are scaled in their exponents, so
    # they do not overflow before their sum
    mpmath = pytest.importorskip("mpmath")
    for nu, z in (
        (complex(-2.557, 2.204), complex(-14.62, 55.66)),
        (complex(-0.5640817604574728, -2.81985353836643),
         complex(-5.727372222652756, -53.832884735846484)),
    ):
        got = weber_d(nu, z)
        with mpmath.workdps(30):
            ref = mpmath.pcfd(nu, z)
            assert abs(mpmath.mpc(got) - ref) <= 1e-12 * abs(ref), (nu, z)


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


def test_weber_expansion_converges_and_gives_the_derivative():
    # seeded points of the expansion's sector |z| in [12, 60], |arg z| <=
    # pi/2, with orders over the box and over the reflection's -nu - 1.
    # Every sum stops on a term below 1e-18, never at the 60-term cap, and
    # the D' that starts the march, from the same terms, meets
    # D'_nu = nu D_{nu-1} - (z/2) D_nu with D_{nu-1} from a second series;
    # the scale z^2/4 removes the Gaussian, which overflows near the
    # imaginary axis
    rng = np.random.default_rng(RNG_SEED + 20)
    count = 2000
    zs = rng.uniform(12.0, 60.0, count) * np.exp(0.5j * math.pi * rng.uniform(-1.0, 1.0, count))
    nus = rng.uniform(-4.0, 3.0, count) + 1j * rng.uniform(-3.0, 3.0, count)
    for nu, z in zip(nus.tolist(), zs.tolist()):
        scale = 0.25 * z * z
        d, dd, last = _weber_asym(nu, z, scale)
        assert last < 1e-18, (nu, z, last)
        dm1, _, _ = _weber_asym(nu - 1.0, z, scale)
        rhs = nu * dm1 - 0.5 * z * d
        assert abs(dd - rhs) <= 1e-13 * abs(rhs), (nu, z)


# ---------------------------------------------------------------------------
# scipy.special loads on the first call
# ---------------------------------------------------------------------------

# Calls of the four scipy-backed wrappers, run in a fresh process and in this
# one.  REFUSALS refuse before any scipy call; each VALUES entry pairs a
# wrapper call with the scipy.special call it returns bit for bit, or None
# where the wrapper takes its own branch (|x| > 1e4, poles, subnormal |z|).
_FIRST_CALLS = """
import math, pickle, sys
import numpy as np
from lzdrive import specfun as sf

REFUSALS = [
    lambda: sf.bessel_j(2.5, 1.0),
    lambda: sf.bessel_j(True, 1.0),
    lambda: sf.bessel_j(np.array([1.0, 2.5]), 1.0),
    lambda: sf.bessel_j(np.array([0, 3, -10_001]), 1.0),
    lambda: sf.bessel_j(2, math.inf),
    lambda: sf.bessel_j(np.arange(3), 2e5),
    lambda: sf.fresnel(np.array([0.3, math.nan])),
    lambda: sf.log_gamma(-3.0),
    lambda: sf.log_gamma(complex(1.0, math.nan)),
    lambda: sf.reciprocal_gamma(complex(math.inf, 0.0)),
]
NEAR = np.array([-1e4, -7.3, -0.0, 1e-300, 0.4, 2.9, 1e4])
FAR = np.array([-7.7e11, -2.5e4, 1e4 * (1.0 + 1e-12), 3.3e7, 1e12, math.inf])
VALUES = {
    "bessel_j": [
        (lambda: sf.bessel_j(np.arange(-6, 7), 3.7), lambda sp: sp.jv(np.arange(-6, 7), 3.7)),
        (lambda: sf.bessel_j(np.array([[2.0, -40.0], [0.0, 7.0]]), -61.2),
         lambda sp: sp.jv(np.array([[2, -40], [0, 7]]), -61.2)),
        (lambda: sf.bessel_j(3, 2.5), lambda sp: sp.jv(3, 2.5)),
    ],
    "fresnel": [
        (lambda: sf.fresnel(NEAR), lambda sp: sp.fresnel(NEAR)[::-1]),
        (lambda: sf.fresnel(0.3), lambda sp: tuple(float(v) for v in sp.fresnel(0.3)[::-1])),
        (lambda: sf.fresnel(FAR), None),
    ],
    "log_gamma": [
        (lambda: sf.log_gamma(complex(-2.5, -0.0)), lambda sp: complex(sp.loggamma(complex(-2.5, 0.0)))),
        (lambda: sf.log_gamma(1.3 - 4.1j), lambda sp: complex(sp.loggamma(1.3 - 4.1j))),
        (lambda: sf.log_gamma(complex(3e-320, -2e-315)), None),
    ],
    "reciprocal_gamma": [
        (lambda: sf.reciprocal_gamma(complex(-2.5, -0.0)), lambda sp: complex(sp.rgamma(complex(-2.5, 0.0)))),
        (lambda: sf.reciprocal_gamma(-0.7 + 2.2j), lambda sp: complex(sp.rgamma(-0.7 + 2.2j))),
        (lambda: sf.reciprocal_gamma(complex(-2.0, -0.0)), None),
        (lambda: sf.reciprocal_gamma(1e-310), None),
    ],
}


def refusals():
    out = []
    for call in REFUSALS:
        try:
            call()
        except (ValueError, ArithmeticError) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out
"""

_FIRST_CALLS_CHILD = """
first = sys.argv[1]
refused = refusals()
loaded_after_refusals = "scipy" in sys.modules
order = [first] + [name for name in VALUES if name != first]
values = {name: [call() for call, _ in VALUES[name]] for name in order}
import scipy.special
print(pickle.dumps((refused, loaded_after_refusals, values,
                    sf.special is scipy.special)).hex())
"""


def _as_bits(value):
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


@pytest.mark.parametrize("first", ["bessel_j", "fresnel", "log_gamma", "reciprocal_gamma"])
def test_first_special_function_call_binds_scipy_special_and_changes_no_value(first):
    # the first call of any wrapper imports scipy.special through the
    # module's placeholder; its values, and every refusal, are those of the
    # module bound to scipy.special, bit for bit
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", _FIRST_CALLS + _FIRST_CALLS_CHILD, first],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    refused, loaded_after_refusals, values, bound = pickle.loads(bytes.fromhex(proc.stdout))
    ns = {}
    exec(_FIRST_CALLS, ns)
    assert not loaded_after_refusals
    assert len(refused) == len(ns["REFUSALS"]) and refused == ns["refusals"]()
    assert list(values)[0] == first
    for name, calls in ns["VALUES"].items():
        for got, (call, direct) in zip(values[name], calls, strict=True):
            assert _as_bits(got) == _as_bits(call()), name
            if direct is not None:
                assert _as_bits(got) == _as_bits(direct(special)), name
    assert bound
