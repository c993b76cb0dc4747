"""Property fuzz of every ``lzdrive.specfun`` contract against mpmath.

Each test draws points across the whole domain that a docstring promises
and checks its bound against mpmath at 30 significant digits:

- ``fresnel``: log-uniform |x| in [1e-12, 1e12], absolute error 1e-10;
- ``log_gamma``: |z| <= 50 with signed zeros on the negative real axis and
  subnormal arguments, absolute error 1e-12, poles refuse;
- ``bessel_j``: orders -300..300 and |x| <= 100 with tiny arguments,
  absolute error 1e-12;
- ``weber_d``: the validated box |z| <= 60, max(|Re nu|, |Im nu|) <= 3,
  relative error 1e-8 or a typed AccuracyError.

``caley_klein_finite``, which takes its left-half-plane Weber values from
the connection identity, is checked over the same box against the form that
evaluates each of them with ``weber_d`` (``oracles.py``).

The derandomized profile in ``conftest.py`` makes the draws identical on
every run.
"""

import cmath
import math
import sys

import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lzdrive.errors import AccuracyError, DomainError
from lzdrive.analytic import caley_klein_finite
from lzdrive.specfun import bessel_j, fresnel, log_gamma, weber_d
from oracles import caley_klein_finite_six_calls
from test_specfun import weber_series_seam

DPS = 30


def _disk(radius, part):
    """Complex numbers with |z| <= radius, parts drawn from ``part``."""
    return st.builds(complex, part, part).filter(lambda z: abs(z) <= radius)


def _snapped(bound, step=2.0**-20):
    """Floats in [-bound, bound] rounded to multiples of ``step``.

    mpmath's ``pcfd`` raises its working precision by about log10(1/d)
    digits at an order a distance d from an integer, so the subnormal-scale
    floats hypothesis likes to draw would cost it tens of seconds each;
    snapped, they become exact zeros.
    """
    return st.floats(-bound, bound).map(lambda x: round(x / step) * step)


def _is_pole(z):
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


@settings(max_examples=400)
@given(
    log10_x=st.floats(-12.0, 12.0),
    negative=st.booleans(),
)
# the seams: scipy's last point, the first asymptotic point, the first 1/2
@example(log10_x=4.0, negative=False)
@example(log10_x=4.0, negative=True)
@example(log10_x=math.nextafter(4.0, 5.0), negative=False)
@example(log10_x=math.nextafter(4.0, 5.0), negative=True)
@example(log10_x=12.0, negative=False)
@example(log10_x=12.0, negative=True)
def test_fresnel_absolute_error(log10_x, negative):
    x = (-1.0 if negative else 1.0) * 10.0**log10_x
    got = fresnel(x)
    with mpmath.workdps(DPS):
        ref_c, ref_s = mpmath.fresnelc(x), mpmath.fresnels(x)
    assert abs(got.c - float(ref_c)) <= 1e-10, (x, got, ref_c)
    assert abs(got.s - float(ref_s)) <= 1e-10, (x, got, ref_s)


_TINY = st.floats(-sys.float_info.min, sys.float_info.min)


@settings(max_examples=400)
@given(
    z=st.one_of(
        _disk(50.0, st.floats(-50.0, 50.0)),
        st.builds(complex, st.floats(-50.0, 0.0), st.sampled_from((0.0, -0.0))),
        st.builds(complex, _TINY, _TINY),
    )
)
@example(z=complex(-2.5, -0.0))
@example(z=complex(5e-324, 0.0))
def test_log_gamma_absolute_error(z):
    if _is_pole(z):
        with pytest.raises(DomainError):
            log_gamma(z)
        return
    got = log_gamma(z)
    # mpmath has no signed zero; on the cut it takes the limit from above
    with mpmath.workdps(DPS):
        ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
    assert abs(got - ref) <= 1e-12, (z, got, ref)


@settings(max_examples=400)
@given(
    n=st.integers(-300, 300),
    x=st.one_of(st.floats(-100.0, 100.0), st.floats(-1e-60, 1e-60)),
)
@example(n=0, x=1e-100)
def test_bessel_absolute_error(n, x):
    got = bessel_j(n, x)
    with mpmath.workdps(DPS):
        ref = float(mpmath.besselj(n, x))
    assert abs(got - ref) <= 1e-12, (n, x, got, ref)


def _weber_seams(test):
    """Pin the origin, the disk edge, the asymptotic radius of weber_d and,
    for each order, the two sides of the radius from which its ring takes
    the expansion instead of the Taylor march.

    The points lie on the diagonal z = r e^{i pi/4}, where Re z^2 = 0
    separates the outward and inward marches and along which
    caley_klein_finite passes its arguments, and at -z, which takes the
    reflection; the orders are those of a crossing with delta = 0.3.
    """
    diagonal = cmath.exp(0.25j * math.pi)
    radii = (3.5, math.nextafter(3.5, 4.0), 12.0 * (1.0 - 1e-12))
    for nu in (-0.3j, -1.0 - 0.3j):
        for r in radii + weber_series_seam(nu, diagonal):
            for z in (r * diagonal, -r * diagonal):
                test = example(nu=nu, z=z)(test)
        test = example(nu=nu, z=0j)(test)
    return test


@settings(max_examples=300)
@given(
    nu=st.builds(complex, _snapped(3.0), _snapped(3.0)),
    z=_disk(60.0, _snapped(60.0)),
)
@_weber_seams
def test_weber_relative_error_or_refusal(nu, z):
    try:
        got = weber_d(nu, z)
    except AccuracyError:
        return
    with mpmath.workdps(DPS):
        ref = mpmath.pcfd(nu, z)
        assert abs(mpmath.mpc(got) - ref) <= 1e-8 * abs(ref), (nu, z, got, ref)


_ROT = cmath.exp(-0.25j * math.pi)


def _pair_or_refusal(form, delta, z_start, z_end):
    try:
        ck = form(delta, z_start, z_end)
    except (AccuracyError, DomainError) as exc:
        return type(exc)
    return ck.a, ck.b


@settings(max_examples=300)
@given(
    delta=st.floats(0.0, 3.0),
    t_start=st.one_of(st.just(0.0), st.floats(-60.0, 60.0)),
    t_end=st.floats(-60.0, 60.0),
)
# the start inverse_lz_case passes, coincident ends, the box's corners
@example(delta=0.4, t_start=0.0, t_end=7.5)
@example(delta=0.4, t_start=-7.5, t_end=0.0)
@example(delta=1.2, t_start=-9.0, t_end=-9.0)
@example(delta=3.0, t_start=-60.0, t_end=60.0)
@example(delta=3.0, t_start=60.0, t_end=-60.0)
@example(delta=2e-14, t_start=-60.0, t_end=60.0)
def test_caley_klein_finite_matches_six_call_form(delta, t_start, t_end):
    z_start = 0.0 if t_start == 0.0 else t_start * _ROT
    z_end = t_end * _ROT
    got = _pair_or_refusal(caley_klein_finite, delta, z_start, z_end)
    ref = _pair_or_refusal(caley_klein_finite_six_calls, delta, z_start, z_end)
    if isinstance(ref, type) or isinstance(got, type):
        assert got is ref, (delta, t_start, t_end, got, ref)
        return
    assert abs(got[0] - ref[0]) <= 1e-11, (delta, t_start, t_end, got, ref)
    # b divides a difference of O(1) Weber products by sqrt(delta), so the
    # two forms' b differ by rounding of up to about 3e-16 / sqrt(delta)
    # (measured for delta in [1e-14, 1e-2], |tau| <= 60), which dominates
    # below delta ~ 1e-9
    tol_b = 1e-11 + 1e-15 / math.sqrt(max(delta, 1e-14))
    assert abs(got[1] - ref[1]) <= tol_b, (delta, t_start, t_end, got, ref)
