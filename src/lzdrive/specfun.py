"""Special functions backing the analytic transition formulas.

Bessel J_n, the Fresnel integrals for |x| <= 1e4 and the principal-branch
complex log-gamma are thin wrappers over ``scipy.special`` that keep this
module's accuracy contracts and typed refusals where scipy would return NaN
or a degraded value.  The Fresnel integrals for |x| > 1e4 (the leading
asymptotic term with an exact phase split), the Stokes phase, and Weber's
parabolic cylinder function D_nu(z) for complex order and argument, which
scipy does not provide, are evaluated here in double precision.  D_nu takes
its large-|z| asymptotic expansion, one series that gives D and D', from
|z| = 12 on and wherever in 3.5 < |z| < 12 it already converges to 1e-13;
elsewhere inside, one Taylor recurrence of its ODE, started from DLMF's
origin values or from the expansion at radius 12.  One connection
identity, with its coefficients in the exponent, covers the left half-plane.
On the diagonals arg z = +-pi/4 with order nu = -i delta, the same identity
gives D_nu(-w) and D_{nu-1}(-w) from D_nu(w) and D_{nu-1}(w) alone
(``_weber_mirror``), so the finite-window Cayley-Klein pair needs four
right-half-plane evaluations.

All functions are deterministic and stateless; array broadcasting is
supported where the callers need it (Bessel orders, Fresnel).
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import AccuracyError, DomainError

__all__ = [
    "FresnelPair",
    "bessel_j",
    "bessel_j_sequence",
    "fresnel",
    "scaled_fresnel",
    "log_gamma",
    "reciprocal_gamma",
    "stokes_phase",
    "weber_d",
]

_SQRT_PI = math.sqrt(math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Bessel J_n
# ---------------------------------------------------------------------------

_BESSEL_MAX_ORDER = 10_000
# J_n is validated for |x| <= 100; this bound sits where the former Miller
# recurrence refused, so every argument it evaluated still evaluates
_BESSEL_MAX_ARG = 199_079.0


def bessel_j(n, x: float):
    """Bessel function of the first kind, integer order.

    n is an integer or an integer array; an array of orders returns the
    array [J_n(x)] of the same shape, and the largest |n| must be in range.
    Integral floats are accepted; fractional, non-finite and bool orders
    raise DomainError.  Satisfies J_{-n}(x) = (-1)^n J_n(x); absolute error
    <= 1e-12 for |x| <= 100.
    """
    order = np.asarray(n)
    if order.dtype.kind not in "iuf" or not np.all(
        np.isfinite(order) & (order == np.trunc(order))
    ):
        raise DomainError(f"Bessel order must be an integer, got {n!r}")
    top = abs(order).max(initial=0)
    if top > _BESSEL_MAX_ORDER:
        raise DomainError(f"Bessel order {top:g} outside validated range")
    order = order.astype(int)
    if not math.isfinite(x):
        raise DomainError("Bessel argument must be finite")
    if abs(x) >= _BESSEL_MAX_ARG:
        raise AccuracyError(
            f"bessel_j argument |x|={abs(x):.6g} exceeds the supported limit "
            f"{_BESSEL_MAX_ARG:g} for validated accuracy"
        )
    return special.jv(order, x)


def bessel_j_sequence(n_max: int, x: float) -> np.ndarray:
    """Array [J_0(x), J_1(x), ..., J_{n_max}(x)]."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    return bessel_j(np.arange(n_max + 1), x)


# ---------------------------------------------------------------------------
# Fresnel integrals C, S  (convention C(x) = int_0^x cos(pi t^2 / 2) dt)
# ---------------------------------------------------------------------------


class FresnelPair(NamedTuple):
    c: float
    s: float


# scipy forms the phase pi x^2/2 in double precision, so its absolute error
# grows like x * eps: 4.3e-13 at 1e4, 4e-9 at 1e9.  Beyond 1e4 the leading
# asymptotic term with the exact phase split below takes over; the term it
# drops, 1/(pi^2 x^3), is about 1e-13 there.  1e4 also sits below the 36974
# where older cephes fresnl switches to its own asymptotic form.
_FR_SCIPY_MAX = 1e4


def _phase_half_pi_x2(x: np.ndarray) -> np.ndarray:
    """pi*x^2/2 reduced mod 2*pi, exact for large x via a Dekker split of x^2."""
    split = 134217729.0  # 2**27 + 1
    c = x * split
    hi = c - (c - x)
    lo = x - hi
    t = np.fmod(hi * hi, 4.0) + np.fmod(2.0 * hi * lo, 4.0) + lo * lo
    t = np.fmod(t, 4.0)
    return 0.5 * math.pi * t


def fresnel(x):
    """Fresnel integrals (C(x), S(x)), absolute error <= 1e-10.

    C(x) = int_0^x cos(pi t^2/2) dt and likewise S with sin; both are odd
    and tend to +-1/2 at +-infinity.  ``scipy.special.fresnel`` for
    |x| <= 1e4; beyond, C = 1/2 + sin(pi x^2/2)/(pi x) and
    S = 1/2 - cos(pi x^2/2)/(pi x) with the phase reduced exactly, and
    exactly +-1/2 from |x| = 1e12 on.  NaN raises DomainError.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.isnan(arr).any():
        raise DomainError("fresnel argument must not be NaN")
    s, c = special.fresnel(arr)  # odd in x, as is the asymptotic term below
    far = np.abs(arr) > _FR_SCIPY_MAX
    if far.any():
        x_far = arr[far]
        v = np.abs(x_far)
        c_far, s_far = np.full_like(v, 0.5), np.full_like(v, 0.5)
        # from 1e12 on, +inf included, |C - 1/2| < 1/(pi x) < 3e-13: keep 1/2
        mid = v < 1e12
        ph, pv = _phase_half_pi_x2(v[mid]), math.pi * v[mid]
        c_far[mid] += np.sin(ph) / pv
        s_far[mid] -= np.cos(ph) / pv
        c[far], s[far] = np.copysign(c_far, x_far), np.copysign(s_far, x_far)
    if scalar:
        return FresnelPair(float(c[0]), float(s[0]))
    return FresnelPair(c, s)


def scaled_fresnel(x):
    """Shifted Fresnel pair (1/2 + C(x/sqrt(pi)), 1/2 + S(x/sqrt(pi))).

    Runs from (0, 0) at -infinity to (1, 1) at +infinity and satisfies
    sqrt(pi) * first = integral of cos(s^2/2) from -infinity to x.
    Accepts +-inf sentinels.
    """
    cc, ss = fresnel(np.asarray(x, float) / _SQRT_PI)
    cc += 0.5
    ss += 0.5
    return cc, ss


# ---------------------------------------------------------------------------
# Complex log-gamma (principal branch) and the Stokes phase
# ---------------------------------------------------------------------------


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z), continuous off the negative real axis.

    On the cut itself the value is the limit from above, whatever the sign
    of a zero imaginary part.  Absolute error <= 1e-12 for |z| <= 50.
    Poles (non-positive integers) raise DomainError.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("log_gamma argument must be finite")
    if _is_nonpositive_integer(z):
        raise DomainError(f"log_gamma pole at z = {z.real:g}")
    # scipy takes a -0.0 imaginary part to the lower side of the cut
    z = complex(z.real, z.imag + 0.0)
    if abs(z) < sys.float_info.min:
        # scipy is off by up to 0.05 at subnormal |z|, where
        # log Gamma(z) = -log z - euler_gamma z + O(z^2) is -log z in double
        return -cmath.log(z)
    return complex(special.loggamma(z))


def reciprocal_gamma(z) -> complex:
    """1 / Gamma(z); zero at the poles of Gamma."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        return 0.0 + 0.0j
    return cmath.exp(-log_gamma(z))


def stokes_phase(delta: float) -> float:
    """Phase chi(delta) = pi/4 + arg Gamma(1 - i*delta) + delta*(log delta - 1).

    Continuous for delta >= 0 with chi(0+) = pi/4 and chi -> 0 as
    delta -> infinity.
    """
    if not math.isfinite(delta):
        raise DomainError("stokes_phase argument must be finite")
    if delta < 0.0:
        raise DomainError("stokes_phase requires delta >= 0")
    if delta == 0.0:
        return 0.25 * math.pi
    return (
        0.25 * math.pi
        + log_gamma(1.0 - 1j * delta).imag
        + delta * (math.log(delta) - 1.0)
    )


# ---------------------------------------------------------------------------
# Weber parabolic cylinder function D_nu(z), complex order and argument
# ---------------------------------------------------------------------------

_WEBER_DISK_RADIUS = 3.5
_WEBER_ASYM_RADIUS = 12.0
_WEBER_MAX_ABS_Z = 60.0
_WEBER_MAX_ORDER = 3.0
_WEBER_GUARD = 1e-8
_WEBER_MARCH_STEP = 0.75
_WEBER_SERIES_TOL = 1e-13


def _weber_asym(nu: complex, z: complex, log_scale: complex = 0.0):
    """Large-|z| expansion D_nu(z) = z^nu e^{-z^2/4} sum_k t_k, |arg z| <= pi/2.

    One loop sums S = sum t_k and slope = sum -2k t_k = z dS/dz; with
    P = e^{log_scale} z^nu e^{-z^2/4} it returns (P S, the derivative
    P (S (nu/z - z/2) + slope/z), |t_k| of the last term summed).  It stops
    once a term falls below 1e-18, before the first term larger than the one
    before it, or after 60 terms.  From |z| = 12 on the terms fall below
    1e-18 before they could grow; inside, where the series diverges sooner,
    the second stop ends it near its smallest term, whose size (about
    e^{-|z|^2/2}, DLMF 12.9) bounds the error.  log_scale rides in the
    exponent, so a large factor cannot overflow before the product does.
    """
    z2 = z * z
    term = 1.0 + 0.0j
    total = term
    slope = 0j
    last = 1.0
    for k in range(1, 60):
        step = term * (nu - (2 * k - 2)) * (nu - (2 * k - 1)) * (-1.0) / (2.0 * k * z2)
        size = abs(step)
        if size > last:
            break
        term = step
        total += term
        slope -= 2 * k * term
        last = size
        if last < 1e-18:
            break
    pref = cmath.exp(log_scale + nu * cmath.log(z) - 0.25 * z * z)
    return pref * total, pref * (total * (nu / z - 0.5 * z) + slope / z), last


def _weber_taylor(nu: complex, z0: complex, w: complex, hdw: complex, h: complex):
    """One Taylor step of w'' = (z^2/4 - nu - 1/2) w from z0 to z0 + h.

    Takes w(z0) and h w'(z0).  Sums the terms d_k = w^(k)(z0) h^k / k!
    until two in a row fall below 1e-17 of the largest; returns
    (w(z0 + h), h w'(z0 + h), largest |d_k|).
    """
    q0 = h * h * (0.25 * z0 * z0 - nu - 0.5)
    q1 = 0.5 * h * h * h * z0
    q2 = 0.25 * h * h * h * h
    # d_{k-4}, d_{k-3}, d_{k-2}, d_{k-1} for k = 2
    a, b, c, e = 0j, 0j, w, hdw
    val = c + e
    der = e
    peak = max(abs(c), abs(e))
    k = 2
    while True:
        d = (q0 * c + q1 * b + q2 * a) / ((k - 1) * k)
        val += d
        der += k * d
        ad = abs(d)
        if ad > peak:
            peak = ad
        # phrased so that a NaN term ends the sum too
        if not (ad > 1e-17 * peak or abs(e) > 1e-17 * peak):
            return val, der, peak
        a, b, c, e = b, c, e, d
        k += 1


def _weber_right(nu: complex, z: complex, log_scale: complex = 0.0) -> complex:
    """e^{log_scale} D_nu(z) for Re z >= 0 (or |arg z| <= pi/2 boundary cases).

    |z| >= 12 takes the asymptotic expansion, which carries log_scale in its
    exponent.  So does the ring 3.5 < |z| < 12 wherever the expansion's last
    term is at most 1e-13, an accuracy the march below reaches too; that
    holds over most of the ring from |z| of about 8 on.  Inside, one Taylor
    step from the origin values covers |z| <= 3.5; the rest of the ring is
    Taylor-marched along the ray in steps of at most 0.75, in the direction
    in which D grows: outward from the origin where Re z^2 < 0, inward from
    the expansion's D and D' at radius 12 otherwise.  A Taylor result
    refuses with AccuracyError when its largest term times 5e-15, or the
    last term of the expansion it starts from, exceeds the guard times |D|.
    """
    az = abs(z)
    if az >= _WEBER_ASYM_RADIUS:
        val, _, err = _weber_asym(nu, z, log_scale)
        if err > _WEBER_GUARD:
            raise AccuracyError(
                f"weber_d asymptotic series not converged at nu={nu}, z={z}"
            )
        return val
    if az > _WEBER_DISK_RADIUS:
        val, _, last = _weber_asym(nu, z, log_scale)
        if last <= _WEBER_SERIES_TOL:
            return val
    if az <= _WEBER_DISK_RADIUS or (z * z).real < 0.0:
        # D_nu(0) and D'_nu(0), DLMF 12.2.6-7
        start, err = 0j, 0.0
        pref = _SQRT_PI * cmath.exp(0.5 * nu * math.log(2.0))
        w = pref * reciprocal_gamma(0.5 * (1.0 - nu))
        dw = -math.sqrt(2.0) * pref * reciprocal_gamma(-0.5 * nu)
    else:
        start = _WEBER_ASYM_RADIUS * z / az
        w, dw, err = _weber_asym(nu, start)
    steps = 1
    if az > _WEBER_DISK_RADIUS:
        steps = math.ceil(abs(z - start) / _WEBER_MARCH_STEP)
    h = (z - start) / steps
    hdw = h * dw
    peak = 0.0
    for i in range(steps):
        w, hdw, p = _weber_taylor(nu, start + i * h, w, hdw, h)
        peak = max(peak, p)
    # the rounding error of a sum is a few tens of eps of its largest term
    err = max(err, peak * 5e-15 / max(abs(w), 1e-300))
    if err > _WEBER_GUARD:
        raise AccuracyError(
            f"weber_d estimated relative error {err:.2e} exceeds the guard at "
            f"nu={nu}, z={z}"
        )
    return w * cmath.exp(log_scale)


def _connection_logs(nu: complex, s: float, log_gamma_neg_nu: complex):
    """(log c1, log c2) of the connection identity of DLMF 12.2 (12.2.15,
    12.2.18), D_nu(z) = c1 D_nu(-z) + c2 D_{-nu-1}(-s i z) with s = +-1:
    c1 = e^{s pi i nu}, c2 = sqrt(2 pi) e^{s pi i (nu + 1)/2} / Gamma(-nu).
    Taking s the sign of Im z puts both arguments at |arg| <= pi/2 when
    Re z < 0.  The coefficients stay logarithms, so a term they scale cannot
    overflow before the sum does."""
    log_c2 = _LOG_SQRT_2PI - log_gamma_neg_nu + 0.5j * s * math.pi * (nu + 1.0)
    return s * 1j * math.pi * nu, log_c2


def _connected(t1: complex, t2: complex, nu: complex, z: complex) -> complex:
    """The sum t1 + t2 of the two connection terms for D_nu(z)."""
    out = t1 + t2
    # measured piece errors are correlated, so even strong cancellation keeps
    # the relative error ~1e-11; this only catches catastrophic loss
    if abs(out) * 1e5 < abs(t1) + abs(t2):
        raise AccuracyError(
            f"weber_d reflection cancellation too severe at nu={nu}, z={z}"
        )
    return out


def _weber(nu: complex, z: complex) -> complex:
    if z.real >= 0.0:
        return _weber_right(nu, z)
    # reflect into the right half-plane; c2 = 0 where nu is a non-negative
    # integer
    s = 1.0 if z.imag >= 0.0 else -1.0
    pole = _is_nonpositive_integer(-nu)
    log_c1, log_c2 = _connection_logs(nu, s, 0j if pole else log_gamma(-nu))
    t1 = _weber_right(nu, -z, log_c1)
    t2 = 0j if pole else _weber_right(-nu - 1.0, -s * 1j * z, log_c2)
    return _connected(t1, t2, nu, z)


def _weber_mirror(delta: float, w: complex, d0: complex, d1: complex, lg: complex):
    """(D_nu(-w), D_{nu-1}(-w)) for nu = -i delta, delta > 0, from
    d0 = D_nu(w) and d1 = D_{nu-1}(w), with lg = log Gamma(1 + i delta).

    w must lie on a diagonal w = r e^{+-i pi/4} with Re w >= 0.  There the
    second argument of the connection identity at z = -w is -s i z = conj(w),
    and since -nu - 1 = conj(nu - 1) and -(nu - 1) - 1 = conj(nu), its
    second terms are conj(d1) and conj(d0): the two orders close on each
    other and no further Weber evaluation is needed.  The gamma values are
    1/Gamma(1 - nu) = e^{-lg} and 1/Gamma(-nu) = i delta e^{-lg}.
    """
    if w == 0:
        # the identity holds here too, but its terms are up to e^{pi delta}
        # times their sum; at the origin the mirrored values are the values
        return d0, d1
    nu = -1j * delta
    s = 1.0 if -w.imag >= 0.0 else -1.0
    out = []
    for order, d, other, log_gamma_neg in (
        (nu, d0, d1, lg - complex(math.log(delta), 0.5 * math.pi)),
        (nu - 1.0, d1, d0, lg),
    ):
        log_c1, log_c2 = _connection_logs(order, s, log_gamma_neg)
        t1 = cmath.exp(log_c1) * d
        t2 = cmath.exp(log_c2) * other.conjugate()
        out.append(_connected(t1, t2, order, -w))
    return tuple(out)


def weber_d(nu, z) -> complex:
    """Parabolic cylinder function D_nu(z) for complex order and argument.

    Relative error <= 1e-8 over the validated box |z| <= 60,
    max(|Re nu|, |Im nu|) <= 3; arguments outside it raise DomainError,
    and internal cancellation beyond the guard or a subnormal or underflowed
    result raises AccuracyError rather than returning silent garbage, and so
    does a result beyond the double range.
    """
    nu = complex(nu)
    z = complex(z)
    if not all(map(math.isfinite, (nu.real, nu.imag, z.real, z.imag))):
        raise DomainError("weber_d arguments must be finite")
    if abs(z) > _WEBER_MAX_ABS_Z:
        raise DomainError(
            f"weber_d argument |z|={abs(z):.3g} outside validated |z| <= "
            f"{_WEBER_MAX_ABS_Z:g}"
        )
    if max(abs(nu.real), abs(nu.imag)) > _WEBER_MAX_ORDER:
        raise DomainError(
            f"weber_d order nu={nu} outside validated box "
            f"max(|Re|,|Im|) <= {_WEBER_MAX_ORDER:g}"
        )
    try:
        out = _weber(nu, z)
    except OverflowError:
        # the dominant-solution prefactor exp(-z^2/4) blows up for large
        # arguments near the imaginary axis
        raise AccuracyError(f"weber_d overflow at nu={nu}, z={z}") from None
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise AccuracyError(f"weber_d overflow at nu={nu}, z={z}")
    if abs(out) < sys.float_info.min:
        # subnormal results keep too few significant bits for the contract,
        # and an underflow to zero keeps none; true zeros of D already
        # refuse through the cancellation guard
        raise AccuracyError(f"weber_d underflow at nu={nu}, z={z}")
    return out
