"""Self-contained special functions backing the analytic transition formulas.

Everything here is pure double precision with no external special-function
dependency: Bessel J_n (Miller backward recurrence), Fresnel integrals
(piecewise Taylor tables plus auxiliary asymptotics), the principal-branch
complex log-gamma (Lanczos with downward recursion), the Stokes phase, and
Weber's parabolic cylinder function D_nu(z) for complex order and argument.

All functions are deterministic and stateless; array broadcasting is
supported where the callers need it (Bessel sequences, Fresnel).
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

import numpy as np

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
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Bessel J_n
# ---------------------------------------------------------------------------

_BESSEL_MAX_ORDER = 10_000
_BESSEL_MAX_START = 200_000
_RESCALE_LIMIT = 1e250


def _miller_sequence(n_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x) for x > 0 by backward recurrence.

    Normalized with J_0 + 2*sum_k J_{2k} = 1.  Values are rescaled on the
    way down so the recurrence cannot overflow silently.
    """
    top = max(n_max, int(x))
    start = top + 30 + int(2.0 * math.sqrt(top + 10.0))
    if start % 2:
        start += 1
    if start > _BESSEL_MAX_START:
        raise AccuracyError(
            f"bessel_j recurrence start index {start} exceeds the supported "
            f"limit; argument/order too large for validated accuracy"
        )
    out = np.zeros(n_max + 1)
    jp = 0.0  # J_{k+1}
    jc = 1e-30  # J_k (arbitrary seed)
    norm = 0.0
    for k in range(start, 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp = jc
        jc = jm
        if k - 1 <= n_max:
            out[k - 1] = jc
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += 2.0 * jc
        if abs(jc) > _RESCALE_LIMIT:
            jc *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            out *= 1e-250
    norm += jc  # adds J_0
    out /= norm
    return out


def bessel_j_sequence(n_max: int, x: float) -> np.ndarray:
    """Array [J_0(x), J_1(x), ..., J_{n_max}(x)]."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if n_max > _BESSEL_MAX_ORDER:
        raise DomainError(f"Bessel order {n_max} outside validated range")
    if not math.isfinite(x):
        raise DomainError("Bessel argument must be finite")
    ax = abs(x)
    if ax == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    seq = _miller_sequence(n_max, ax)
    if x < 0.0:
        seq = seq * np.where(np.arange(n_max + 1) % 2 == 0, 1.0, -1.0)
    return seq


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind, integer order.

    Satisfies J_{-n}(x) = (-1)^n J_n(x); absolute error <= 1e-12 for
    |x| <= 100.
    """
    n = int(n)
    m = abs(n)
    sign = 1.0
    if n < 0 and m % 2 == 1:
        sign = -sign
    val = bessel_j_sequence(m, x)[m]
    return sign * val


# ---------------------------------------------------------------------------
# Fresnel integrals C, S  (convention C(x) = int_0^x cos(pi t^2 / 2) dt)
# ---------------------------------------------------------------------------


class FresnelPair(NamedTuple):
    c: float
    s: float


_FR_STEP = 0.25
_FR_EDGE = 4.0
_FR_NANCHOR = int(_FR_EDGE / _FR_STEP) + 1  # anchors 0, 0.25, ..., 4.0
_FR_TERMS = 40
_FR_ASYM_TERMS = 12


def _fresnel_tables():
    """Taylor coefficients of exp(i*pi*t^2/2) at each anchor, plus the
    accumulated integral value at each anchor."""
    coef = np.zeros((_FR_NANCHOR, _FR_TERMS), dtype=complex)
    vals = np.zeros(_FR_NANCHOR, dtype=complex)
    ipi = 1j * math.pi
    for j in range(_FR_NANCHOR):
        a = j * _FR_STEP
        t = np.zeros(_FR_TERMS, dtype=complex)
        t[0] = cmath.exp(0.5j * math.pi * a * a)
        t[1] = ipi * a * t[0]
        for k in range(1, _FR_TERMS - 1):
            t[k + 1] = ipi * (a * t[k] + t[k - 1]) / (k + 1)
        coef[j] = t
    powers = _FR_STEP ** np.arange(1, _FR_TERMS + 1) / np.arange(1, _FR_TERMS + 1)
    for j in range(1, _FR_NANCHOR):
        vals[j] = vals[j - 1] + coef[j - 1] @ powers
    return coef, vals


_FR_COEF, _FR_VALS = _fresnel_tables()


def _dfact_series(kind: int, n: int) -> np.ndarray:
    """(-1)^k (4k+kind)!! for k = 0..n-1, kind in {-1, +1}."""
    out = np.empty(n)
    acc = 1.0
    for k in range(n):
        if k > 0:
            acc *= (4 * k + kind - 2) * (4 * k + kind)
        out[k] = acc
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return out * signs


_FR_FCOEF = _dfact_series(-1, _FR_ASYM_TERMS)
_FR_GCOEF = _dfact_series(+1, _FR_ASYM_TERMS)


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
    and tend to +-1/2 at +-infinity.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.isnan(arr).any():
        raise DomainError("fresnel argument must not be NaN")
    sign = np.sign(arr)
    ax = np.abs(arr)
    c = np.empty_like(ax)
    s = np.empty_like(ax)

    huge = ax >= 1e12  # includes +inf; |C - 1/2| < 1/(pi x) < 3e-13 there
    small = ax <= _FR_EDGE
    mid = ~small & ~huge

    if small.any():
        v = ax[small]
        j = np.minimum((v / _FR_STEP).astype(int), _FR_NANCHOR - 1)
        d = v - j * _FR_STEP
        coef = _FR_COEF[j]  # (m, K)
        # integral of sum T_k d^k is sum T_k d^(k+1)/(k+1); Horner in d
        acc = np.zeros(v.shape, dtype=complex)
        for k in range(_FR_TERMS - 1, -1, -1):
            acc = acc * d + coef[:, k] / (k + 1)
        w = _FR_VALS[j] + acc * d
        c[small] = w.real
        s[small] = w.imag
    if mid.any():
        v = ax[mid]
        u = 1.0 / (math.pi * v * v)
        u2 = u * u
        f = np.zeros(v.shape)
        g = np.zeros(v.shape)
        for k in range(_FR_ASYM_TERMS - 1, -1, -1):
            f = f * u2 + _FR_FCOEF[k]
            g = g * u2 + _FR_GCOEF[k]
        f = f / (math.pi * v)
        g = g * u / (math.pi * v)
        ph = _phase_half_pi_x2(v)
        sin_p = np.sin(ph)
        cos_p = np.cos(ph)
        c[mid] = 0.5 + f * sin_p - g * cos_p
        s[mid] = 0.5 - f * cos_p - g * sin_p
    if huge.any():
        c[huge] = 0.5
        s[huge] = 0.5

    c *= sign
    s *= sign
    if scalar:
        return FresnelPair(float(c[0]), float(s[0]))
    return FresnelPair(c, s)


def scaled_fresnel(x):
    """Shifted Fresnel pair (1/2 + C(x/sqrt(pi)), 1/2 + S(x/sqrt(pi))).

    Runs from (0, 0) at -infinity to (1, 1) at +infinity and satisfies
    sqrt(pi) * first = integral of cos(s^2/2) from -infinity to x.
    Accepts +-inf sentinels.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    cc, ss = fresnel(arr / _SQRT_PI)
    cc = cc + 0.5
    ss = ss + 0.5
    if scalar:
        return float(cc[0]), float(ss[0])
    return cc, ss


# ---------------------------------------------------------------------------
# Complex log-gamma (principal branch) and the Stokes phase
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _lanczos_log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma for Re z >= 0.5."""
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z), continuous off the negative real axis.

    For Re z < 1/2 the value is built by downward recursion
    log Gamma(z) = log Gamma(z + m) - sum log(z + j), which preserves the
    principal branch.  Poles (non-positive integers) raise DomainError.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("log_gamma argument must be finite")
    if _is_nonpositive_integer(z):
        raise DomainError(f"log_gamma pole at z = {z.real:g}")
    if z.real >= 0.5:
        return _lanczos_log_gamma(z)
    m = int(math.ceil(0.5 - z.real))
    shift = 0.0 + 0.0j
    for j in range(m):
        shift += cmath.log(z + j)
    return _lanczos_log_gamma(z + m) - shift


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

_WEBER_SERIES_RADIUS = 3.5
_WEBER_ASYM_RADIUS = 12.0
_WEBER_MAX_ABS_Z = 60.0
_WEBER_MAX_ORDER = 3.0
_WEBER_GUARD = 1e-8
_WEBER_MARCH_STEP = 0.75
_WEBER_TAYLOR_TERMS = 42


def _weber_series(nu: complex, z: complex):
    """Power series around the origin via the two-Kummer representation.

    Returns (D, D') together with a cancellation-based error estimate used
    as an accuracy guard.
    """
    x = 0.5 * z * z

    def kummer(a: complex, b: float):
        term = 1.0 + 0.0j
        total = term
        peak = 1.0
        k = 0
        while k < 500:
            term = term * (a + k) * x / ((b + k) * (k + 1))
            total += term
            at = abs(term)
            if at > peak:
                peak = at
            if at <= 1e-18 * abs(total) and k > 2:
                break
            k += 1
        return total, peak

    m1, p1 = kummer(-0.5 * nu, 0.5)
    dm1, _ = kummer(-0.5 * nu + 1.0, 1.5)
    dm1 *= -0.5 * nu / 0.5
    m2, p2 = kummer(0.5 * (1.0 - nu), 1.5)
    dm2, _ = kummer(0.5 * (1.0 - nu) + 1.0, 2.5)
    dm2 *= 0.5 * (1.0 - nu) / 1.5

    g1 = reciprocal_gamma(0.5 * (1.0 - nu))
    g2 = reciprocal_gamma(-0.5 * nu)
    pref = _SQRT_PI * cmath.exp(0.5 * nu * math.log(2.0) - 0.25 * z * z)
    sq2 = math.sqrt(2.0)

    bracket = g1 * m1 - sq2 * z * g2 * m2
    val = pref * bracket
    # d/dz: prefactor brings -z/2; bracket differentiates with dx/dz = z
    dbracket = g1 * dm1 * z - sq2 * g2 * (m2 + z * z * dm2)
    dval = pref * (dbracket - 0.5 * z * bracket)

    scale = abs(pref) * (abs(g1) * p1 + sq2 * abs(z) * abs(g2) * p2 + 1.0)
    err = scale * 5e-16 / max(abs(val), 1e-300)
    return val, dval, err


def _weber_asym(nu: complex, z: complex):
    """Large-|z| expansion, valid here for |arg z| <= pi/2.

    Returns (D, D', err_estimate); the derivative uses
    D'_nu = nu D_{nu-1} - (z/2) D_nu.
    """

    def tail(order: complex):
        term = 1.0 + 0.0j
        total = term
        best_term = abs(term)
        best_total = total
        z2 = z * z
        k = 1
        while k < 60:
            term = term * (order - (2 * k - 2)) * (order - (2 * k - 1)) * (-1.0) / (
                2.0 * k * z2
            )
            at = abs(term)
            total += term
            if at < best_term:
                best_term = at
                best_total = total
            if at < 1e-18:
                return total, at
            if at > 10.0 * best_term and at > 1e-16:
                # asymptotic tail started diverging; truncate at its optimum
                return best_total, best_term
            k += 1
        return best_total, best_term

    s0, b0 = tail(nu)
    s1, b1 = tail(nu - 1.0)
    lz = cmath.log(z)
    d0 = cmath.exp(nu * lz - 0.25 * z * z) * s0
    dm1 = cmath.exp((nu - 1.0) * lz - 0.25 * z * z) * s1
    dd0 = nu * dm1 - 0.5 * z * d0
    err = max(b0, b1)
    return d0, dd0, err


def _weber_march(nu: complex, z0: complex, w: complex, dw: complex, z1: complex):
    """Taylor-step the ODE w'' = (z^2/4 - nu - 1/2) w from z0 to z1."""
    dist = abs(z1 - z0)
    nsteps = max(1, int(math.ceil(dist / _WEBER_MARCH_STEP)))
    h = (z1 - z0) / nsteps
    a = z0
    for _ in range(nsteps):
        q0 = 0.25 * a * a - nu - 0.5
        q1 = 0.5 * a
        q2 = 0.25
        c = [w, dw]
        for k in range(_WEBER_TAYLOR_TERMS - 2):
            nxt = q0 * c[k] + q1 * (c[k - 1] if k >= 1 else 0.0) + q2 * (
                c[k - 2] if k >= 2 else 0.0
            )
            c.append(nxt / ((k + 1) * (k + 2)))
        w = 0.0 + 0.0j
        dw = 0.0 + 0.0j
        for k in range(len(c) - 1, -1, -1):
            w = w * h + c[k]
            if k >= 1:
                dw = dw * h + k * c[k]
        a = a + h
    return w, dw


def _weber_right(nu: complex, z: complex) -> complex:
    """D_nu(z) for Re z >= 0 (or |arg z| <= pi/2 boundary cases)."""
    az = abs(z)
    if az <= _WEBER_SERIES_RADIUS:
        val, _, err = _weber_series(nu, z)
        if err > _WEBER_GUARD:
            raise AccuracyError(
                f"weber_d cancellation too severe at nu={nu}, z={z} "
                f"(estimated relative error {err:.2e})"
            )
        return val
    direction = z / az
    if az >= _WEBER_ASYM_RADIUS:
        val, _, err = _weber_asym(nu, z)
        if err > _WEBER_GUARD:
            raise AccuracyError(
                f"weber_d asymptotic series not converged at nu={nu}, z={z}"
            )
        return val
    # intermediate ring: march the ODE along the ray, starting from whichever
    # side keeps the recessive/dominant error ratio non-amplifying
    if (z * z).real >= 0.0:
        anchor = _WEBER_ASYM_RADIUS * direction
        w, dw, err = _weber_asym(nu, anchor)
    else:
        anchor = _WEBER_SERIES_RADIUS * direction
        w, dw, err = _weber_series(nu, anchor)
    if err > _WEBER_GUARD:
        raise AccuracyError(
            f"weber_d anchor evaluation inaccurate at nu={nu}, z={z}"
        )
    w, _ = _weber_march(nu, anchor, w, dw, z)
    return w


def _weber(nu: complex, z: complex) -> complex:
    if z.real >= 0.0:
        return _weber_right(nu, z)
    # reflect into the right half-plane; the two connection identities are
    # complex-conjugate partners, chosen so both arguments land at
    # |arg| <= pi/2
    if z.imag >= 0.0:
        c1 = cmath.exp(1j * math.pi * nu)
        c2 = _SQRT_2PI * reciprocal_gamma(-nu) * cmath.exp(0.5j * math.pi * (nu + 1.0))
        other = -1j * z
    else:
        c1 = cmath.exp(-1j * math.pi * nu)
        c2 = _SQRT_2PI * reciprocal_gamma(-nu) * cmath.exp(-0.5j * math.pi * (nu + 1.0))
        other = 1j * z
    t1 = c1 * _weber_right(nu, -z)
    t2 = c2 * _weber_right(-nu - 1.0, other)
    out = t1 + t2
    # measured piece errors are correlated, so even strong cancellation keeps
    # the relative error ~1e-11; this only catches catastrophic loss
    if abs(out) * 1e5 < abs(t1) + abs(t2):
        raise AccuracyError(
            f"weber_d reflection cancellation too severe at nu={nu}, z={z}"
        )
    return out


def weber_d(nu, z) -> complex:
    """Parabolic cylinder function D_nu(z) for complex order and argument.

    Relative error <= 1e-8 over the validated box |z| <= 60,
    max(|Re nu|, |Im nu|) <= 3; arguments outside it raise DomainError,
    and internal cancellation beyond the guard or a subnormal result raises
    AccuracyError rather than returning silent garbage.
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
    if 0.0 < abs(out) < sys.float_info.min:
        # subnormal results keep too few significant bits for the contract;
        # a clean underflow to zero is returned as 0
        raise AccuracyError(f"weber_d subnormal result at nu={nu}, z={z}")
    return out
