"""Independent second forms of production quantities, used only as test
oracles.

Each function computes something the package already computes, by a
different route: the amplitude and Bloch equations solved with an adaptive
Runge-Kutta pair (DOP853) in their rotating frame, the passage propagator
multiplied out by hand, the strong-drive exponent regrouped or specialized
to zero static shift, and u_z through the pairwise F/G kernels.  The
package keeps one production path per quantity; these stay here so that
path is checked against something other than itself.
"""

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

from lzdrive.analytic import _resonant_couplings, transfer_matrix
from lzdrive.blochpert import _harmonic_grid, default_truncation, fg_kernels
from lzdrive.errors import IntegrationError, OffResonanceError
from lzdrive.model import HarmonicIndex
from lzdrive.specfun import bessel_j

_RES_TOL = 1e-6


def _rotating_frame(cfg):
    """(theta, b_x) as scalar functions of tau.  The frame removes
    theta(tau) = ramp*tau^2/2 + eps0*tau + (A/omega) sin(omega*tau) about z,
    leaving the transverse field rotated by -theta."""
    c = cfg.reduced() if cfg.swept else cfg
    ramp = 1.0 if cfg.swept else 0.0
    delta, eps0, a, w = c.delta, c.eps0, c.amp_rf, c.freq_rf
    af, wf, phi = c.amp_mw, c.freq_mw, c.phase
    aw = a / w if a != 0.0 else 0.0

    def theta(t):
        s = 0.5 * ramp * t * t + eps0 * t
        if aw != 0.0:
            s += aw * math.sin(w * t)
        return s

    def bx(t):
        return delta + (af * math.cos(wf * t + phi) if af != 0.0 else 0.0)

    return theta, bx


def _dop853(rhs, y0, t0, t1, tol, t_eval, what):
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=tol,
                    atol=tol * 1e-2, t_eval=t_eval, max_step=abs(t1 - t0) / 16.0)
    if not sol.success:
        raise IntegrationError(f"oracle {what} solve failed: {sol.message}")
    return sol


def evolve_tdse(cfg, psi0, t0, t1, tol, t_eval=None):
    """Rotating-frame amplitude solve with DOP853 at the production
    tolerances; returns (taus, lab-frame amplitudes)."""
    theta, bx = _rotating_frame(cfg)

    def rhs(t, y):
        th = theta(t)
        f = -0.5j * bx(t) * complex(math.cos(th), math.sin(th))
        return (f * y[1], -f.conjugate() * y[0])

    rot0 = cmath.exp(0.5j * theta(t0))
    y0 = np.array([psi0[0] * rot0, psi0[1] / rot0], dtype=complex)
    sol = _dop853(rhs, y0, t0, t1, tol, t_eval, "amplitude")
    rot = np.exp(-0.5j * np.array([theta(float(t)) for t in sol.t]))
    return sol.t, np.column_stack([sol.y[0] * rot, sol.y[1] / rot])


def evolve_bloch(cfg, u0, t0, t1, tol, t_eval=None):
    """Rotating-frame Bloch solve of du/dtau = b x u with DOP853 at the
    production tolerances; returns (taus, lab-frame vectors)."""
    theta, bx = _rotating_frame(cfg)

    def rhs(t, y):
        b = bx(t)
        th = theta(t)
        gx = b * math.cos(th)
        gy = -b * math.sin(th)
        return (gy * y[2], -gx * y[2], gx * y[1] - gy * y[0])

    th0 = theta(t0)
    c0, s0 = math.cos(th0), math.sin(th0)
    w0 = np.array(
        [c0 * u0[0] + s0 * u0[1], -s0 * u0[0] + c0 * u0[1], u0[2]], dtype=float
    )
    sol = _dop853(rhs, w0, t0, t1, tol, t_eval, "Bloch")
    taus = sol.t
    th = np.array([theta(float(t)) for t in taus])
    ct, st = np.cos(th), np.sin(th)
    out = np.empty((taus.size, 3))
    out[:, 0] = ct * sol.y[0] - st * sol.y[1]
    out[:, 1] = st * sol.y[0] + ct * sol.y[1]
    out[:, 2] = sol.y[2]
    return taus, out


def passage_entries_expanded(cfg):
    """(c, d) of the ordered product S_minus S_zero S_plus at photon index 0,
    written out entry by entry so the interference structure stays
    explicit."""
    sm = transfer_matrix(HarmonicIndex(0, -1), cfg)
    s0 = transfer_matrix(HarmonicIndex(0, 0), cfg)
    sp = transfer_matrix(HarmonicIndex(0, 1), cfg)
    am, a0, ap = sm.ck.a, s0.ck.a, sp.ck.a
    bm, b0, bp = sm.ck.b, s0.ck.b, sp.ck.b
    pm, p0, pp = sm.psi, s0.psi, sp.psi
    c = ap * (
        a0 * am - b0.conjugate() * bm * cmath.exp(-1j * (p0 - pm))
    ) - bp.conjugate() * (
        am * b0 * cmath.exp(1j * (p0 - pp))
        + a0.conjugate() * bm * cmath.exp(1j * (pm - pp))
    )
    d = bm * cmath.exp(1j * pm) * (
        a0.conjugate() * ap.conjugate()
        - b0.conjugate() * bp * cmath.exp(-1j * (p0 - pp))
    ) + am * (
        ap.conjugate() * b0 * cmath.exp(1j * p0) + a0 * bp * cmath.exp(1j * pp)
    )
    return c, d


def strong_drive_delta_regrouped(cfg):
    """Algebraically regrouped form of the strong-drive exponent:
    [J_0 + sum_{alpha != 0} J_alpha cos(phi_alpha)]^2 plus the sine square."""
    (jm, pm), (j0, _), (jp, pp) = _resonant_couplings(cfg)
    head = (j0 + jp * math.cos(pp) + jm * math.cos(pm)) ** 2
    tail = (jp * math.sin(pp) + jm * math.sin(pm)) ** 2
    return head + tail


def strong_drive_delta_zero_shift(cfg):
    """Zero-static-shift form of the strong-drive exponent with sideband
    index Q = freq_mw/freq_rf (requires eps0 = 0 and integer Q)."""
    c = cfg.reduced()
    if c.eps0 != 0.0:
        raise OffResonanceError("zero-shift form requires eps0 = 0")
    if c.freq_rf <= 0.0:
        raise OffResonanceError("zero-shift form needs freq_rf > 0")
    q_ratio = c.freq_mw / c.freq_rf
    q = round(q_ratio)
    if abs(q_ratio - q) > _RES_TOL:
        raise OffResonanceError(f"freq_mw/freq_rf = {q_ratio:.9g} is not an integer")
    x = c.rf_ratio()
    j_static = 0.5 * c.delta * bessel_j(0, x)
    j_minus_q = 0.25 * c.amp_mw * bessel_j(-q, x)  # alpha = +1 sideband
    j_plus_q = 0.25 * c.amp_mw * bessel_j(q, x)  # alpha = -1 sideband
    cos_phi = math.cos(c.phase)
    sin_phi = math.sin(c.phase)
    return (j_static + (j_minus_q + j_plus_q) * cos_phi) ** 2 + (
        (j_minus_q - j_plus_q) * sin_phi
    ) ** 2


def bloch_perturbative_pairform(tau, cfg, trunc=None):
    """u_z through the pairwise-kernel form:
    1 - 4*pi * sum over harmonic pairs of J J' [cos(dPsi) F+ - sin(dPsi) G-].

    Quadratic in the truncated grid size; meant for spot checks."""
    if trunc is None:
        trunc = default_truncation(cfg)
    couplings, offsets, phases, _, _ = _harmonic_grid(cfg, trunc)
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    t = np.atleast_1d(tau)
    out = np.empty(t.shape)
    dpsi = phases[:, None] - phases[None, :]
    jj = couplings[:, None] * couplings[None, :]
    cos_d = np.cos(dpsi)
    sin_d = np.sin(dpsi)
    for i, ti in enumerate(t):
        x = ti + offsets
        f_plus, _, _, g_minus = fg_kernels(x[:, None], x[None, :])
        out[i] = 1.0 - 4.0 * math.pi * np.sum(jj * (cos_d * f_plus - sin_d * g_minus))
    if scalar:
        return float(out[0])
    return out
