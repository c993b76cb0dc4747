"""Independent second forms of production quantities, used only as test
oracles.

Each function computes something the package already computes, by a
different route: the amplitude and Bloch equations solved with an adaptive
Runge-Kutta pair (DOP853) in their rotating frame, the passage propagator
multiplied out by hand and its |c|^2 as a four-path interference sum (both
from the Cayley-Klein pairs, signed couplings and passage phases, without
``transfer_matrix``), the strong-drive exponent regrouped or specialized to
zero static shift, the Magnus generator zeta with one Fresnel pair per
(n, alpha) column, u_z through the pairwise F/G kernels, the finite-window
Cayley-Klein pair from six direct Weber evaluations, and the exported CSV
rows and sample labels with one ``format(x, ".17g")`` call per value.  The package
keeps one production path per quantity; these stay here so that path is
checked against something other than itself.
"""

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

from lzdrive.analytic import CayleyKlein, caley_klein_asymptotic, resonance_index
from lzdrive.blochpert import default_truncation, fg_kernels
from lzdrive.errors import DomainError, IntegrationError, OffResonanceError
from lzdrive.model import ALPHAS, HarmonicIndex, crossings
from lzdrive.specfun import bessel_j, log_gamma, scaled_fresnel, weber_d

_RES_TOL = 1e-6
_DELTA_FLOOR = 1e-14
_EIGHTH_TURN = cmath.exp(-0.25j * math.pi)


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


def _passage_branches(cfg):
    """[(a, b, psi)] of the photon-index-0 crossings, alpha = -1, 0, +1:
    the asymptotic pair of exponent J^2 with b negated when J < 0, and the
    passage phase kept apart from b."""
    out = []
    for alpha in ALPHAS:
        x = crossings(HarmonicIndex(0, alpha), cfg)
        j = x.coupling
        ck = caley_klein_asymptotic(j * j)
        out.append((ck.a, -ck.b if j < 0.0 else ck.b, x.phase))
    return out


def passage_entries_expanded(cfg):
    """(c, d) of the ordered product S_minus S_zero S_plus at photon index 0,
    written out entry by entry so the interference structure stays
    explicit."""
    (am, bm, pm), (a0, b0, p0), (ap, bp, pp) = _passage_branches(cfg)
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


def weak_drive_four_path(cfg):
    """(p_up, p_dn) after one passage via the four-path interference sum.

    Each path amplitude is a product of the moduli |a| and |b| of the
    photon-index-0 pairs; each relative phase combines passage-phase and
    Stokes-phase (chi = -arg b) differences.  A branch with b = 0 has no
    Stokes phase, but every path that would use it carries the factor
    |b| = 0."""
    branches = [(a.real, abs(b), psi, -cmath.phase(b))
                for a, b, psi in _passage_branches(cfg)]
    (am, bm, pm, cm), (a0, b0, p0, c0), (ap, bp, pp, cp) = branches
    amp = (am * a0 * ap, -(bm * b0 * ap), -(am * b0 * bp), -(bm * a0 * bp))
    xi2 = (p0 - pm) - (c0 - cm)
    xi3 = (p0 - pp) - (c0 - cp)
    xi4 = (pm - pp) - (cm - cp)
    # xi2 enters the amplitude sum with the opposite sign of the other two
    ph = (0.0, -xi2, xi3, xi4)
    p_up = abs(sum(m * cmath.exp(1j * p) for m, p in zip(amp, ph))) ** 2
    p_up = min(1.0, max(0.0, p_up))
    return p_up, 1.0 - p_up


def caley_klein_finite_six_calls(delta, z_start, z_end):
    """``caley_klein_finite`` with every Weber value a ``weber_d`` call of its
    own: D_nu(+-i z) at both ends and D_{nu-1}(+-i z) at the start, so the
    three values in the left half-plane each take ``weber_d``'s reflection,
    and the gamma value g from a separate log Gamma(1 + i delta)."""
    if not math.isfinite(delta) or delta < 0.0:
        raise DomainError("delta must be finite and >= 0")
    z_start = complex(z_start)
    z_end = complex(z_end)
    if delta < _DELTA_FLOOR or z_start == z_end:
        return CayleyKlein(1.0 + 0.0j, 0.0 + 0.0j)
    nu = -1j * delta
    dp_f = weber_d(nu, -1j * z_end)
    dm_f = weber_d(nu, 1j * z_end)
    dp_i = weber_d(nu, 1j * z_start)
    dm_i = weber_d(nu, -1j * z_start)
    dp1_i = weber_d(nu - 1.0, 1j * z_start)
    dm1_i = weber_d(nu - 1.0, -1j * z_start)
    g = cmath.exp(log_gamma(1.0 + 1j * delta)) / math.sqrt(2.0 * math.pi)
    q_f, q_i = 0.25 * z_end * z_end, 0.25 * z_start * z_start
    a = g * cmath.exp(q_i - q_f) * (dp_f * dp1_i + dm_f * dm1_i)
    b = -g * _EIGHTH_TURN / math.sqrt(delta) * cmath.exp(-q_i - q_f) * (
        dp_f * dp_i - dm_f * dm_i
    )
    return CayleyKlein(a, b)


def strong_drive_delta_regrouped(cfg):
    """Algebraically regrouped form of the strong-drive exponent:
    [J_0 + sum_{alpha != 0} J_alpha cos(phi_alpha)]^2 plus the sine square,
    with phi_alpha = alpha*phi, one scalar coupling per resonant branch."""
    jm, j0, jp = (float(crossings(HarmonicIndex(resonance_index(a, cfg), a), cfg).coupling)
                  for a in ALPHAS)
    pm, pp = -cfg.phase, cfg.phase
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


def zeta_per_column(tau, cfg, trunc):
    """zeta(tau) with one shifted Fresnel pair per (n, alpha) column of the
    crossing table, |n| <= n_max, whether or not two columns share an offset:
    2 sqrt(pi) sum_k J_k e^{i Psi_k} (C_k - i S_k), one complex product per
    column summed in column order; of shape tau, which may hold +inf."""
    trunc.validate_for(cfg)
    n = np.arange(-trunc.n_max, trunc.n_max + 1)
    x = crossings(HarmonicIndex(n, np.array(ALPHAS)[:, None]), cfg)
    tau = np.asarray(tau, dtype=float)
    cc, ss = scaled_fresnel(tau[..., None] + x.offset.ravel())
    w = 2.0 * math.sqrt(math.pi) * x.coupling.ravel() * np.exp(1j * x.phase.ravel())
    return np.sum(w * (cc - 1j * ss), axis=-1)


def bloch_perturbative_pairform(tau, cfg, trunc=None):
    """u_z through the pairwise-kernel form:
    1 - 4*pi * sum over harmonic pairs of J J' [cos(dPsi) F+ - sin(dPsi) G-].

    Quadratic in the truncated grid size; meant for spot checks."""
    if trunc is None:
        trunc = default_truncation(cfg)
    trunc.validate_for(cfg)
    n = np.arange(-trunc.n_max, trunc.n_max + 1)
    x = crossings(HarmonicIndex(n, np.array(ALPHAS)[:, None]), cfg)
    couplings, offsets, phases = x.coupling.ravel(), x.offset.ravel(), x.phase.ravel()
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


def rowwise_csv(header, table):
    """CSV text rendered row by row, one ``format(x, ".17g")`` per value."""
    rows = (",".join(format(float(x), ".17g") for x in row) + "\n" for row in table)
    return header + "\n" + "".join(rows)


def rowwise_labels(names, var, values):
    """f"{name}@{var}={v}" per value and, within it, per name, with v from
    one ``format(v, ".17g")`` call each."""
    return [f"{name}@{var}={format(float(v), '.17g')}" for v in values for name in names]
