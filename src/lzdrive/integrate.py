"""High-accuracy propagation of the two-level Schrodinger equation, and of
the Bloch vector as its SO(3) image.

Ground truth for every closed-form claim in the package.  There is one
solve: an adaptive embedded Runge-Kutta pair (DOP853) on the rotating-frame
form of the amplitude equations.  The accumulated longitudinal phase
theta(tau) = tau^2/2 + eps0*tau + (A/omega) sin(omega*tau) is removed
analytically, leaving only the small transverse generator.  This keeps the
norm conserved to well below the 1e-9 contract at the default tolerances and
lets the step size follow the physics instead of the sweep phase.  Sampled
states are mapped back to the diabatic basis, so trajectories are reported
in the lab frame.

The Bloch flow du/dtau = b x u is the rotation that the SU(2) propagator
induces, so it is linear in u: a Bloch trajectory is the image of the
spinor trajectory that starts on the direction of u0, scaled by |u0|.

Norm drift beyond 1e-9 raises IntegrationError instead of being
renormalized away, so integrator defects cannot hide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, IntegrationError
from .model import DriveConfig

__all__ = [
    "Trajectory",
    "propagate_tdse",
    "propagate_bloch",
    "populations",
    "bloch_angles",
    "spinor_to_bloch",
]

_NORM_TOL = 1e-9
_TOL_MIN, _TOL_MAX = 1e-13, 1e-6
_UP = np.array([1.0 + 0.0j, 0.0 + 0.0j])
_NORTH = np.array([0.0, 0.0, 1.0])


@dataclass
class Trajectory:
    """Sampled time evolution plus the settings that produced it."""

    taus: np.ndarray
    kind: str  # "spinor" or "bloch"
    data: np.ndarray  # (N, 2) complex amplitudes or (N, 3) Bloch components
    cfg: DriveConfig
    tol: float
    stride: float

    def populations(self) -> np.ndarray:
        """(N, 2) array of (p_up, p_dn) along the trajectory."""
        return populations(self.data)

    def bloch(self) -> np.ndarray:
        """(N, 3) Bloch components along the trajectory."""
        if self.kind == "bloch":
            return self.data
        return spinor_to_bloch(self.data)

    def final_populations(self) -> tuple[float, float]:
        p = self.populations()
        return float(p[-1, 0]), float(p[-1, 1])


def _reduced_fields(cfg: DriveConfig):
    """(delta, eps0, a, w, af, wf, phi, ramp) in the working time unit."""
    c = cfg.reduced() if cfg.swept else cfg
    ramp = 1.0 if cfg.swept else 0.0
    return c.delta, c.eps0, c.amp_rf, c.freq_rf, c.amp_mw, c.freq_mw, c.phase, ramp


def _make_theta(eps0, a, w, ramp):
    aw = a / w if a != 0.0 else 0.0

    def theta(t: float) -> float:
        s = 0.5 * ramp * t * t + eps0 * t
        if aw != 0.0:
            s += aw * math.sin(w * t)
        return s

    return theta


def _sample_grid(tau_start: float, tau_end: float, stride: float) -> np.ndarray:
    n = int(math.floor((tau_end - tau_start) / stride * (1.0 + 1e-12))) + 1
    taus = tau_start + stride * np.arange(n)
    if taus[-1] < tau_end - 1e-9 * stride:
        taus = np.append(taus, tau_end)
    else:
        taus[-1] = tau_end
    return taus


def _validate_window(tau_start, tau_end, tol, stride):
    if not (tau_start < tau_end):
        raise DomainError("tau_start must be < tau_end")
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise DomainError(f"tol must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}]")
    if stride <= 0.0:
        raise DomainError("sample_stride must be positive")


def _solve(rhs, y0, t0, t1, tol, t_eval):
    sol = solve_ivp(
        rhs,
        (t0, t1),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        t_eval=t_eval,
        max_step=abs(t1 - t0) / 16.0,
    )
    if not sol.success:
        t_fail = float(sol.t[-1]) if sol.t.size else t0
        raise IntegrationError(
            f"propagation failed near tau = {t_fail:.6g}: {sol.message}", tau=t_fail
        )
    return sol


def _evolve_tdse(cfg, psi0, t0, t1, tol, t_eval=None):
    """Rotating-frame TDSE solve; returns (taus, lab-frame amplitudes)."""
    delta, eps0, a, w, af, wf, phi, ramp = _reduced_fields(cfg)
    theta = _make_theta(eps0, a, w, ramp)

    def rhs(t, y):
        bx = delta + (af * math.cos(wf * t + phi) if af != 0.0 else 0.0)
        th = theta(t)
        f = -0.5j * bx * complex(math.cos(th), math.sin(th))
        return (f * y[1], -f.conjugate() * y[0])

    th0 = theta(t0)
    rot0 = complex(math.cos(0.5 * th0), math.sin(0.5 * th0))
    y0 = np.array([psi0[0] * rot0, psi0[1] / rot0], dtype=complex)
    sol = _solve(rhs, y0, t0, t1, tol, t_eval)
    taus = sol.t
    half = 0.5 * np.array([theta(float(t)) for t in taus])
    rot = np.exp(-1j * half)
    states = np.empty((taus.size, 2), dtype=complex)
    states[:, 0] = sol.y[0] * rot
    states[:, 1] = sol.y[1] / rot
    return taus, states


def propagate_tdse(
    cfg: DriveConfig,
    psi0=None,
    tau_start: float = -50.0,
    tau_end: float = 50.0,
    tol: float = 1e-10,
    sample_stride: float = 0.1,
) -> Trajectory:
    """Propagate amplitudes (c_up, c_dn) through the drive window.

    psi0 defaults to the bare up state.  The trajectory is sampled every
    sample_stride, always including both window ends.  Raises
    IntegrationError if the solver fails or the final norm drifts beyond
    1e-9.
    """
    _validate_window(tau_start, tau_end, tol, sample_stride)
    psi0 = _UP if psi0 is None else np.asarray(psi0, dtype=complex)
    if psi0.shape != (2,):
        raise DomainError("psi0 must be a 2-component amplitude vector")
    norm0 = float(psi0[0].real**2 + psi0[0].imag**2 + psi0[1].real**2 + psi0[1].imag**2)
    if abs(norm0 - 1.0) > 1e-9:
        raise DomainError("psi0 must be normalized")
    taus = _sample_grid(tau_start, tau_end, sample_stride)
    got, states = _evolve_tdse(cfg, psi0, tau_start, tau_end, tol, t_eval=taus)
    norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
    drift = np.abs(norms - 1.0)
    k = int(np.argmax(drift))
    if drift[k] > _NORM_TOL:
        raise IntegrationError(
            f"norm drift {drift[k]:.3e} exceeds {_NORM_TOL:g} at tau = "
            f"{got[k]:.6g}",
            tau=float(got[k]),
        )
    return Trajectory(got, "spinor", states, cfg, tol, sample_stride)


def _bloch_to_spinor(u) -> np.ndarray:
    """A spinor whose Bloch vector is the unit vector u."""
    ux, uy, uz = u
    if uz >= 0.0:
        c_up = math.sqrt(0.5 * (1.0 + uz))
        return np.array([c_up, complex(ux, uy) / (2.0 * c_up)])
    c_dn = math.sqrt(0.5 * (1.0 - uz))
    return np.array([complex(ux, -uy) / (2.0 * c_dn), c_dn])


def propagate_bloch(
    cfg: DriveConfig,
    u0=None,
    tau_start: float = -50.0,
    tau_end: float = 50.0,
    tol: float = 1e-10,
    sample_stride: float = 0.1,
) -> Trajectory:
    """Propagate the Bloch vector under du/dtau = b x u.

    u0 defaults to the north pole; |u0| < 1 is allowed and u0 = 0 gives the
    zero trajectory.  The trajectory is |u0| times the Bloch image of the
    spinor propagated from the direction of u0, so it carries the same
    sampling and the same 1e-9 drift check as propagate_tdse.
    """
    u0 = _NORTH if u0 is None else np.asarray(u0, dtype=float)
    if u0.shape != (3,):
        raise DomainError("u0 must be a 3-component Bloch vector")
    r0 = float(np.linalg.norm(u0))
    if r0 > 1.0 + 1e-9:
        raise DomainError("|u0| must not exceed 1")
    psi0 = _bloch_to_spinor(u0 / r0) if r0 > 0.0 else _UP
    tr = propagate_tdse(cfg, psi0, tau_start, tau_end, tol, sample_stride)
    return Trajectory(tr.taus, "bloch", r0 * spinor_to_bloch(tr.data), cfg, tol,
                      sample_stride)


def spinor_to_bloch(state) -> np.ndarray:
    """Map amplitudes to Bloch components (works on (..., 2) arrays)."""
    arr = np.asarray(state, dtype=complex)
    w = np.conj(arr[..., 0]) * arr[..., 1]
    out = np.empty(arr.shape[:-1] + (3,))
    out[..., 0] = 2.0 * w.real
    out[..., 1] = 2.0 * w.imag
    out[..., 2] = np.abs(arr[..., 0]) ** 2 - np.abs(arr[..., 1]) ** 2
    return out


def populations(state) -> np.ndarray:
    """(p_up, p_dn) from either amplitudes (length 2, complex) or a Bloch
    vector (length 3, real); broadcasts over leading axes."""
    arr = np.asarray(state)
    if arr.shape[-1] == 2:
        arr = arr.astype(complex)
        p_up = np.abs(arr[..., 0]) ** 2
        p_dn = np.abs(arr[..., 1]) ** 2
    elif arr.shape[-1] == 3:
        p_up = 0.5 * (1.0 + arr[..., 2].real.astype(float))
        p_dn = 0.5 * (1.0 - arr[..., 2].real.astype(float))
    else:
        raise DomainError("state must have 2 (spinor) or 3 (Bloch) components")
    return np.stack([p_up, p_dn], axis=-1)


def bloch_angles(u) -> tuple[float, float]:
    """(azimuthal, polar) angles of a Bloch vector.

    The azimuthal angle in [0, pi] comes from u_z = |u| cos(theta_az); the
    polar angle in [0, 2*pi) from atan2(u_y, u_x).  A spin flip corresponds
    to theta_az = pi.  The zero vector has no direction and raises.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (3,):
        raise DomainError("u must be a 3-component Bloch vector")
    r = float(np.linalg.norm(u))
    if r == 0.0:
        raise DomainError("bloch_angles undefined for the zero vector")
    theta_az = math.acos(max(-1.0, min(1.0, u[2] / r)))
    theta_pol = math.atan2(u[1], u[0]) % (2.0 * math.pi)
    return theta_az, theta_pol
