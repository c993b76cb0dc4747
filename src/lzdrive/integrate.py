"""High-accuracy propagation of the two-level Schrodinger equation, and of
the Bloch vector as its SO(3) image.

Ground truth for every closed-form claim in the package.  There is one
solve: a fourth-order Magnus integrator with two Gauss points (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  It works in the
interaction frame of the exact longitudinal phase
theta(tau) = tau^2/2 + eps0*tau + (A/omega) sin(omega*tau), where the
generator is the transverse field rotated by -theta,
g = b_x (cos theta, -sin theta, 0).  A step of length h is the closed-form
SU(2) rotation exp(-i c.sigma/2) with

    c = h/2 (g1 + g2) + (sqrt(3) h^2 / 12) (0, 0, b_x1 b_x2 sin(theta2 - theta1)),

the second term being g2 x g1 at the Gauss points.  Propagation is
therefore unitary by construction, and a vanishing transverse field gives
exactly the identity.  Steps are evaluated in numpy blocks of bounded size;
the steps inside one sample interval are multiplied with a pairwise tree,
and a running product carries the state across the samples.  Sampled states
are mapped back to the diabatic basis, so trajectories are reported in the
lab frame.

The step count follows tol by step doubling: the solve with 2N steps per
sample interval is accepted once the Richardson estimate
max |psi_2N - psi_N| / 15 over every sampled amplitude is <= tol.  Past a
step budget the solve raises IntegrationError.  Every trajectory carries the
work done, the error estimate and the wall time in its ``stats``.

The Bloch flow du/dtau = b x u is the rotation that the SU(2) propagator
induces, so it is linear in u: a Bloch trajectory is the image of the
spinor trajectory that starts on the direction of u0, scaled by |u0|.

Norm drift beyond 1e-9 raises IntegrationError instead of being
renormalized away, so defects in the products or the frame mapping cannot
hide; integrator error is what the step-doubling estimate measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, IntegrationError
from .model import DriveConfig

__all__ = [
    "SolveStats",
    "Trajectory",
    "propagate_tdse",
    "propagate_bloch",
    "populations",
    "bloch_angles",
    "spinor_to_bloch",
]

_NORM_TOL = 1e-9
_TOL_MIN, _TOL_MAX = 1e-13, 1e-6
_BLOCK = 2**15  # Magnus steps evaluated per numpy block; bounds peak memory
_MAX_STEPS = 2**22  # step budget of one doubling pass
_GAUSS = math.sqrt(3.0) / 6.0  # Gauss points at h (1/2 -+ sqrt(3)/6)
_COMM = math.sqrt(3.0) / 12.0  # weight of the commutator term
_UP = np.array([1.0 + 0.0j, 0.0 + 0.0j])
_NORTH = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class SolveStats:
    """How a trajectory was produced: Magnus steps of the returned pass,
    field evaluations summed over all doubling passes, the Richardson
    error estimate of the returned amplitudes, and wall time in seconds."""

    steps: int
    nfev: int
    error_estimate: float
    wall_s: float


@dataclass
class Trajectory:
    """Sampled time evolution plus the settings that produced it."""

    taus: np.ndarray
    kind: str  # "spinor" or "bloch"
    data: np.ndarray  # (N, 2) complex amplitudes or (N, 3) Bloch components
    cfg: DriveConfig
    tol: float
    stride: float
    stats: SolveStats

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


class _Frame(NamedTuple):
    """The interaction frame of one config: theta(tau) and b_x(tau) (both
    vectorized), and a bound on how fast the generator turns or grows."""

    theta: Callable
    bx: Callable
    rate: float


def _make_frame(cfg: DriveConfig, t_max: float) -> _Frame:
    """The frame in the working time unit (sweep units, or the raw clock
    when v = 0) for windows inside [-t_max, t_max]."""
    c = cfg.reduced() if cfg.swept else cfg
    ramp = 1.0 if cfg.swept else 0.0
    delta, eps0, a, w = c.delta, c.eps0, c.amp_rf, c.freq_rf
    af, wf, phi = c.amp_mw, c.freq_mw, c.phase
    aw = a / w if a != 0.0 else 0.0

    def theta(t):
        s = 0.5 * ramp * t * t + eps0 * t
        if aw != 0.0:
            s = s + aw * np.sin(w * t)
        return s

    def bx(t):
        if af == 0.0:
            return delta
        return delta + af * np.cos(wf * t + phi)

    rate = (abs(ramp) * t_max + abs(eps0) + abs(a) + abs(w) + abs(wf)
            + abs(delta) + abs(af))
    return _Frame(theta, bx, rate)


def _sample_grid(tau_start: float, tau_end: float, stride: float) -> np.ndarray:
    n = int(math.floor((tau_end - tau_start) / stride * (1.0 + 1e-12))) + 1
    taus = tau_start + stride * np.arange(n)
    if taus[-1] < tau_end - 1e-9 * stride:
        taus = np.append(taus, tau_end)
    else:
        taus[-1] = tau_end
    return taus


def _validate_window(tau_start, tau_end, tol, stride):
    if not (math.isfinite(tau_start) and math.isfinite(tau_end)):
        raise DomainError("tau_start and tau_end must be finite")
    if not (tau_start < tau_end):
        raise DomainError("tau_start must be < tau_end")
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise DomainError(f"tol must lie in [{_TOL_MIN:g}, {_TOL_MAX:g}]")
    if not (math.isfinite(stride) and stride > 0.0):
        raise DomainError("sample_stride must be positive and finite")


def _step_pairs(frame: _Frame, t, h):
    """Cayley-Klein pairs (a, b) of the Magnus-4 steps [t, t + h]; the step
    is [[a, b], [-conj(b), conj(a)]] = exp(-i c.sigma/2)."""
    t1 = t + (0.5 - _GAUSS) * h
    t2 = t + (0.5 + _GAUSS) * h
    b1, b2 = frame.bx(t1), frame.bx(t2)
    e1, e2 = np.exp(-1j * frame.theta(t1)), np.exp(-1j * frame.theta(t2))
    zeta = 0.5 * h * (b1 * e1 + b2 * e2)  # c_x + i c_y
    cz = _COMM * h * h * b1 * b2 * (e1 * e2.conj()).imag
    norm = np.sqrt(zeta.real**2 + zeta.imag**2 + cz * cz)
    s = 0.5 * np.sinc(norm / (2.0 * math.pi))  # sin(|c|/2) / |c|
    return np.cos(0.5 * norm) - 1j * (s * cz), -1j * s * zeta.conj()


def _compose(a2, b2, a1, b1):
    """Cayley-Klein pair of the product U2 U1."""
    return a2 * a1 - b2 * b1.conj(), a2 * b1 + b2 * a1.conj()


def _tree_product(a, b):
    """Ordered product along the last axis (later steps on the left) by
    pairwise reduction; that axis has a power-of-two length."""
    while a.shape[-1] > 1:
        a, b = _compose(a[..., 1::2], b[..., 1::2], a[..., 0::2], b[..., 0::2])
    return a[..., 0], b[..., 0]


def _interval_pairs(frame: _Frame, edges: np.ndarray, m: int):
    """Cayley-Klein pairs of the propagator across each sample interval,
    each split into m (a power of two) equal Magnus steps."""
    starts, h = edges[:-1], np.diff(edges) / m
    per = max(1, _BLOCK // m)  # whole intervals in one block
    parts = max(1, m // _BLOCK)  # blocks in one interval
    k = np.arange(m // parts)
    out_a, out_b = [], []
    for i in range(0, h.size, per):
        lo, hk = starts[i:i + per, None], h[i:i + per, None]
        a, b = np.ones(lo.shape[0], complex), np.zeros(lo.shape[0], complex)
        for p in range(parts):
            pa, pb = _tree_product(*_step_pairs(frame, lo + hk * (p * k.size + k), hk))
            a, b = _compose(pa, pb, a, b)
        out_a.append(a)
        out_b.append(b)
    return np.concatenate(out_a), np.concatenate(out_b)


def _running_product(a, b, y0) -> np.ndarray:
    """(2, len(a) + 1) states y_{k+1} = U_k y_k from y_0 = y0."""
    u, d = complex(y0[0]), complex(y0[1])
    out = [(u, d)]
    for ak, bk in zip(a.tolist(), b.tolist()):
        u, d = ak * u + bk * d, ak.conjugate() * d - bk.conjugate() * u
        out.append((u, d))
    return np.array(out).T


@dataclass
class MagnusResult:
    """Outcome of one Magnus solve, with the fields of scipy's OdeResult
    that callers read.  On failure t and y stop at the first sample whose
    error estimate exceeds tol."""

    t: np.ndarray
    y: np.ndarray  # (2, len(t)) interaction-frame amplitudes
    nfev: int
    steps: int
    error_estimate: float
    success: bool
    message: str


def solve_ivp(frame: _Frame, taus, y0, tol: float) -> MagnusResult:
    """Magnus-4 solve of the interaction-frame amplitudes at the sample
    times taus (taus[0] is the start; decreasing times run backwards).

    The first pass resolves the fastest rate of the frame with one step per
    radian; each further pass doubles the steps per sample interval until
    max |psi_2N - psi_N| / 15 <= tol, or the next pass would exceed the
    step budget.  This is the module's solver entry point under the name
    ``perfbench/tracer.py`` counts (calls and ``nfev``), so it stays bound
    here as ``solve_ivp`` and outside ``__all__``."""
    edges = np.asarray(taus, dtype=float)
    n_int = edges.size - 1
    longest = float(np.max(np.abs(np.diff(edges))))
    m = 1 << max(0, math.ceil(math.log2(max(1.0, longest * frame.rate))))
    nfev, prev, err = 0, None, None
    while m * n_int <= _MAX_STEPS:
        y = _running_product(*_interval_pairs(frame, edges, m), y0)
        nfev += 2 * m * n_int
        if prev is not None:
            err = np.max(np.abs(y - prev), axis=0) / 15.0
            est = float(err.max())
            if est <= tol:
                return MagnusResult(edges, y, nfev, m * n_int, est, True,
                                    "error estimate within tol")
        prev, m = y, 2 * m
    if err is None:
        return MagnusResult(edges[:1], y0[:, None], nfev, 0, math.inf, False,
                            f"step doubling needs more than {_MAX_STEPS} steps")
    k = int(np.argmax(err > tol))
    return MagnusResult(edges[:k + 1], prev[:, :k + 1], nfev, m // 2 * n_int, est,
                        False, f"error estimate {est:.3e} exceeds tol {tol:g} at "
                        f"the budget of {_MAX_STEPS} steps")


def _solve(frame, y0, taus, tol):
    sol = solve_ivp(frame, taus, y0, tol)
    if not sol.success:
        t_fail = float(sol.t[-1])
        raise IntegrationError(
            f"propagation failed near tau = {t_fail:.6g}: {sol.message}", tau=t_fail
        )
    return sol


def _evolve_tdse(cfg, psi0, t0, t1, tol, t_eval=None):
    """Interaction-frame Magnus solve from t0 to t1 (either order), sampled
    at t_eval (default: both ends; t_eval[0] must be t0); returns (the
    solver result, lab-frame amplitudes at sol.t)."""
    taus = np.array([t0, t1]) if t_eval is None else t_eval
    frame = _make_frame(cfg, max(abs(t0), abs(t1)))
    half0 = 0.5 * frame.theta(t0)
    rot0 = complex(math.cos(half0), math.sin(half0))
    y0 = np.array([psi0[0] * rot0, psi0[1] / rot0], dtype=complex)
    sol = _solve(frame, y0, taus, tol)
    rot = np.exp(-0.5j * frame.theta(sol.t))
    states = np.empty((sol.t.size, 2), dtype=complex)
    states[:, 0] = sol.y[0] * rot
    states[:, 1] = sol.y[1] / rot
    return sol, states


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
    sample_stride, always including both window ends, and its ``stats``
    record the steps, field evaluations, error estimate and wall time.
    Raises IntegrationError if the error estimate cannot reach tol within
    the step budget or the norm drifts beyond 1e-9.
    """
    _validate_window(tau_start, tau_end, tol, sample_stride)
    psi0 = _UP if psi0 is None else np.asarray(psi0, dtype=complex)
    if psi0.shape != (2,):
        raise DomainError("psi0 must be a 2-component amplitude vector")
    norm0 = float(psi0[0].real**2 + psi0[0].imag**2 + psi0[1].real**2 + psi0[1].imag**2)
    if abs(norm0 - 1.0) > 1e-9:
        raise DomainError("psi0 must be normalized")
    taus = _sample_grid(tau_start, tau_end, sample_stride)
    start = perf_counter()
    sol, states = _evolve_tdse(cfg, psi0, tau_start, tau_end, tol, t_eval=taus)
    stats = SolveStats(sol.steps, sol.nfev, sol.error_estimate, perf_counter() - start)
    norms = np.abs(states[:, 0]) ** 2 + np.abs(states[:, 1]) ** 2
    drift = np.abs(norms - 1.0)
    k = int(np.argmax(drift))
    if drift[k] > _NORM_TOL:
        raise IntegrationError(
            f"norm drift {drift[k]:.3e} exceeds {_NORM_TOL:g} at tau = "
            f"{taus[k]:.6g}",
            tau=float(taus[k]),
        )
    return Trajectory(taus, "spinor", states, cfg, tol, sample_stride, stats)


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
                      sample_stride, tr.stats)


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
