"""High-accuracy propagation of the two-level Schrodinger equation, and of
the Bloch vector as its SO(3) image.

Ground truth for every closed-form claim in the package.  There is one
solve: a sixth-order Magnus integrator with three Gauss points (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), Omega^[6]).  It works in the
interaction frame of the exact longitudinal phase
theta(tau) = tau^2/2 + eps0*tau + (A/omega) sin(omega*tau), where the
generator is the transverse field rotated by -theta,
g = b_x (cos theta, -sin theta, 0), written g_x + i g_y = b_x e^{-i theta}.
The frame has no formula of its own: theta is ``model.longitudinal_phase``
and b_x is ``model.transverse_field``, both read on the working config
(``DriveConfig.working()``: sweep units, or the raw clock when v = 0) that
``solve_ivp`` takes.  A step of length h evaluates g_1, g_2, g_3 at
t + h (1/2 - sqrt(15)/10, 1/2, 1/2 + sqrt(15)/10) and forms

    a1 = h g2,   a2 = (sqrt(15)/3) h (g3 - g1),   a3 = (10/3) h (g3 - 2 g2 + g1),
    c = a1 + a3/12 + [-20 a1 - a3 + [a1, a2], a2 - [a1, 2 a3 + [a1, a2]]/60] / 240,

the su(2) reduction of Omega^[6] in which every commutator is a cross
product.  The step is the Cayley-Klein pair of exp(-i c.sigma/2) from the
shared exponential ``su2.exp``, so propagation is unitary by construction,
and a vanishing transverse field gives exactly the identity.  Steps are
evaluated in numpy blocks of 2^12, small enough for each temporary to stay
in the L2 cache.  Pairs compose with ``@``: the steps inside one sample
interval are multiplied with ``su2.tree_product``, and the running
products of ``su2.prefix_scan`` carry the state across the samples.  Sampled
states are mapped back to the diabatic basis, so trajectories are reported
in the lab frame.

The step count follows tol by a ladder of passes.  The first pass takes
about one step per 4 radians of a bound on the frame's fastest rate over
the sample times (``_rate``), and the second
twice as many per sample interval.  A pass with M steps per interval is
accepted once the Richardson estimate max |psi_M - psi_N| / ((M/N)^6 - 1)
over every sampled amplitude is <= tol, where the pass before had N.
After a miss the h^6 law sets the next M to M (2 est/tol)^(1/6), aiming at
tol/2 (Hairer, Norsett & Wanner, Solving ODEs I, II.4), kept between
M + max(1, M/4) and 4M, and to no more than 2M when the law has 2M meet
tol.  Past a step budget ``solve_ivp`` raises IntegrationError itself, at
the first sample whose estimate misses tol.  ``propagate_tdse`` rotates the
initial state into the frame, makes that one call, and rotates the samples
back.  Every trajectory carries the work done, the error estimate and the
wall time in its ``stats``.  The estimate is not an upper bound on the
error: on the resonance-sweep cell delta = 0.0075, eps0 = 0.5283, A = 29,
omega = 100, phi = 5.6675 at tol 1e-10 the error against a tol-1e-13 solve
is 7.9e-12 where the estimate reads 3.3e-12.

The Bloch flow du/dtau = b x u is the rotation that the SU(2) propagator
induces, so it is linear in u: a Bloch trajectory is the image of the
spinor trajectory that starts on the direction of u0, scaled by |u0|.

Norm drift beyond 1e-9 raises IntegrationError instead of being
renormalized away, so defects in the products or the frame mapping cannot
hide; integrator error shows only in the Richardson estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from . import su2
from .errors import DomainError, IntegrationError
from .model import DriveConfig, longitudinal_phase, transverse_field
from .su2 import CayleyKlein

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
_BLOCK = 2**12  # Magnus steps per numpy block: each temporary (64 KB) stays in L2
_MAX_STEPS = 2**22  # step budget of one pass of the ladder
_FIRST_PASS = 0.25  # steps per radian of the rate bound in the first pass
# the three Gauss points of a step at h (1/2 + (-1, 0, 1) sqrt(15)/10), on a leading axis
_NODES = 0.5 + np.array([-1.0, 0.0, 1.0])[:, None, None] * (math.sqrt(15.0) / 10.0)
_NODE_W = math.sqrt(15.0) / 3.0  # weight of g3 - g1 in a2
_UP = np.array([1.0 + 0.0j, 0.0 + 0.0j])
_NORTH = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class SolveStats:
    """How a trajectory was produced: Magnus steps of the returned pass,
    field evaluations (three per step) summed over every pass of the step
    ladder, the Richardson error estimate of the returned amplitudes (the
    pass-to-pass difference over (M/N)^6 - 1), and wall time in seconds.
    The estimate is not an upper bound: the true error can exceed it, by
    2.4x on one resonance-sweep cell at tol 1e-10."""

    steps: int
    nfev: int
    error_estimate: float
    wall_s: float


@dataclass
class Trajectory:
    """Sampled time evolution plus the settings that produced it."""

    taus: np.ndarray
    data: np.ndarray  # (N, 2) complex amplitudes or (N, 3) Bloch components
    cfg: DriveConfig
    tol: float
    stride: float
    stats: SolveStats

    def populations(self) -> np.ndarray:
        """(N, 2) array of (p_up, p_dn) along the trajectory."""
        return populations(self.data)

    def final_populations(self) -> tuple[float, float]:
        p = self.populations()
        return float(p[-1, 0]), float(p[-1, 1])


def _rate(c: DriveConfig, t_max: float) -> float:
    """A bound on how fast the generator b_x e^{-i theta} of the working
    config c turns or grows inside [-t_max, t_max]."""
    return (c.v * t_max + abs(c.eps0) + abs(c.amp_rf) + abs(c.freq_rf) + abs(c.freq_mw)
            + abs(c.delta) + abs(c.amp_mw))


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


def _step_pairs(c: DriveConfig, t, h) -> CayleyKlein:
    """Cayley-Klein pairs of the Magnus-6 steps [t, t + h] of the working
    config c, each the shared exponential exp(-i c.sigma/2)."""
    tn = t + _NODES * h
    # g_x + i g_y at the three Gauss points
    g1, g2, g3 = transverse_field(tn, c) * np.exp(-1j * longitudinal_phase(tn, c))
    a1 = h * g2
    a2 = (_NODE_W * h) * (g3 - g1)
    a3 = (10.0 / 3.0) * h * (g3 - 2.0 * g2 + g1)
    # in-plane vectors u, v: [u, v] = Im(conj(u) v) z, [u, c z] = -i c u
    c1 = (a1.conj() * a2).imag  # [a1, a2] = c1 z
    m = (a1.conj() * a3).imag / -30.0  # z part of -[a1, 2 a3 + [a1, a2]] / 60
    p = -20.0 * a1 - a3  # -20 a1 - a3 + [a1, a2] = p + c1 z
    q = a2 + (1j / 60.0) * c1 * a1  # a2 - [a1, 2 a3 + [a1, a2]] / 60 = q + m z
    zeta = a1 + a3 / 12.0 + (1j / 240.0) * (c1 * q - m * p)  # c_x + i c_y
    cz = (p.conj() * q).imag / 240.0
    return su2.exp(zeta, cz)


def _interval_pairs(c: DriveConfig, edges: np.ndarray, m: int) -> CayleyKlein:
    """Cayley-Klein pairs of the propagator of the working config c across
    each sample interval, each split into m equal Magnus steps."""
    starts, h = edges[:-1], np.diff(edges) / m
    per = max(1, _BLOCK // m)  # whole intervals in one block
    parts = -(-m // _BLOCK)  # blocks in one interval
    cuts = [p * m // parts for p in range(parts + 1)]
    out = []
    for i in range(0, h.size, per):
        lo, hk = starts[i:i + per, None], h[i:i + per, None]
        u = CayleyKlein(np.ones(lo.shape[0], complex), np.zeros(lo.shape[0], complex))
        for j0, j1 in zip(cuts, cuts[1:]):
            u = su2.tree_product(_step_pairs(c, lo + hk * np.arange(j0, j1), hk)) @ u
        out.append(u)
    return CayleyKlein(*(np.concatenate(part) for part in zip(*out)))


def _running_product(steps: CayleyKlein, y0) -> np.ndarray:
    """(2, len(steps.a) + 1) states y_{k+1} = U_k y_k from y_0 = y0, from the
    prefix products U_k ... U_0 of a log-depth scan."""
    return np.concatenate((np.reshape(y0, (2, 1)), su2.prefix_scan(steps).apply(*y0)), axis=1)


class MagnusResult(NamedTuple):
    """Outcome of one accepted Magnus solve."""

    y: np.ndarray  # (2, len(taus)) interaction-frame amplitudes
    steps: int
    nfev: int
    error_estimate: float


def solve_ivp(c: DriveConfig, taus, y0, tol: float) -> MagnusResult:
    """Magnus-6 solve of the interaction-frame amplitudes of the working
    config c (``DriveConfig.working()``) at the sample times taus (taus[0]
    is the start; decreasing times run backwards).

    The first pass takes about one step per 4 radians of the frame's fastest
    rate on the sample times and the second doubles the steps per sample
    interval; each later pass takes the count that the h^6 law predicts, until
    max |psi_M - psi_N| / ((M/N)^6 - 1) <= tol.  When the next pass would
    exceed the step budget it raises IntegrationError at the first sample
    whose estimate misses tol, or at taus[0] when the first pass alone fills
    the budget.  This is the module's solver entry point under the name
    ``perfbench/tracer.py`` counts (calls and ``nfev``), so it stays bound
    here as ``solve_ivp``, is called through that binding, and stays
    outside ``__all__``."""
    edges = np.asarray(taus, dtype=float)
    n_int = edges.size - 1
    longest = float(np.max(np.abs(np.diff(edges))))
    rate = _rate(c, float(np.max(np.abs(edges))))
    m = 1 << max(0, math.ceil(math.log2(max(1.0, _FIRST_PASS * longest * rate))))
    nfev, prev, err, m_next = 0, None, None, 2 * m
    while m * n_int <= _MAX_STEPS:
        y = _running_product(_interval_pairs(c, edges, m), y0)
        nfev += 3 * m * n_int
        if prev is not None:
            err = np.max(np.abs(y - prev), axis=0) / ((m / m_prev) ** 6 - 1.0)
            est = float(err.max())
            if est <= tol:
                return MagnusResult(y, m * n_int, nfev, est)
            # the h^6 law puts tol/2 at m (2 est/tol)^(1/6) steps (min()
            # keeps 4.0 when the estimate is inf or NaN), but a doubling
            # that the law says meets tol is taken as it is
            grow = min(4.0, (2.0 * est / tol) ** (1.0 / 6.0))
            m_next = max(m + max(1, m // 4), math.ceil(m * grow))
            if est <= 64.0 * tol:
                m_next = min(m_next, 2 * m)
        prev, m_prev, m = y, m, m_next
    if err is None:
        k, why = 0, f"step ladder needs more than {_MAX_STEPS} steps"
    else:
        k = int(np.argmax(err > tol))
        why = (f"error estimate {est:.3e} exceeds tol {tol:g} at the budget of "
               f"{_MAX_STEPS} steps")
    t_fail = float(edges[k])
    raise IntegrationError(f"propagation failed near tau = {t_fail:.6g}: {why}", tau=t_fail)


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
    if not (abs(norm0 - 1.0) <= 1e-9):  # NaN fails this too
        raise DomainError("psi0 must be finite and normalized")
    start = perf_counter()
    c = cfg.working()
    span = tau_end - tau_start
    rate = _rate(c, max(abs(tau_start), abs(tau_end)))
    if not (span / sample_stride <= _MAX_STEPS and _FIRST_PASS * span * rate <= _MAX_STEPS):
        # each sample interval takes at least one step, and the first pass
        # one per 4 radians of the frame's rate, so this solve can never fit
        # the budget; refuse before allocating the grid or evaluating theta
        raise IntegrationError(
            f"propagation failed near tau = {tau_start:.6g}: step ladder needs "
            f"more than {_MAX_STEPS} steps",
            tau=tau_start,
        )
    taus = _sample_grid(tau_start, tau_end, sample_stride)
    half0 = 0.5 * longitudinal_phase(tau_start, c)
    rot0 = complex(math.cos(half0), math.sin(half0))
    sol = solve_ivp(c, taus, np.array([psi0[0] * rot0, psi0[1] / rot0]), tol)
    rot = np.exp(-0.5j * longitudinal_phase(taus, c))
    states = np.stack([sol.y[0] * rot, sol.y[1] / rot], axis=-1)
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
    return Trajectory(taus, states, cfg, tol, sample_stride, stats)


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
    if not (r0 <= 1.0 + 1e-9):  # NaN fails this too
        raise DomainError("u0 must be finite with |u0| <= 1")
    psi0 = _bloch_to_spinor(u0 / r0) if r0 > 0.0 else _UP
    tr = propagate_tdse(cfg, psi0, tau_start, tau_end, tol, sample_stride)
    return Trajectory(tr.taus, r0 * spinor_to_bloch(tr.data), cfg, tol, sample_stride,
                      tr.stats)


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
