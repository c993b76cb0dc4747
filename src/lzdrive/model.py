"""Physical model of the doubly driven two-level crossing.

A qubit is swept through an avoided crossing at rate v while a longitudinal
drive (amplitude A, frequency omega) modulates the detuning and a transverse
drive (amplitude A_f, frequency omega_f, relative phase phi) modulates the
gap.  All parameters are stored in physical units; computations run in the
dimensionless convention tau = t*sqrt(v) with energies measured in sqrt(v),
so a config built with v = 1 is already dimensionless.

The harmonic bookkeeping (photon index n, sub-crossing branch alpha) shared
by every closed-form result lives here: one crossing table, ``crossings``,
gives the level offset, effective coupling and passage phase of every
(n, alpha) crossing, broadcast over arrays of both indices, and
``level_offset`` is its one offset formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError
from .specfun import bessel_j

__all__ = [
    "ALPHAS",
    "DriveConfig",
    "HarmonicIndex",
    "Crossings",
    "FieldVector",
    "field_vector",
    "hamiltonian",
    "eigenenergies",
    "transverse_field",
    "longitudinal_phase",
    "level_offset",
    "crossings",
]

#: Sub-crossing branches generated by the transverse drive.
ALPHAS = (-1, 0, 1)


@dataclass(frozen=True)
class DriveConfig:
    """All control parameters of the driven sweep.

    v is the sweep velocity (energy^2); the remaining energies/frequencies
    are in the same energy unit, so with v = 1 they coincide with their
    dimensionless values in units of sqrt(v).  v = 0 selects the unswept
    special cases (times are then the raw clock of the drive fields).
    """

    v: float = 1.0
    delta: float = 0.0
    eps0: float = 0.0
    amp_rf: float = 0.0
    freq_rf: float = 0.0
    amp_mw: float = 0.0
    freq_mw: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, bool):
                raise ConfigError(f"{f.name} must be a number, not bool", key=f.name)
            if not isinstance(val, (int, float, np.integer, np.floating)) or not math.isfinite(val):
                raise ConfigError(f"{f.name} must be finite", key=f.name)
            object.__setattr__(self, f.name, float(val))
        if self.v < 0.0:
            raise ConfigError("v > 0 invariant violated (sweep velocity)", key="v")
        if self.amp_rf != 0.0 and self.freq_rf <= 0.0:
            raise ConfigError(
                "freq_rf > 0 required whenever amp_rf != 0", key="freq_rf"
            )
        if self.amp_mw != 0.0 and self.freq_mw <= 0.0:
            raise ConfigError(
                "freq_mw > 0 required whenever amp_mw != 0", key="freq_mw"
            )

    @property
    def swept(self) -> bool:
        return self.v > 0.0

    def reduced(self) -> "DriveConfig":
        """The same drive in units of sqrt(v) (v = 1).

        Requires v > 0; configs built with v = 1 are returned as-is.
        """
        if self.v == 1.0:
            return self
        if self.v == 0.0:
            raise ConfigError("cannot rescale a v = 0 config", key="v")
        s = math.sqrt(self.v)
        return DriveConfig(
            v=1.0,
            delta=self.delta / s,
            eps0=self.eps0 / s,
            amp_rf=self.amp_rf / s,
            freq_rf=self.freq_rf / s,
            amp_mw=self.amp_mw / s,
            freq_mw=self.freq_mw / s,
            phase=self.phase,
        )

    def working(self) -> "DriveConfig":
        """The drive in the working time unit: sweep units (v = 1) when
        swept, the raw clock (v = 0) otherwise, so that v is the ramp."""
        return self.reduced() if self.swept else self

    def rf_ratio(self) -> float:
        """Drive ratio A/omega (argument of every Bessel factor)."""
        if self.amp_rf == 0.0:
            return 0.0
        return self.amp_rf / self.freq_rf


class HarmonicIndex(NamedTuple):
    """Photon index n of the longitudinal drive and branch alpha in
    {-1, 0, +1} labelling the transverse sub-crossing.

    Either field may be an array; ``level_offset`` and ``crossings``
    broadcast n against alpha and return one value per (n, alpha) crossing."""

    n: int
    alpha: int


class Crossings(NamedTuple):
    """The (n, alpha) crossing table: offset omega_n^alpha (the crossing sits
    at tau = -offset), effective coupling and passage phase, each a scalar
    or an array broadcast over the ``HarmonicIndex`` that built it."""

    offset: float
    coupling: float
    phase: float


class FieldVector(NamedTuple):
    bx: float
    by: float
    bz: float


def _check_alpha(alpha):
    # a tuple test for a plain int, a set test otherwise: np.isin costs
    # about 20x more on a scalar alpha
    if type(alpha) is int:
        ok = alpha in ALPHAS
    else:
        ok = set(ALPHAS).issuperset(np.asarray(alpha).flat)
    if not ok:
        raise DomainError(f"alpha must be -1, 0 or +1, got {alpha}")


def field_vector(tau: float, cfg: DriveConfig) -> FieldVector:
    """Effective magnetic field at dimensionless time tau.

    bx carries the static gap plus the transverse drive, bz the linear sweep
    plus static shift plus longitudinal drive; by is identically zero.
    """
    c = cfg.working()
    bz = c.v * tau + c.eps0 + c.amp_rf * math.cos(c.freq_rf * tau)
    return FieldVector(float(transverse_field(tau, c)), 0.0, bz)


def hamiltonian(tau: float, cfg: DriveConfig) -> np.ndarray:
    """2x2 Hamiltonian (b_x sigma_x + b_z sigma_z)/2 in the diabatic basis."""
    b = field_vector(tau, cfg)
    return np.array(
        [[0.5 * b.bz, 0.5 * b.bx], [0.5 * b.bx, -0.5 * b.bz]], dtype=complex
    )


def eigenenergies(tau: float, cfg: DriveConfig) -> tuple[float, float]:
    """Instantaneous eigenenergies (+|b|/2, -|b|/2)."""
    b = field_vector(tau, cfg)
    e = 0.5 * math.hypot(b.bx, b.bz)
    return (e, -e)


def transverse_field(tau, cfg: DriveConfig):
    """Transverse field b_x(tau) = delta + A_f cos(omega_f*tau + phi): the
    static gap plus the transverse drive, in the working time unit;
    vectorized over tau.  Without a transverse drive it is exactly delta,
    a scalar that broadcasts against any tau."""
    c = cfg.working()
    if c.amp_mw == 0.0:
        return c.delta
    return c.delta + c.amp_mw * np.cos(c.freq_mw * tau + c.phase)


def longitudinal_phase(tau, cfg: DriveConfig):
    """Phase theta(tau) = tau^2/2 + eps0*tau + (A/omega) sin(omega*tau) that
    b_z accumulates from tau = 0; vectorized over tau.  The tau^2/2 of the
    sweep drops when v = 0, where tau is the raw clock.  By Jacobi-Anger,
    e^{i theta} = sum_n J_n(A/omega) e^{i K_n}, with K_n the phase kernel of
    the (n, 0) harmonic."""
    c = cfg.working()
    theta = 0.5 * c.v * tau * tau + c.eps0 * tau
    if c.amp_rf != 0.0:
        theta = theta + c.amp_rf / c.freq_rf * np.sin(c.freq_rf * tau)
    return theta


def level_offset(idx: HarmonicIndex, cfg: DriveConfig) -> float:
    """Crossing offset omega_n^alpha = eps0 + n*omega + alpha*omega_f in
    units of sqrt(v); the (n, alpha) crossing sits at tau = -offset.  The
    drive multiples are summed before eps0 is added, so crossings that
    coincide share one offset bit for bit whenever those multiples are exact
    (omega_f = omega = 1, as in the staircase and polarization drives)."""
    _check_alpha(idx.alpha)
    c = cfg.reduced()
    return c.eps0 + (idx.n * c.freq_rf + idx.alpha * c.freq_mw)


def crossings(idx: HarmonicIndex, cfg: DriveConfig) -> Crossings:
    """Crossing table of the (n, alpha) harmonics, in units of sqrt(v).

    The coupling is J_n(A/omega) times a quarter of the branch coupling,
    2*delta at alpha = 0 and amp_mw at alpha = +-1.  The passage phase is
    (omega_n^alpha)^2 / 2 - alpha*phi, with the square reduced modulo 2 pi
    before the drive phase is subtracted, so phi keeps its own precision
    however far the crossing sits out; the square is >= 0, so ``%`` reduces
    it exactly as fmod would, scalar or array."""
    c = cfg.reduced()
    w = level_offset(idx, c)
    if type(idx.alpha) is int:
        strength = 2.0 * c.delta if idx.alpha == 0 else c.amp_mw
    else:
        strength = np.where(idx.alpha == 0, 2.0 * c.delta, c.amp_mw)
    coupling = 0.25 * strength * bessel_j(idx.n, c.rf_ratio())
    phase = (0.5 * w * w) % (2.0 * math.pi) - idx.alpha * c.phase
    return Crossings(w, coupling, phase)
