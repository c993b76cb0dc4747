"""Physical model of the doubly driven two-level crossing.

A qubit is swept through an avoided crossing at rate v while a longitudinal
drive (amplitude A, frequency omega) modulates the detuning and a transverse
drive (amplitude A_f, frequency omega_f, relative phase phi) modulates the
gap.  All parameters are stored in physical units; computations run in the
dimensionless convention tau = t*sqrt(v) with energies measured in sqrt(v),
so a config built with v = 1 is already dimensionless.

The harmonic bookkeeping (photon index n, sub-crossing branch alpha) shared
by every closed-form result lives here: level offsets, effective couplings,
passage and branch phases, each broadcast over arrays of both indices.
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
    "FieldVector",
    "field_vector",
    "hamiltonian",
    "eigenenergies",
    "longitudinal_phase",
    "level_offset",
    "effective_coupling",
    "passage_phase",
    "branch_phase",
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

    Either field may be an array; the harmonic functions below broadcast
    n against alpha and return one value per (n, alpha) crossing."""

    n: int
    alpha: int


class FieldVector(NamedTuple):
    bx: float
    by: float
    bz: float


def _check_alpha(alpha):
    # a set test: np.isin costs about 20x more on a scalar alpha
    if not set(ALPHAS).issuperset(np.asarray(alpha).flat):
        raise DomainError(f"alpha must be -1, 0 or +1, got {alpha}")


def branch_phase(alpha: int, cfg: DriveConfig) -> float:
    """Drive phase carried by each branch: +phi, 0, -phi for alpha = +1, 0, -1."""
    _check_alpha(alpha)
    return alpha * cfg.phase


def field_vector(tau: float, cfg: DriveConfig) -> FieldVector:
    """Effective magnetic field at dimensionless time tau.

    bx carries the static gap plus the transverse drive, bz the linear sweep
    plus static shift plus longitudinal drive; by is identically zero.
    """
    c = cfg.working()
    bx = c.delta + c.amp_mw * math.cos(c.freq_mw * tau + c.phase)
    bz = c.v * tau + c.eps0 + c.amp_rf * math.cos(c.freq_rf * tau)
    return FieldVector(bx, 0.0, bz)


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
    units of sqrt(v); the (n, alpha) crossing sits at tau = -offset."""
    _check_alpha(idx.alpha)
    c = cfg.reduced()
    return c.eps0 + idx.n * c.freq_rf + idx.alpha * c.freq_mw


def effective_coupling(idx: HarmonicIndex, cfg: DriveConfig) -> float:
    """Effective Rabi coupling of one harmonic: J_n(A/omega) times a quarter
    of the branch coupling, 2*delta at alpha = 0 and amp_mw at alpha = +-1."""
    _check_alpha(idx.alpha)
    c = cfg.reduced()
    strength = np.where(idx.alpha == 0, 2.0 * c.delta, c.amp_mw)
    return 0.25 * strength * bessel_j(idx.n, c.rf_ratio())


def passage_phase(idx: HarmonicIndex, cfg: DriveConfig) -> float:
    """Phase jump of one passage: (omega_n^alpha)^2 / 2 - alpha*phi.

    The square is reduced modulo 2 pi before the drive phase is subtracted,
    so phi keeps its own precision however far the crossing sits out."""
    w = level_offset(idx, cfg)
    return np.fmod(0.5 * w * w, 2.0 * math.pi) - branch_phase(idx.alpha, cfg)
