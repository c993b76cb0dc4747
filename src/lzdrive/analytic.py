"""Closed-form transition amplitudes and probabilities.

Strong longitudinal drive: at exact multiphoton resonance the sweep reduces
to a single effective crossing whose exponent combines the three resonant
harmonics; the survival probability is exp(-2*pi*delta_eff).

Weak longitudinal drive: one passage is the ordered product of three SU(2)
transfer matrices (one per sub-crossing branch), each built from asymptotic
or finite-time Cayley-Klein parameters; the final populations follow from a
four-path interference sum.

Unswept special cases (v = 0): the commensurate-drive Rabi formula and the
sinusoidally swept crossing evaluated through finite-time Cayley-Klein
parameters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OffResonanceError, UnsupportedConfigError
from .model import (
    ALPHAS,
    DriveConfig,
    HarmonicIndex,
    branch_phase,
    effective_coupling,
    level_offset,
    passage_phase,
)
from .specfun import log_gamma, stokes_phase, weber_d

__all__ = [
    "CayleyKlein",
    "TransferMatrix",
    "PassagePropagator",
    "resonance_index",
    "strong_drive_delta",
    "strong_drive_survival",
    "caley_klein_asymptotic",
    "caley_klein_finite",
    "transfer_matrix",
    "single_passage_propagator",
    "weak_drive_probabilities",
    "rabi_case",
    "inverse_lz_case",
]

_EIGHTH_TURN = cmath.exp(-0.25j * math.pi)  # e^{-i pi/4}
_RES_TOL = 1e-6
_DELTA_FLOOR = 1e-14


@dataclass(frozen=True)
class CayleyKlein:
    """SU(2) amplitude pair: |a|^2 + |b|^2 = 1 parameterizes the propagator
    [[a, b], [-conj(b), conj(a)]]."""

    a: complex
    b: complex

    def unitarity_defect(self) -> float:
        return abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.a, self.b], [-self.b.conjugate(), self.a.conjugate()]],
            dtype=complex,
        )


@dataclass(frozen=True)
class TransferMatrix:
    """One sub-crossing passage: Cayley-Klein pair plus the phase jump
    carried by the off-diagonal entries."""

    ck: CayleyKlein
    psi: float

    def matrix(self) -> np.ndarray:
        a, b = self.ck.a, self.ck.b
        e = cmath.exp(1j * self.psi)
        return np.array(
            [[a, b * e], [-b.conjugate() / e, a.conjugate()]], dtype=complex
        )


@dataclass(frozen=True)
class PassagePropagator:
    """Net single-passage propagator [[c, d], [-conj(d), conj(c)]]."""

    c: complex
    d: complex

    def unitarity_defect(self) -> float:
        return abs(abs(self.c) ** 2 + abs(self.d) ** 2 - 1.0)

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.c, self.d], [-self.d.conjugate(), self.c.conjugate()]],
            dtype=complex,
        )


# ---------------------------------------------------------------------------
# Strong longitudinal drive
# ---------------------------------------------------------------------------


def resonance_index(alpha: int, cfg: DriveConfig) -> int:
    """Photon index n_alpha = -(eps0 + alpha*omega_f)/omega at multiphoton
    resonance; raises OffResonanceError when the ratio is not an integer to
    within 1e-6."""
    if alpha not in ALPHAS:
        raise DomainError(f"alpha must be -1, 0 or +1, got {alpha}")
    c = cfg.reduced()
    if c.freq_rf <= 0.0:
        raise OffResonanceError("resonance index needs freq_rf > 0")
    ratio = -(c.eps0 + alpha * c.freq_mw) / c.freq_rf
    n = round(ratio)
    if abs(ratio - n) > _RES_TOL:
        raise OffResonanceError(
            f"(eps0 + {alpha:+d}*freq_mw)/freq_rf = {-ratio:.9g} is not an "
            f"integer to within {_RES_TOL:g}; the resonant formula does not "
            f"apply"
        )
    return int(n)


def _resonant_couplings(cfg: DriveConfig):
    """[(coupling, branch phase)] for alpha = -1, 0, +1 at resonance."""
    out = []
    for alpha in ALPHAS:
        n = resonance_index(alpha, cfg)
        out.append(
            (effective_coupling(HarmonicIndex(n, alpha), cfg), branch_phase(alpha, cfg))
        )
    return out

def strong_drive_delta(cfg: DriveConfig) -> float:
    """Effective crossing exponent: double sum over branch pairs of
    J_alpha J_beta cos(phi_alpha - phi_beta); always >= 0."""
    cp = _resonant_couplings(cfg)
    re = sum(j * math.cos(p) for j, p in cp)
    im = sum(j * math.sin(p) for j, p in cp)
    return re * re + im * im


def strong_drive_survival(cfg: DriveConfig) -> float:
    """Asymptotic survival probability exp(-2*pi*delta_eff) in (0, 1]."""
    return math.exp(-2.0 * math.pi * strong_drive_delta(cfg))


# ---------------------------------------------------------------------------
# Cayley-Klein parameters
# ---------------------------------------------------------------------------


def caley_klein_asymptotic(delta: float) -> CayleyKlein:
    """Infinite-window Cayley-Klein pair of one crossing with exponent delta:
    a = exp(-pi*delta) real, b carries the Stokes phase."""
    if not math.isfinite(delta):
        raise DomainError("delta must be finite")
    if delta < 0.0:
        raise DomainError("delta must be >= 0")
    a = math.exp(-math.pi * delta)
    mod_b = math.sqrt(max(0.0, 1.0 - a * a))
    b = mod_b * cmath.exp(-1j * stokes_phase(delta))
    return CayleyKlein(complex(a), b)


def _ck_finite_formula(delta: float, z_start: complex, z_end: complex) -> CayleyKlein:
    """Verbatim finite-window pair (requires delta > 0).

    Carries an overall gauge: at coincident arguments a = -i, not 1."""
    nu = -1j * delta
    dp_f = weber_d(nu, -1j * z_end)
    dm_f = weber_d(nu, 1j * z_end)
    dp_i = weber_d(nu, 1j * z_start)
    dm_i = weber_d(nu, -1j * z_start)
    dp1_i = weber_d(nu - 1.0, 1j * z_start)
    dm1_i = weber_d(nu - 1.0, -1j * z_start)
    g = cmath.exp(log_gamma(1.0 + 1j * delta))
    a = -1j * g / math.sqrt(2.0 * math.pi) * (dp_f * dp1_i + dm_f * dm1_i)
    b = (
        g
        * _EIGHTH_TURN
        / math.sqrt(2.0 * math.pi * delta)
        * (dp_f * dp_i - dm_f * dm_i)
    )
    return CayleyKlein(a, b)


def caley_klein_finite(delta: float, z_start: complex, z_end: complex) -> CayleyKlein:
    """Finite-window Cayley-Klein pair from Weber-function products.

    z_start and z_end are the crossing-frame times rotated by e^{-i pi/4}
    (z = (tau + offset) e^{-i pi/4}).  delta -> 0 or coincident arguments
    give the identity."""
    if not math.isfinite(delta) or delta < 0.0:
        raise DomainError("delta must be finite and >= 0")
    z_start = complex(z_start)
    z_end = complex(z_end)
    if delta < _DELTA_FLOOR or z_start == z_end:
        return CayleyKlein(1.0 + 0.0j, 0.0 + 0.0j)
    return _ck_finite_formula(delta, z_start, z_end)


# ---------------------------------------------------------------------------
# Weak longitudinal drive: transfer matrices and the passage propagator
# ---------------------------------------------------------------------------


def transfer_matrix(
    idx: HarmonicIndex,
    cfg: DriveConfig,
    asymptotic: bool = True,
    tau_start: float | None = None,
    tau_end: float | None = None,
) -> TransferMatrix:
    """SU(2) transfer matrix of one (n, alpha) sub-crossing.

    The crossing exponent is the squared effective coupling.  With
    asymptotic=False the window (tau_start, tau_end) is required and the
    finite-time pair is used instead."""
    j = effective_coupling(idx, cfg)
    delta = j * j
    psi = passage_phase(idx, cfg)
    if asymptotic:
        ck = caley_klein_asymptotic(delta)
    else:
        if tau_start is None or tau_end is None:
            raise DomainError(
                "finite-window transfer_matrix needs tau_start and tau_end"
            )
        off = level_offset(idx, cfg)
        ck = caley_klein_finite(
            delta,
            (tau_start + off) * _EIGHTH_TURN,
            (tau_end + off) * _EIGHTH_TURN,
        )
    return TransferMatrix(ck, psi)


def single_passage_propagator(cfg: DriveConfig) -> PassagePropagator:
    """Net propagator of one crossing triple in the weak-drive regime
    (couplings << 1 intended, not enforced): the ordered product
    S_minus S_zero S_plus of the photon-index-0 transfer matrices."""
    m = (
        transfer_matrix(HarmonicIndex(0, -1), cfg).matrix()
        @ transfer_matrix(HarmonicIndex(0, 0), cfg).matrix()
        @ transfer_matrix(HarmonicIndex(0, 1), cfg).matrix()
    )
    return PassagePropagator(complex(m[0, 0]), complex(m[0, 1]))


def weak_drive_probabilities(cfg: DriveConfig) -> tuple[float, float]:
    """(p_up, p_dn) after one passage, via the four-path interference sum.

    Each path amplitude is a product of |a| and |b| moduli; each relative
    phase combines passage-phase and Stokes-phase differences.  Numerically
    identical to |c|^2 of the single-passage propagator."""
    branches = {}
    for alpha in ALPHAS:
        j = effective_coupling(HarmonicIndex(0, alpha), cfg)
        d = j * j
        a = math.exp(-math.pi * d)
        branches[alpha] = (
            a,
            math.sqrt(max(0.0, 1.0 - a * a)),
            passage_phase(HarmonicIndex(0, alpha), cfg),
            stokes_phase(d),
        )
    am, bm, pm, cm = branches[-1]
    a0, b0, p0, c0 = branches[0]
    ap, bp, pp, cp = branches[1]
    amp = (
        am * a0 * ap,
        -(bm * b0 * ap),
        -(am * b0 * bp),
        -(bm * a0 * bp),
    )
    xi2 = (p0 - pm) - (c0 - cm)
    xi3 = (p0 - pp) - (c0 - cp)
    xi4 = (pm - pp) - (cm - cp)
    # xi2 enters the amplitude sum with the opposite sign of the other two
    ph = (0.0, -xi2, xi3, xi4)
    p_up = 0.0
    for j in range(4):
        for k in range(4):
            p_up += amp[j] * amp[k] * math.cos(ph[j] - ph[k])
    p_up = min(1.0, max(0.0, p_up))
    return p_up, 1.0 - p_up


# ---------------------------------------------------------------------------
# Unswept special cases (v = 0)
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise UnsupportedConfigError(msg)


def rabi_case(cfg: DriveConfig, t: float) -> tuple[float, float]:
    """(p_up, p_dn) for the unswept commensurate case freq_mw = freq_rf,
    phase = 0, no static fields: a pure Rabi rotation driven through
    sin(omega t)."""
    _require(cfg.v == 0.0, "rabi_case requires v = 0")
    _require(cfg.delta == 0.0 and cfg.eps0 == 0.0, "rabi_case requires zero statics")
    _require(cfg.phase == 0.0, "rabi_case requires phase = 0")
    _require(
        cfg.freq_mw == cfg.freq_rf and cfg.freq_rf > 0.0,
        "rabi_case requires freq_mw = freq_rf > 0",
    )
    a, af, w = cfg.amp_rf, cfg.amp_mw, cfg.freq_rf
    omega2 = a * a + af * af
    if omega2 == 0.0:
        return 1.0, 0.0
    p_dn = (af * af / omega2) * math.sin(
        0.5 * math.sqrt(omega2) / w * math.sin(w * t)
    ) ** 2
    return 1.0 - p_dn, p_dn


def inverse_lz_params(cfg: DriveConfig) -> tuple[float, float]:
    """(effective sweep rate, effective exponent) of the unswept
    freq_mw = 2*freq_rf, phase = pi/2 case: v_eff = 2*A_f/omega and
    delta_eff = (A/omega)^2 / (4 v_eff)."""
    _require(cfg.v == 0.0, "inverse_lz_case requires v = 0")
    _require(cfg.delta == 0.0 and cfg.eps0 == 0.0, "inverse_lz_case requires zero statics")
    _require(
        abs(cfg.phase - 0.5 * math.pi) < 1e-12,
        "inverse_lz_case requires phase = pi/2",
    )
    _require(
        cfg.freq_rf > 0.0 and abs(cfg.freq_mw - 2.0 * cfg.freq_rf) < 1e-12,
        "inverse_lz_case requires freq_mw = 2*freq_rf > 0",
    )
    _require(cfg.amp_mw > 0.0, "inverse_lz_case requires amp_mw > 0")
    w = cfg.freq_rf
    v_eff = 2.0 * cfg.amp_mw / w
    delta_eff = (cfg.amp_rf / w) ** 2 / (4.0 * v_eff)
    return v_eff, delta_eff


def inverse_lz_case(cfg: DriveConfig, t_f: float) -> tuple[float, float]:
    """(p_up, p_dn) of the unswept freq_mw = 2*freq_rf, phase = pi/2 case,
    starting at t = 0, measured in the bare z basis.

    The sinusoidal sweep maps onto a linear crossing with
    v_eff = 2*A_f/omega and exponent (A/omega)^2/(4 v_eff); the amplitudes
    are finite-time Cayley-Klein parameters at
    z = sqrt(v_eff) sin(omega t) e^{-i pi/4}, whose real and imaginary parts
    split the populations.  The mapping carries no basis offset: the
    formula's own gauge (a -> -i at zero elapsed time) already accounts for
    the quarter-turn rotation that diagonalizes the effective sweep, so the
    returned pair equals the lab populations of the bare states.  The
    retraced sweep (sin not monotone) needs no special handling because
    only the endpoint values of z enter."""
    v_eff, delta_eff = inverse_lz_params(cfg)
    w = cfg.freq_rf
    tau_f = math.sqrt(v_eff) * math.sin(w * t_f)
    if delta_eff < _DELTA_FLOOR:
        # zero effective coupling: pure gauge rotation of the bare drive
        a = -1j * cmath.exp(-0.25j * tau_f * tau_f)
        ck = CayleyKlein(a, 0.0 + 0.0j)
    else:
        ck = _ck_finite_formula(delta_eff, 0.0 + 0.0j, tau_f * _EIGHTH_TURN)
    p_dn = ck.a.real**2 + ck.b.real**2
    p_up = ck.a.imag**2 + ck.b.imag**2
    return p_up, p_dn
