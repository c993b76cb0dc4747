"""Closed-form transition amplitudes and probabilities.

Strong longitudinal drive: at exact multiphoton resonance the sweep reduces
to a single effective crossing whose exponent combines the three resonant
harmonics; the survival probability is exp(-2*pi*delta_eff).

Weak longitudinal drive: one passage is the ordered product of three SU(2)
transfer matrices (one per sub-crossing branch).  Each is a Cayley-Klein
pair of the shared ``su2.CayleyKlein`` type, asymptotic or finite-time,
whose b carries the coupling's sign and the passage phase; pairs compose
with ``@``, and the final populations are |c|^2 of that product.  A
finite-time pair is the crossing-frame propagator of the Weber-function
solution over its window, so pairs over adjacent windows compose.

Unswept special cases (v = 0): the commensurate-drive Rabi formula, and the
sinusoidally swept crossing as the finite-time pair of its effective linear
sweep turned by a quarter-turn.
"""

from __future__ import annotations

import cmath
import math

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
from .specfun import (
    _WEBER_MAX_ABS_Z,
    _WEBER_MAX_ORDER,
    _weber_mirror,
    log_gamma,
    stokes_phase,
    weber_d,
)
from .su2 import CayleyKlein

__all__ = [
    "CayleyKlein",
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
_RAY_TOL = 1e-14  # |Im(z e^{i pi/4})| / |z| allowed as rounding


class PassagePropagator(CayleyKlein):
    """Net single-passage propagator [[c, d], [-conj(d), conj(c)]]: a
    ``CayleyKlein`` pair whose a and b also read as c and d."""

    __slots__ = ()
    c = property(lambda self: self.a)
    d = property(lambda self: self.b)


# ---------------------------------------------------------------------------
# Strong longitudinal drive
# ---------------------------------------------------------------------------


def resonance_index(alpha: int, cfg: DriveConfig) -> int:
    """Photon index n_alpha = -(eps0 + alpha*omega_f)/omega at multiphoton
    resonance; raises OffResonanceError when the ratio is not finite or not
    an integer to within 1e-6."""
    c = cfg.reduced()
    offset = level_offset(HarmonicIndex(0, alpha), c)
    if c.freq_rf <= 0.0:
        raise OffResonanceError("resonance index needs freq_rf > 0")
    ratio = -offset / c.freq_rf
    if not math.isfinite(ratio):
        raise OffResonanceError(
            f"(eps0 + {alpha:+d}*freq_mw)/freq_rf overflows; no resonance index"
        )
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
    alpha = np.array(ALPHAS)
    idx = HarmonicIndex(np.array([resonance_index(a, cfg) for a in ALPHAS]), alpha)
    couplings = effective_coupling(idx, cfg)
    return list(zip(couplings.tolist(), branch_phase(alpha, cfg).tolist()))


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


def _weber_on_diagonal(delta: float, u: complex, lg: complex):
    """(D_nu(u), D_nu(-u), D_{nu-1}(u), D_{nu-1}(-u)) for nu = -i delta and u
    on a diagonal: two ``weber_d`` calls at whichever of +-u has Re >= 0, and
    the other two through the connection identity (``_weber_mirror``)."""
    nu = -1j * delta
    flip = u.real < 0.0
    w = -u if flip else u
    d0, d1 = weber_d(nu, w), weber_d(nu - 1.0, w)
    m0, m1 = _weber_mirror(delta, w, d0, d1, lg)
    return (m0, d0, m1, d1) if flip else (d0, m0, d1, m1)


def caley_klein_finite(delta: float, z_start: complex, z_end: complex) -> CayleyKlein:
    """Crossing-frame propagator of one crossing over a finite window, as a
    Cayley-Klein pair of Weber-function products in the window's own gauge.

    z_start and z_end are the crossing-frame times rotated by e^{-i pi/4}
    (z = (tau + offset) e^{-i pi/4}); an argument off that ray by more than
    rounding raises DomainError.  Pairs over adjacent windows compose, and
    delta -> 0 or coincident arguments tend to the identity.

    The pair needs D_nu(+-i z) at both ends and D_{nu-1}(+-i z) at the start,
    nu = -i delta.  On the ray, +-i z lie on the diagonals, where the
    connection identity gives the values at the left of the two from the
    values at the right, so four right-half-plane ``weber_d`` calls (both
    orders at both ends) and one log Gamma(1 + i delta) give them all.

    b divides a difference of O(1) Weber products by sqrt(delta), so its
    absolute rounding error is about 3e-16/sqrt(delta): 3e-9 at
    delta = 1e-14, 3e-15 at delta = 1e-2 (at most 2.2e-16/sqrt(delta)
    against the six-call form over delta in [1e-14, 1e-2], |tau| <= 60)."""
    if not math.isfinite(delta) or delta < 0.0:
        raise DomainError("delta must be finite and >= 0")
    z_start = complex(z_start)
    z_end = complex(z_end)
    for z in (z_start, z_end):
        if not abs((z * _EIGHTH_TURN.conjugate()).imag) <= _RAY_TOL * abs(z):
            raise DomainError(
                f"caley_klein_finite needs z on the ray tau e^{{-i pi/4}}, got z = {z}"
            )
    if delta < _DELTA_FLOOR or z_start == z_end:
        return CayleyKlein(1.0 + 0.0j, 0.0 + 0.0j)
    lg = log_gamma(1.0 + 1j * delta)
    dm_f, dp_f, _, _ = _weber_on_diagonal(delta, 1j * z_end, lg)
    dp_i, dm_i, dp1_i, dm1_i = _weber_on_diagonal(delta, 1j * z_start, lg)
    g = cmath.exp(lg) / math.sqrt(2.0 * math.pi)
    q_f, q_i = 0.25 * z_end * z_end, 0.25 * z_start * z_start
    a = g * cmath.exp(q_i - q_f) * (dp_f * dp1_i + dm_f * dm1_i)
    b = -g * _EIGHTH_TURN / math.sqrt(delta) * cmath.exp(-q_i - q_f) * (
        dp_f * dp_i - dm_f * dm_i
    )
    return CayleyKlein(a, b)


# ---------------------------------------------------------------------------
# Weak longitudinal drive: transfer matrices and the passage propagator
# ---------------------------------------------------------------------------


def transfer_matrix(
    idx: HarmonicIndex,
    cfg: DriveConfig,
    asymptotic: bool = True,
    tau_start: float | None = None,
    tau_end: float | None = None,
) -> CayleyKlein:
    """SU(2) transfer matrix of one (n, alpha) sub-crossing, as the pair
    (a, +-b e^{i psi}) with psi its passage phase.

    The crossing exponent is the squared effective coupling; a negative
    coupling is conjugation by sigma_z, which flips the sign of b.  With
    asymptotic=False the window (tau_start, tau_end) is required and the
    finite-time pair is used instead; those compose over adjacent windows.
    A window given with asymptotic=True, or an index that is not a single
    crossing, raises DomainError."""
    if asymptotic and (tau_start is not None or tau_end is not None):
        raise DomainError("transfer_matrix takes a window only with asymptotic=False")
    j = effective_coupling(idx, cfg)
    if np.ndim(j):  # the coupling broadcasts over both indices
        raise DomainError(f"transfer_matrix takes one (n, alpha) crossing, got {idx}")
    delta = j * j
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
    b = -ck.b if j < 0.0 else ck.b
    return CayleyKlein(ck.a, b * cmath.exp(1j * passage_phase(idx, cfg)))


def single_passage_propagator(cfg: DriveConfig) -> PassagePropagator:
    """Net propagator of one crossing triple in the weak-drive regime
    (couplings << 1 intended, not enforced): the ordered product
    S_minus S_zero S_plus of the photon-index-0 transfer matrices."""
    s_minus, s_zero, s_plus = (transfer_matrix(HarmonicIndex(0, a), cfg) for a in ALPHAS)
    return PassagePropagator(*(s_minus @ s_zero @ s_plus))


def weak_drive_probabilities(cfg: DriveConfig) -> tuple[float, float]:
    """(p_up, p_dn) after one passage: p_up = |c|^2 of the single-passage
    propagator, whose matrix product holds the interference of the four
    paths through the three sub-crossings."""
    p_up = min(1.0, abs(single_passage_propagator(cfg).c) ** 2)
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


def inverse_lz_case(cfg: DriveConfig, t_f: float) -> tuple[float, float]:
    """(p_up, p_dn) of the unswept freq_mw = 2*freq_rf, phase = pi/2 case,
    starting at t = 0, measured in the bare z basis.

    The sinusoidal sweep maps onto a linear crossing with
    v_eff = 2*A_f/omega and exponent delta_eff = (A/omega)^2/(4 v_eff),
    whose crossing-frame pair runs from z = 0 to z = tau_f e^{-i pi/4},
    tau_f = sqrt(v_eff) sin(omega t).  The quarter-turn that diagonalizes
    the effective sweep maps that pair onto a -> -i e^{-i tau_f^2/4} a and
    b -> -e^{-i tau_f^2/4} b, whose real and imaginary parts split the bare
    populations.  Only the endpoint values of z enter, so the retraced sweep
    (sin not monotone) needs no special handling.  A v_eff or delta_eff
    that overflows refuses, and so do delta_eff > 3 and |tau_f| > 60, the
    edges of the Weber box."""
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
    aw = cfg.amp_rf / w
    v_eff = 2.0 * cfg.amp_mw / w
    delta_eff = aw * aw / (4.0 * v_eff)  # overflows to inf, where aw ** 2 would raise
    _require(
        math.isfinite(v_eff) and math.isfinite(delta_eff),
        "inverse_lz_case needs a finite effective sweep rate and exponent",
    )
    # the pair's Weber order is -i*delta_eff
    _require(
        delta_eff <= _WEBER_MAX_ORDER,
        f"inverse_lz_case needs delta_eff <= {_WEBER_MAX_ORDER:g} (the validated "
        f"Weber order box), got delta_eff = {delta_eff:.6g}",
    )
    tau_f = math.sqrt(v_eff) * math.sin(w * t_f)
    # the pair's Weber arguments have modulus |tau_f|
    _require(
        abs(tau_f) <= _WEBER_MAX_ABS_Z,
        f"inverse_lz_case needs |tau_f| <= {_WEBER_MAX_ABS_Z:g} (the validated "
        f"Weber argument box), got tau_f = {tau_f:.6g} with v_eff = {v_eff:.6g}",
    )
    ck = caley_klein_finite(delta_eff, 0.0, tau_f * _EIGHTH_TURN)
    turn = cmath.exp(-0.25j * tau_f * tau_f)
    a, b = -1j * turn * ck.a, -turn * ck.b
    p_dn = a.real**2 + b.real**2
    p_up = a.imag**2 + b.imag**2
    return p_up, p_dn
