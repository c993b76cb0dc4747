"""Perturbative Bloch-vector solutions for weak couplings.

In the non-adiabatic regime every (n, alpha) harmonic of the double drive
contributes one crossing whose accumulated response is a shifted Fresnel
pair.  The kernels L and M combine those pairs with the passage phase; the
transverse polarizations u_x, u_y additionally carry the longitudinal
rotation through the a_c, a_s sums, and the population difference u_z is a
sum of squares of coupling-weighted kernels.

All evaluators accept scalar or array times and vectorize over the harmonic
grid, so full-window traces with n_max = 40 stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import ALPHAS, DriveConfig, HarmonicIndex, level_offset, passage_phase
from .specfun import bessel_j_sequence, scaled_fresnel

__all__ = [
    "TruncationSpec",
    "LMKernel",
    "default_truncation",
    "phase_kernel",
    "lm_kernel",
    "fg_kernels",
    "ac_as",
    "bloch_perturbative",
    "bloch_asymptotic_uz",
]

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


@dataclass(frozen=True)
class TruncationSpec:
    """Symmetric harmonic cutoff: photon sums run over |n| <= n_max."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise DomainError("n_max must be a positive integer")

    def validate_for(self, cfg: DriveConfig):
        need = math.ceil(cfg.reduced().rf_ratio())
        if self.n_max < need:
            raise DomainError(
                f"n_max = {self.n_max} below ceil(A/omega) = {need}; the "
                f"harmonic sums would miss populated sidebands"
            )


def default_truncation(cfg: DriveConfig) -> TruncationSpec:
    """Cutoff rule max(ceil(A/omega) + 20, 40)."""
    return TruncationSpec(max(math.ceil(cfg.reduced().rf_ratio()) + 20, 40))


class LMKernel(NamedTuple):
    l: float
    m: float


def phase_kernel(tau, idx: HarmonicIndex, cfg: DriveConfig):
    """Accumulated phase (tau + offset)^2/2 - passage phase of one harmonic;
    minimized (value -Psi) at the crossing time tau = -offset."""
    w = level_offset(idx, cfg)
    psi = passage_phase(idx, cfg)
    tau = np.asarray(tau, dtype=float)
    return 0.5 * (tau + w) ** 2 - psi


def lm_kernel(x, y) -> LMKernel:
    """Fresnel response kernels L = C sin(y) - cos(y) S and
    M = C cos(y) + sin(y) S, with C, S the shifted Fresnel pair of x.

    Accepts +-inf sentinels in x; broadcasts over arrays."""
    cc, ss = scaled_fresnel(x)
    sin_y = np.sin(np.asarray(y, dtype=float))
    cos_y = np.cos(np.asarray(y, dtype=float))
    return LMKernel(cc * sin_y - cos_y * ss, cc * cos_y + sin_y * ss)


def fg_kernels(x, xp):
    """Symmetrized Fresnel products:
    F+- = (C C' +- S S')/2 and G+- = (C S' +- S C')/2.

    F+ and G+ are symmetric in (x, xp), G- antisymmetric; all vanish when
    either argument is -inf and F+ = G+ = 1, F- = G- = 0 at (+inf, +inf)."""
    c1, s1 = scaled_fresnel(x)
    c2, s2 = scaled_fresnel(xp)
    f_plus = 0.5 * (c1 * c2 + s1 * s2)
    f_minus = 0.5 * (c1 * c2 - s1 * s2)
    g_plus = 0.5 * (c1 * s2 + s1 * c2)
    g_minus = 0.5 * (c1 * s2 - s1 * c2)
    return f_plus, f_minus, g_plus, g_minus


def _harmonic_grid(cfg: DriveConfig, trunc: TruncationSpec):
    """Couplings, offsets and passage phases on the (n, alpha) grid,
    flattened to 1-D arrays of length 3*(2*n_max + 1)."""
    trunc.validate_for(cfg)
    c = cfg.reduced()
    nmax = trunc.n_max
    j_half = bessel_j_sequence(nmax, c.rf_ratio())
    n = np.arange(-nmax, nmax + 1)
    j_signed = np.where(
        (n < 0) & (np.abs(n) % 2 == 1), -j_half[np.abs(n)], j_half[np.abs(n)]
    )
    couplings = []
    offsets = []
    phases = []
    for alpha in ALPHAS:
        strength = 2.0 * c.delta if alpha == 0 else c.amp_mw
        couplings.append(0.25 * strength * j_signed)
        off = c.eps0 + n * c.freq_rf + alpha * c.freq_mw
        offsets.append(off)
        phases.append(0.5 * off * off - alpha * c.phase)
    return (
        np.concatenate(couplings),
        np.concatenate(offsets),
        np.concatenate(phases),
        n,
        j_signed,
    )


def ac_as(tau, cfg: DriveConfig, trunc: TruncationSpec):
    """Longitudinal rotation sums a_c = sum_n J_n cos(K_n), a_s with sin,
    over the alpha = 0 phase kernels; broadcasts over tau."""
    _, _, _, n, j_signed = _harmonic_grid(cfg, trunc)
    c = cfg.reduced()
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    t = np.atleast_1d(tau)[:, None]
    off = (c.eps0 + n * c.freq_rf)[None, :]
    psi = (0.5 * off * off)
    kern = 0.5 * (t + off) ** 2 - psi
    a_c = np.sum(j_signed[None, :] * np.cos(kern), axis=1)
    a_s = np.sum(j_signed[None, :] * np.sin(kern), axis=1)
    if scalar:
        return float(a_c[0]), float(a_s[0])
    return a_c, a_s


def bloch_perturbative(tau, cfg: DriveConfig, trunc: TruncationSpec | None = None):
    """Perturbative Bloch vector (u_x, u_y, u_z) at tau (scalar or array).

    Valid deep in the non-adiabatic regime (squared couplings << 1); the
    overshoot of u_z below -1 that the expansion can produce is reported
    as-is, not clamped."""
    if trunc is None:
        trunc = default_truncation(cfg)
    couplings, offsets, phases, _, _ = _harmonic_grid(cfg, trunc)
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    t = np.atleast_1d(tau)

    lk, mk = lm_kernel(t[:, None] + offsets, phases)
    sum_l = np.sum(couplings[None, :] * lk, axis=1)
    sum_m = np.sum(couplings[None, :] * mk, axis=1)
    a_c, a_s = ac_as(t, cfg, trunc)

    out = np.empty(t.shape + (3,))
    out[:, 0] = _TWO_SQRT_PI * (a_c * sum_l + a_s * sum_m)
    out[:, 1] = _TWO_SQRT_PI * (a_s * sum_l - a_c * sum_m)
    out[:, 2] = 1.0 - 2.0 * math.pi * (sum_l**2 + sum_m**2)
    if scalar:
        return out[0]
    return out


def bloch_asymptotic_uz(cfg: DriveConfig, trunc: TruncationSpec | None = None) -> float:
    """Large-time limit of u_z: 1 - 4*pi sum over harmonic pairs of
    J J' cos(Psi - Psi'), evaluated through its sum-of-squares form."""
    if trunc is None:
        trunc = default_truncation(cfg)
    couplings, _, phases, _, _ = _harmonic_grid(cfg, trunc)
    re = float(np.sum(couplings * np.cos(phases)))
    im = float(np.sum(couplings * np.sin(phases)))
    return 1.0 - 4.0 * math.pi * (re * re + im * im)
