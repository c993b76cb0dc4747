"""Perturbative Bloch-vector solutions for weak couplings.

In the non-adiabatic regime every (n, alpha) harmonic of the double drive
contributes one crossing whose accumulated response is a shifted Fresnel
pair.  The kernels L and M combine those pairs with the passage phase; the
transverse polarizations u_x, u_y additionally carry the longitudinal
rotation through the a_c, a_s sums, which sum to cos and sin of the
longitudinal phase, and the population difference u_z is a sum of squares
of coupling-weighted kernels.

All evaluators accept scalar or array times and vectorize over the harmonic
grid, so full-window traces with n_max = 40 stay cheap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import (
    ALPHAS,
    DriveConfig,
    HarmonicIndex,
    effective_coupling,
    level_offset,
    longitudinal_phase,
    passage_phase,
)
from .specfun import scaled_fresnel

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
        n = self.n_max
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError(f"n_max must be a positive integer, got {n!r}")

    def validate_for(self, cfg: DriveConfig):
        need = math.ceil(abs(cfg.reduced().rf_ratio()))
        if self.n_max < need:
            raise DomainError(
                f"n_max = {self.n_max} below ceil(|A/omega|) = {need}; the "
                f"harmonic sums would miss populated sidebands"
            )


def default_truncation(cfg: DriveConfig) -> TruncationSpec:
    """Cutoff rule max(ceil(x + 10 x^{1/3}) + 5, 40), x = |A/omega|.

    |J_n(x)| falls off past n = x over a width that grows like x^{1/3}
    (DLMF 10.19(ii)), so the margin grows with it: past this cutoff every
    |J_n(x)| is below 1e-16 for x <= 300 (measured).  J_n(-x) = (-1)^n J_n(x),
    so the populated sidebands depend only on |A/omega|.
    """
    x = abs(cfg.reduced().rf_ratio())
    return TruncationSpec(max(math.ceil(x + 10.0 * x ** (1.0 / 3.0)) + 5, 40))


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
    """Couplings, offsets and passage phases on the (n, alpha) grid, one
    broadcast call each, raveled alpha-major to length 3*(2*n_max + 1)."""
    trunc.validate_for(cfg)
    n = np.arange(-trunc.n_max, trunc.n_max + 1)
    grid = HarmonicIndex(n, np.array(ALPHAS)[:, None])
    return (
        effective_coupling(grid, cfg).ravel(),
        level_offset(grid, cfg).ravel(),
        passage_phase(grid, cfg).ravel(),
    )


def ac_as(tau, cfg: DriveConfig, trunc: TruncationSpec):
    """Longitudinal rotation sums a_c = sum_n J_n cos(K_n), a_s with sin,
    over the alpha = 0 phase kernels; broadcasts over tau.  By Jacobi-Anger
    the untruncated sums are cos theta and sin theta of the longitudinal
    phase, which is what this returns; trunc is validated as for
    ``bloch_perturbative``."""
    trunc.validate_for(cfg)
    theta = longitudinal_phase(np.asarray(tau, dtype=float), cfg)
    if theta.ndim == 0:
        return math.cos(theta), math.sin(theta)
    return np.cos(theta), np.sin(theta)


def bloch_perturbative(tau, cfg: DriveConfig, trunc: TruncationSpec | None = None):
    """Perturbative Bloch vector (u_x, u_y, u_z) at tau (scalar or array).

    Valid deep in the non-adiabatic regime (squared couplings << 1); the
    overshoot of u_z below -1 that the expansion can produce is reported
    as-is, not clamped."""
    if trunc is None:
        trunc = default_truncation(cfg)
    couplings, offsets, phases = _harmonic_grid(cfg, trunc)
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
    couplings, _, phases = _harmonic_grid(cfg, trunc)
    re = float(np.sum(couplings * np.cos(phases)))
    im = float(np.sum(couplings * np.sin(phases)))
    return 1.0 - 4.0 * math.pi * (re * re + im * im)
