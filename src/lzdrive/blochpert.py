"""Perturbative Bloch-vector solutions for weak couplings.

To first order in the couplings, the frame that removes the longitudinal
phase theta evolves under zeta(tau), the integral of b_x e^{-i theta} from
-infinity to tau (the first Magnus term).  Each (n, alpha) harmonic of the
double drive adds one crossing to it, a shifted Fresnel pair weighted by
its coupling and passage phase.  Then u_x + i u_y = -i e^{i theta} zeta
and u_z = 1 - |zeta|^2/2; the large-time limit takes zeta(+inf).  The L/M
and F/G kernels and a_c, a_s are the paper's forms of the same algebra.

All evaluators accept scalar or array times and vectorize over the harmonic
grid; zeta evaluates one Fresnel pair per distinct crossing offset per time.
Crossings coincide when omega_f/omega is rational with a small denominator
(omega_f = omega: staircase, polarizations), and all do at omega = omega_f = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import ALPHAS, DriveConfig, HarmonicIndex, crossings, longitudinal_phase
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
    x = crossings(idx, cfg)
    tau = np.asarray(tau, dtype=float)
    return 0.5 * (tau + x.offset) ** 2 - x.phase


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


def ac_as(tau, cfg: DriveConfig, trunc: TruncationSpec):
    """Longitudinal rotation sums a_c = sum_n J_n cos(K_n), a_s with sin,
    over the alpha = 0 phase kernels; broadcasts over tau.  By Jacobi-Anger
    the untruncated sums are cos theta and sin theta, the e^{i theta} that
    ``bloch_perturbative`` reads; that is what this returns, and trunc is
    validated as there."""
    trunc.validate_for(cfg)
    theta = longitudinal_phase(np.asarray(tau, dtype=float), cfg)
    if theta.ndim == 0:
        return math.cos(theta), math.sin(theta)
    return np.cos(theta), np.sin(theta)


def _zeta(tau, cfg: DriveConfig, trunc: TruncationSpec):
    """First-order Magnus generator zeta(tau) (tau may be +inf): the integral
    of b_x e^{-i theta} from -infinity to tau as 2 sqrt(pi) sum_k J_k
    e^{i Psi_k} (C_k - i S_k), (C_k, S_k) the shifted Fresnel pair at
    tau + offset_k, summed over raveled times so every shape agrees.  Over
    the (n, alpha) grid, |n| <= n_max, crossings whose offsets are equal bit
    for bit share one pair, their weights summed first."""
    trunc.validate_for(cfg)
    n = np.arange(-trunc.n_max, trunc.n_max + 1)
    x = crossings(HarmonicIndex(n, np.array(ALPHAS)[:, None]), cfg)
    # ravel first: the inverse of np.unique is 1-D on numpy 1.x and 2.x alike
    offsets, group = np.unique(x.offset.ravel(), return_inverse=True)
    w = _TWO_SQRT_PI * x.coupling.ravel() * np.exp(1j * x.phase.ravel())
    re, im = (np.bincount(group, part) for part in (w.real, w.imag))
    cc, ss = scaled_fresnel(np.reshape(tau, (-1, 1)) + offsets)
    # (C - iS) w = C w + S (-iw), each weight vector as a real (re, im) pair
    parts = cc @ np.column_stack([re, im]) + ss @ np.column_stack([im, -re])
    return (parts[:, 0] + 1j * parts[:, 1]).reshape(np.shape(tau))


def bloch_perturbative(tau, cfg: DriveConfig, trunc: TruncationSpec | None = None):
    """Perturbative Bloch vector (u_x, u_y, u_z), of shape tau.shape + (3,):
    u_x + i u_y = -i e^{i theta} zeta and u_z = 1 - |zeta|^2/2.

    Valid deep in the non-adiabatic regime (|zeta| << 1); the overshoot of
    u_z below -1 that the expansion can produce is reported as-is, not
    clamped."""
    if trunc is None:
        trunc = default_truncation(cfg)
    tau = np.asarray(tau, dtype=float)
    zeta = _zeta(tau, cfg, trunc)
    u_perp = -1j * np.exp(1j * longitudinal_phase(tau, cfg)) * zeta
    return np.stack([u_perp.real, u_perp.imag, 1.0 - 0.5 * np.abs(zeta) ** 2], axis=-1)


def bloch_asymptotic_uz(cfg: DriveConfig, trunc: TruncationSpec | None = None) -> float:
    """Large-time limit 1 - |zeta(+inf)|^2/2 of u_z, where every Fresnel pair
    is (1, 1): 1 - 4*pi sum over harmonic pairs of J J' cos(Psi - Psi')."""
    if trunc is None:
        trunc = default_truncation(cfg)
    return 1.0 - 0.5 * abs(complex(_zeta(math.inf, cfg, trunc))) ** 2
