"""SU(2) propagators as Cayley-Klein pairs: the one pair algebra that the
closed forms and the Magnus solve share.

A pair (a, b) with |a|^2 + |b|^2 = 1 stands for the propagator
[[a, b], [-conj(b), conj(a)]].  Its fields are complex scalars or arrays
that broadcast against each other, so one pair can hold a whole grid of
propagators.  ``U2 @ U1`` is the pair of the matrix product (U1 acts
first), ``exp`` maps an su(2) vector to its pair, ``tree_product``
multiplies along the last axis and ``prefix_scan`` keeps every running
product on the way.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class CayleyKlein(NamedTuple):
    """SU(2) amplitude pair: |a|^2 + |b|^2 = 1 parameterizes the propagator
    [[a, b], [-conj(b), conj(a)]]; a and b are scalars or broadcasting
    arrays."""

    a: complex
    b: complex

    def __matmul__(self, other: CayleyKlein) -> CayleyKlein:
        """Pair of the product self other, in which other acts first."""
        return CayleyKlein(*_compose(self.a, self.b, other.a, other.b))

    def unitarity_defect(self):
        """abs(|a|^2 + |b|^2 - 1), elementwise on array pairs."""
        return abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)

    def matrix(self) -> np.ndarray:
        """The 2x2 propagator of a scalar pair."""
        return np.array(
            [[self.a, self.b], [-self.b.conjugate(), self.a.conjugate()]],
            dtype=complex,
        )

    def apply(self, u, d):
        """The state (u, d) after the propagator: (a u + b d, conj(a) d - conj(b) u)."""
        return self.a * u + self.b * d, self.a.conjugate() * d - self.b.conjugate() * u


def _compose(a2, b2, a1, b1):
    """Fields of the product U2 U1; the loops below call it on bare arrays
    because building a pair per level costs about a microsecond."""
    return a2 * a1 - b2 * b1.conjugate(), a2 * b1 + b2 * a1.conjugate()


def exp(zeta, cz) -> CayleyKlein:
    """Pair of exp(-i c.sigma/2) for the su(2) vector c given as
    zeta = c_x + i c_y and c_z; c = 0 gives exactly the identity."""
    norm = np.sqrt(zeta.real**2 + zeta.imag**2 + cz * cz)
    s = 0.5 * np.sinc(norm / (2.0 * math.pi))  # sin(|c|/2) / |c|
    return CayleyKlein(np.cos(0.5 * norm) - 1j * (s * cz), -1j * s * zeta.conjugate())


def tree_product(u: CayleyKlein) -> CayleyKlein:
    """Ordered product along the last axis (later factors on the left) by
    pairwise reduction; at an odd length the last factor waits one level."""
    a, b = u
    while a.shape[-1] > 1:
        pa, pb = _compose(a[..., 1::2], b[..., 1::2], a[..., 0:-1:2], b[..., 0:-1:2])
        if a.shape[-1] % 2:
            pa = np.concatenate((pa, a[..., -1:]), axis=-1)
            pb = np.concatenate((pb, b[..., -1:]), axis=-1)
        a, b = pa, pb
    return CayleyKlein(a[..., 0], b[..., 0])


def prefix_scan(u: CayleyKlein) -> CayleyKlein:
    """Running products U_k ... U_0 of a 1-D pair array, by a log-depth
    scan."""
    a, b = u.a.copy(), u.b.copy()
    s = 1
    while s < a.size:
        a[s:], b[s:] = _compose(a[s:], b[s:], a[:-s], b[:-s])
        s *= 2
    return CayleyKlein(a, b)
