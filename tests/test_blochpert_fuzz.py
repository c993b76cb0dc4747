"""Property fuzz of the first-order Magnus generator behind
``lzdrive.blochpert``.

zeta(tau) is the integral of g = b_x e^{-i theta} from -infinity to tau,
and ``blochpert`` sums it in closed form over the (n, alpha) crossings as
shifted Fresnel pairs.  Each draw compares one increment zeta(tau_b) -
zeta(tau_a) with a composite Gauss-Legendre quadrature of the very g that
``integrate`` steps in (``model.transverse_field`` times
e^{-i ``model.longitudinal_phase``}).  That checks the offsets,
couplings, passage phases and the default truncation with no physics
approximation, at 1e-12 absolute:

- v in [0.3, 3], signed delta, eps0 and A_f, any phase phi;
- |A/omega| <= 100, omega and omega_f in [0.2, 5];
- windows of length 0.5 to 30 inside [-30, 40].

The derandomized profile in ``conftest.py`` makes the draws identical on
every run.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from lzdrive.blochpert import _zeta, default_truncation
from lzdrive.integrate import _rate
from lzdrive.model import DriveConfig, longitudinal_phase, transverse_field

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def _zeta_quadrature(cfg, tau_a, tau_b):
    """Integral of the frame's b_x e^{-i theta} over [tau_a, tau_b]: 16-point
    Gauss-Legendre panels, each spanning at most 2 radians of the
    integrator's rate bound."""
    c = cfg.working()
    panels = max(1, math.ceil((tau_b - tau_a) * _rate(c, max(abs(tau_a), abs(tau_b))) / 2.0))
    edges = np.linspace(tau_a, tau_b, panels + 1)
    half = 0.5 * np.diff(edges)
    t = (edges[:-1] + half)[:, None] + half[:, None] * _NODES
    g = transverse_field(t, c) * np.exp(-1j * longitudinal_phase(t, c))
    return np.sum(half * (g @ _WEIGHTS))


_STAIRCASE = dict(v=1.0, delta=0.07, eps0=0.5, freq_rf=1.0, amp_mw=0.08,
                  freq_mw=1.0, phase=0.3)


@given(
    v=st.floats(0.3, 3.0),
    delta=st.floats(-0.3, 0.3),
    eps0=st.floats(-3.0, 3.0),
    ratio=st.floats(-100.0, 100.0),
    freq_rf=st.floats(0.2, 5.0),
    amp_mw=st.floats(-0.3, 0.3),
    freq_mw=st.floats(0.2, 5.0),
    phase=st.floats(-7.0, 7.0),
    tau_a=st.floats(-30.0, 10.0),
    span=st.floats(0.5, 30.0),
)
@example(**_STAIRCASE, ratio=5.0, tau_a=-20.0, span=35.0)
@example(**_STAIRCASE, ratio=20.0, tau_a=-20.0, span=35.0)
@example(**_STAIRCASE, ratio=40.0, tau_a=-20.0, span=35.0)
@example(**_STAIRCASE, ratio=60.0, tau_a=-20.0, span=35.0)
@example(**_STAIRCASE, ratio=100.0, tau_a=-20.0, span=35.0)
def test_zeta_increment_matches_frame_quadrature(v, delta, eps0, ratio, freq_rf,
                                                 amp_mw, freq_mw, phase, tau_a, span):
    cfg = DriveConfig(v=v, delta=delta, eps0=eps0, amp_rf=ratio * freq_rf,
                      freq_rf=freq_rf, amp_mw=amp_mw, freq_mw=freq_mw, phase=phase)
    tau_b = tau_a + span
    z_a, z_b = _zeta(np.array([tau_a, tau_b]), cfg, default_truncation(cfg))
    assert abs((z_b - z_a) - _zeta_quadrature(cfg, tau_a, tau_b)) <= 1e-12
