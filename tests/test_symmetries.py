"""Exact symmetries of the driven crossing, applied to the closed forms
and to the numerics over a symmetric window.

Each relation maps a config onto one whose Hamiltonian gives the same
populations, so every closed form must return the same value on both:

- time reversal, (eps0, A, phi) -> (-eps0, -A, -phi);
- conjugation by sigma_z, (delta, A_f) -> (-delta, -A_f);
- a full turn of the drive phase, phi -> phi + 2 pi;
- (A_f, phi) -> (-A_f, phi + pi), since cos(x + pi) = -cos(x);
- the sweep-rate rescaling, v -> s^2 v with every energy times s.

phi -> -phi and delta -> -delta on their own are not symmetries of the
physics, so nothing here asserts them.  The derandomized profile in
``conftest.py`` makes the draws identical on every run.
"""

import dataclasses
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from lzdrive.analytic import (
    single_passage_propagator,
    strong_drive_survival,
    weak_drive_probabilities,
)
from lzdrive.blochpert import bloch_asymptotic_uz
from lzdrive.integrate import propagate_tdse
from lzdrive.model import DriveConfig

_ENERGIES = ("delta", "eps0", "amp_rf", "freq_rf", "amp_mw", "freq_mw")


def _rescaled(cfg, s):
    return dataclasses.replace(
        cfg, v=s * s * cfg.v, **{k: s * getattr(cfg, k) for k in _ENERGIES}
    )


RELATIONS = {
    "time reversal": lambda c, s: dataclasses.replace(
        c, eps0=-c.eps0, amp_rf=-c.amp_rf, phase=-c.phase),
    "sigma_z": lambda c, s: dataclasses.replace(c, delta=-c.delta, amp_mw=-c.amp_mw),
    "phi + 2 pi": lambda c, s: dataclasses.replace(c, phase=c.phase + 2.0 * math.pi),
    "(-A_f, phi + pi)": lambda c, s: dataclasses.replace(
        c, amp_mw=-c.amp_mw, phase=c.phase + math.pi),
    "v rescaling": _rescaled,
}


def _strong_at_resonance(cfg):
    """strong_drive_survival with eps0 moved to the nearest multiple of
    omega and freq_mw to the nearest nonzero one.  Every relation above
    commutes with this move (round is odd, and s is a power of two)."""
    w = cfg.freq_rf
    return strong_drive_survival(dataclasses.replace(
        cfg, eps0=round(cfg.eps0 / w) * w, freq_mw=max(1, round(cfg.freq_mw / w)) * w))


CLOSED_FORMS = {
    "weak_drive_probabilities": lambda c: weak_drive_probabilities(c)[0],
    "|c| of single_passage_propagator": lambda c: abs(single_passage_propagator(c).c),
    "strong_drive_survival at resonance": _strong_at_resonance,
    "bloch_asymptotic_uz": bloch_asymptotic_uz,
}


@st.composite
def drive_configs(draw, max_freq=100.0, max_ratio=60.0):
    # omega up to 100 with |A/omega| up to 60 puts crossings ~6000 out, where
    # (omega_n)^2/2 ~ 2e7: a relation that moves phi by 2 pi holds to 1e-12
    # only if that square is reduced modulo 2 pi before phi is subtracted.
    w = draw(st.floats(0.5, max_freq))
    return DriveConfig(
        delta=draw(st.floats(-0.2, 0.2)),
        eps0=draw(st.floats(-5.0, 5.0)),
        # |A/omega| up to 60 takes the default cutoff above its 40 floor
        amp_rf=draw(st.floats(-max_ratio, max_ratio)) * w,
        freq_rf=w,
        amp_mw=draw(st.floats(-0.3, 0.3)),
        freq_mw=draw(st.floats(0.2, 3.0)),
        phase=draw(st.floats(-2.0 * math.pi, 2.0 * math.pi)),
    )


# s is a power of two, so the rescaled config reduces to the same floats and
# an integer A/omega cannot round across the ceil of the default cutoff
@settings(max_examples=300)
@given(cfg=drive_configs(), s=st.integers(-3, 3).map(lambda k: 2.0**k))
def test_closed_forms_keep_the_exact_symmetries(cfg, s):
    for form, f in CLOSED_FORMS.items():
        base = f(cfg)
        for relation, move in RELATIONS.items():
            moved = f(move(cfg, s))
            assert abs(moved - base) <= 1e-12, (form, relation, base, moved)


def _final_p_up(cfg):
    tr = propagate_tdse(cfg, tau_start=-20.0, tau_end=20.0, tol=1e-10, sample_stride=40.0)
    return tr.final_populations()[0]


# a few ms per propagation, so a small budget and gentle drives; time
# reversal needs the symmetric window
@settings(max_examples=25)
@given(cfg=drive_configs(max_freq=5.0, max_ratio=5.0))
def test_numerics_keep_the_exact_symmetries(cfg):
    base = _final_p_up(cfg)
    for relation in ("time reversal", "sigma_z", "(-A_f, phi + pi)"):
        moved = _final_p_up(RELATIONS[relation](cfg, 1.0))
        assert abs(moved - base) <= 1e-9, (relation, base, moved)
