"""Model construction, eigenstructure, and harmonic bookkeeping."""

import math

import numpy as np
import pytest

from lzdrive.errors import ConfigError, DomainError
from lzdrive.model import (
    DriveConfig,
    HarmonicIndex,
    effective_coupling,
    eigenenergies,
    field_vector,
    hamiltonian,
    level_offset,
    passage_phase,
)
from lzdrive.specfun import bessel_j

CASCADE = dict(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0, amp_mw=0.08, freq_mw=1.0)


def random_config(rng):
    return DriveConfig(
        delta=rng.uniform(0.0, 0.2),
        eps0=rng.uniform(-1.0, 1.0),
        amp_rf=rng.uniform(0.0, 20.0),
        freq_rf=rng.uniform(0.5, 5.0),
        amp_mw=rng.uniform(0.0, 0.2),
        freq_mw=rng.uniform(0.5, 5.0),
        phase=rng.uniform(0.0, 2.0 * math.pi),
    )


def test_config_validation():
    with pytest.raises(ConfigError, match="v > 0"):
        DriveConfig(v=-1.0)
    with pytest.raises(ConfigError):
        DriveConfig(amp_rf=1.0, freq_rf=0.0)
    with pytest.raises(ConfigError):
        DriveConfig(amp_mw=1.0, freq_mw=-2.0)
    with pytest.raises(ConfigError):
        DriveConfig(delta=math.nan)
    with pytest.raises(ConfigError) as err:
        DriveConfig(delta=True)
    assert err.value.key == "delta"


def test_config_rescaling():
    cfg = DriveConfig(v=4.0, delta=0.14, eps0=1.0, amp_rf=50.0, freq_rf=2.0)
    red = cfg.reduced()
    assert red.v == 1.0
    assert red.delta == pytest.approx(0.07)
    assert red.eps0 == pytest.approx(0.5)
    assert red.amp_rf == pytest.approx(25.0)
    assert red.freq_rf == pytest.approx(1.0)
    # v = 1 configs pass through untouched
    cfg1 = DriveConfig(**CASCADE)
    assert cfg1.reduced() is cfg1


def test_field_vector_static():
    b = field_vector(0.0, DriveConfig(delta=0.5))
    assert b == (0.5, 0.0, 0.0)
    b = field_vector(2.0, DriveConfig(eps0=0.5))
    assert b.bx == 0.0 and b.by == 0.0 and b.bz == pytest.approx(2.5)


def test_field_vector_cascade_reference():
    b = field_vector(0.0, DriveConfig(**CASCADE))
    assert b.bx == pytest.approx(0.15)
    assert b.by == 0.0
    assert b.bz == pytest.approx(25.5)


def test_hamiltonian_trivial():
    assert np.all(hamiltonian(0.0, DriveConfig()) == 0.0)
    h = hamiltonian(0.0, DriveConfig(delta=0.3))
    np.testing.assert_allclose(h, [[0.0, 0.15], [0.15, 0.0]])


def test_hamiltonian_matches_pauli_decomposition():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    rng = np.random.default_rng(42)
    for _ in range(100):
        cfg = random_config(rng)
        tau = rng.uniform(-50.0, 50.0)
        b = field_vector(tau, cfg)
        h = hamiltonian(tau, cfg)
        np.testing.assert_allclose(h, 0.5 * (b.bx * sx + b.bz * sz), atol=1e-15)
        np.testing.assert_allclose(h, h.conj().T, atol=0.0)  # hermitian
        assert h[0, 0] + h[1, 1] == 0.0  # traceless


def test_eigenenergies_trivial():
    up, dn = eigenenergies(0.0, DriveConfig(delta=0.4))
    assert up == pytest.approx(0.2) and dn == pytest.approx(-0.2)
    up, dn = eigenenergies(-3.0, DriveConfig())
    assert up == pytest.approx(1.5) and dn == pytest.approx(-1.5)


def test_eigenenergies_symmetric_and_gap_is_field_norm():
    rng = np.random.default_rng(43)
    for _ in range(100):
        cfg = random_config(rng)
        tau = rng.uniform(-50.0, 50.0)
        up, dn = eigenenergies(tau, cfg)
        b = field_vector(tau, cfg)
        assert up == -dn
        assert up - dn == pytest.approx(math.hypot(b.bx, b.bz), rel=1e-14)


def test_eigenenergies_match_cosecant_form_where_defined():
    # alternative form bx*csc(2*phi)/2 with phi = arctan(-bx/bz)/2 agrees in
    # magnitude wherever it is nonsingular (its sign carries an unspecified
    # branch, which the +-|b|/2 convention sidesteps)
    rng = np.random.default_rng(44)
    for _ in range(50):
        cfg = random_config(rng)
        tau = rng.uniform(-50.0, 50.0)
        b = field_vector(tau, cfg)
        if abs(b.bz) < 1e-9 or abs(b.bx) < 1e-9:
            continue
        phi = 0.5 * math.atan(-b.bx / b.bz)
        alt = 0.5 * b.bx / math.sin(2.0 * phi)
        up, _ = eigenenergies(tau, cfg)
        assert abs(alt) == pytest.approx(up, rel=1e-12)


def test_shift_moves_crossing_left():
    cfg = DriveConfig(delta=0.5, eps0=1.0)
    taus = np.linspace(-10.0, 10.0, 4001)
    gaps = [eigenenergies(t, cfg)[0] - eigenenergies(t, cfg)[1] for t in taus]
    assert taus[int(np.argmin(gaps))] < 0.0


def test_level_offset_values():
    assert level_offset(HarmonicIndex(0, 0), DriveConfig()) == 0.0
    cfg = DriveConfig(eps0=0.5, freq_rf=1.0, freq_mw=1.0)
    assert level_offset(HarmonicIndex(1, 1), cfg) == pytest.approx(2.5)
    cfg = DriveConfig(freq_rf=100.0, freq_mw=200.0)
    assert level_offset(HarmonicIndex(-2, -1), cfg) == pytest.approx(-400.0)


def test_effective_coupling_values():
    cfg = DriveConfig(delta=0.07)
    assert effective_coupling(HarmonicIndex(0, 0), cfg) == pytest.approx(0.035)
    assert effective_coupling(HarmonicIndex(1, 1), cfg) == 0.0
    cfg = DriveConfig(amp_rf=25.0, freq_rf=1.0, amp_mw=0.08, freq_mw=1.0)
    got = effective_coupling(HarmonicIndex(5, -1), cfg)
    assert got == pytest.approx(0.02 * bessel_j(5, 25.0), abs=1e-15)


def test_effective_coupling_parity():
    cfg = DriveConfig(delta=0.1, amp_rf=7.0, freq_rf=1.3, amp_mw=0.05, freq_mw=2.0)
    for n in range(0, 9):
        for alpha in (-1, 0, 1):
            plus = effective_coupling(HarmonicIndex(n, alpha), cfg)
            minus = effective_coupling(HarmonicIndex(-n, alpha), cfg)
            assert minus == pytest.approx((-1.0) ** n * plus, abs=1e-15)


def test_passage_phase_values():
    assert passage_phase(HarmonicIndex(0, 0), DriveConfig()) == 0.0
    cfg = DriveConfig(phase=math.pi / 2)
    assert passage_phase(HarmonicIndex(0, 1), cfg) == pytest.approx(-math.pi / 2)
    cfg = DriveConfig(eps0=0.5, freq_rf=1.0, freq_mw=1.0, phase=math.pi / 4)
    got = passage_phase(HarmonicIndex(1, -1), cfg)
    assert got == pytest.approx(0.125 + math.pi / 4)


def test_alpha_validation():
    with pytest.raises(DomainError):
        level_offset(HarmonicIndex(0, 2), DriveConfig())
