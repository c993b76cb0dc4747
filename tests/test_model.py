"""Model construction, eigenstructure, and harmonic bookkeeping."""

import math

import numpy as np
import pytest

from lzdrive.errors import AccuracyError, ConfigError, DomainError
from lzdrive.model import (
    ALPHAS,
    DriveConfig,
    Crossings,
    HarmonicIndex,
    crossings,
    eigenenergies,
    field_vector,
    hamiltonian,
    level_offset,
    transverse_field,
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


def test_transverse_field_is_field_vector_bx():
    rng = np.random.default_rng(45)
    for _ in range(100):
        cfg = random_config(rng)
        tau = rng.uniform(-50.0, 50.0)
        assert transverse_field(tau, cfg) == field_vector(tau, cfg).bx


def test_transverse_field_vectorized_over_tau():
    cfg = DriveConfig(**CASCADE, phase=0.7)
    taus = np.linspace(-50.0, 50.0, 1001).reshape(7, 143)
    bx = transverse_field(taus, cfg)
    assert bx.shape == taus.shape
    assert np.array_equal(bx, [[transverse_field(t, cfg) for t in row] for row in taus])


def test_transverse_field_without_drive_is_delta():
    cfg = DriveConfig(delta=0.07, eps0=0.5, amp_rf=25.0, freq_rf=1.0, freq_mw=3.0, phase=0.4)
    assert transverse_field(1.3, cfg) == 0.07
    assert transverse_field(np.linspace(-5.0, 5.0, 11), cfg) == 0.07
    unswept = DriveConfig(v=0.0, delta=-0.3, amp_rf=4.0, freq_rf=1.0)
    assert transverse_field(2.0, unswept) == -0.3


def test_transverse_field_follows_working_unit():
    # v = 4: energies in units of sqrt(v) = 2, so the field halves and the
    # drive frequency is halved on the tau clock
    cfg = DriveConfig(v=4.0, delta=0.14, amp_mw=0.5, freq_mw=3.0, phase=0.2)
    tau = 1.7
    assert transverse_field(tau, cfg) == pytest.approx(
        0.07 + 0.25 * math.cos(1.5 * tau + 0.2), rel=1e-15)
    assert transverse_field(tau, cfg) == transverse_field(tau, cfg.reduced())
    # v = 0: the raw clock, nothing rescaled
    flat = DriveConfig(v=0.0, delta=0.14, amp_mw=0.5, freq_mw=3.0, phase=0.2)
    assert transverse_field(tau, flat) == pytest.approx(
        0.14 + 0.5 * math.cos(3.0 * tau + 0.2), rel=1e-15)


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
    assert crossings(HarmonicIndex(0, 0), cfg).coupling == pytest.approx(0.035)
    assert crossings(HarmonicIndex(1, 1), cfg).coupling == 0.0
    cfg = DriveConfig(amp_rf=25.0, freq_rf=1.0, amp_mw=0.08, freq_mw=1.0)
    got = crossings(HarmonicIndex(5, -1), cfg).coupling
    assert got == pytest.approx(0.02 * bessel_j(5, 25.0), abs=1e-15)


def test_effective_coupling_parity():
    cfg = DriveConfig(delta=0.1, amp_rf=7.0, freq_rf=1.3, amp_mw=0.05, freq_mw=2.0)
    for n in range(0, 9):
        for alpha in (-1, 0, 1):
            plus = crossings(HarmonicIndex(n, alpha), cfg).coupling
            minus = crossings(HarmonicIndex(-n, alpha), cfg).coupling
            assert minus == pytest.approx((-1.0) ** n * plus, abs=1e-15)


def test_harmonic_functions_broadcast_over_photon_index():
    n = np.arange(-5, 6)
    cfg = DriveConfig(v=2.3, delta=0.11, eps0=0.7, amp_rf=3.0, freq_rf=1.7,
                      amp_mw=0.09, freq_mw=1.3, phase=0.4)
    for alpha in ALPHAS:
        table = crossings(HarmonicIndex(n, alpha), cfg)
        assert table.offset.tobytes() == level_offset(HarmonicIndex(n, alpha), cfg).tobytes()
        for field in Crossings._fields:
            got = getattr(table, field)
            want = np.array([getattr(crossings(HarmonicIndex(int(k), alpha), cfg), field)
                             for k in n])
            assert got.shape == n.shape
            assert got.tobytes() == want.tobytes(), (field, alpha)


def test_passage_phase_values():
    assert crossings(HarmonicIndex(0, 0), DriveConfig()).phase == 0.0
    cfg = DriveConfig(phase=math.pi / 2)
    assert crossings(HarmonicIndex(0, 1), cfg).phase == pytest.approx(-math.pi / 2)
    cfg = DriveConfig(eps0=0.5, freq_rf=1.0, freq_mw=1.0, phase=math.pi / 4)
    got = crossings(HarmonicIndex(1, -1), cfg).phase
    assert got == pytest.approx(0.125 + math.pi / 4)


def test_alpha_validation():
    for fn in (level_offset, crossings):
        with pytest.raises(DomainError):
            fn(HarmonicIndex(0, 2), DriveConfig())
    # one entry outside the branches refuses a whole alpha array
    cfg = DriveConfig(delta=0.1, amp_rf=2.0, freq_rf=1.0, amp_mw=0.1, freq_mw=1.0)
    for bad in (2, 0.5):
        alpha = np.array([-1, 0, bad])
        for fn in (level_offset, crossings):
            with pytest.raises(DomainError, match="alpha"):
                fn(HarmonicIndex(np.arange(3), alpha), cfg)


def test_crossings_refuse_the_unswept_drive():
    # the table is in units of sqrt(v), which v = 0 does not have
    cfg = DriveConfig(v=0.0, delta=0.1, amp_rf=2.0, freq_rf=1.0, amp_mw=0.1, freq_mw=1.0)
    for idx in (HarmonicIndex(0, 0), HarmonicIndex(np.arange(3), np.array(ALPHAS))):
        with pytest.raises(ConfigError, match="v = 0"):
            crossings(idx, cfg)


def test_scalar_and_array_harmonic_lookups_agree_bit_for_bit():
    # a plain int (n, alpha) takes the scalar path of the table; each field must
    # give the same bytes as its element of one broadcast-grid call
    rng = np.random.default_rng(20240530)
    n = np.arange(-5, 6)
    alpha = np.array(ALPHAS)
    grid = HarmonicIndex(n, alpha[:, None])
    for k in range(200):
        cfg = DriveConfig(
            v=(1.0, 4.0, 0.3)[k % 3],
            delta=rng.uniform(-0.2, 0.2),
            eps0=rng.uniform(-2.0, 2.0),
            amp_rf=rng.uniform(0.0, 20.0),
            freq_rf=rng.uniform(0.5, 50.0),
            amp_mw=rng.uniform(-0.3, 0.3),
            freq_mw=rng.uniform(0.2, 3.0),
            phase=rng.uniform(0.0, 2.0 * math.pi),
        )
        table = crossings(grid, cfg)
        for i, a in enumerate(ALPHAS):
            for j, m in enumerate(n.tolist()):
                scalar = crossings(HarmonicIndex(m, a), cfg)
                for field in Crossings._fields:
                    got = np.float64(getattr(scalar, field)).tobytes()
                    want = getattr(table, field)[i, j].tobytes()
                    assert got == want, (field, m, a, cfg)


def test_bessel_j_scalar_orders_match_the_array_path():
    rng = np.random.default_rng(20240531)
    xs = np.concatenate([rng.uniform(-100.0, 100.0, 40), [0.0, 1e-300, 199_078.9]])
    orders = np.arange(-60, 61)
    for x in xs.tolist():
        table = bessel_j(orders, x)
        for j, m in enumerate(orders.tolist()):
            want = table[j].tobytes()
            for order in (m, np.int64(m), float(m)):
                assert np.float64(bessel_j(order, x)).tobytes() == want, (order, x)
    # the scalar path keeps the array path's refusals
    for order in (10_001, -10_001):
        with pytest.raises(DomainError):
            bessel_j(order, 1.0)
    with pytest.raises(DomainError):
        bessel_j(True, 1.0)
    for x in (199_079.0, -199_079.0, 1e7):
        with pytest.raises(AccuracyError):
            bessel_j(3, x)
