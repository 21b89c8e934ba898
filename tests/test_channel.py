import math

import numpy as np
import pytest

from leosem.channel import ChannelConfig, ChannelModel, link_rate

EDGES = [(0, 1), (1, 0), (1, 2), (2, 1)]


def make_channel(**kwargs) -> ChannelModel:
    defaults = dict(seed=11)
    defaults.update(kwargs)
    return ChannelModel(ChannelConfig(**defaults), EDGES, slot_length_s=0.1)


def test_rate_at_zero_db_is_bandwidth():
    assert link_rate(0.0, 1e6) == pytest.approx(1e6, rel=1e-12)


def test_rate_at_ten_db():
    # log2(1 + 10) evaluated independently
    assert link_rate(10.0, 1e6) == pytest.approx(3459431.6186372973, rel=1e-12)


def test_rate_vanishes_at_low_snr():
    assert link_rate(-300.0, 1e6) < 1e-15


def test_rate_monotone_in_snr():
    snrs = np.linspace(-30, 40, 200)
    rates = link_rate(snrs, 2e6)
    assert np.all(np.diff(rates) > 0)


def test_reference_distance_gives_base_snr():
    ch = make_channel(fast_std_db=0.0, jitter_amplitude_db=0.0, base_snr_db=25.0,
                      reference_distance_km=1000.0)
    snr = ch.link_snr_array(np.full(len(EDGES), 1000.0), 0.0)
    assert snr == pytest.approx([25.0] * len(EDGES), abs=1e-12)


FLOAT_FIELDS = ["fast_std_db", "jitter_amplitude_db", "correlation_horizon_s", "failure_rate",
                "base_snr_db", "reference_distance_km", "pathloss_exponent", "bandwidth_hz"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_nonfinite_config_value_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ChannelConfig(**{name: value})


def test_fast_noise_sample_std():
    ch = make_channel(fast_std_db=1.0)
    draws = []
    for slot in range(2500):
        ch.advance_to_slot(slot)
        draws.extend(ch.fast_db)  # 4 edges per slot -> 10^4 draws
    std = float(np.std(draws))
    assert 0.9 <= std <= 1.1


def test_jitter_never_exceeds_amplitude():
    ch = make_channel(jitter_amplitude_db=2.0)
    for slot in range(2000):
        ch.advance_to_slot(slot)
        assert np.all(np.abs(ch.jitter_db) <= 2.0 + 1e-12)


def test_jitter_autocorrelation_horizon():
    # Empirical ACF of the simulated slow process: at a lag of one
    # correlation horizon (2 s = 20 slots) it should sit near e^-1.
    ch = make_channel(jitter_amplitude_db=2.0, correlation_horizon_s=2.0, seed=5)
    xs = np.empty(100_000)
    for slot in range(100_000):
        ch.advance_to_slot(slot)
        xs[slot] = ch.jitter_db[0]
    xs -= xs.mean()
    lag = 20
    acf = float((xs[:-lag] @ xs[lag:]) / (xs @ xs))
    assert 0.28 <= acf <= 0.45  # e^-1 = 0.368 within sampling noise


def test_failure_rate_zero_all_available():
    ch = make_channel(failure_rate=0.0)
    for slot in range(50):
        ch.advance_to_slot(slot)
        assert ch.availability(slot * 0.1).all()


def test_failure_fraction_matches_rate():
    ch = make_channel(failure_rate=0.05, seed=3)
    down = total = 0
    for slot in range(25_000):
        ch.advance_to_slot(slot)
        flags = ch.availability(slot * 0.1)
        down += int((~flags).sum())
        total += len(flags)
    assert total == 100_000
    assert 0.045 <= down / total <= 0.055


def test_same_seed_reproduces_everything():
    a = make_channel(seed=42)
    b = make_channel(seed=42)
    for slot in (0, 3, 4, 10):
        a.advance_to_slot(slot)
        b.advance_to_slot(slot)
        assert np.array_equal(a.available, b.available)
        assert np.array_equal(a.jitter_db, b.jitter_db)
        assert np.array_equal(a.fast_db, b.fast_db)


def test_rewind_rejected():
    ch = make_channel()
    ch.advance_to_slot(5)
    with pytest.raises(ValueError):
        ch.advance_to_slot(4)


def test_pathloss_slope():
    ch = make_channel(fast_std_db=0.0, jitter_amplitude_db=0.0,
                      pathloss_exponent=2.0, base_snr_db=20.0,
                      reference_distance_km=1000.0)
    # Doubling the distance at exponent 2 costs 20*log10(2) ~ 6.02 dB.
    s1, s2, _, _ = ch.link_snr_array(np.array([1000.0, 2000.0, 1000.0, 1000.0]), 0.0)
    assert s1 - s2 == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)
