import math

import numpy as np
import pytest

from leosem.channel import SLOT_BLOCK, ChannelConfig, ChannelModel, link_rate

EDGES = [(0, 1), (1, 0), (1, 2), (2, 1)]


def make_channel(edges=EDGES, seed=11, **kwargs) -> ChannelModel:
    return ChannelModel(ChannelConfig(**kwargs), edges, slot_length_s=0.1, seed=seed)


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
    ch.advance_to_slot(0)
    snr = ch.snr_now(np.full(len(EDGES), 1000.0))
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
        assert ch.available.all()


def test_failure_fraction_matches_rate():
    ch = make_channel(failure_rate=0.05, seed=3)
    down = total = 0
    for slot in range(25_000):
        ch.advance_to_slot(slot)
        flags = ch.available
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
    ch.advance_to_slot(0)
    s1, s2, _, _ = ch.snr_now(np.array([1000.0, 2000.0, 1000.0, 1000.0]))
    assert s1 - s2 == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)


class SlotBySlotChannel:
    """The channel drawn one slot at a time: the draw order of the contract."""

    def __init__(self, cfg: ChannelConfig, n: int, slot_length_s: float, seed: int):
        self.cfg, self.n = cfg, n
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.rho = math.exp(-slot_length_s / cfg.correlation_horizon_s)
        jitter_std = cfg.jitter_amplitude_db / 2.0
        self.innov_std = jitter_std * math.sqrt(max(0.0, 1.0 - self.rho**2))
        self.slot = 0
        self.jitter_db = self.clamp(self.rng.normal(0.0, jitter_std, size=n))
        self.fast_db = self.rng.normal(0.0, cfg.fast_std_db, size=n)
        self.available = self.rng.random(n) >= cfg.failure_rate

    def clamp(self, x):
        a = self.cfg.jitter_amplitude_db
        return np.minimum(np.maximum(x, -a), a)

    def advance_to_slot(self, slot):
        while self.slot < slot:
            self.jitter_db = self.clamp(
                self.rho * self.jitter_db + self.rng.normal(0.0, self.innov_std, size=self.n))
            self.fast_db = self.rng.normal(0.0, self.cfg.fast_std_db, size=self.n)
            self.available = self.rng.random(self.n) >= self.cfg.failure_rate
            self.slot += 1


@pytest.mark.parametrize("kwargs", [
    dict(seed=3), dict(seed=4, fast_std_db=0.0), dict(seed=5, jitter_amplitude_db=0.0),
    dict(seed=6, failure_rate=1.0, correlation_horizon_s=0.05), dict(seed=7, failure_rate=0.0),
])
@pytest.mark.parametrize("links", [0, 4, 36, 280])
def test_block_draws_equal_slot_by_slot_draws(kwargs, links):
    ch = make_channel([None] * links, **kwargs)
    cfg, want = ch.cfg, SlotBySlotChannel(ch.cfg, links, 0.1, kwargs["seed"])
    d = np.linspace(400.0, 5000.0, links)
    # Within a block, on its last slot and the next block's first, and
    # jumps over several blocks at once.
    for slot in (0, 0, 1, 7, 15, 16, 17, 31, 32, 100, 101, 250, 251, 252):
        ch.advance_to_slot(slot)
        want.advance_to_slot(slot)
        assert ch.slot == slot and ch.first <= slot < ch.first + SLOT_BLOCK
        for name in ("jitter_db", "fast_db", "available"):
            assert getattr(ch, name).tobytes() == getattr(want, name).tobytes(), (name, slot)
        pathloss = cfg.base_snr_db - 10.0 * cfg.pathloss_exponent * np.log10(
            d / cfg.reference_distance_km)
        assert ch.snr_now(d).tobytes() == (pathloss + want.jitter_db + want.fast_db).tobytes()
