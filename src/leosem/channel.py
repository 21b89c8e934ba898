"""Per-link SNR, slow jitter, fast perturbation, failures and Shannon rate.

Each directed link carries: a log-distance pathloss SNR baseline, a slow
jitter realized as a clamped AR(1) process whose autocorrelation decays
with the configured correlation horizon, and a fast i.i.d. Gaussian
perturbation redrawn every slot.  Failures are i.i.d. per link per slot.
All randomness comes from one seeded generator and advances strictly
slot-by-slot (drawn a block of slots ahead), so a fixed seed reproduces
every draw bit-for-bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fields import ConfigError, check_numeric_fields


@dataclass(frozen=True)
class ChannelConfig:
    fast_std_db: float = 1.0
    jitter_amplitude_db: float = 2.0
    correlation_horizon_s: float = 2.0
    failure_rate: float = 0.05
    base_snr_db: float = 25.0
    reference_distance_km: float = 1000.0
    pathloss_exponent: float = 2.0
    bandwidth_hz: float = 1.0e6

    def __post_init__(self):
        check_numeric_fields(self)
        if self.fast_std_db < 0:
            raise ConfigError("fast_std_db must be >= 0")
        if self.jitter_amplitude_db < 0:
            raise ConfigError("jitter_amplitude_db must be >= 0")
        if self.correlation_horizon_s <= 0:
            raise ConfigError("correlation_horizon_s must be > 0")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ConfigError("failure_rate must be in [0, 1]")
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be > 0")
        if not self.reference_distance_km > 0:
            raise ConfigError("reference_distance_km must be > 0")


def link_rate(snr_db: float | np.ndarray, bandwidth_hz: float) -> float | np.ndarray:
    """Shannon capacity in bits/second for an SNR given in dB."""
    return bandwidth_hz * np.log2(1.0 + 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0))


# Slots drawn per block; ``Constellation.snapshot`` derives a block's slot
# state in one pass over the same slots.
SLOT_BLOCK = 16


class ChannelModel:
    """Stochastic slot-indexed state for a fixed list of directed links.

    ``seed`` seeds the generator; ``run_episode`` derives one per episode
    from the experiment seed.  Only the number of links is kept from
    ``edges``; jitter, fast noise and failure flags are arrays aligned to
    the list's order.  The channel
    draws ``SLOT_BLOCK`` slots at a time, each in the order a slot-by-slot
    draw takes (jitter innovation, fast term, failure flags), and keeps the
    drawn block as ``(SLOT_BLOCK, num_links)`` rows from slot ``first``.
    ``advance_to_slot`` moves the cursor ``slot`` forward, drawing the next
    blocks when it passes the drawn range; ``jitter_db``, ``fast_db`` and
    ``available`` are the cursor slot's rows.  Querying an earlier slot
    than the current one is an error, querying the current slot is
    idempotent.
    """

    def __init__(self, cfg: ChannelConfig, edges, slot_length_s: float = 0.1,
                 seed: int = 0):
        if slot_length_s <= 0:
            raise ValueError("slot_length_s must be > 0")
        self.cfg = cfg
        self.slot_length_s = slot_length_s
        self.num_links = len(edges)
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        # AR(1): rho chosen so autocorrelation at the horizon lag is e^-1.
        self._rho = math.exp(-slot_length_s / cfg.correlation_horizon_s)
        self._jitter_std = cfg.jitter_amplitude_db / 2.0
        self._innov_std = self._jitter_std * math.sqrt(max(0.0, 1.0 - self._rho**2))
        self.slot = 0
        self.first = -SLOT_BLOCK
        self._normal = self._available = None
        self._next_block()

    def _next_block(self) -> None:
        """Draw the ``SLOT_BLOCK`` slots after the drawn ones.

        Each slot takes one standard-normal draw for its jitter innovation
        and fast term together, then one uniform draw for its failure
        flags: the generator's sequence of slot-by-slot ``normal``,
        ``normal``, ``random`` calls.
        """
        # The jitter row of the slot before the block (None before slot 0).
        prev = None if self._normal is None else self._normal[-1, 0].copy()
        self.first += SLOT_BLOCK
        k_max, n, rng = SLOT_BLOCK, self.num_links, self._rng
        normal = np.empty((k_max, 2, n))  # per slot: jitter, fast
        uniform = np.empty((k_max, n))
        for k in range(k_max):
            rng.standard_normal(out=normal[k])
            rng.random(out=uniform[k])
        # Generator.normal(0.0, s) returns 0.0 + s * z for its standard
        # draws z, so scaling these gives its bits.  Slot 0 draws the
        # stationary jitter instead of an innovation.
        std = np.empty((k_max, 2, 1))
        std[:, 0] = self._innov_std
        std[:, 1] = self.cfg.fast_std_db
        if prev is None:
            std[0, 0] = self._jitter_std
        normal *= std
        normal += 0.0
        # The AR(1) recursion runs slot by slot: clamp(rho * prev + innovation).
        a = self.cfg.jitter_amplitude_db
        for row in normal[:, 0]:
            if prev is not None:
                row += self._rho * prev
            np.minimum(np.maximum(row, -a, out=row), a, out=row)
            prev = row
        self._normal = normal
        self._available = uniform >= self.cfg.failure_rate

    def slot_of(self, time_s: float) -> int:
        return int(math.floor(time_s / self.slot_length_s + 1e-9))

    def advance_to_slot(self, slot: int) -> None:
        if slot < self.slot:
            raise ValueError(f"channel already at slot {self.slot}, cannot rewind to {slot}")
        self.slot = slot
        while slot >= self.first + SLOT_BLOCK:
            self._next_block()

    @property
    def jitter_db(self) -> np.ndarray:
        return self._normal[self.slot - self.first, 0]

    @property
    def fast_db(self) -> np.ndarray:
        return self._normal[self.slot - self.first, 1]

    @property
    def available(self) -> np.ndarray:
        """Availability flags for this slot in edge-list order (read-only)."""
        return self._available[self.slot - self.first]

    def snr_now(self, distances_km: np.ndarray) -> np.ndarray:
        """Per-link SNR (dB) in the channel's current slot.  Draws nothing."""
        return self.snr_rows(distances_km, self.slot - self.first)

    def snr_rows(self, distances_km: np.ndarray, rows) -> np.ndarray:
        """Per-link SNR (dB) in the drawn block's slots ``rows`` (an index
        or slice from slot ``first``): pathloss baseline plus slow jitter
        plus fast perturbation, one row per slot.  Draws nothing."""
        return self._pathloss_snr(distances_km) + self._normal[rows, 0] + self._normal[rows, 1]

    def available_rows(self, rows) -> np.ndarray:
        """Availability flags of the drawn block's slots ``rows``."""
        return self._available[rows]

    def _pathloss_snr(self, distance_km):
        cfg = self.cfg
        return cfg.base_snr_db - 10.0 * cfg.pathloss_exponent * np.log10(
            np.asarray(distance_km) / cfg.reference_distance_km
        )

    def rate_array(self, snr_db: np.ndarray) -> np.ndarray:
        return link_rate(snr_db, self.cfg.bandwidth_hz)
