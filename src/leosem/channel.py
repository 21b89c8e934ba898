"""Per-link SNR, slow jitter, fast perturbation, failures and Shannon rate.

Each directed link carries: a log-distance pathloss SNR baseline, a slow
jitter realized as a clamped AR(1) process whose autocorrelation decays
with the configured correlation horizon, and a fast i.i.d. Gaussian
perturbation redrawn every slot.  Failures are i.i.d. per link per slot.
All randomness comes from one seeded generator and advances strictly
slot-by-slot, so a fixed seed reproduces every draw bit-for-bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    seed: int = 0

    def __post_init__(self):
        if self.fast_std_db < 0:
            raise ValueError("fast_std_db must be >= 0")
        if self.jitter_amplitude_db < 0:
            raise ValueError("jitter_amplitude_db must be >= 0")
        if self.correlation_horizon_s <= 0:
            raise ValueError("correlation_horizon_s must be > 0")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be > 0")


def link_rate(snr_db: float | np.ndarray, bandwidth_hz: float) -> float | np.ndarray:
    """Shannon capacity in bits/second for an SNR given in dB."""
    return bandwidth_hz * np.log2(1.0 + 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0))


class ChannelModel:
    """Stochastic slot-indexed state for a fixed list of directed links.

    The edge list (and its order) is fixed at construction; jitter, fast
    noise and failure flags are arrays aligned to it.  ``advance_to_slot``
    only moves forward; querying an earlier slot than the current one is an
    error, querying the current slot is idempotent.
    """

    def __init__(self, cfg: ChannelConfig, edges, slot_length_s: float = 0.1):
        if slot_length_s <= 0:
            raise ValueError("slot_length_s must be > 0")
        self.cfg = cfg
        self.slot_length_s = slot_length_s
        self.edges = [(e[0], e[1]) for e in edges]
        self._edge_pos = {e: k for k, e in enumerate(self.edges)}
        n = len(self.edges)
        self._rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        # AR(1): rho chosen so autocorrelation at the horizon lag is e^-1.
        self._rho = math.exp(-slot_length_s / cfg.correlation_horizon_s)
        self._jitter_std = cfg.jitter_amplitude_db / 2.0
        self._innov_std = self._jitter_std * math.sqrt(max(0.0, 1.0 - self._rho**2))
        self.slot = 0
        self.jitter_db = self._clamp(self._rng.normal(0.0, self._jitter_std, size=n))
        self.fast_db = self._rng.normal(0.0, cfg.fast_std_db, size=n)
        self.available = self._rng.random(n) >= cfg.failure_rate

    def _clamp(self, x: np.ndarray) -> np.ndarray:
        a = self.cfg.jitter_amplitude_db
        return np.clip(x, -a, a)

    def slot_of(self, time_s: float) -> int:
        return int(math.floor(time_s / self.slot_length_s + 1e-9))

    def advance_to_slot(self, slot: int) -> None:
        if slot < self.slot:
            raise ValueError(f"channel already at slot {self.slot}, cannot rewind to {slot}")
        n = len(self.edges)
        while self.slot < slot:
            self.jitter_db = self._clamp(
                self._rho * self.jitter_db + self._rng.normal(0.0, self._innov_std, size=n)
            )
            self.fast_db = self._rng.normal(0.0, self.cfg.fast_std_db, size=n)
            self.available = self._rng.random(n) >= self.cfg.failure_rate
            self.slot += 1

    def _ensure_time(self, time_s: float) -> None:
        self.advance_to_slot(self.slot_of(time_s))

    def link_snr(self, edge: tuple[int, int], distance_km: float, time_s: float) -> float:
        """SNR in dB for one link: pathloss baseline + jitter + fast noise."""
        if distance_km <= 0:
            raise ValueError("distance_km must be > 0")
        self._ensure_time(time_s)
        k = self._edge_pos[edge]
        return float(self._pathloss_snr(distance_km) + self.jitter_db[k] + self.fast_db[k])

    def link_snr_array(self, distances_km: np.ndarray, time_s: float) -> np.ndarray:
        self._ensure_time(time_s)
        return self._pathloss_snr(np.asarray(distances_km)) + self.jitter_db + self.fast_db

    def _pathloss_snr(self, distance_km):
        cfg = self.cfg
        return cfg.base_snr_db - 10.0 * cfg.pathloss_exponent * np.log10(
            np.asarray(distance_km) / cfg.reference_distance_km
        )

    def rate_array(self, snr_db: np.ndarray) -> np.ndarray:
        return link_rate(snr_db, self.cfg.bandwidth_hz)

    def sample_failures(self, edges, time_s: float) -> np.ndarray:
        """Availability flags for this slot, aligned to the requested edges."""
        self._ensure_time(time_s)
        idx = [self._edge_pos[(e[0], e[1])] for e in edges]
        return self.available[idx]
