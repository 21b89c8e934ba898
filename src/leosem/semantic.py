"""Semantic payload model: packetization, relay pipeline and quality proxy.

A session carries a latent payload whose size scales linearly with its
channel budget C in {64, 96, 128}.  Relay processing prunes the budget
(never regrows it past the historical minimum), recovers part of the
accumulated distortion and pays a re-quantization penalty.  End-to-end
quality is a parametric proxy in [0, 1], monotone up in link SNR and
budget and monotone down in accumulated distortion and re-quantization
count.  Measured (snr, C) -> quality curves can replace the parametric
SNR/budget factors via a CSV calibration table.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

BUDGET_SET = (64, 96, 128)
BUDGET_MAX = 128
DEFAULT_CHUNK_BYTES = 1200
# Latent size calibrated so a full-budget payload splits into 931 chunks.
DEFAULT_BASE_LATENT_BYTES = 1_117_200

MODE_FORWARD = 0
MODE_PROCESS = 1


@dataclass(frozen=True)
class SemanticState:
    """Per-session semantic bookkeeping, updated as the payload travels."""
    session_id: int
    budget_c: int = BUDGET_MAX
    hops_since_process: int = 0
    accum_distortion: float = 0.0
    quant_penalties: int = 0
    min_link_snr_db: float = math.inf

    def __post_init__(self):
        if self.budget_c not in BUDGET_SET:
            raise ValueError(f"budget_c must be one of {BUDGET_SET}")
        if self.accum_distortion < 0:
            raise ValueError("accum_distortion must be >= 0")
        if self.hops_since_process < 0:
            raise ValueError("hops_since_process must be >= 0")


class CalibrationTable:
    """Bilinear (snr_db, channel_c) -> quality grid loaded from CSV.

    The CSV needs a ``snr_db,channel_c,quality`` header and one row per
    grid point; the grid must be complete (every snr x C combination).
    Lookups clamp to the grid hull and the result is clamped to [0, 1].
    """

    def __init__(self, snrs_db: np.ndarray, budgets: np.ndarray, values: np.ndarray):
        self.snrs_db = np.asarray(snrs_db, dtype=float)
        self.budgets = np.asarray(budgets, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (len(self.snrs_db), len(self.budgets)):
            raise ValueError("calibration grid shape mismatch")

    @classmethod
    def from_csv(cls, path) -> "CalibrationTable":
        points: dict[tuple[float, float], float] = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            expected = {"snr_db", "channel_c", "quality"}
            if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
                raise ValueError(
                    f"calibration table must have columns {sorted(expected)}"
                )
            for row in reader:
                points[(float(row["snr_db"]), float(row["channel_c"]))] = float(row["quality"])
        if not points:
            raise ValueError(f"calibration table {path} has no rows")
        snrs = np.array(sorted({k[0] for k in points}))
        buds = np.array(sorted({k[1] for k in points}))
        values = np.empty((len(snrs), len(buds)))
        for i, s in enumerate(snrs):
            for j, b in enumerate(buds):
                if (s, b) not in points:
                    raise ValueError(f"calibration grid missing point snr={s}, C={b}")
                values[i, j] = points[(s, b)]
        return cls(snrs, buds, values)

    def lookup(self, snr_db: float, budget_c: float) -> float:
        s = float(np.clip(snr_db, self.snrs_db[0], self.snrs_db[-1]))
        b = float(np.clip(budget_c, self.budgets[0], self.budgets[-1]))
        i = int(np.clip(np.searchsorted(self.snrs_db, s) - 1, 0, len(self.snrs_db) - 2)) \
            if len(self.snrs_db) > 1 else 0
        j = int(np.clip(np.searchsorted(self.budgets, b) - 1, 0, len(self.budgets) - 2)) \
            if len(self.budgets) > 1 else 0
        if len(self.snrs_db) == 1:
            ws = 0.0
        else:
            ws = (s - self.snrs_db[i]) / (self.snrs_db[i + 1] - self.snrs_db[i])
        if len(self.budgets) == 1:
            wb = 0.0
        else:
            wb = (b - self.budgets[j]) / (self.budgets[j + 1] - self.budgets[j])
        i2 = min(i + 1, len(self.snrs_db) - 1)
        j2 = min(j + 1, len(self.budgets) - 1)
        v = (
            self.values[i, j] * (1 - ws) * (1 - wb)
            + self.values[i2, j] * ws * (1 - wb)
            + self.values[i, j2] * (1 - ws) * wb
            + self.values[i2, j2] * ws * wb
        )
        return float(np.clip(v, 0.0, 1.0))


@dataclass(frozen=True)
class QualityProxyConfig:
    """Quality-proxy parameters; the ``proxy`` section of an experiment config.

    ``calibration_table`` is the path of a measured (snr, C) -> quality CSV
    (see ``CalibrationTable``); it is read once, on construction.
    """
    snr_midpoint_db: float = 3.0
    snr_slope_per_db: float = 0.3
    budget_gain: dict[int, float] = field(
        default_factory=lambda: {64: 0.80, 96: 0.92, 128: 1.0}
    )
    per_hop_distortion: float = 0.05
    requant_penalty: float = 0.05
    relay_recovery: float = 0.5
    noise_floor: float = 0.25
    noise_span: float = 1.75
    noise_slope_per_db: float = 0.25
    base_latent_bytes: int = DEFAULT_BASE_LATENT_BYTES
    calibration_table: str | None = None

    def __post_init__(self):
        if sorted(self.budget_gain) != list(BUDGET_SET):
            raise ValueError(f"budget_gain keys must be exactly {list(BUDGET_SET)}")
        gains = [self.budget_gain[c] for c in BUDGET_SET]
        if any(b - a < 0 for a, b in zip(gains, gains[1:])):
            raise ValueError("budget_gain must be nondecreasing in C")
        for name in ("per_hop_distortion", "requant_penalty"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        table = None
        if self.calibration_table is not None:
            table = CalibrationTable.from_csv(self.calibration_table)
        # Not a field: equality, asdict and the YAML see only the path.
        object.__setattr__(self, "calibration", table)


@dataclass(frozen=True)
class PayloadPlan:
    payload_bytes: int
    chunk_sizes: tuple[int, ...]

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_sizes)


def packetize(latent_bytes: int, budget_c: int, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> PayloadPlan:
    """Scale the latent to the budget and split it into fixed-size chunks.

    Payload bytes are latent_bytes * C / 128 (floor); the payload is cut
    into ceil(payload / chunk_bytes) chunks, all full-size except possibly
    the last.
    """
    if budget_c not in BUDGET_SET:
        raise ValueError(f"budget_c must be one of {BUDGET_SET}")
    if latent_bytes < 0:
        raise ValueError("latent_bytes must be >= 0")
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be > 0")
    payload = (latent_bytes * budget_c) // BUDGET_MAX
    if payload == 0:
        return PayloadPlan(payload_bytes=0, chunk_sizes=())
    n_full, rest = divmod(payload, chunk_bytes)
    sizes = [chunk_bytes] * n_full
    if rest:
        sizes.append(rest)
    return PayloadPlan(payload_bytes=payload, chunk_sizes=tuple(sizes))


def noise_factor(link_snr_db: float, cfg: QualityProxyConfig) -> float:
    """Distortion multiplier per hop; decays toward the floor as SNR rises."""
    x = -cfg.noise_slope_per_db * (link_snr_db - cfg.snr_midpoint_db)
    return cfg.noise_floor + cfg.noise_span * _sigmoid(x)


def record_hop(state: SemanticState, link_snr_db: float, cfg: QualityProxyConfig) -> SemanticState:
    """Account one traversed link: distortion grows, min-SNR tracks."""
    return replace(
        state,
        accum_distortion=state.accum_distortion + cfg.per_hop_distortion * noise_factor(link_snr_db, cfg),
        min_link_snr_db=min(state.min_link_snr_db, link_snr_db),
        hops_since_process=state.hops_since_process + 1,
    )


def relay_process(state: SemanticState, mode: int, budget_c: int, cfg: QualityProxyConfig) -> SemanticState:
    """Apply the relay operator for (mode, budget).

    Mode 0 forwards untouched.  Mode 1 re-quantizes: the budget moves to
    min(budget_c, current) -- pruned channels cannot be regenerated --
    accumulated distortion shrinks by the recovery factor, and one
    re-quantization penalty is charged.
    """
    if mode not in (MODE_FORWARD, MODE_PROCESS):
        raise ValueError("relay mode must be 0 or 1")
    if budget_c not in BUDGET_SET:
        raise ValueError(f"budget_c must be one of {BUDGET_SET}")
    if mode == MODE_FORWARD:
        return state
    return replace(
        state,
        budget_c=min(budget_c, state.budget_c),
        hops_since_process=0,
        accum_distortion=state.accum_distortion * cfg.relay_recovery,
        quant_penalties=state.quant_penalties + 1,
    )


def quality(state: SemanticState, cfg: QualityProxyConfig) -> float:
    """Normalized end-to-end quality score in [0, 1].

    Without a calibration table: budget ceiling x SNR sigmoid x distortion
    decay x per-requantization penalty.  With one, the table replaces the
    budget and SNR factors.
    """
    if cfg.calibration is not None:
        base = cfg.calibration.lookup(state.min_link_snr_db, state.budget_c)
    else:
        base = cfg.budget_gain[state.budget_c] * _sigmoid(
            cfg.snr_slope_per_db * (state.min_link_snr_db - cfg.snr_midpoint_db)
        )
    q = base * math.exp(-state.accum_distortion) * (1.0 - cfg.requant_penalty) ** state.quant_penalties
    return float(np.clip(q, 0.0, 1.0))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)
