"""Experiment configuration: defaults, strict YAML parsing, round-trip.

Each YAML section is the dataclass its module uses (``proxy`` is
``semantic.QualityProxyConfig``, ``reward`` is ``agent.RewardConfig``, ...),
so loading validates everything the run will use.  Field names carry
explicit units.  Unknown keys, values of the wrong type and out-of-range
values are rejected with a ``ConfigError`` naming the section, and
parse -> serialize -> parse is the identity.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

from ._fields import ConfigError, check_numeric_fields
from .agent import PpoSettings, RewardConfig
from .channel import ChannelConfig
from .constellation import ConstellationConfig
from .semantic import QualityProxyConfig
from .simcore import C0_KM_S, SimulationConfig


@dataclass(frozen=True)
class ObjectiveConfig:
    lambda_delay: float = 0.5
    lambda_semantic: float = 0.5
    delay_scale_s: float | None = None  # None -> derived worst-case bound

    def __post_init__(self):
        check_numeric_fields(self)
        if self.lambda_delay < 0 or self.lambda_semantic < 0:
            raise ConfigError("objective weights must be >= 0")
        if abs(self.lambda_delay + self.lambda_semantic - 1.0) > 1e-9:
            raise ConfigError("lambda_delay + lambda_semantic must equal 1")
        if self.delay_scale_s is not None and not self.delay_scale_s > 0:
            raise ConfigError("delay_scale_s must be > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    constellation: ConstellationConfig = field(default_factory=ConstellationConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    proxy: QualityProxyConfig = field(default_factory=QualityProxyConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    ppo: PpoSettings = field(default_factory=PpoSettings)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    seed: int = 0

    def __post_init__(self):
        if self.simulation.num_flows >= 1 and self.constellation.num_sats < 2:
            raise ConfigError(
                f"invalid section simulation: num_flows = {self.simulation.num_flows} needs "
                f"at least 2 satellites for distinct flow endpoints, but section "
                f"constellation has num_planes x sats_per_plane = "
                f"{self.constellation.num_sats}")
        try:
            self.delay_scale_s()
        except OverflowError as exc:  # 10 ** (snr / 10) beyond the float range
            ch = self.channel
            raise ConfigError(
                f"invalid section channel: base_snr_db = {ch.base_snr_db}, pathloss_exponent = "
                f"{ch.pathloss_exponent} and reference_distance_km = {ch.reference_distance_km} "
                f"put the longest link's SNR beyond the float range") from exc

    def delay_scale_s(self) -> float:
        """Objective normalizer: a TTL-bound worst-case delay estimate.

        Per hop: one slot of service alignment, propagation across the
        orbital diameter, and the full payload at the rate of the longest
        possible link.  Configurable override via objective.delay_scale_s.
        """
        if self.objective.delay_scale_s is not None:
            return self.objective.delay_scale_s
        worst_dist_km = 2.0 * self.constellation.orbit_radius_km
        ch = self.channel
        worst_snr = ch.base_snr_db - 10.0 * ch.pathloss_exponent * math.log10(
            worst_dist_km / ch.reference_distance_km)
        worst_rate = ch.bandwidth_hz * math.log2(1.0 + 10.0 ** (worst_snr / 10.0))
        tx = 8.0 * self.simulation.session_latent_bytes / max(worst_rate, 1.0)
        per_hop = self.simulation.slot_length_s + worst_dist_km / C0_KM_S \
            + tx + self.simulation.relay_proc_delay_s
        return self.simulation.ttl_hops * per_hop


# Section name -> its dataclass, read off ``ExperimentConfig``'s fields.
_SECTION_TYPES = {f.name: f.default_factory for f in fields(ExperimentConfig)
                  if f.default_factory is not dataclasses.MISSING}


def _build_section(cls, data: dict, path: str):
    """The section ``cls`` built from ``data``; the section's own check
    rejects a bad value, and the error gains the section's name."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown field(s) at {path}: {sorted(unknown, key=str)}; "
                          f"expected a subset of {sorted(known)}")
    gains = data.get("budget_gain")
    if isinstance(gains, dict):  # YAML may write a budget as a string key
        data = {**data, "budget_gain": {
            int(k) if isinstance(k, str) and k.strip().isdecimal() else k: v
            for k, v in gains.items()}}
    try:
        return cls(**data)
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid section {path}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    unknown = set(data) - set(_SECTION_TYPES) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown top-level field(s): {sorted(unknown, key=str)}")
    kwargs = {}
    for name, cls in _SECTION_TYPES.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name} must be a mapping")
        kwargs[name] = _build_section(cls, section, name)
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer")
    return ExperimentConfig(seed=seed, **kwargs)


def _plain(value):
    """``value`` with each float subclass in it (``numpy.float64``) made
    the ``float`` it equals, which YAML can write."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return float(value) if isinstance(value, float) else value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for name in _SECTION_TYPES:
        out[name] = _plain(dataclasses.asdict(getattr(cfg, name)))
    out["seed"] = cfg.seed
    return out


# Only the two functions that read or write a file import ``yaml``, so a
# program that builds its config in Python and writes none never loads it.

def load_config(path) -> ExperimentConfig:
    import yaml
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    import yaml
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=True)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def tiny_config(seed: int = 0) -> ExperimentConfig:
    """Desk-scale scenario: 3x3 shell, short slots, several small sessions.

    Small payloads and distant flow endpoints keep episodes quick while
    still exercising queueing, relays and failures.  TTL scales with the
    shell: 8 hops is 4x the torus diameter here, mirroring how the
    full-scale default (16) is about twice the 10x7 diameter.
    """
    return ExperimentConfig(
        constellation=ConstellationConfig(num_planes=3, sats_per_plane=3),
        simulation=SimulationConfig(
            episode_length_s=40.0,
            num_flows=2,
            sessions_per_flow=8,
            frame_interval_s=3.0,
            ttl_hops=8,
            session_latent_bytes=36_000,
            flow_min_grid_hops=2,
        ),
        seed=seed,
    )
