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

import yaml

from .agent import PpoSettings, RewardConfig
from .channel import ChannelConfig
from .constellation import ConstellationConfig
from .semantic import QualityProxyConfig
from .simcore import C0_KM_S


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimulationConfig:
    slot_length_s: float = 0.1
    episode_length_s: float = 60.0
    num_flows: int = 2
    sessions_per_flow: int = 1
    frame_interval_s: float = 6.0
    q_max_packets: int = 600
    ttl_hops: int = 16
    chunk_bytes: int = 1200
    relay_proc_delay_s: float = 0.005
    # Payload scale fed into the simulator; the packetization anchor keeps
    # its own default so full-size payload math stays exact.
    session_latent_bytes: int = 36_000
    flow_min_grid_hops: int = 1

    def __post_init__(self):
        for name in ("slot_length_s", "episode_length_s"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("q_max_packets", "ttl_hops", "chunk_bytes"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("num_flows", "sessions_per_flow", "frame_interval_s",
                     "relay_proc_delay_s", "session_latent_bytes", "flow_min_grid_hops"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ObjectiveConfig:
    lambda_delay: float = 0.5
    lambda_semantic: float = 0.5
    delay_scale_s: float | None = None  # None -> derived worst-case bound

    def __post_init__(self):
        if self.lambda_delay < 0 or self.lambda_semantic < 0:
            raise ConfigError("objective weights must be >= 0")
        if abs(self.lambda_delay + self.lambda_semantic - 1.0) > 1e-9:
            raise ConfigError("lambda_delay + lambda_semantic must equal 1")


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


_SECTION_TYPES = {
    "constellation": ConstellationConfig,
    "channel": ChannelConfig,
    "simulation": SimulationConfig,
    "proxy": QualityProxyConfig,
    "reward": RewardConfig,
    "ppo": PpoSettings,
    "objective": ObjectiveConfig,
}


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _checked(name: str, annotation: str, value):
    """``value`` checked against the field annotation; raises ``ValueError``
    naming the field.  ``budget_gain`` keys given as strings become ints."""
    if value is None and annotation.endswith("| None"):
        return value
    kind = annotation.split("|")[0].strip()
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    elif kind == "float":
        if not _is_finite_number(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    elif kind == "str":
        if not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")
    elif kind == "dict[int, float]":
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a mapping, got {value!r}")
        out = {}
        for key, gain in value.items():
            if isinstance(key, str) and key.strip().isdecimal():
                key = int(key)
            _checked(f"{name} key", "int", key)
            out[key] = _checked(f"{name}[{key}]", "float", gain)
        return out
    return value


def _build_section(cls, data: dict, path: str):
    known = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown field(s) at {path}: {sorted(unknown, key=str)}; "
                          f"expected a subset of {sorted(known)}")
    try:
        return cls(**{name: _checked(name, known[name], value)
                      for name, value in data.items()})
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


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for name in _SECTION_TYPES:
        out[name] = dataclasses.asdict(getattr(cfg, name))
    out["seed"] = cfg.seed
    return out


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
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
