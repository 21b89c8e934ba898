"""Deterministic LEO-constellation simulator and learning stack for joint
routing, relay processing and semantic-budget adaptation."""

from .channel import ChannelConfig, ChannelModel, link_rate
from .config import ExperimentConfig, default_config, load_config, save_config, tiny_config
from .constellation import (ConstellationConfig, Constellation, GraphSnapshot,
                            build_constellation)
from .policy import JointAction, PolicyConfig, load_checkpoint, save_checkpoint
from .semantic import (BUDGET_SET, QualityProxyConfig, SemanticState, packetize,
                       quality, record_hop, relay_process)
from .simcore import Engine, HopDelayRecord, propagation_delay, step_queue, transmission_delay

__version__ = "0.1.0"

__all__ = [
    "BUDGET_SET",
    "ChannelConfig",
    "ChannelModel",
    "Constellation",
    "ConstellationConfig",
    "Engine",
    "ExperimentConfig",
    "GraphSnapshot",
    "HopDelayRecord",
    "JointAction",
    "PolicyConfig",
    "QualityProxyConfig",
    "SemanticState",
    "build_constellation",
    "default_config",
    "link_rate",
    "load_checkpoint",
    "load_config",
    "packetize",
    "propagation_delay",
    "quality",
    "record_hop",
    "relay_process",
    "save_checkpoint",
    "save_config",
    "step_queue",
    "tiny_config",
    "transmission_delay",
    "__version__",
]
