import dataclasses
import math
import pathlib

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from leosem import semantic
from leosem.agent import PpoSettings, RewardConfig
from leosem.baselines import BaselineSpec
from leosem.channel import ChannelConfig
from leosem.config import (ConfigError, ExperimentConfig, ObjectiveConfig,
                           SimulationConfig, config_from_dict, config_to_dict,
                           default_config, load_config, save_config, tiny_config)
from leosem.constellation import ConstellationConfig
from leosem.experiment import evaluate
from leosem.semantic import QualityProxyConfig

CALIBRATION_CSV = (pathlib.Path(__file__).resolve().parent.parent
                   / "demos" / "data" / "calibration_example.csv")


def test_defaults_fill_reference_values():
    cfg = default_config()
    assert cfg.constellation.num_planes == 10
    assert cfg.constellation.sats_per_plane == 7
    assert cfg.constellation.altitude_km == 570.0
    assert cfg.channel.fast_std_db == 1.0
    assert cfg.channel.jitter_amplitude_db == 2.0
    assert cfg.channel.correlation_horizon_s == 2.0
    assert cfg.channel.failure_rate == 0.05
    assert cfg.simulation.q_max_packets == 600
    assert cfg.simulation.ttl_hops == 16
    assert cfg.simulation.chunk_bytes == 1200
    assert cfg.simulation.frame_interval_s == 6.0
    assert cfg.ppo.learning_rate == 5e-5
    assert cfg.ppo.gamma == 0.99
    assert cfg.ppo.horizon == 256
    assert cfg.ppo.clip_ratio == 0.2
    assert cfg.ppo.epochs == 4
    assert cfg.ppo.minibatch_size == 128
    assert cfg.ppo.entropy_coef == 0.05
    assert cfg.ppo.value_coef == 0.5
    assert cfg.reward.beta_sem == 1.0
    assert cfg.proxy.base_latent_bytes == 1_117_200


def test_roundtrip_identity(tmp_path):
    cfg = tiny_config(seed=9)
    path = tmp_path / "c.yaml"
    save_config(cfg, path)
    again = load_config(path)
    assert again == cfg
    save_config(again, tmp_path / "c2.yaml")
    assert (tmp_path / "c.yaml").read_text() == (tmp_path / "c2.yaml").read_text()


def test_unknown_top_level_field_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_dict({"telemetry": {}})


def test_unknown_section_field_rejected_with_path():
    with pytest.raises(ConfigError, match="channel"):
        config_from_dict({"channel": {"fast_std_db": 1.0, "shadowing_db": 3.0}})


def test_invalid_value_reported_with_section():
    with pytest.raises(ConfigError, match="simulation"):
        config_from_dict({"simulation": {"slot_length_s": 0.0}})


def test_objective_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        config_from_dict({"objective": {"lambda_delay": 0.7, "lambda_semantic": 0.5}})


def test_budget_gain_keys_coerced_to_int():
    cfg = config_from_dict({"proxy": {"budget_gain": {"64": 0.5, "96": 0.7, "128": 0.9}}})
    assert cfg.proxy.budget_gain == {64: 0.5, 96: 0.7, 128: 0.9}


def test_seed_must_be_int():
    for bad in ("abc", True):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": bad})


@pytest.mark.parametrize("name, value", [
    ("minibatch_size", 0), ("epochs", 0), ("horizon", 0), ("trunk_width", 0),
    ("gat_hidden", 0), ("learning_rate", 0.0), ("clip_ratio", 0.0),
    ("max_grad_norm", -0.5), ("gamma", 1.01), ("gae_lambda", -0.1),
    ("entropy_coef", -0.05), ("value_coef", -0.5), ("episodes", -1),
    ("learning_rate", float("nan")),
])
def test_ppo_settings_out_of_range_rejected_by_name(name, value):
    with pytest.raises(ConfigError, match=f"ppo: {name} must be"):
        config_from_dict({"ppo": {name: value}})


def test_ppo_settings_range_ends_accepted():
    cfg = config_from_dict({"ppo": {"gamma": 0.0, "gae_lambda": 1.0, "entropy_coef": 0.0,
                                    "value_coef": 0.0, "episodes": 0, "minibatch_size": 1}})
    assert cfg.ppo.gamma == 0.0 and cfg.ppo.minibatch_size == 1


def test_partial_overrides_keep_other_defaults():
    cfg = config_from_dict({"constellation": {"num_planes": 4}})
    assert cfg.constellation.num_planes == 4
    assert cfg.constellation.sats_per_plane == 7


def test_delay_scale_derivation_positive_and_overridable():
    cfg = default_config()
    assert cfg.delay_scale_s() > 0
    forced = dataclasses.replace(
        cfg, objective=dataclasses.replace(cfg.objective, delay_scale_s=3.5))
    assert forced.delay_scale_s() == 3.5


def test_config_dict_roundtrip():
    cfg = tiny_config(seed=4)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_sections_are_the_domain_classes():
    cfg = default_config()
    assert type(cfg.proxy) is QualityProxyConfig
    assert type(cfg.reward) is RewardConfig
    assert type(cfg.ppo) is PpoSettings


@pytest.mark.parametrize("section, name, value", [
    ("reward", "w_hop", -1),
    ("reward", "r_fail", -5.0),
    ("proxy", "budget_gain", {64: 1.0, 96: 0.9, 128: 0.8}),
    ("proxy", "budget_gain", {64: 0.8, 128: 1.0}),
    ("proxy", "budget_gain", {64: 0.8, 96: 0.9, 128: 1.0, 256: 1.0}),
    ("proxy", "budget_gain", {"x": 1}),
    ("proxy", "budget_gain", {64: "high", 96: 0.9, 128: 1.0}),
    ("proxy", "per_hop_distortion", -0.1),
    ("proxy", "calibration_table", 7),
    ("simulation", "episode_length_s", -1),
    ("simulation", "episode_length_s", 0.0),
    ("simulation", "frame_interval_s", -0.5),
    ("simulation", "sessions_per_flow", -2),
    ("simulation", "chunk_bytes", 0),
    ("simulation", "session_latent_bytes", -1),
    ("simulation", "relay_proc_delay_s", -0.001),
    ("simulation", "flow_min_grid_hops", -1),
    ("simulation", "num_flows", 2.5),
    ("simulation", "num_flows", True),
    ("simulation", "slot_length_s", math.nan),
    ("simulation", "episode_length_s", math.inf),
    ("channel", "base_snr_db", "25 dB"),
    ("ppo", "learning_rate", None),
])
def test_bad_value_fails_at_load_naming_section_and_field(tmp_path, section, name, value):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({section: {name: value}}))
    with pytest.raises(ConfigError, match=f"section {section}: .*{name}"):
        load_config(path)


def test_missing_calibration_table_fails_at_load(tmp_path):
    missing = tmp_path / "no_such_calibration.csv"
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"proxy": {"calibration_table": str(missing)}}))
    with pytest.raises(ConfigError, match=f"section proxy: .*{missing.name}"):
        load_config(path)


def test_calibration_table_read_once_on_load(monkeypatch):
    reads = []
    original = semantic.CalibrationTable.from_csv
    monkeypatch.setattr(semantic.CalibrationTable, "from_csv",
                        classmethod(lambda cls, p: reads.append(p) or original(p)))
    cfg = config_from_dict({"proxy": {"calibration_table": str(CALIBRATION_CSV)}})
    assert reads == [str(CALIBRATION_CSV)]
    assert cfg.proxy.calibration is not None
    evaluate(dataclasses.replace(tiny_config(0), proxy=cfg.proxy), None, 2,
             baseline=BaselineSpec(kind="shortest_path"))
    assert len(reads) == 1


# ---------------------------------------------------------------- properties

_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
_UNIT = st.floats(min_value=0.0, max_value=1.0)
_COUNT = st.integers(min_value=1, max_value=10_000)


def _section(cls, **overrides):
    """A valid instance of a section class: every field drawn at random,
    generic positive values unless the field has its own strategy."""
    generic = {"int": _COUNT, "float": _POSITIVE}
    strategies = {f.name: overrides.get(f.name, generic.get(f.type))
                  for f in dataclasses.fields(cls)}
    return st.builds(cls, **{k: v for k, v in strategies.items() if v is not None})


@st.composite
def _budget_gain(draw):
    gains = sorted(draw(st.lists(_POSITIVE, min_size=3, max_size=3)))
    return dict(zip((64, 96, 128), gains))


@st.composite
def _objective(draw):
    lam = draw(_UNIT)
    return ObjectiveConfig(lambda_delay=lam, lambda_semantic=1.0 - lam,
                           delay_scale_s=draw(st.none() | _POSITIVE))


_EXPERIMENT = st.builds(
    ExperimentConfig,
    constellation=_section(ConstellationConfig,
                           inclination_deg=st.floats(0.0, 180.0),
                           phasing_factor=st.integers(-5, 5)),
    channel=_section(ChannelConfig, failure_rate=_UNIT,
                     seed=st.integers(0, 2**63)),
    simulation=_section(SimulationConfig,
                        num_flows=st.integers(0, 50),
                        frame_interval_s=st.floats(0.0, 1e3)),
    proxy=_section(QualityProxyConfig, budget_gain=_budget_gain(),
                   snr_midpoint_db=st.floats(-50.0, 50.0),
                   calibration_table=st.sampled_from([None, str(CALIBRATION_CSV)])),
    reward=_section(RewardConfig, w_delay=st.floats(0.0, 10.0)),
    ppo=_section(PpoSettings, gamma=_UNIT, gae_lambda=_UNIT,
                 entropy_coef=st.floats(0.0, 1.0)),
    objective=_objective(),
    seed=st.integers(0, 2**31),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_EXPERIMENT)
def test_any_valid_config_roundtrips_byte_identically(tmp_path, cfg):
    first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
    save_config(cfg, first)
    again = load_config(first)
    assert again == cfg
    save_config(again, second)
    assert second.read_bytes() == first.read_bytes()


_FIELDS = [(section, f.name) for section, cls in [
    ("constellation", ConstellationConfig), ("channel", ChannelConfig),
    ("simulation", SimulationConfig), ("proxy", QualityProxyConfig),
    ("reward", RewardConfig), ("ppo", PpoSettings), ("objective", ObjectiveConfig),
] for f in dataclasses.fields(cls)]

_ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.integers() | st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(_FIELDS), value=_ANY_VALUE,
       extra=st.dictionaries(st.text(max_size=6), _ANY_VALUE, max_size=1))
def test_random_section_value_loads_or_raises_config_error(target, value, extra):
    section, name = target
    for data in ({section: {name: value}}, {section: {name: value, **extra}},
                 {section: value}):
        try:
            config_from_dict(data)
        except ConfigError:
            pass
