import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
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


_YAML_PROBE = """
import sys
from leosem import experiment
from leosem.baselines import BaselineSpec
from leosem.config import save_config, tiny_config
experiment.evaluate(tiny_config(0), None, 1, baseline=BaselineSpec(kind="shortest_path"))
print("yaml" in sys.modules)
save_config(tiny_config(0), sys.argv[1])
print("yaml" in sys.modules)
"""


def test_yaml_is_loaded_only_to_read_or_write_a_file(tmp_path):
    # A fresh interpreter that imports the experiment and evaluates an
    # episode, as every benchmark workload does, leaves yaml unloaded;
    # writing a config file loads it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _YAML_PROBE, str(tmp_path / "c.yaml")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
    assert load_config(tmp_path / "c.yaml") == tiny_config(0)


def test_unknown_top_level_field_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_dict({"telemetry": {}})


def test_unknown_section_field_rejected_with_path():
    with pytest.raises(ConfigError, match="channel"):
        config_from_dict({"channel": {"fast_std_db": 1.0, "shadowing_db": 3.0}})
    # Each episode's channel seed derives from the top-level seed.
    with pytest.raises(ConfigError, match=r"unknown field\(s\) at channel: \['seed'\]"):
        config_from_dict({"channel": {"seed": 3}})


def test_invalid_value_reported_with_section():
    with pytest.raises(ConfigError, match="simulation"):
        config_from_dict({"simulation": {"slot_length_s": 0.0}})


def test_objective_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        config_from_dict({"objective": {"lambda_delay": 0.7, "lambda_semantic": 0.5}})


NONFINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("name", ["altitude_km", "inclination_deg", "earth_radius_km",
                                  "mu_km3_s2"])
def test_nonfinite_constellation_value_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ConstellationConfig(**{name: value})


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("name", ["snr_midpoint_db", "snr_slope_per_db", "per_hop_distortion",
                                  "requant_penalty", "relay_recovery", "noise_floor",
                                  "noise_span", "noise_slope_per_db"])
def test_nonfinite_proxy_value_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        QualityProxyConfig(**{name: value})


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("budget", [64, 96, 128])
def test_nonfinite_budget_gain_rejected(budget, value):
    gains = {64: 0.80, 96: 0.92, 128: 1.0, budget: value}
    with pytest.raises(ValueError, match=rf"budget_gain\[{budget}\] must be finite"):
        QualityProxyConfig(budget_gain=gains)


@pytest.mark.parametrize("budget_gain, message", [
    ({64: "x", 96: 0.9, 128: 1.0}, r"budget_gain\[64\] must be a real number, got 'x'"),
    ({64: 0.8, 96: None, 128: 1.0}, r"budget_gain\[96\] must be a real number, got None"),
    ({"64": 0.8, 96: 0.9, 128: 1.0}, r"budget_gain key '64' is not a budget"),
    ({64: 0.8, 96: 0.9, 128: 1.0, 256: 1.0}, r"budget_gain key 256 is not a budget"),
    ({64: 0.8, 128: 1.0}, r"budget_gain has no gain for budget 96"),
    (None, r"budget_gain must be a mapping from budget to gain, got None"),
    ([0.8, 0.9, 1.0], r"budget_gain must be a mapping .*got \[0.8, 0.9, 1.0\]"),
    ({64: 0.5, 96: True, 128: True}, r"budget_gain\[96\] must be a real number, got True"),
    ({64: False, 96: 0.9, 128: 1.0}, r"budget_gain\[64\] must be a real number, got False"),
    ({64: 0.5, 96: 0.9, 128: np.True_},
     r"budget_gain\[128\] must be a real number, got np\.True_"),
    ({64.0: 0.8, 96: 0.92, 128: 1.0}, r"budget_gain key 64\.0 is not a budget"),
])
def test_bad_budget_gain_rejected_naming_budget_or_key(budget_gain, message):
    with pytest.raises(ConfigError, match=message):
        QualityProxyConfig(budget_gain=budget_gain)


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("name", ["w_hop", "w_delay", "w_queue", "w_loop", "r_succ", "r_fail",
                                  "beta_sem"])
def test_nonfinite_reward_value_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RewardConfig(**{name: value})


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("name", ["lambda_delay", "lambda_semantic", "delay_scale_s"])
def test_nonfinite_objective_value_rejected(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        ObjectiveConfig(**{name: value})


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("name", ["slot_length_s", "episode_length_s", "frame_interval_s",
                                  "relay_proc_delay_s"])
def test_nonfinite_simulation_value_rejected(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        SimulationConfig(**{name: value})
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        dataclasses.replace(SimulationConfig(), **{name: value})


@pytest.mark.parametrize("value", NONFINITE)
@pytest.mark.parametrize("name", ["learning_rate", "gamma", "gae_lambda", "clip_ratio",
                                  "entropy_coef", "value_coef", "max_grad_norm"])
def test_nonfinite_ppo_value_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        PpoSettings(**{name: value})
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dataclasses.replace(PpoSettings(), **{name: value})


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


def test_numpy_float_values_save_and_reload(tmp_path):
    # A ``numpy.float64`` passes a ``float`` field's check; the saved YAML
    # holds the same value as a plain float.
    gains = {c: np.float64(g) for c, g in QualityProxyConfig().budget_gain.items()}
    cfg = dataclasses.replace(
        tiny_config(5),
        simulation=dataclasses.replace(tiny_config(5).simulation,
                                       slot_length_s=np.float64(0.1)),
        proxy=QualityProxyConfig(budget_gain=gains))
    save_config(cfg, tmp_path / "c.yaml")
    assert load_config(tmp_path / "c.yaml") == cfg


def test_snr_beyond_the_float_range_rejected_naming_base_snr_db():
    # The objective's delay scale takes 10 ** (snr / 10) of the worst link.
    with pytest.raises(ConfigError, match="invalid section channel: base_snr_db"):
        ExperimentConfig(channel=ChannelConfig(base_snr_db=1e308))


def test_int_beyond_the_float_range_rejected_by_name():
    # The code computes with an int field as a float (``delay_scale_s``
    # multiplies ``ttl_hops``), which would overflow.
    with pytest.raises(ConfigError, match="ttl_hops must be finite"):
        SimulationConfig(ttl_hops=10**400)


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
    ("proxy", "requant_penalty", 1.5),
    ("proxy", "requant_penalty", -0.1),
    ("proxy", "relay_recovery", 1.01),
    ("proxy", "relay_recovery", -0.5),
    ("objective", "delay_scale_s", 0),
    ("objective", "delay_scale_s", -2.0),
    ("channel", "reference_distance_km", -1),
    ("channel", "reference_distance_km", 0.0),
    # -570 puts the default 570 km shell's orbit at radius 0.
    ("constellation", "earth_radius_km", -570.0),
    ("constellation", "earth_radius_km", 0.0),
    ("constellation", "mu_km3_s2", 0.0),
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
    # Flows need two distinct endpoints, which a one-satellite shell lacks.
    pytest.param("simulation", "num_flows", 1, marks=pytest.mark.sections(
        constellation={"num_planes": 1, "sats_per_plane": 1})),
])
def test_bad_value_fails_at_load_naming_section_and_field(request, tmp_path, section, name,
                                                          value):
    data = {section: {name: value}}
    marker = request.node.get_closest_marker("sections")
    if marker is not None:
        data.update(marker.kwargs)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ConfigError, match=f"section {section}: .*{name}"):
        load_config(path)


def test_yaml_exponent_without_a_dot_is_named_with_the_spelling_that_loads(tmp_path):
    # PyYAML (YAML 1.1) reads 1e300 as the string '1e300' and 1.0e+300 as a float.
    path = tmp_path / "bad.yaml"
    path.write_text("simulation: {episode_length_s: 1e300}\n")
    with pytest.raises(ConfigError, match=r"episode_length_s must be a real number, "
                                          r"got '1e300'; .*write 1e300 as 1\.0e\+300"):
        load_config(path)
    path.write_text("simulation: {episode_length_s: 1.0e+3}\n")
    assert load_config(path).simulation.episode_length_s == 1000.0


def test_one_satellite_shell_loads_without_flows_and_names_both_sections():
    shell = {"num_planes": 1, "sats_per_plane": 1}
    with pytest.raises(ConfigError, match="num_flows = 2 .*section constellation.* = 1"):
        config_from_dict({"constellation": shell})
    cfg = config_from_dict({"constellation": shell, "simulation": {"num_flows": 0}})
    bundle, _, _ = evaluate(cfg, None, 1, baseline=BaselineSpec(kind="shortest_path"))
    assert bundle.sessions == 0


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
    unknown = set(overrides) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise TypeError(f"{cls.__name__} has no field(s) {sorted(unknown)}")
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


@st.composite
def _experiment(draw):
    shell = draw(_section(ConstellationConfig, inclination_deg=st.floats(0.0, 180.0),
                          phasing_factor=st.integers(-5, 5)))
    # A one-satellite shell has no two distinct flow endpoints.
    max_flows = 50 if shell.num_sats >= 2 else 0
    return draw(st.builds(
        ExperimentConfig,
        constellation=st.just(shell),
        # The derived delay scale takes 10 ** (snr / 10) of the longest link:
        # within these ranges its SNR stays below 2 500 dB, in float range.
        channel=_section(ChannelConfig, failure_rate=_UNIT,
                         base_snr_db=st.floats(-200.0, 200.0),
                         pathloss_exponent=st.floats(0.0, 20.0)),
        simulation=_section(SimulationConfig,
                            num_flows=st.integers(0, max_flows),
                            frame_interval_s=st.floats(0.0, 1e3)),
        proxy=_section(QualityProxyConfig, budget_gain=_budget_gain(),
                       snr_midpoint_db=st.floats(-50.0, 50.0),
                       requant_penalty=_UNIT, relay_recovery=_UNIT,
                       calibration_table=st.sampled_from([None, str(CALIBRATION_CSV)])),
        reward=_section(RewardConfig, w_delay=st.floats(0.0, 10.0)),
        ppo=_section(PpoSettings, gamma=_UNIT, gae_lambda=_UNIT,
                     entropy_coef=st.floats(0.0, 1.0)),
        objective=_objective(),
        seed=st.integers(0, 2**31),
    ))


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_experiment())
def test_any_valid_config_roundtrips_byte_identically(tmp_path, cfg):
    first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
    save_config(cfg, first)
    again = load_config(first)
    assert again == cfg
    save_config(again, second)
    assert second.read_bytes() == first.read_bytes()


_SECTIONS = [
    ("constellation", ConstellationConfig), ("channel", ChannelConfig),
    ("simulation", SimulationConfig), ("proxy", QualityProxyConfig),
    ("reward", RewardConfig), ("ppo", PpoSettings), ("objective", ObjectiveConfig),
]
_FIELDS = [(section, f.name) for section, cls in _SECTIONS for f in dataclasses.fields(cls)]
_NUMERIC_FIELDS = [pytest.param(section, cls, f.name, id=f"{section}.{f.name}")
                   for section, cls in _SECTIONS for f in dataclasses.fields(cls)
                   if f.type.split("|")[0].strip() in ("int", "float")]


@pytest.mark.parametrize("value", [True, False, np.True_])
@pytest.mark.parametrize("section, cls, name", _NUMERIC_FIELDS)
def test_bool_in_numeric_field_rejected_by_name(section, cls, name, value):
    # ``True`` passes for 1 in a comparison and in ``math.isfinite``: the
    # dataclass rejects it as the loader does, naming the field.
    with pytest.raises(ValueError, match=f"{name} must be a number, not a bool"):
        cls(**{name: value})
    with pytest.raises(ConfigError, match=f"section {section}: {name} must be"):
        config_from_dict({section: {name: value}})


# Per field kind, values of another type: a fraction for an integer, a
# numeral string for a number, a number for a string.
_WRONG_TYPE = {"int": (2.5, "1"), "float": ("1",), "str": (7,)}
_TYPED_FIELDS = [pytest.param(section, cls, f.name, value, id=f"{section}.{f.name}-{value!r}")
                 for section, cls in _SECTIONS for f in dataclasses.fields(cls)
                 for value in _WRONG_TYPE.get(f.type.split("|")[0].strip(), ())]


@pytest.mark.parametrize("section, cls, name, value", _TYPED_FIELDS)
def test_wrong_type_in_field_rejected_by_name(section, cls, name, value):
    # The dataclass runs the one type check, so a section built in Python
    # fails as the loaded one does, naming the field.
    with pytest.raises(ConfigError, match=f"{name} must be"):
        cls(**{name: value})
    with pytest.raises(ConfigError, match=f"section {section}: {name} must be"):
        config_from_dict({section: {name: value}})


_ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.integers() | st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=300, derandomize=True, deadline=None)
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
