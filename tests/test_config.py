import dataclasses

import pytest

from leosem.config import (ConfigError, ExperimentConfig, config_from_dict,
                           config_to_dict, default_config, load_config,
                           save_config, tiny_config)


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
