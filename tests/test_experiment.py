import dataclasses
import json

import numpy as np
import pytest

from leosem import policy as pol
from leosem.baselines import BaselineSpec
from leosem.cli import main as cli_main
from leosem.config import load_config, tiny_config
from leosem.experiment import (cmd_eval, cmd_sweep, cmd_train, evaluate,
                               run_episode, sample_flows, stream_rng, train)
from leosem.metrics import objective_value, read_sessions_csv


def fast_cfg(seed=0, horizon=None, **sim_overrides):
    cfg = tiny_config(seed=seed)
    sim = dataclasses.replace(cfg.simulation, sessions_per_flow=3,
                              episode_length_s=20.0, **sim_overrides)
    cfg = dataclasses.replace(cfg, simulation=sim)
    if horizon is not None:
        cfg = dataclasses.replace(cfg, ppo=dataclasses.replace(cfg.ppo, horizon=horizon))
    return cfg


def test_sample_flows_respects_distance_floor():
    cfg = tiny_config(seed=3)
    rng = np.random.default_rng(0)
    from leosem.constellation import grid_hop_distance
    for _ in range(20):
        for src, dst in sample_flows(cfg, rng):
            assert src != dst
            assert grid_hop_distance(cfg.constellation, src, dst) >= 2


@pytest.mark.parametrize("chunk_bytes, chunks", [(1200, 30), (600, 60)])
def test_engine_packetizes_with_simulation_chunk_bytes(chunk_bytes, chunks):
    from leosem.baselines import make_baseline_controller
    cfg = fast_cfg(seed=2, chunk_bytes=chunk_bytes)
    controller = make_baseline_controller(BaselineSpec(kind="shortest_path"),
                                          stream_rng(0))
    engine = run_episode(cfg, 0, controller, [])
    assert engine.chunk_bytes == chunk_bytes
    created = {s.chunks_created for s in engine.sessions.values()} - {0}
    # 36 000 latent bytes at the full budget of 128.
    assert created == {chunks}


def test_train_produces_curve_and_learnable_params():
    cfg = fast_cfg(seed=11, horizon=48)
    result = train(cfg, episodes=4)
    assert len(result.curve) == 4
    assert result.bundle.sessions == 4 * 6
    assert all(row["sessions"] == 6 for row in result.curve)
    assert any(row["updates"] > 0 for row in result.curve)


def test_train_zero_episodes_gives_initial_params():
    cfg = fast_cfg(seed=12)
    result = train(cfg, episodes=0)
    assert result.curve == []
    assert result.bundle.sessions == 0
    rng_params = pol.init_policy_params(
        np.random.default_rng(np.random.SeedSequence([cfg.seed, 3])),
        __import__("leosem.experiment", fromlist=["make_policy_config"]).make_policy_config(cfg))
    assert np.array_equal(result.params.to_vector(), rng_params.to_vector())


def test_training_bit_reproducible():
    cfg = fast_cfg(seed=13)
    a = train(cfg, episodes=3)
    b = train(cfg, episodes=3)
    assert np.array_equal(a.params.to_vector(), b.params.to_vector())
    assert a.curve == b.curve


def test_evaluate_requires_params_or_baseline():
    with pytest.raises(ValueError):
        evaluate(fast_cfg(), None, episodes=1)


def test_paired_seeds_share_scenarios():
    cfg = fast_cfg(seed=14)
    _, rec_a, _ = evaluate(cfg, None, 2, baseline=BaselineSpec(kind="shortest_path"))
    _, rec_b, _ = evaluate(cfg, None, 2, baseline=BaselineSpec(kind="greedy_queue"))

    def keyed(recs):
        return sorted((r.episode, r.session_id, r.src, r.dst, r.spawn_s) for r in recs)

    assert keyed(rec_a) == keyed(rec_b)


def test_cmd_train_writes_run_directory(tmp_path):
    cfg = fast_cfg(seed=15)
    out = tmp_path / "run"
    cmd_train(cfg, out, episodes=2)
    for name in ("config.yaml", "checkpoint.npz", "curve.csv", "sessions.csv",
                 "metrics.json", "run.json"):
        assert (out / name).exists(), name
    info = json.loads((out / "run.json").read_text())
    assert info["seed"] == 15
    assert len(info["checkpoint_sha256"]) == 64
    assert load_config(out / "config.yaml") == cfg


def test_cmd_eval_roundtrip_objective(tmp_path):
    cfg = fast_cfg(seed=16)
    train_out = tmp_path / "t"
    cmd_train(cfg, train_out, episodes=1)
    eval_out = tmp_path / "e"
    bundle = cmd_eval(cfg, train_out / "checkpoint.npz", eval_out, episodes=2)
    metrics_json = json.loads((eval_out / "metrics.json").read_text())
    assert metrics_json["sessions"] == bundle.sessions
    # objective recomputed from the per-session table matches the bundle
    rows = read_sessions_csv(eval_out / "sessions.csv")
    delivered = [r for r in rows if r["delivered"] == "1"]
    if delivered:
        mean_delay = sum(float(r["end_to_end_delay_s"]) for r in delivered) / len(delivered)
        mean_quality = sum(float(r["quality"]) for r in delivered) / len(delivered)
        again = objective_value(mean_delay, mean_quality, bundle.delay_scale_s,
                                bundle.lambda_delay, bundle.lambda_semantic)
        assert abs(again - bundle.objective) < 1e-9


def test_cmd_eval_empty_scenario_objective_null(tmp_path):
    cfg = fast_cfg(seed=17, num_flows=0)
    train_out = tmp_path / "t"
    cmd_train(dataclasses.replace(fast_cfg(seed=17)), train_out, episodes=1)
    bundle = cmd_eval(cfg, train_out / "checkpoint.npz", tmp_path / "e", episodes=2)
    assert bundle.sessions == 0
    assert bundle.objective is None
    data = json.loads((tmp_path / "e" / "metrics.json").read_text())
    assert data["objective"] is None


def test_cmd_eval_checkpoint_config_mismatch(tmp_path):
    cfg = fast_cfg(seed=30)
    t_out = tmp_path / "t"
    cmd_train(cfg, t_out, episodes=0)
    narrow = dataclasses.replace(cfg, ppo=dataclasses.replace(cfg.ppo, trunk_width=16))
    with pytest.raises(ValueError, match="mismatch"):
        cmd_eval(narrow, t_out / "checkpoint.npz", tmp_path / "e", episodes=1)


def test_cmd_sweep_checkpoint_config_mismatch(tmp_path):
    cfg = fast_cfg(seed=31)
    t_out = tmp_path / "t"
    cmd_train(cfg, t_out, episodes=0)
    wide = dataclasses.replace(cfg, ppo=dataclasses.replace(cfg.ppo, gat_hidden=32))
    with pytest.raises(ValueError, match="mismatch"):
        cmd_sweep(wide, "snr", [0.0], t_out / "checkpoint.npz", tmp_path / "s", episodes=1)


def test_objective_degenerates_to_normalized_delay(tmp_path):
    cfg = fast_cfg(seed=31)
    cfg = dataclasses.replace(cfg, objective=dataclasses.replace(
        cfg.objective, lambda_delay=1.0, lambda_semantic=0.0))
    bundle, _, _ = evaluate(cfg, None, 2, baseline=BaselineSpec(kind="shortest_path"))
    assert bundle.objective == pytest.approx(
        bundle.mean_delay_s / bundle.delay_scale_s, abs=1e-12)


def test_advance_with_no_work_just_moves_time():
    from leosem.channel import ChannelModel, ChannelConfig
    from leosem.constellation import build_constellation, ConstellationConfig
    from leosem.semantic import QualityProxyConfig
    from leosem.simcore import Engine
    con = build_constellation(ConstellationConfig(num_planes=2, sats_per_plane=2))
    ch = ChannelModel(ChannelConfig(seed=0), con.edge_index, 0.1)
    engine = Engine(con, ch, controller=None, proxy_cfg=QualityProxyConfig())
    engine.advance(0.35)
    assert engine.now_s == pytest.approx(0.35)
    assert engine.outcomes == []


def test_cmd_sweep_single_value(tmp_path):
    cfg = fast_cfg(seed=18)
    train_out = tmp_path / "t"
    cmd_train(cfg, train_out, episodes=1)
    rows = cmd_sweep(cfg, "snr", [0.0], train_out / "checkpoint.npz",
                     tmp_path / "s", episodes=1)
    assert len(rows) == 1
    text = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert len(text) == 2  # header + one row


def test_sweep_unknown_axis_rejected(tmp_path):
    cfg = fast_cfg(seed=19)
    with pytest.raises(ValueError):
        cmd_sweep(cfg, "power", [1.0], None, tmp_path, episodes=1)


def test_cli_end_to_end(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    from leosem.config import save_config
    save_config(fast_cfg(seed=20), cfg_path)
    t_out = tmp_path / "train"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(t_out),
                     "--episodes", "1"]) == 0
    assert cli_main(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(t_out / "checkpoint.npz"),
                     "--episodes", "1"]) == 0
    assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sw"),
                     "--checkpoint", str(t_out / "checkpoint.npz"),
                     "--axis", "load", "--values", "1,2", "--episodes", "1"]) == 0
    assert cli_main(["baseline", "--config", str(cfg_path),
                     "--out", str(tmp_path / "bl"),
                     "--baseline-kind", "shortest_path", "--episodes", "1"]) == 0
    assert (tmp_path / "sw" / "sweep.csv").exists()
    assert (tmp_path / "bl" / "metrics.json").exists()


def test_cli_seed_override(tmp_path):
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.yaml"
    from leosem.config import save_config
    save_config(fast_cfg(seed=1), cfg_path)
    cli_main(["train", "--config", str(cfg_path), "--out", str(out),
              "--episodes", "0", "--seed", "77"])
    info = json.loads((out / "run.json").read_text())
    assert info["seed"] == 77
