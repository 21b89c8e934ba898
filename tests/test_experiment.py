import dataclasses
import gc
import json
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from leosem import experiment, policy as pol
from leosem.baselines import BaselineSpec
from leosem.cli import main as cli_main
from leosem.config import SimulationConfig, default_config, load_config, tiny_config
from leosem.constellation import ConstellationConfig
from leosem.experiment import (cmd_eval, cmd_sweep, cmd_train, evaluate,
                               run_episode, sample_flows, stream_rng, sweep, train)
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


def test_sample_flows_refuses_a_one_satellite_shell():
    # The config refuses this pair, so hand the sampler the two sections directly.
    shell = SimpleNamespace(constellation=ConstellationConfig(num_planes=1, sats_per_plane=1),
                            simulation=SimulationConfig(num_flows=1))
    with pytest.raises(ValueError, match="1 flow.*1 satellite"):
        sample_flows(shell, np.random.default_rng(0))
    no_flows = SimpleNamespace(constellation=shell.constellation,
                               simulation=SimulationConfig(num_flows=0))
    assert sample_flows(no_flows, np.random.default_rng(0)) == []


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


@pytest.mark.parametrize("kind, controllers, actors", [
    ("policy_no_relay", 1, 1), ("policy_no_source_c", 1, 1), ("shortest_path", 1, 0),
    ("random", 3, 0)])
def test_only_the_random_baseline_is_built_per_episode(monkeypatch, kind, controllers, actors):
    # The random baseline draws from each episode's own stream; every other
    # kind keeps no per-episode state, so one controller, and for the policy
    # variants one Actor, serves all three episodes.
    built = []
    make, actor = experiment.make_baseline_controller, pol.Actor

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            built.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiment, "make_baseline_controller", counted("controller", make))
    monkeypatch.setattr(pol, "Actor", counted("Actor", actor))
    cfg = fast_cfg(seed=26)
    params = pol.init_policy_params(np.random.default_rng(0), experiment.make_policy_config(cfg))
    evaluate(cfg, params, 3, baseline=BaselineSpec(kind=kind))
    assert (built.count("controller"), built.count("Actor")) == (controllers, actors)


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
    ch = ChannelModel(ChannelConfig(), con.edge_index, 0.1)
    engine = Engine(con, ch, controller=None, proxy_cfg=QualityProxyConfig())
    engine.run(0.35)
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


def test_negative_episode_counts_rejected(tmp_path):
    cfg = fast_cfg(seed=21)
    cmd_train(cfg, tmp_path / "t", episodes=0)
    params = pol.load_checkpoint(tmp_path / "t" / "checkpoint.npz")[0]
    with pytest.raises(ValueError, match="episodes must be >= 0, got -2"):
        train(cfg, episodes=-2)
    with pytest.raises(ValueError, match="episodes must be >= 0, got -1"):
        train(dataclasses.replace(cfg, ppo=dataclasses.replace(cfg.ppo, episodes=0)),
              episodes=-1)
    with pytest.raises(ValueError, match="episodes must be >= 0"):
        evaluate(cfg, params, -1)
    with pytest.raises(ValueError, match="episodes must be >= 0"):
        evaluate(cfg, None, -3, baseline=BaselineSpec(kind="shortest_path"))
    with pytest.raises(ValueError, match="episodes must be >= 0"):
        sweep(cfg, "snr", [0.0], params, -1)
    with pytest.raises(ValueError, match="episodes must be >= 0"):
        cmd_train(cfg, tmp_path / "neg", episodes=-2)
    with pytest.raises(ValueError, match="episodes must be >= 0"):
        cmd_eval(cfg, tmp_path / "t" / "checkpoint.npz", tmp_path / "neg", episodes=-1)
    with pytest.raises(ValueError, match="episodes must be >= 0"):
        cmd_sweep(cfg, "load", [1.0], tmp_path / "t" / "checkpoint.npz", tmp_path / "neg",
                  episodes=-1)
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize("command", [
    ["train"],
    ["eval", "--checkpoint", "c.npz"],
    ["sweep", "--checkpoint", "c.npz", "--axis", "snr", "--values", "0"],
    ["baseline", "--baseline-kind", "shortest_path"],
])
def test_cli_rejects_negative_episodes(tmp_path, capsys, command):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli_main(command[:1] + ["--out", str(out), "--episodes", "-2"] + command[1:])
    assert exc.value.code == 2
    assert "--episodes: must be >= 0, got -2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_non_numeric_sweep_values(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--out", str(out), "--checkpoint", "c.npz", "--axis", "snr",
                  "--values", "a,b"])
    assert exc.value.code == 2
    assert "--values: must be comma-separated numbers, got 'a,b'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_names_a_bad_config_field_without_a_traceback(tmp_path, capsys):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("simulation: {ttl_hops: 0}\n")
    out = tmp_path / "o"
    assert cli_main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("leosem: error: ") and "ttl_hops" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_names_a_missing_file_without_a_traceback(tmp_path, capsys):
    missing = tmp_path / "no_such_checkpoint.npz"
    out = tmp_path / "o"
    assert cli_main(["eval", "--checkpoint", str(missing), "--out", str(out),
                     "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("leosem: error: ") and str(missing) in err
    assert not out.exists()
    assert cli_main(["train", "--config", str(tmp_path / "no.yaml"), "--out", str(out)]) == 2
    assert "no.yaml" in capsys.readouterr().err


def test_cli_names_a_file_that_is_no_checkpoint_without_a_traceback(tmp_path, capsys):
    not_a_checkpoint = tmp_path / "cfg.yaml"
    from leosem.config import save_config
    save_config(fast_cfg(seed=23), not_a_checkpoint)
    out = tmp_path / "o"
    assert cli_main(["eval", "--checkpoint", str(not_a_checkpoint), "--out", str(out),
                     "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("leosem: error: ") and str(not_a_checkpoint) in err
    assert "not a checkpoint" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_names_a_checkpoint_config_mismatch_without_a_traceback(tmp_path, capsys):
    # A tiny-shell checkpoint with a small network, evaluated under the
    # default config, whose network is wider.
    cfg = fast_cfg(seed=24)
    cfg = dataclasses.replace(cfg, ppo=dataclasses.replace(cfg.ppo, trunk_width=16,
                                                           gat_hidden=8))
    cmd_train(cfg, tmp_path / "t", episodes=0)
    ckpt = tmp_path / "t" / "checkpoint.npz"
    out = tmp_path / "o"
    assert cli_main(["eval", "--checkpoint", str(ckpt), "--out", str(out),
                     "--episodes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("leosem: error: checkpoint/config mismatch") and str(ckpt) in err
    assert "trunk_width=16" in err and "Traceback" not in err
    assert not out.exists()
    with pytest.raises(pol.CheckpointError):
        experiment.load_policy(default_config(), ckpt)


def test_cli_keeps_the_traceback_of_a_failing_run(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("episode failed")

    monkeypatch.setattr(experiment, "run_episode", fail)
    out = tmp_path / "o"
    with pytest.raises(RuntimeError, match="episode failed"):
        cli_main(["baseline", "--baseline-kind", "shortest_path", "--out", str(out),
                  "--episodes", "1", "--trace"])
    # config.yaml is written first; a run that raises writes no run.json.
    assert sorted(p.name for p in out.iterdir()) == ["config.yaml", "trace.jsonl"]


def test_sweep_refuses_a_fractional_load(tmp_path):
    cfg = fast_cfg(seed=22)
    cmd_train(cfg, tmp_path / "t", episodes=0)
    params = pol.load_checkpoint(tmp_path / "t" / "checkpoint.npz")[0]
    for value in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="load values are flow counts"):
            sweep(cfg, "load", [1.0, value], params, 1)


@pytest.mark.parametrize("axis, value, error", [
    ("load", -1.0, "num_flows must be >= 0"),
    ("load", 2.5, "must be whole numbers"),
    ("snr", math.nan, "base_snr_db must be finite"),
    ("snr", 1e308, "base_snr_db = 1e\\+308, pathloss_exponent"),
])
def test_cmd_sweep_checks_every_value_before_writing(tmp_path, axis, value, error):
    cfg = fast_cfg(seed=23)
    cmd_train(cfg, tmp_path / "t", episodes=0)
    out = tmp_path / "s"
    with pytest.raises(ValueError, match=error):
        cmd_sweep(cfg, axis, [0.0, value], tmp_path / "t" / "checkpoint.npz", out, episodes=1)
    assert not out.exists()


def test_bad_checkpoint_fails_before_writing(tmp_path):
    cfg = fast_cfg(seed=24)
    cmd_train(cfg, tmp_path / "t", episodes=0)
    ckpt = tmp_path / "t" / "checkpoint.npz"
    data = dict(np.load(ckpt))
    data["w1"][0, 0] = math.nan
    np.savez(tmp_path / "nan.npz", **data)
    (tmp_path / "cut.npz").write_bytes(ckpt.read_bytes()[:-50])
    for bad, error in (("nan.npz", "'w1' holds a non-finite value"),
                       ("cut.npz", "is not a readable .npz archive")):
        with pytest.raises(ValueError, match=error):
            cmd_eval(cfg, tmp_path / bad, tmp_path / "e", episodes=1)
        with pytest.raises(ValueError, match=error):
            cmd_sweep(cfg, "snr", [0.0], tmp_path / bad, tmp_path / "s", episodes=1)
    assert not (tmp_path / "e").exists() and not (tmp_path / "s").exists()


def test_traced_eval_tags_every_event_with_its_episode(tmp_path):
    cfg = fast_cfg(seed=23)
    out = tmp_path / "e"
    cmd_eval(cfg, None, out, episodes=2, baseline_kind="shortest_path", trace=True)
    events = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    episodes = [e["episode"] for e in events]
    assert episodes == sorted(episodes) and set(episodes) == {0, 1}
    # Session ids restart in each episode; with the tag every spawn is distinct.
    spawns = [(e["episode"], e["session"]) for e in events if e["ev"] == "spawn"]
    assert len({sid for _, sid in spawns}) < len(set(spawns)) == len(spawns)


def test_untraced_episode_has_no_trace_writer():
    from leosem.baselines import make_baseline_controller
    controller = make_baseline_controller(BaselineSpec(kind="shortest_path"), stream_rng(0))
    assert run_episode(fast_cfg(seed=24), 0, controller, []).trace is None


def test_kept_engines_hold_no_superseded_parameters(monkeypatch):
    # Training's engines, kept the way the benchmark's episode log keeps
    # them, must not pin the parameter sets that later updates replaced: a
    # finished episode keeps its results, not its controller.
    cfg = fast_cfg(seed=25)
    cfg = dataclasses.replace(cfg, ppo=dataclasses.replace(
        cfg.ppo, horizon=24, minibatch_size=16, epochs=1, trunk_width=16, gat_hidden=8))
    acted_with, engines = [], []

    class Tracked(experiment.PolicyController):
        def __init__(self, params, *args, **kwargs):
            acted_with.append(weakref.ref(params))
            super().__init__(params, *args, **kwargs)

    run = experiment.run_episode
    monkeypatch.setattr(experiment, "PolicyController", Tracked)
    monkeypatch.setattr(experiment, "run_episode",
                        lambda *args, **kwargs: engines.append(run(*args, **kwargs)) or engines[-1])
    result = experiment.train(cfg, episodes=4)
    gc.collect()
    assert len(engines) == 4 and result.curve[-1]["updates"] >= 2
    alive = [ref() for ref in acted_with if ref() is not None]
    assert all(params is result.params for params in alive)
