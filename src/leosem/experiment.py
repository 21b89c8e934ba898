"""Experiment orchestration: seeded episodes, training, evaluation, sweeps.

Every stochastic stream (channel, flow endpoints, action sampling,
minibatch shuffling) derives from the experiment seed plus fixed stream
tags, so identical configs replay byte-identically.  Scenario streams
(channel, flows) depend only on (seed, episode), which pairs any two
controllers on exactly the same episodes.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import numpy as np

from . import metrics, policy as pol
from .agent import (FEATURE_DIM, PolicyController, PpoSettings, RewardTracker,
                    RolloutBuffer, ppo_update)
from .baselines import BaselineSpec, make_baseline_controller
from .channel import ChannelModel
from .config import ExperimentConfig, save_config
from .constellation import build_constellation, grid_hop_distance
from .metrics import MetricsBundle, SessionRecord, aggregate
from .policy import PolicyConfig, PolicyParams
from .simcore import ActiveSession, Engine

# Stream tags for seed derivation.
_STREAM_CHANNEL = 1
_STREAM_FLOWS = 2
_STREAM_POLICY_INIT = 3
_STREAM_ACTIONS = 4
_STREAM_MINIBATCH = 5
_STREAM_BASELINE = 6

CURVE_COLUMNS = [
    "episode", "sessions", "delivered", "dropped", "truncated", "delivery_rate",
    "mean_session_return", "total_reward", "transitions", "mean_delay_s",
    "mean_quality", "objective", "buffer_size", "updates", "policy_loss",
    "value_loss", "entropy",
]

SWEEP_COLUMNS = [
    "axis", "value", "episodes", "sessions", "delivered", "delivery_rate",
    "drop_rate", "mean_delay_s", "mean_quality", "objective",
]


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0] >> 1)


def stream_rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def make_ppo_hyper(cfg: ExperimentConfig) -> PpoSettings:
    # The ppo section is the update's settings; kept for the checkpoint
    # rebuild script under perfbench/, which imports it by this name.
    return cfg.ppo


def make_policy_config(cfg: ExperimentConfig) -> PolicyConfig:
    return PolicyConfig(obs_dim=FEATURE_DIM, gat_hidden=cfg.ppo.gat_hidden,
                        trunk_width=cfg.ppo.trunk_width)


def sample_flows(cfg: ExperimentConfig, rng: np.random.Generator) -> list[tuple[int, int]]:
    n = cfg.constellation.num_sats
    min_hops = cfg.simulation.flow_min_grid_hops
    flows = []
    for _ in range(cfg.simulation.num_flows):
        for _ in range(200):
            src = int(rng.integers(n))
            dst = int(rng.integers(n))
            if src != dst and grid_hop_distance(cfg.constellation, src, dst) >= min_hops:
                break
        else:
            # Constraint unsatisfiable on this shell; fall back to src != dst.
            while dst == src:
                dst = int(rng.integers(n))
        flows.append((src, dst))
    return flows


def run_episode(cfg: ExperimentConfig, episode: int, controller, hooks,
                trace=None, collect_queue_log: bool = False) -> Engine:
    """One seeded episode: build the world, spawn sessions, run to the end."""
    constellation = build_constellation(cfg.constellation)
    channel_cfg = dataclasses.replace(
        cfg.channel, seed=derive_seed(cfg.seed, _STREAM_CHANNEL, episode))
    channel = ChannelModel(channel_cfg, constellation.edge_index,
                           cfg.simulation.slot_length_s)
    engine = Engine(
        constellation, channel, controller, cfg.proxy,
        slot_length_s=cfg.simulation.slot_length_s,
        chunk_bytes=cfg.simulation.chunk_bytes,
        q_max=cfg.simulation.q_max_packets,
        ttl_hops=cfg.simulation.ttl_hops,
        relay_proc_delay_s=cfg.simulation.relay_proc_delay_s,
        hooks=hooks, trace=trace, collect_queue_log=collect_queue_log,
    )
    flow_rng = stream_rng(cfg.seed, _STREAM_FLOWS, episode)
    for flow_id, (src, dst) in enumerate(sample_flows(cfg, flow_rng)):
        for k in range(cfg.simulation.sessions_per_flow):
            engine.add_session(src, dst, spawn_s=k * cfg.simulation.frame_interval_s,
                               latent_bytes=cfg.simulation.session_latent_bytes,
                               flow_id=flow_id)
    engine.run(cfg.simulation.episode_length_s)
    return engine


def _episode_records(episode: int, engine: Engine,
                     tracker: RewardTracker) -> list[SessionRecord]:
    records = [
        SessionRecord.from_outcome(episode, o, tracker.session_returns.get(o.session_id, 0.0))
        for o in engine.outcomes
    ]
    for s in engine.unresolved_sessions():
        records.append(_truncated_record(episode, s, tracker))
    return records


def _truncated_record(episode: int, s: ActiveSession, tracker: RewardTracker) -> SessionRecord:
    return SessionRecord(
        episode=episode, session_id=s.session_id, flow_id=s.flow_id, src=s.src,
        dst=s.dst, spawn_s=s.spawn_s, delivered=False, drop_cause=None,
        end_to_end_delay_s=None, hops=max(len(s.hop_trace) - 1, 0), quality=None,
        final_budget=s.sem.budget_c, relay_count=s.relay_count,
        requant_count=s.sem.quant_penalties, chunks_created=s.chunks_created,
        decision_count=s.decision_count,
        reward=tracker.session_returns.get(s.session_id, 0.0),
    )


class TrainResult:
    def __init__(self, params: PolicyParams, curve: list[dict],
                 records: list[SessionRecord], bundle: MetricsBundle):
        self.params = params
        self.curve = curve
        self.records = records
        self.bundle = bundle


def train(cfg: ExperimentConfig, episodes: int | None = None,
          trace=None) -> TrainResult:
    """Rollout/update loop over seeded episodes with a shared policy."""
    episodes = cfg.ppo.episodes if episodes is None else episodes
    params = pol.init_policy_params(
        stream_rng(cfg.seed, _STREAM_POLICY_INIT), make_policy_config(cfg))
    optimizer = pol.Adam(lr=cfg.ppo.learning_rate)
    buffer = RolloutBuffer()
    action_rng = stream_rng(cfg.seed, _STREAM_ACTIONS)
    shuffle_rng = stream_rng(cfg.seed, _STREAM_MINIBATCH)

    curve: list[dict] = []
    all_records: list[SessionRecord] = []
    updates = 0
    last_stats = None
    delay_scale = cfg.delay_scale_s()

    for ep in range(episodes):
        controller = PolicyController(params, rng=action_rng, greedy=False, buffer=buffer)
        tracker = RewardTracker(cfg.reward, cfg.simulation.slot_length_s,
                                sink=controller.record_reward)
        engine = run_episode(cfg, ep, controller, [tracker], trace=trace)
        controller.finalize_truncated()
        records = _episode_records(ep, engine, tracker)
        all_records.extend(records)

        transitions = sum(r.decision_count for r in records)
        if len(buffer) >= cfg.ppo.horizon:
            params, last_stats = ppo_update(buffer, params, optimizer, cfg.ppo, shuffle_rng)
            updates += 1

        ep_bundle = aggregate(records, delay_scale, cfg.objective.lambda_delay,
                              cfg.objective.lambda_semantic, episodes=1)
        curve.append({
            "episode": ep,
            "sessions": ep_bundle.sessions,
            "delivered": ep_bundle.delivered,
            "dropped": ep_bundle.dropped,
            "truncated": ep_bundle.in_flight,
            "delivery_rate": ep_bundle.delivery_rate,
            "mean_session_return": ep_bundle.mean_session_return,
            "total_reward": sum(r.reward for r in records),
            "transitions": transitions,
            "mean_delay_s": ep_bundle.mean_delay_s,
            "mean_quality": ep_bundle.mean_quality,
            "objective": ep_bundle.objective,
            "buffer_size": len(buffer),
            "updates": updates,
            "policy_loss": last_stats.policy_loss if last_stats else None,
            "value_loss": last_stats.value_loss if last_stats else None,
            "entropy": last_stats.entropy if last_stats else None,
        })

    bundle = aggregate(all_records, delay_scale, cfg.objective.lambda_delay,
                       cfg.objective.lambda_semantic, episodes=episodes)
    return TrainResult(params, curve, all_records, bundle)


def evaluate(cfg: ExperimentConfig, params: PolicyParams | None, episodes: int,
             baseline: BaselineSpec | None = None, trace=None,
             collect_queue_log: bool = False
             ) -> tuple[MetricsBundle, list[SessionRecord], list[Engine]]:
    """Greedy evaluation (or a baseline run) over paired seeded episodes."""
    records: list[SessionRecord] = []
    engines: list[Engine] = []
    for ep in range(episodes):
        if baseline is None:
            if params is None:
                raise ValueError("evaluation without a baseline needs parameters")
            controller = PolicyController(params, greedy=True)
        else:
            controller = make_baseline_controller(
                baseline, stream_rng(cfg.seed, _STREAM_BASELINE, ep), params=params)
        tracker = RewardTracker(cfg.reward, cfg.simulation.slot_length_s)
        engine = run_episode(cfg, ep, controller, [tracker], trace=trace,
                             collect_queue_log=collect_queue_log)
        records.extend(_episode_records(ep, engine, tracker))
        engines.append(engine)
    bundle = aggregate(records, cfg.delay_scale_s(), cfg.objective.lambda_delay,
                       cfg.objective.lambda_semantic, episodes=episodes)
    return bundle, records, engines


def sweep(cfg: ExperimentConfig, axis: str, values: list[float],
          params: PolicyParams, episodes: int) -> list[dict]:
    """Vary base SNR or concurrent load and evaluate each setting."""
    if axis not in ("snr", "load"):
        raise ValueError("axis must be 'snr' or 'load'")
    rows = []
    for value in values:
        if axis == "snr":
            varied = dataclasses.replace(cfg, channel=dataclasses.replace(
                cfg.channel, base_snr_db=cfg.channel.base_snr_db + value))
        else:
            varied = dataclasses.replace(cfg, simulation=dataclasses.replace(
                cfg.simulation, num_flows=int(value)))
        bundle, _, _ = evaluate(varied, params, episodes)
        rows.append({
            "axis": axis,
            "value": value,
            "episodes": episodes,
            "sessions": bundle.sessions,
            "delivered": bundle.delivered,
            "delivery_rate": bundle.delivery_rate,
            "drop_rate": bundle.drop_rate,
            "mean_delay_s": bundle.mean_delay_s,
            "mean_quality": bundle.mean_quality,
            "objective": bundle.objective,
        })
    return rows


# ----------------------------------------------------------------------
# run-directory commands (the CLI calls these)

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_run_info(out: pathlib.Path, cfg: ExperimentConfig, **extra) -> None:
    info = {"seed": cfg.seed, **extra}
    with open(out / "run.json", "w") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _open_trace(out: pathlib.Path, enabled: bool):
    if not enabled:
        return None, None
    fh = open(out / "trace.jsonl", "w")

    def write(event: dict) -> None:
        fh.write(json.dumps(event, sort_keys=True))
        fh.write("\n")

    return write, fh


def load_policy(cfg: ExperimentConfig, checkpoint) -> PolicyParams:
    """Load a checkpoint and check that ``cfg`` implies its network shape."""
    params, _ = pol.load_checkpoint(checkpoint)
    expect = make_policy_config(cfg)
    if params.cfg != expect:
        raise ValueError(
            f"checkpoint/config mismatch: checkpoint built for {params.cfg}, "
            f"config implies {expect}")
    return params


def cmd_train(cfg: ExperimentConfig, out_dir, episodes: int | None = None,
              trace: bool = False) -> TrainResult:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.yaml")
    trace_write, trace_fh = _open_trace(out, trace)
    try:
        result = train(cfg, episodes=episodes, trace=trace_write)
    finally:
        if trace_fh:
            trace_fh.close()
    ckpt = out / "checkpoint.npz"
    pol.save_checkpoint(ckpt, result.params,
                        hyper=dataclasses.asdict(cfg.ppo), seed=cfg.seed)
    metrics.write_rows_csv(out / "curve.csv", CURVE_COLUMNS, result.curve)
    metrics.write_sessions_csv(out / "sessions.csv", result.records)
    metrics.write_metrics_json(out / "metrics.json", result.bundle)
    _write_run_info(out, cfg, command="train",
                    episodes=episodes if episodes is not None else cfg.ppo.episodes,
                    checkpoint_sha256=_sha256(ckpt))
    return result


def cmd_eval(cfg: ExperimentConfig, checkpoint, out_dir, episodes: int,
             baseline_kind: str | None = None, fixed_budget: int | None = None,
             trace: bool = False) -> MetricsBundle:
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.yaml")
    params = None
    ckpt_hash = None
    if checkpoint is not None:
        params = load_policy(cfg, checkpoint)
        ckpt_hash = _sha256(checkpoint)
    spec = None
    if baseline_kind is not None:
        spec = BaselineSpec(kind=baseline_kind, fixed_budget=fixed_budget)
    trace_write, trace_fh = _open_trace(out, trace)
    try:
        bundle, records, _ = evaluate(cfg, params, episodes, baseline=spec,
                                      trace=trace_write)
    finally:
        if trace_fh:
            trace_fh.close()
    metrics.write_sessions_csv(out / "sessions.csv", records)
    metrics.write_metrics_json(out / "metrics.json", bundle)
    _write_run_info(out, cfg, command="eval", episodes=episodes,
                    baseline_kind=baseline_kind, checkpoint_sha256=ckpt_hash)
    return bundle


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: list[float], checkpoint,
              out_dir, episodes: int) -> list[dict]:
    if axis not in ("snr", "load"):
        raise ValueError("axis must be 'snr' or 'load'")
    if not values:
        raise ValueError("sweep needs at least one value")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.yaml")
    params = load_policy(cfg, checkpoint)
    rows = sweep(cfg, axis, values, params, episodes)
    metrics.write_rows_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
    _write_run_info(out, cfg, command="sweep", axis=axis, values=list(values),
                    episodes=episodes, checkpoint_sha256=_sha256(checkpoint))
    return rows
