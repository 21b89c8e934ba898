"""Experiment orchestration: seeded episodes, training, evaluation, sweeps.

Every stochastic stream (channel, flow endpoints, action sampling,
minibatch shuffling) derives from the experiment seed plus fixed stream
tags, so identical configs replay byte-identically.  Scenario streams
(channel, flows) depend only on (seed, episode), which pairs any two
controllers on exactly the same episodes.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import pathlib

import numpy as np

from . import metrics, policy as pol
from .agent import (FEATURE_DIM, PolicyController, PpoSettings, RewardTracker, Rollout,
                    ppo_update)
from .baselines import BaselineSpec, make_baseline_controller
from .channel import ChannelModel
from .config import ExperimentConfig, save_config
from .constellation import build_constellation, grid_hop_distance
from .metrics import MetricsBundle, SessionRecord, aggregate
from .policy import PolicyConfig, PolicyParams
from .simcore import Engine

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
    """``num_flows`` (src, dst) pairs with src != dst; needs 2 or more satellites."""
    n = cfg.constellation.num_sats
    if cfg.simulation.num_flows and n < 2:
        raise ValueError(f"cannot sample {cfg.simulation.num_flows} flow(s) with distinct "
                         f"endpoints on a shell of {n} satellite(s)")
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


def _tag_episode(trace, episode: int):
    """``trace`` with the episode index added to every event it is given."""
    def write(event: dict) -> None:
        event["episode"] = episode
        trace(event)
    return write


def run_episode(cfg: ExperimentConfig, episode: int, controller, hooks,
                trace=None) -> Engine:
    """One seeded episode: build the world, spawn sessions, run to the end.

    Every trace event carries ``episode``: session ids and times restart in
    each episode.  The returned engine is finished: it keeps the episode's
    results, not its controller or hooks.
    """
    if trace is not None:
        trace = _tag_episode(trace, episode)
    constellation = build_constellation(cfg.constellation)
    channel = ChannelModel(cfg.channel, constellation.edge_index,
                           cfg.simulation.slot_length_s,
                           seed=derive_seed(cfg.seed, _STREAM_CHANNEL, episode))
    engine = Engine(constellation, channel, controller, cfg.proxy, cfg.simulation,
                    hooks=hooks, trace=trace)
    flow_rng = stream_rng(cfg.seed, _STREAM_FLOWS, episode)
    for flow_id, (src, dst) in enumerate(sample_flows(cfg, flow_rng)):
        for k in range(cfg.simulation.sessions_per_flow):
            engine.add_session(src, dst, spawn_s=k * cfg.simulation.frame_interval_s,
                               latent_bytes=cfg.simulation.session_latent_bytes,
                               flow_id=flow_id)
    engine.run(cfg.simulation.episode_length_s)
    engine.finish()
    return engine


def _episode_records(episode: int, engine: Engine,
                     tracker: RewardTracker) -> list[SessionRecord]:
    """Resolved sessions in the order they ended, then those still in flight."""
    return [SessionRecord.from_session(episode, s, tracker.session_returns.get(s.session_id, 0.0))
            for s in engine.outcomes + engine.unresolved_sessions()]


def _check_episodes(episodes: int) -> None:
    if episodes < 0:
        raise ValueError(f"episodes must be >= 0, got {episodes}")


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
    _check_episodes(episodes)
    params = pol.init_policy_params(
        stream_rng(cfg.seed, _STREAM_POLICY_INIT), make_policy_config(cfg))
    optimizer = pol.Adam(lr=cfg.ppo.learning_rate)
    rollout = Rollout()
    action_rng = stream_rng(cfg.seed, _STREAM_ACTIONS)
    shuffle_rng = stream_rng(cfg.seed, _STREAM_MINIBATCH)

    curve: list[dict] = []
    all_records: list[SessionRecord] = []
    updates = 0
    last_stats = None
    delay_scale = cfg.delay_scale_s()

    # One controller, and so one Actor, per parameter set.
    controller = PolicyController(params, rng=action_rng, rollout=rollout)
    for ep in range(episodes):
        tracker = RewardTracker(cfg.reward, cfg.simulation.slot_length_s, sink=rollout.reward)
        engine = run_episode(cfg, ep, controller, [tracker], trace=trace)
        rollout.truncate()
        records = _episode_records(ep, engine, tracker)
        all_records.extend(records)

        transitions = sum(r.decision_count for r in records)
        if len(rollout) >= cfg.ppo.horizon:
            params, last_stats = ppo_update(rollout, params, optimizer, cfg.ppo, shuffle_rng)
            updates += 1
            controller = PolicyController(params, rng=action_rng, rollout=rollout)

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
            "buffer_size": len(rollout),
            "updates": updates,
            "policy_loss": last_stats.policy_loss if last_stats else None,
            "value_loss": last_stats.value_loss if last_stats else None,
            "entropy": last_stats.entropy if last_stats else None,
        })

    bundle = aggregate(all_records, delay_scale, cfg.objective.lambda_delay,
                       cfg.objective.lambda_semantic, episodes=episodes)
    return TrainResult(params, curve, all_records, bundle)


def evaluate(cfg: ExperimentConfig, params: PolicyParams | None, episodes: int,
             baseline: BaselineSpec | None = None, trace=None
             ) -> tuple[MetricsBundle, list[SessionRecord], list[Engine]]:
    """Greedy evaluation (or a baseline run) over paired seeded episodes.

    One controller serves every episode, except the random baseline's,
    which is built per episode from that episode's own stream."""
    _check_episodes(episodes)
    per_episode = baseline is not None and baseline.kind == "random"
    if baseline is None:
        if params is None:
            raise ValueError("evaluation without a baseline needs parameters")
        controller = PolicyController(params)
    elif not per_episode:
        controller = make_baseline_controller(baseline, params=params)
    records: list[SessionRecord] = []
    engines: list[Engine] = []
    for ep in range(episodes):
        if per_episode:
            controller = make_baseline_controller(
                baseline, stream_rng(cfg.seed, _STREAM_BASELINE, ep), params=params)
        tracker = RewardTracker(cfg.reward, cfg.simulation.slot_length_s)
        engine = run_episode(cfg, ep, controller, [tracker], trace=trace)
        records.extend(_episode_records(ep, engine, tracker))
        engines.append(engine)
    bundle = aggregate(records, cfg.delay_scale_s(), cfg.objective.lambda_delay,
                       cfg.objective.lambda_semantic, episodes=episodes)
    return bundle, records, engines


def _sweep_configs(cfg: ExperimentConfig, axis: str,
                   values: list[float]) -> list[ExperimentConfig]:
    """One config per sweep value, each checked by its dataclasses.

    ``snr`` offsets the base SNR by the value; ``load`` sets the number of
    flows, which must be a whole number.
    """
    if axis not in ("snr", "load"):
        raise ValueError("axis must be 'snr' or 'load'")
    configs = []
    for value in values:
        if axis == "snr":
            configs.append(dataclasses.replace(cfg, channel=dataclasses.replace(
                cfg.channel, base_snr_db=cfg.channel.base_snr_db + value)))
        elif not float(value).is_integer():
            raise ValueError(f"load values are flow counts and must be whole numbers, "
                             f"got {value}")
        else:
            configs.append(dataclasses.replace(cfg, simulation=dataclasses.replace(
                cfg.simulation, num_flows=int(value))))
    return configs


def sweep(cfg: ExperimentConfig, axis: str, values: list[float],
          params: PolicyParams, episodes: int) -> list[dict]:
    """Vary base SNR or concurrent load and evaluate each setting."""
    varied_configs = _sweep_configs(cfg, axis, values)
    _check_episodes(episodes)
    rows = []
    for value, varied in zip(values, varied_configs):
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


@contextlib.contextmanager
def _run_dir(cfg: ExperimentConfig, out_dir, command: str, trace: bool = False):
    """Make ``out_dir``, write ``config.yaml`` and yield ``(out, info, trace_hook)``.

    ``trace_hook`` writes one JSON line per event to ``trace.jsonl`` (None
    unless ``trace``).  The block adds its options to ``info``, which is
    written as ``run.json`` only when the block returns.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.yaml")
    info = {"seed": cfg.seed, "command": command}
    with open(out / "trace.jsonl", "w") if trace else contextlib.nullcontext() as fh:
        def trace_hook(event: dict) -> None:
            fh.write(json.dumps(event, sort_keys=True))
            fh.write("\n")

        yield out, info, trace_hook if trace else None
    metrics.write_json(out / "run.json", info)


def load_policy(cfg: ExperimentConfig, checkpoint) -> PolicyParams:
    """Load a checkpoint and check that ``cfg`` implies its network shape.

    A bad file or a shape mismatch raises ``policy.CheckpointError``.
    """
    params, _ = pol.load_checkpoint(checkpoint)
    expect = make_policy_config(cfg)
    if params.cfg != expect:
        raise pol.CheckpointError(
            f"checkpoint/config mismatch: checkpoint {checkpoint} built for {params.cfg}, "
            f"config implies {expect}")
    return params


def cmd_train(cfg: ExperimentConfig, out_dir, episodes: int | None = None,
              trace: bool = False) -> TrainResult:
    episodes = cfg.ppo.episodes if episodes is None else episodes
    _check_episodes(episodes)
    with _run_dir(cfg, out_dir, "train", trace) as (out, info, trace_hook):
        result = train(cfg, episodes=episodes, trace=trace_hook)
        ckpt = out / "checkpoint.npz"
        pol.save_checkpoint(ckpt, result.params,
                            hyper=dataclasses.asdict(cfg.ppo), seed=cfg.seed)
        metrics.write_rows_csv(out / "curve.csv", CURVE_COLUMNS, result.curve)
        metrics.write_rows_csv(out / "sessions.csv", metrics.SESSION_CSV_COLUMNS,
                               [dataclasses.asdict(r) for r in result.records])
        metrics.write_json(out / "metrics.json", dataclasses.asdict(result.bundle))
        info.update(episodes=episodes, checkpoint_sha256=_sha256(ckpt))
    return result


def cmd_eval(cfg: ExperimentConfig, checkpoint, out_dir, episodes: int,
             baseline_kind: str | None = None, fixed_budget: int | None = None,
             trace: bool = False) -> MetricsBundle:
    _check_episodes(episodes)
    params = ckpt_hash = None
    if checkpoint is not None:
        params = load_policy(cfg, checkpoint)
        ckpt_hash = _sha256(checkpoint)
    spec = (None if baseline_kind is None
            else BaselineSpec(kind=baseline_kind, fixed_budget=fixed_budget))
    with _run_dir(cfg, out_dir, "eval", trace) as (out, info, trace_hook):
        bundle, records, _ = evaluate(cfg, params, episodes, baseline=spec, trace=trace_hook)
        metrics.write_rows_csv(out / "sessions.csv", metrics.SESSION_CSV_COLUMNS,
                               [dataclasses.asdict(r) for r in records])
        metrics.write_json(out / "metrics.json", dataclasses.asdict(bundle))
        info.update(episodes=episodes, baseline_kind=baseline_kind,
                    checkpoint_sha256=ckpt_hash)
    return bundle


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: list[float], checkpoint,
              out_dir, episodes: int) -> list[dict]:
    if not values:
        raise ValueError("sweep needs at least one value")
    _sweep_configs(cfg, axis, values)
    _check_episodes(episodes)
    params = load_policy(cfg, checkpoint)
    with _run_dir(cfg, out_dir, "sweep") as (out, info, _):
        info.update(axis=axis, values=list(values), episodes=episodes,
                    checkpoint_sha256=_sha256(checkpoint))
        rows = sweep(cfg, axis, values, params, episodes)
        metrics.write_rows_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
    return rows
