"""The three benchmark workloads and the checks run on their outputs.

Each workload is a fixed block of closed-loop work (one client: every
episode runs to completion before the next starts) built from the
benchmark seed.  Repeating a block repeats exactly the same work, so every
block must produce the same outcome fingerprint.

- ``train_tiny``: ``train(tiny_config(seed))`` from scratch, default PPO.
  The only workload that runs ``ppo_update`` and the backward pass.
- ``eval_busy``: greedy ``evaluate`` of the fixed checkpoint on the 10x7
  shell under 20 flows x 5 sessions.  Many decisions share each slot, so
  observation building dominates; no backward pass or Adam runs.
- ``route_sp``: the ``shortest_path`` baseline on the same busy scenario.
  No policy and no observation: snapshot rebuild and Dijkstra dominate,
  which makes it the control for every agent/policy/gat change.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import pathlib
from dataclasses import dataclass

import numpy as np

from leosem import experiment, policy
from leosem.baselines import BaselineSpec
from leosem.config import ExperimentConfig, default_config, tiny_config

HERE = pathlib.Path(__file__).resolve().parent
CHECKPOINT = HERE / "data" / "eval_busy_policy.npz"
# Written by make_checkpoint.py; a rebuilt checkpoint must update this.
CHECKPOINT_SHA256 = "b8075a0d1d434e1960494486b555ff4f9794c01552b5057b279bf845519889f7"

NAMES = ("train_tiny", "eval_busy", "route_sp")

# Episodes per timed block: one episode where that suffices (0.3-1 s on a
# 2-core desk machine), so a run pairs many blocks with the frozen copy's and
# few pairs straddle a change of host speed.  A train_tiny block covers one
# PPO update.
BLOCK_EPISODES = {"train_tiny": 3, "eval_busy": 1, "route_sp": 1}
# Episodes of the untimed outcome pass that gives the routing-outcome
# metrics; more episodes than a block, so the outcome varies less by seed.
OUTCOME_EPISODES = {"train_tiny": 24, "eval_busy": 6, "route_sp": 12}

MAX_INITIAL_RATIO_DEV = 1e-9


def busy_config(seed: int) -> ExperimentConfig:
    """Default 10x7 shell loaded with 20 flows x 5 sessions, 2 s frames."""
    cfg = default_config()
    return dataclasses.replace(cfg, seed=seed, simulation=dataclasses.replace(
        cfg.simulation, num_flows=20, sessions_per_flow=5, frame_interval_s=2.0))


def load_fixed_checkpoint(cfg: ExperimentConfig) -> policy.PolicyParams:
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    if digest != CHECKPOINT_SHA256:
        raise ValueError(f"{CHECKPOINT.name} has sha256 {digest}, expected "
                         f"{CHECKPOINT_SHA256}; rebuild it with make_checkpoint.py")
    params, _ = policy.load_checkpoint(CHECKPOINT)
    expect = experiment.make_policy_config(cfg)
    if params.cfg != expect:
        raise ValueError(f"checkpoint built for {params.cfg}, config implies {expect}")
    return params


@dataclass
class BlockResult:
    episodes: int
    decisions: int
    outcome: dict
    params: policy.PolicyParams | None = None

    def fingerprint(self) -> dict:
        """Outcome of the block, plus a digest of the trained parameters."""
        out = dict(self.outcome)
        if self.params is not None:
            out["params_sha256"] = hashlib.sha256(self.params.to_vector().tobytes()).hexdigest()
        return out


def _result(episodes: int, bundle, records, params=None) -> BlockResult:
    decisions = sum(r.decision_count for r in records)
    outcome = {
        "sessions": bundle.sessions,
        "delivered": bundle.delivered,
        "decisions": decisions,
        "delivery_rate": bundle.delivery_rate,
        "mean_quality": bundle.mean_quality,
        "mean_delay_s": bundle.mean_delay_s,
    }
    return BlockResult(episodes, decisions, outcome, params)


class Workload:
    """Set-up state of one workload plus its repeatable block of work."""

    def __init__(self, name: str, seed: int):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
        self.name = name
        self.episodes = BLOCK_EPISODES[name]
        self.params = None
        self.baseline = None
        if name == "train_tiny":
            self.cfg = tiny_config(seed)
        else:
            self.cfg = busy_config(seed)
            if name == "eval_busy":
                self.params = load_fixed_checkpoint(self.cfg)
            else:
                self.baseline = BaselineSpec(kind="shortest_path")

    def run_block(self, trace=None, episodes: int | None = None) -> BlockResult:
        """Run one block (or ``episodes`` episodes from the first one).

        ``trace`` is passed on as the engine's event hook.
        """
        episodes = self.episodes if episodes is None else episodes
        # Look the entry points up on the module at call time so that the
        # traced run's wrappers are the ones called.
        if self.name == "train_tiny":
            result = experiment.train(self.cfg, episodes=episodes, trace=trace)
            return _result(episodes, result.bundle, result.records, result.params)
        bundle, records, _ = experiment.evaluate(
            self.cfg, self.params, episodes, baseline=self.baseline, trace=trace)
        return _result(episodes, bundle, records)


class EpisodeLog:
    """Keeps every episode's engine and every update's stats for the checks.

    Installed for the whole run, beneath any tracer; ``take`` hands over and
    forgets what one block produced.
    """

    def __init__(self):
        self.engines = []
        self.updates: list[tuple[int, object]] = []
        self._episode = -1
        self._originals = None

    def __enter__(self) -> "EpisodeLog":
        run_episode, ppo_update = experiment.run_episode, experiment.ppo_update
        self._originals = (run_episode, ppo_update)

        def logged_run_episode(cfg, episode, *args, **kwargs):
            self._episode = episode
            engine = run_episode(cfg, episode, *args, **kwargs)
            self.engines.append(engine)
            return engine

        def logged_ppo_update(*args, **kwargs):
            params, stats = ppo_update(*args, **kwargs)
            self.updates.append((self._episode, stats))
            return params, stats

        experiment.run_episode = logged_run_episode
        experiment.ppo_update = logged_ppo_update
        return self

    def __exit__(self, *exc) -> None:
        experiment.run_episode, experiment.ppo_update = self._originals

    def take(self):
        engines, updates = self.engines, self.updates
        self.engines, self.updates = [], []
        return engines, updates


def failed_episodes(result: BlockResult, fingerprint: dict, engines, updates,
                    reference: dict | None) -> tuple[int, list[str]]:
    """Episodes of one block that fail a correctness check, and why.

    ``reference`` is the first block's fingerprint: a repeated block must
    reproduce it bit for bit.
    """
    bad: set[int] = set()
    reasons = []
    for ep, engine in enumerate(engines):
        if not engine.conservation_ok():
            bad.add(ep)
            reasons.append(f"episode {ep}: chunk conservation violated")
    for ep, stats in updates:
        dev = stats.initial_ratio_max_dev
        if not dev <= MAX_INITIAL_RATIO_DEV:
            bad.add(ep)
            reasons.append(f"update after episode {ep}: initial ratio deviates by {dev}")
    if len(engines) != result.episodes:
        bad.update(range(result.episodes))
        reasons.append(f"{len(engines)} episodes ran, expected {result.episodes}")
    if result.params is not None and not np.all(np.isfinite(result.params.to_vector())):
        bad.update(range(result.episodes))
        reasons.append("non-finite parameters after training")
    if reference is not None and fingerprint != reference:
        bad.update(range(result.episodes))
        reasons.append(f"outcome {fingerprint} differs from first block {reference}")
    return min(len(bad), result.episodes), reasons


def outcome_metrics(fingerprint: dict) -> dict[str, float]:
    out = {k: fingerprint[k] for k in ("delivery_rate", "mean_quality", "mean_delay_s")}
    for key, value in out.items():
        if value is None or not math.isfinite(value):
            raise ValueError(f"{key} is undefined: no session was delivered")
    return out
