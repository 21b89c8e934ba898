"""The one-state ``policy.act`` against the B=1 batched path it replaced
(``reference_policy.act``): at every decision of real episodes, the same
action, value and generator state afterwards, and in sampling mode the same
log-prob bytes (greedy ``act`` returns none)."""
import collections
import dataclasses
import pathlib

import numpy as np
import pytest
import reference_policy as ref

from leosem import experiment, policy as pol
from leosem.agent import PpoSettings
from leosem.baselines import BaselineSpec
from leosem.channel import ChannelConfig
from leosem.config import ExperimentConfig, SimulationConfig, default_config, tiny_config
from leosem.constellation import ConstellationConfig

CHECKPOINT = (pathlib.Path(__file__).resolve().parent.parent
              / "perfbench" / "data" / "eval_busy_policy.npz")


def top_two_gap(logits) -> float:
    """(top - second) / max(|top|, |second|) of two or more logits; 0 on a tie."""
    second, top = sorted(logits)[-2:]
    scale = max(abs(top), abs(second))
    return (top - second) / scale if scale else 0.0


class CheckedAct:
    """Stands in for ``policy.act``: runs both paths and compares them.

    The reference takes each head's probability argmax, greedy ``act`` its
    logit argmax; they can differ only where rounding merges two
    probabilities.  So every greedy call also records, per head, the
    smallest relative gap between the two largest open logits (read from
    the actor's head row) and the decision it came from.
    """

    def __init__(self):
        self.act = pol.act
        self.calls = 0
        self.actors = {}  # by id, kept alive so that no id is reused
        self.members = collections.Counter()     # subgraph sizes seen
        self.open_ports = collections.Counter()  # open hop entries seen
        self.min_gap = {}  # head -> (gap, description of the decision)

    def __call__(self, actor, features, mask, rng=None):
        ref_rng = None
        if rng is not None:
            ref_rng = np.random.default_rng()
            ref_rng.bit_generator.state = rng.bit_generator.state
        expect = ref.act(actor.params, features, mask, rng=ref_rng)
        got = self.act(actor, features, mask, rng=rng)
        assert got[0] == expect[0]
        if rng is None:
            assert got[1] is None
            self.record_gaps(actor.head[0].tolist(), mask)
        else:
            assert got[1].tobytes() == expect[1].tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert got[2].hex() == expect[2].hex()
        self.calls += 1
        self.actors[id(actor)] = actor
        self.members[len(features)] += 1
        self.open_ports[int(mask.sum())] += 1
        return got

    def record_gaps(self, row, mask):
        for head, cols in pol.HEAD_COLUMNS.items():
            logits = row[cols]
            if head == "hop":
                logits = [x for x, up in zip(logits, mask.tolist()) if up]
            if len(logits) < 2:
                continue
            gap = top_two_gap(logits)
            if head not in self.min_gap or gap < self.min_gap[head][0]:
                self.min_gap[head] = (gap, f"call {self.calls}, {head} logits {logits}")


@pytest.fixture
def checked_act(monkeypatch):
    checked = CheckedAct()
    monkeypatch.setattr(pol, "act", checked)
    return checked


def busy_config(seed):
    """The default 10x7 shell with 20 flows x 5 sessions and 2 s frames."""
    cfg = default_config()
    return dataclasses.replace(cfg, seed=seed, simulation=dataclasses.replace(
        cfg.simulation, num_flows=20, sessions_per_flow=5, frame_interval_s=2.0))


@pytest.mark.parametrize("seed", [1, 2])
def test_every_greedy_decision_of_a_busy_episode_matches(checked_act, seed):
    cfg = busy_config(seed)
    params, _ = pol.load_checkpoint(CHECKPOINT)
    assert params.cfg == experiment.make_policy_config(cfg)
    experiment.evaluate(cfg, params, episodes=1)
    assert checked_act.calls > 1000
    # A rounding tie between the top two logits of a head would let the
    # logit and the probability argmax part; the pinned checkpoint has none.
    assert checked_act.min_gap.keys() == set(pol.HEADS)
    for head, (gap, decision) in checked_act.min_gap.items():
        assert gap > 1e-9, f"near tie at {decision}: relative gap {gap:.3g}"


@pytest.mark.parametrize("baseline", [BaselineSpec("policy_no_source_c"),
                                      BaselineSpec("policy_no_relay"),
                                      BaselineSpec("policy_no_relay", fixed_budget=64)],
                         ids=["no_source_c", "no_relay", "no_relay_c64"])
def test_every_decision_of_a_policy_derived_baseline_matches(checked_act, baseline):
    params, _ = pol.load_checkpoint(CHECKPOINT)
    experiment.evaluate(busy_config(1), params, episodes=1, baseline=baseline)
    assert checked_act.calls > 1000 and len(checked_act.actors) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_every_sampled_training_decision_matches(checked_act, seed):
    result = experiment.train(tiny_config(seed), episodes=6)
    assert checked_act.calls == sum(row["transitions"] for row in result.curve)
    # Updates between episodes: later actors act on stepped parameters.
    # One actor per parameter set that acted, the first and one after each
    # update made before the last episode.
    assert result.curve[-1]["updates"] >= 1
    assert len(checked_act.actors) == 1 + result.curve[-2]["updates"]


@pytest.mark.parametrize("planes, sats", [(1, 2), (2, 3), (4, 2), (3, 3)])
def test_greedy_and_sampled_decisions_on_small_failing_shells_match(checked_act, planes, sats):
    """Small shells with many failed links: 2-member subgraphs (a node with
    one open port; with none it drops without a decision) and hop heads
    with a single open entry."""
    cfg = ExperimentConfig(
        constellation=ConstellationConfig(num_planes=planes, sats_per_plane=sats),
        channel=ChannelConfig(failure_rate=0.3),
        simulation=SimulationConfig(episode_length_s=20.0, num_flows=3, sessions_per_flow=4,
                                    frame_interval_s=1.5, ttl_hops=6, session_latent_bytes=12_000),
        ppo=PpoSettings(horizon=16, minibatch_size=8, epochs=2, trunk_width=16, gat_hidden=8),
        seed=planes * 10 + sats)
    params = pol.init_policy_params(np.random.default_rng(cfg.seed),
                                    experiment.make_policy_config(cfg))
    experiment.evaluate(cfg, params, episodes=2)
    greedy_calls = checked_act.calls
    result = experiment.train(cfg, episodes=3)
    assert greedy_calls > 0
    assert checked_act.calls - greedy_calls == sum(row["transitions"] for row in result.curve)
    assert result.curve[-1]["updates"] >= 1
    assert checked_act.members[2] > 0 and checked_act.open_ports[1] > 0


def test_actor_reads_the_trunk_in_place():
    cfg = pol.PolicyConfig(obs_dim=6, gat_hidden=4, trunk_width=8)
    params = pol.init_policy_params(np.random.default_rng(0), cfg)
    actor = pol.Actor(params)
    for view in (actor.gat_w, actor.attn2, actor.w1, actor.b1, actor.w2, actor.b2):
        assert np.shares_memory(view, params.flat)
    assert actor.attn2[:, 0].tobytes() == params.gat.attn[:4].tobytes()
    assert actor.attn2[:, 1].tobytes() == params.gat.attn[4:].tobytes()
