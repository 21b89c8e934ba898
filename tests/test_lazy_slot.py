"""The pay-per-use event loop against its eager form: slot state built on
first read, restarting only the waiting queues, cached distance rows and
list-based sampling change no number."""
import dataclasses
import importlib.util
import pathlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leosem import experiment, policy, simcore
from leosem.agent import FEATURE_DIM, PolicyController, Rollout
from leosem.baselines import BaselineSpec
from leosem.channel import ChannelConfig, ChannelModel
from leosem.config import default_config, tiny_config
from leosem.constellation import Constellation, ConstellationConfig, build_constellation
from leosem.policy import PolicyConfig, init_policy_params
from queue_log import queue_log

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "run_digests.py"
_SPEC = importlib.util.spec_from_file_location("run_digests", _PATH)
run_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_digests)


class EagerEngine(simcore.Engine):
    """Builds every slot's snapshot at the slot boundary, read or not."""

    def _on_slot(self, slot: int) -> None:
        super()._on_slot(slot)
        assert self.snapshot.time_s == slot * self.slot_length_s


class FullWalkEngine(simcore.Engine):
    """Restarts idle queues by walking every queue at each slot boundary."""

    def _on_slot(self, slot: int) -> None:
        self.slot = slot
        self._snapshot = None
        self._emit("slot", slot=slot)
        for cell, queue in enumerate(self.queues):
            if queue and not self._busy[cell]:
                self._try_start(cell)
        self._push((slot + 1) * self.slot_length_s, simcore._EV_SLOT, ("slot", slot + 1))


class SteppedEngine(simcore.Engine):
    """Runs through the first 3 s one slot at a time, then on to the
    horizon; the tiny and stress episodes both have events left at 3 s."""

    def run(self, until_s: float) -> None:
        for k in range(1, 31):
            super().run(k * self.slot_length_s)
        super().run(until_s)


def busy_config():
    cfg = default_config()
    return dataclasses.replace(cfg, seed=1, simulation=dataclasses.replace(
        cfg.simulation, num_flows=20, sessions_per_flow=5, frame_interval_s=2.0))


def traced_episode(monkeypatch, cfg, engine_cls):
    """Event log, outcomes and snapshot builds of episode 0 under a sampling policy."""
    builds = []
    original = Constellation.snapshot
    monkeypatch.setattr(Constellation, "snapshot",
                        lambda con, *a: builds.append(a[0]) or original(con, *a))
    monkeypatch.setattr(experiment, "Engine", engine_cls)
    params = init_policy_params(np.random.default_rng(cfg.seed), PolicyConfig(
        obs_dim=FEATURE_DIM, gat_hidden=8, trunk_width=16))
    controller = PolicyController(params, rng=np.random.default_rng(cfg.seed + 1))
    events = []
    engine = experiment.run_episode(cfg, 0, controller, hooks=[], trace=events.append)
    monkeypatch.undo()
    assert engine.conservation_ok()
    return events, engine, builds


def test_lazy_slot_state_replays_the_eager_event_log(monkeypatch):
    for cfg in (busy_config(), tiny_config(0)):
        lazy_events, lazy, lazy_builds = traced_episode(monkeypatch, cfg, simcore.Engine)
        eager_events, eager, eager_builds = traced_episode(monkeypatch, cfg, EagerEngine)
        assert lazy_events == eager_events
        assert [dataclasses.asdict(o) for o in lazy.outcomes] == \
            [dataclasses.asdict(o) for o in eager.outcomes]
        assert lazy.counters == eager.counters
        slots = sum(e["ev"] == "slot" for e in eager_events)
        assert len(eager_builds) == slots + 1  # slot 0 is read by the first spawn
        assert set(lazy_builds) <= set(eager_builds)
    # tiny_config leaves many slots unread: those are never built.
    assert len(lazy_builds) < 0.7 * len(eager_builds)


def test_waiting_queues_replay_the_full_queue_walk(monkeypatch):
    # The lossy shell stalls groups behind a service that ends in a slot
    # where their link is down; only the slot-boundary restart moves them.
    lossy = dataclasses.replace(tiny_config(0), channel=dataclasses.replace(
        tiny_config(0).channel, failure_rate=0.3))
    for cfg in (busy_config(), tiny_config(0), lossy):
        events, engine, _ = traced_episode(monkeypatch, cfg, simcore.Engine)
        walk_events, walk, _ = traced_episode(monkeypatch, cfg, FullWalkEngine)
        assert events == walk_events
        assert [dataclasses.asdict(o) for o in engine.outcomes] == \
            [dataclasses.asdict(o) for o in walk.outcomes]
        assert engine.counters == walk.counters
        assert sum(e["ev"] == "service_start" for e in events) > 50


def test_stepping_with_advance_replays_one_run(monkeypatch):
    for cfg in (tiny_config(0), run_digests.stress_config(0)):
        events, engine, _ = traced_episode(monkeypatch, cfg, simcore.Engine)
        stepped_events, stepped, _ = traced_episode(monkeypatch, cfg, SteppedEngine)
        assert stepped_events == events
        assert [dataclasses.asdict(o) for o in stepped.outcomes] == \
            [dataclasses.asdict(o) for o in engine.outcomes]
        assert stepped.counters == engine.counters
        assert events[-1]["t"] > 3.0 and len(engine.outcomes) == len(engine.sessions)


def test_queue_law_holds_on_the_stress_scene(monkeypatch):
    # Unlike the chaos engines of the other queue-law tests, the stress
    # scene ends services in the slot their queue's next group joined.
    events, engine, _ = traced_episode(monkeypatch, run_digests.stress_config(0),
                                       simcore.Engine)
    rows = queue_log(events)
    assert len(rows) > 100
    for _, _, _, q_start, arrivals, departures, q_end in rows:
        assert q_end == simcore.step_queue(q_start, departures, arrivals, engine.q_max)
        assert departures <= q_start


def test_queue_log_matches_with_lazy_slot_state(monkeypatch):
    cfg = tiny_config(3)
    logs = []
    for engine_cls in (simcore.Engine, EagerEngine, FullWalkEngine):
        monkeypatch.setattr(experiment, "Engine", engine_cls)
        events = []
        experiment.evaluate(cfg, None, 1, baseline=BaselineSpec(kind="shortest_path"),
                            trace=events.append)
        logs.append(queue_log(events))
    assert logs[0] and logs[0] == logs[1] == logs[2]


def test_distance_rows_match_per_pair_norm_bit_for_bit():
    for planes, sats in ((10, 7), (3, 3)):
        con = build_constellation(ConstellationConfig(num_planes=planes, sats_per_plane=sats))
        channel = ChannelModel(ChannelConfig(), con.edge_index, 0.1, seed=5)
        n = con.cfg.num_sats
        for slot in range(0, 24 * 13, 13):
            snap = con.snapshot(slot * 0.1, channel)
            pos = snap.positions
            got = [snap.distance_km(a, b) for b in range(n) for a in range(n)]
            want = [float(np.linalg.norm(pos[a] - pos[b])) for b in range(n) for a in range(n)]
            assert np.array(got).tobytes() == np.array(want).tobytes()


def reference_sample(rng: np.random.Generator, probs) -> int:
    """The array form the list-based sampler replaces."""
    u = rng.random()
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u, side="right"), len(probs) - 1))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(weights=st.lists(st.sampled_from([0.0, 1e-300, 1e-9, 0.25]) | st.floats(0.0, 1.0),
                        min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1), normalise=st.booleans())
def test_list_sampler_matches_cumsum_searchsorted(weights, seed, normalise):
    total = sum(weights)
    if normalise and total > 0:
        weights = (np.array(weights) / total).tolist()
    rng_list, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert policy.sample_categorical(rng_list, weights) == \
            reference_sample(rng_ref, np.array(weights))
    assert rng_list.bit_generator.state == rng_ref.bit_generator.state


def test_list_sampler_matches_on_policy_rows():
    rng = np.random.default_rng(11)
    params = init_policy_params(rng, PolicyConfig(obs_dim=FEATURE_DIM, gat_hidden=8,
                                                  trunk_width=16, head_init_scale=3.0))
    for _ in range(200):
        states = policy.StateBatch(
            features=rng.normal(size=(1, 3, FEATURE_DIM)), member_mask=None,
            hop_mask=rng.random((1, 4)) < 0.6)
        if not states.hop_mask.any():
            continue
        probs = policy.forward(params, states).probs[0]
        seed = int(rng.integers(2**32))
        for cols in policy.HEAD_COLUMNS.values():
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert policy.sample_categorical(a, probs[cols].tolist()) == \
                reference_sample(b, probs[cols])


def test_greedy_evaluation_keeps_no_transitions(monkeypatch):
    # A finished engine no longer holds its controller, so spy on the
    # decisions as they are made: every one comes from a policy controller
    # with no rollout, and no row is ever stored.
    rollouts, rows = [], []
    decide = PolicyController.decide

    def spied_decide(controller, view):
        rollouts.append(controller.rollout)
        return decide(controller, view)

    monkeypatch.setattr(PolicyController, "decide", spied_decide)
    monkeypatch.setattr(Rollout, "add", lambda rollout, *args: rows.append(args))
    cfg = tiny_config(2)
    params = init_policy_params(np.random.default_rng(0), experiment.make_policy_config(cfg))
    _, greedy, _ = experiment.evaluate(cfg, params, 2)
    _, variant, _ = experiment.evaluate(
        cfg, params, 1, baseline=BaselineSpec(kind="policy_no_relay"))
    decisions = sum(r.decision_count for r in greedy + variant)
    assert decisions > 0 and len(rollouts) == decisions
    assert all(rollout is None for rollout in rollouts)
    assert rows == []
