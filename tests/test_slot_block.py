"""Slot state a block of slots at a time: a block's row is the slot's state
built alone, a run that stops and resumes across block boundaries replays
the uninterrupted event log, and a finished episode keeps no block, no drawn
channel rows and little else besides its results."""
import dataclasses
import gc
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest
import reference_observe as ref

from leosem import experiment, simcore
from leosem.agent import FEATURE_DIM, PolicyController
from leosem.baselines import BaselineSpec, ShortestPathController
from leosem.channel import SLOT_BLOCK, ChannelConfig, ChannelModel
from leosem.config import default_config, tiny_config
from leosem.constellation import Constellation, ConstellationConfig, build_constellation
from leosem.policy import PolicyConfig, init_policy_params, load_checkpoint

CHECKPOINT = (pathlib.Path(__file__).resolve().parent.parent
              / "perfbench" / "data" / "eval_busy_policy.npz")


def busy_config():
    cfg = default_config()
    return dataclasses.replace(cfg, seed=2, simulation=dataclasses.replace(
        cfg.simulation, num_flows=20, sessions_per_flow=5, frame_interval_s=2.0))


def controllers(cfg):
    params = init_policy_params(np.random.default_rng(cfg.seed), PolicyConfig(
        obs_dim=FEATURE_DIM, gat_hidden=8, trunk_width=16))
    yield PolicyController(params, rng=np.random.default_rng(cfg.seed + 1))
    yield ShortestPathController(BaselineSpec(kind="shortest_path"))


def test_block_rows_equal_one_row_builds_on_and_off_the_grid():
    # On the grid a snapshot is a row of its block; off the grid it is
    # built alone.  Both give the per-edge reference's bits, and a lagging
    # channel jumps over whole blocks it never derives.
    con = build_constellation(ConstellationConfig(num_planes=4, sats_per_plane=5))
    mine, theirs = (ChannelModel(ChannelConfig(failure_rate=0.2), con.edge_index, 0.1, seed=9)
                    for _ in range(2))
    on_grid = [slot * 0.1 for slot in (0, 1, 15, 16, 17, 31, 32, 99, 400, 415)]
    times = sorted(on_grid + [0.15, 1.63, 3.33, 40.04, 41.55])
    assert all(t != mine.slot_of(t) * 0.1 for t in times if t not in on_grid)
    for t in times:
        snap, want = con.snapshot(t, mine), ref.snapshot(con, t, theirs)
        assert snap.positions.tobytes() == want.positions.tobytes()
        for e in want.edges:
            got = (snap.avail[e.src, e.port], snap.dist_km[e.src, e.port],
                   snap.snr_db[e.src, e.port], snap.rate_bps[e.src, e.port])
            assert np.array(got, dtype=float).tobytes() == np.array(
                [e.available, e.distance_km, e.snr_db, e.rate_bps]).tobytes(), t
        bare = con.snapshot(t)
        assert bare.positions.tobytes() == con.positions_at(t).tobytes()
        assert bare.dist_km.tobytes() == snap.dist_km.tobytes()
        assert mine.first <= snap.slot < mine.first + SLOT_BLOCK


def test_run_resumed_across_block_boundaries_replays_the_log(monkeypatch):
    # Stops mid-block, on a block's last slot, on a boundary and two blocks
    # on; each resumed run goes on from the kept block and drawn rows.
    stops = [1.05, 1.55, 1.6, 3.3, 3.35]
    assert SLOT_BLOCK * 0.1 == 1.6
    original = simcore.Engine.run

    def stepped(engine, until_s):
        for stop in stops:
            original(engine, stop)
        original(engine, until_s)

    for cfg in (tiny_config(0), busy_config()):
        for make in range(2):
            logs, outcomes = [], []
            for run in (original, stepped):
                monkeypatch.setattr(simcore.Engine, "run", run)
                controller = list(controllers(cfg))[make]
                events = []
                engine = experiment.run_episode(cfg, 0, controller, hooks=[],
                                                trace=events.append)
                assert engine.conservation_ok()
                logs.append(events)
                outcomes.append([dataclasses.asdict(o) for o in engine.outcomes])
            assert logs[0] == logs[1] and outcomes[0] == outcomes[1]
            assert sum(e["ev"] == "decision" and e["t"] < 3.35 for e in logs[0]) > 5


def test_finished_run_keeps_no_slot_block(monkeypatch):
    # A block of slot state is about 140 KB on the 10x7 shell and a block of
    # drawn channel rows about 76 KB; an evaluation keeps every engine, so a
    # block kept past ``finish`` would add up.
    made, drawn = [], []
    original_state, original_draw = Constellation._slot_state, ChannelModel._next_block

    def tracked_state(con, *args, **kwargs):
        positions, table, avail = state = original_state(con, *args, **kwargs)
        made.append([weakref.ref(x) for x in (positions, table.base, avail.base)])
        return state

    def tracked_draw(channel):
        original_draw(channel)
        drawn.append([weakref.ref(channel._normal), weakref.ref(channel._available)])

    monkeypatch.setattr(Constellation, "_slot_state", tracked_state)
    monkeypatch.setattr(ChannelModel, "_next_block", tracked_draw)
    for cfg in (tiny_config(1), busy_config()):
        for controller in controllers(cfg):
            made.clear()
            drawn.clear()
            engine = experiment.run_episode(cfg, 0, controller, hooks=[])
            gc.collect()
            assert len(made) > 2 and len(drawn) > 2
            assert engine.constellation is None and engine.channel is None
            assert all(ref() is None for refs in made + drawn for ref in refs)
            with pytest.raises(RuntimeError, match="the episode has ended"):
                engine.snapshot


def retained_per_engine(cfg, params, baseline) -> float:
    """Bytes each of two finished engines of an evaluation keeps."""
    experiment.evaluate(cfg, params, 1, baseline=baseline)  # per-shape tables
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engines = experiment.evaluate(cfg, params, 2, baseline=baseline)[2]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(engines) == 2 and all(e.sessions_resolved for e in engines)
    return retained / len(engines)


def test_finished_busy_shortest_path_engine_retains_under_105_kib():
    # What an evaluation's engines keep once their episodes end: sessions,
    # their hop traces and delays, and counters.  An engine retains about
    # 92 KiB here; about 110 KiB with its constellation and channel (their
    # per-node and per-link arrays, a generator and its saved state and
    # jitter row), about 140 KiB with, besides, its send queues, event heap
    # and controller, about 205 KiB with, besides, a record object per hop,
    # and about 500 KiB with an empty deque per port, its last block of
    # slot state, its drawn channel rows and its own copy of the link list.
    retained = retained_per_engine(busy_config(), None, BaselineSpec(kind="shortest_path"))
    assert retained < 105 * 1024, f"{retained / 1024:.0f} KiB"


def test_finished_busy_greedy_policy_engine_retains_under_140_kib():
    # The benchmark's fixed checkpoint, evaluated greedily on the same shell:
    # its sessions make about 2.7 times the hops of shortest-path routing.
    # An engine retains about 123 KiB here, about 141 KiB with its
    # constellation and channel, about 182 KiB with, besides, its send
    # queues, event heap and controller (with the controller's actor), and
    # about 358 KiB with, besides, a record object per hop.
    cfg = busy_config()
    params, _ = load_checkpoint(CHECKPOINT)
    assert params.cfg == experiment.make_policy_config(cfg)
    retained = retained_per_engine(cfg, params, None)
    assert retained < 140 * 1024, f"{retained / 1024:.0f} KiB"
