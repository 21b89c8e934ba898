import dataclasses
import heapq
import json

import numpy as np
import pytest

from leosem import baselines
from leosem.baselines import (BaselineSpec, GreedyQueueController, dijkstra_to,
                              make_baseline_controller, shortest_path_next_hop)
from leosem.channel import ChannelConfig, ChannelModel
from leosem.config import ExperimentConfig, SimulationConfig, default_config, tiny_config
from leosem.constellation import ConstellationConfig, build_constellation
from leosem.experiment import evaluate, run_episode
from leosem.policy import PolicyConfig, init_policy_params
from leosem.simcore import DROP_NO_LINK
from search_oracle import EarlyExitChecker


def snapshot_for(planes=3, sats=3, failure=0.0, seed=0, t=0.0):
    con = build_constellation(ConstellationConfig(num_planes=planes, sats_per_plane=sats))
    ch = ChannelModel(ChannelConfig(failure_rate=failure), con.edge_index, seed=seed)
    return con, con.snapshot(t, ch)


def bfs_hops(snapshot, src, dst):
    frontier = {src}
    seen = {src}
    adj = {}
    for a, p in np.argwhere(snapshot.avail):
        adj.setdefault(int(a), []).append(int(snapshot.dst[a, p]))
    hops = 0
    while frontier:
        if dst in frontier:
            return hops
        hops += 1
        frontier = {v for u in frontier for v in adj.get(u, []) if v not in seen}
        seen |= frontier
    return None


def test_adjacent_nodes_direct_port():
    con, snap = snapshot_for()
    port = shortest_path_next_hop(snap, 0, int(snap.dst[0, 0]))
    assert port == 0


def test_corner_to_corner_hop_count_matches_bfs():
    con, snap = snapshot_for()
    src, dst = 0, 8  # (0,0) -> (2,2) on the 3x3 torus
    path = [src]
    node = src
    for _ in range(10):
        if node == dst:
            break
        port = shortest_path_next_hop(snap, node, dst)
        node = int(snap.dst[node, port])
        path.append(node)
    assert node == dst
    assert len(path) - 1 == bfs_hops(snap, src, dst) == 2


def test_next_hop_requires_distinct_endpoints():
    _, snap = snapshot_for()
    with pytest.raises(ValueError):
        shortest_path_next_hop(snap, 3, 3)


def test_unreachable_returns_none():
    _, snap = snapshot_for(failure=1.0)
    assert shortest_path_next_hop(snap, 0, 5) is None


def test_next_hop_never_increases_hop_distance():
    for seed in range(12):
        con, snap = snapshot_for(planes=4, sats=5, failure=0.08, seed=seed,
                                 t=seed * 0.1)
        for src in range(0, 20, 3):
            for dst in (7, 13):
                if src == dst:
                    continue
                d0 = bfs_hops(snap, src, dst)
                if d0 is None:
                    continue
                port = shortest_path_next_hop(snap, src, dst)
                if port is None:
                    continue
                nxt = int(snap.dst[src, port])
                d1 = bfs_hops(snap, nxt, dst)
                assert d1 is not None and d1 <= d0


def test_dijkstra_symmetric_costs():
    _, snap = snapshot_for()
    dist = dijkstra_to(snap, 4)
    assert dist[4] == 0.0
    assert all(v > 0 for k, v in dist.items() if k != 4)


def busy_config(seed):
    """The default 10x7 shell with 20 flows x 5 sessions every 2 s."""
    cfg = default_config()
    return dataclasses.replace(cfg, seed=seed, simulation=dataclasses.replace(
        cfg.simulation, num_flows=20, sessions_per_flow=5, frame_interval_s=2.0))


def test_early_exit_matches_full_search_on_busy_episodes():
    checker = EarlyExitChecker()
    for seed in (1, 2, 3):
        assert run_episode(busy_config(seed), 0, checker, hooks=[]).conservation_ok()
    assert checker.decisions > 1200
    assert checker.partial > 0.9 * checker.decisions


@pytest.mark.parametrize("planes, sats", [(1, 2), (2, 3), (4, 2), (3, 3)])
def test_early_exit_matches_full_search_on_degenerate_shells(planes, sats):
    checker = EarlyExitChecker()
    for episode in range(3):
        cfg = ExperimentConfig(
            constellation=ConstellationConfig(num_planes=planes, sats_per_plane=sats),
            channel=ChannelConfig(failure_rate=0.3),
            simulation=SimulationConfig(episode_length_s=20.0, num_flows=3,
                                        sessions_per_flow=4, frame_interval_s=1.5,
                                        ttl_hops=6, session_latent_bytes=12_000),
            seed=planes * 10 + sats)
        run_episode(cfg, episode, checker, hooks=[])
    assert checker.decisions >= 20
    # On the 1x2 shell a node has one neighbour, which every search settles.
    assert (checker.partial > 0) == ((planes, sats) != (1, 2))


def grid_snapshot(lengths):
    """The clean 3x3 shell with every link 1 000 km long except ``lengths``,
    a map from (node, port) to km."""
    _, snap = snapshot_for()
    km = np.where(snap.avail, 1000.0, np.nan)
    for (node, port), value in lengths.items():
        km[node, port] = value
    return dataclasses.replace(snap, dist_km=km)


def test_exact_tie_goes_to_the_lowest_neighbor_index():
    # From node 0 to node 4: via node 3 (port 2) 1000 + 1000 and via node 2
    # (port 1) 500 + (2 -> 5 -> 4) 500 + 1000, both exactly 2000 km.  Node 3
    # settles first; node 1 (port 0, 5000 km away) then settles at the label
    # node 2 will get, so the bound equals the best total and only the
    # per-target check keeps the search going until node 2, the lower index,
    # is settled.
    snap = grid_snapshot({(0, 0): 5000.0, (0, 1): 500.0, (1, 2): 1500.0,
                          (2, 2): 500.0})
    targets = {1: 5000.0, 2: 500.0, 3: 1000.0, 6: 1000.0}
    bounded = dijkstra_to(snap, 4, targets)
    full = dijkstra_to(snap, 4)
    assert bounded == {3: 1000.0, 1: 1500.0, 2: 1500.0}
    assert {q: full[q] for q in bounded} == bounded and 6 in full
    assert 500.0 + full[2] == 1000.0 + full[3] == 2000.0
    assert shortest_path_next_hop(snap, 0, 4) == 1


def test_last_hop_settles_the_destination_alone():
    # Node 1, behind port 0 of node 0, is the destination: its total equals
    # every other neighbor's first possible total, and it has the lowest index.
    snap = grid_snapshot({})
    assert dijkstra_to(snap, 1, {1: 1000.0, 2: 1000.0, 3: 1000.0, 6: 1000.0}) == {1: 0.0}
    assert shortest_path_next_hop(snap, 0, 1) == 0


class CountingHeapq:
    """``heapq`` with a count of pops."""

    def __init__(self):
        self.pops = 0

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)

    heappush = staticmethod(heapq.heappush)


def test_early_exit_with_an_unreachable_target_searches_everything(monkeypatch):
    # Node 3 has four open ports, but none of its neighbors reaches node 7.
    _, snap = snapshot_for(planes=4, sats=5, failure=0.6, seed=0)
    counter = CountingHeapq()
    monkeypatch.setattr(baselines, "heapq", counter)
    full = dijkstra_to(snap, 7)
    full_pops, counter.pops = counter.pops, 0
    targets = {int(snap.dst[3, p]): float(snap.dist_km[3, p])
               for p in range(4) if snap.avail[3, p]}
    assert len(targets) == 4 and not set(targets) & set(full) and len(full) > 1
    assert dijkstra_to(snap, 7, targets) == {}
    assert counter.pops == full_pops
    assert shortest_path_next_hop(snap, 3, 7) is None


def test_spec_validation():
    with pytest.raises(ValueError):
        BaselineSpec(kind="teleport")
    with pytest.raises(ValueError):
        BaselineSpec(kind="random", fixed_budget=100)
    with pytest.raises(TypeError):  # relays only forward: there is no relay knob
        BaselineSpec(kind="random", fixed_relay=1)


def test_policy_variants_require_params():
    with pytest.raises(ValueError):
        make_baseline_controller(BaselineSpec(kind="policy_no_relay"),
                                 np.random.default_rng(0))


def test_random_requires_an_rng():
    # The other kinds keep no per-episode state and are built without one.
    with pytest.raises(ValueError, match="baseline random requires an rng"):
        make_baseline_controller(BaselineSpec(kind="random"))


def test_random_worse_than_shortest_path_paired_seeds():
    cfg = tiny_config(seed=5)
    sp, _, _ = evaluate(cfg, None, episodes=6, baseline=BaselineSpec(kind="shortest_path"))
    rnd, _, _ = evaluate(cfg, None, episodes=6, baseline=BaselineSpec(kind="random"))
    assert sp.delivery_rate > rnd.delivery_rate


def test_greedy_queue_delivers_on_clean_graph():
    cfg = tiny_config(seed=6)
    gq, _, _ = evaluate(cfg, None, episodes=4, baseline=BaselineSpec(kind="greedy_queue"))
    assert gq.delivery_rate >= 0.9


def _trace_events(tmp_path, spec, params, episodes=2):
    import dataclasses

    import leosem.policy as pol
    from leosem.experiment import cmd_eval
    out = tmp_path / spec.kind
    ckpt = tmp_path / "ckpt.npz"
    pol.save_checkpoint(ckpt, params)
    cfg = tiny_config(seed=7)
    cfg = dataclasses.replace(cfg, ppo=dataclasses.replace(
        cfg.ppo, gat_hidden=params.cfg.gat_hidden, trunk_width=params.cfg.trunk_width))
    cmd_eval(cfg, ckpt, out, episodes=episodes,
             baseline_kind=spec.kind, fixed_budget=spec.fixed_budget, trace=True)
    events = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    return events


@pytest.fixture(scope="module")
def small_params():
    from leosem.agent import FEATURE_DIM
    rng = np.random.default_rng(9)
    return init_policy_params(rng, PolicyConfig(obs_dim=FEATURE_DIM,
                                                gat_hidden=8, trunk_width=16))


def test_no_relay_variant_never_relays(tmp_path, small_params):
    events = _trace_events(tmp_path, BaselineSpec(kind="policy_no_relay"), small_params)
    decisions = [e for e in events if e["ev"] == "decision"]
    assert decisions
    assert all(e["relay"] == 0 for e in decisions)


def test_no_source_c_variant_pins_source_budget(tmp_path, small_params):
    events = _trace_events(tmp_path, BaselineSpec(kind="policy_no_source_c"),
                           small_params)
    source_decisions = [e for e in events if e["ev"] == "decision" and e["source"]]
    assert source_decisions
    assert all(e["budget"] == 128 for e in source_decisions)


def test_fixed_budget_no_relay_variant(tmp_path, small_params):
    events = _trace_events(
        tmp_path, BaselineSpec(kind="policy_no_relay", fixed_budget=64), small_params)
    source_decisions = [e for e in events if e["ev"] == "decision" and e["source"]]
    assert source_decisions
    assert all(e["budget"] == 64 for e in source_decisions)
    assert all(e["relay"] == 0 for e in events if e["ev"] == "decision")
