"""The array snapshot, the gathered observation and Dijkstra against the
per-edge reference in ``reference_observe``: equal bit for bit."""
import dataclasses

import numpy as np
import pytest
import reference_observe as ref

from leosem import agent, baselines, experiment
from leosem.agent import FEATURE_DIM, PolicyController
from leosem.channel import ChannelConfig, ChannelModel
from leosem.config import ExperimentConfig, SimulationConfig, default_config
from leosem.constellation import NUM_PORTS, ConstellationConfig, build_constellation
from leosem.policy import PolicyConfig, init_policy_params
from leosem.simcore import Engine


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_snapshot_matches(con, snap, reference):
    n = con.cfg.num_sats
    assert snap.dst.shape == snap.avail.shape == snap.dist_km.shape == (n, NUM_PORTS)
    assert snap.positions.tobytes() == reference.positions.tobytes()
    present = np.zeros((n, NUM_PORTS), dtype=bool)
    for e in reference.edges:
        present[e.src, e.port] = True
        assert snap.dst[e.src, e.port] == e.dst
        assert snap.avail[e.src, e.port] == e.available
        assert _bits(snap.dist_km[e.src, e.port]) == _bits(e.distance_km)
        assert _bits(snap.snr_db[e.src, e.port]) == _bits(e.snr_db)
        assert _bits(snap.rate_bps[e.src, e.port]) == _bits(e.rate_bps)
    assert (snap.dst[~present] == -1).all()
    assert not snap.avail[~present].any()


class OracleController:
    """Checks every decision against the reference, then lets ``inner`` decide."""

    def __init__(self, inner, con, channel):
        self.inner = inner
        self.con = con
        self.channel = channel
        self.decisions = 0
        self._ref_key = None
        self._ref = None

    def reference(self, snap):
        if self._ref_key is not snap:
            self._ref_key = snap
            self._ref = ref.snapshot(self.con, snap.time_s, self.channel)
            assert_snapshot_matches(self.con, snap, self._ref)
        return self._ref

    def decide(self, view):
        reference = self.reference(view.snapshot)
        center, rows, members, mask = ref.observe(view, reference)
        features = agent.observe(view)
        # One row per member, the center's first, each the reference's bytes.
        assert features.shape == (len(members), FEATURE_DIM)
        assert features[0].tobytes() == center.tobytes()
        assert features.tobytes() == rows.tobytes()
        assert mask.tobytes() == view.mask.tobytes()
        dst = view.session.dst
        got = baselines.dijkstra_to(view.snapshot, dst)
        assert list(got.items()) == list(ref.dijkstra_to(reference, dst).items())
        self.decisions += 1
        return self.inner.decide(view)


def run_checked(cfg: ExperimentConfig, episode: int = 0, greedy: bool = False) -> OracleController:
    """One episode of ``cfg`` under a sampling (or, without an rng, greedy)
    policy, every decision checked."""
    con = build_constellation(cfg.constellation)
    channel = ChannelModel(cfg.channel, con.edge_index, cfg.simulation.slot_length_s,
                           seed=cfg.seed + episode)
    params = init_policy_params(np.random.default_rng(cfg.seed), PolicyConfig(
        obs_dim=FEATURE_DIM, gat_hidden=8, trunk_width=16))
    oracle = OracleController(
        PolicyController(params, rng=None if greedy else np.random.default_rng(cfg.seed + 1)),
        con, channel)
    sim = cfg.simulation
    engine = Engine(con, channel, oracle, cfg.proxy, sim)
    flows = experiment.sample_flows(cfg, experiment.stream_rng(cfg.seed, episode))
    for flow_id, (src, dst) in enumerate(flows):
        for k in range(sim.sessions_per_flow):
            engine.add_session(src, dst, spawn_s=k * sim.frame_interval_s,
                               latent_bytes=sim.session_latent_bytes, flow_id=flow_id)
    engine.run(sim.episode_length_s)
    assert engine.conservation_ok()
    return oracle


def test_every_decision_of_a_busy_episode_matches_reference():
    cfg = default_config()
    cfg = dataclasses.replace(cfg, seed=1, simulation=dataclasses.replace(
        cfg.simulation, num_flows=20, sessions_per_flow=5, frame_interval_s=2.0))
    oracle = run_checked(cfg)
    assert oracle.decisions > 1000


@pytest.mark.parametrize("planes, sats", [(1, 6), (1, 2), (4, 2), (2, 3), (5, 3)])
def test_every_decision_on_degenerate_shells_matches_reference(planes, sats):
    cfg = ExperimentConfig(
        constellation=ConstellationConfig(num_planes=planes, sats_per_plane=sats),
        channel=ChannelConfig(failure_rate=0.15),
        simulation=SimulationConfig(episode_length_s=30.0, num_flows=3, sessions_per_flow=4,
                                    frame_interval_s=1.5, ttl_hops=6,
                                    session_latent_bytes=12_000),
        seed=planes * 10 + sats,
    )
    oracle = run_checked(cfg)
    assert oracle.decisions >= 5


@pytest.mark.parametrize("planes, sats", [(1, 1), (1, 6), (4, 2), (2, 3), (10, 7)])
def test_snapshot_arrays_match_reference_over_many_slots(planes, sats):
    con = build_constellation(ConstellationConfig(num_planes=planes, sats_per_plane=sats))
    channel = ChannelModel(ChannelConfig(failure_rate=0.1), con.edge_index, 0.1, seed=3)
    for slot in range(0, 400, 7):
        t = slot * 0.1
        assert_snapshot_matches(con, con.snapshot(t, channel), ref.snapshot(con, t, channel))
    bare = 123.4
    assert_snapshot_matches(con, con.snapshot(bare), ref.snapshot(con, bare))


def test_snapshot_advances_a_lagging_channel_once(monkeypatch):
    # One advance_to_slot call catches the channel up over several slots and
    # draws what the reference's separate availability and SNR reads draw.
    con = build_constellation(ConstellationConfig(num_planes=10, sats_per_plane=7))
    mine, theirs = (ChannelModel(ChannelConfig(failure_rate=0.1), con.edge_index, 0.1, seed=4)
                    for _ in range(2))
    entries = []
    original = ChannelModel.advance_to_slot
    monkeypatch.setattr(ChannelModel, "advance_to_slot",
                        lambda ch, slot: entries.append((ch, slot)) or original(ch, slot))
    for slot in (3, 4, 17, 60):
        t = slot * 0.1
        entries.clear()
        snap = con.snapshot(t, mine)
        assert entries == [(mine, slot)] and mine.slot == slot
        assert_snapshot_matches(con, snap, ref.snapshot(con, t, theirs))
