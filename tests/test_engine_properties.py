"""Random small scenarios under every kind of controller: chunks are
conserved and each delivered session's hop records add up to its delay,
every bounded shortest-path search agrees with the full search, and every
observation and action agrees with its reference bit for bit."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leosem import experiment, policy as pol
from leosem.agent import FEATURE_DIM, PolicyController
from leosem.baselines import BaselineSpec, make_baseline_controller
from leosem.channel import ChannelConfig
from leosem.config import ExperimentConfig, SimulationConfig
from leosem.constellation import ConstellationConfig
from leosem.policy import PolicyConfig, init_policy_params
from search_oracle import EarlyExitChecker
from test_act_oracle import CheckedAct
from test_observe_oracle import run_checked

CONTROLLERS = ("random", "greedy_queue", "shortest_path", "policy")


@st.composite
def scenarios(draw):
    planes = draw(st.integers(1, 4))
    sats = draw(st.integers(2 if planes == 1 else 1, 5))
    sim = SimulationConfig(
        episode_length_s=draw(st.sampled_from([3.0, 8.0, 15.0])),
        num_flows=draw(st.integers(1, 4)),
        sessions_per_flow=draw(st.integers(1, 4)),
        frame_interval_s=draw(st.sampled_from([0.0, 0.3, 1.0])),
        q_max_packets=draw(st.sampled_from([4, 12, 600])),
        ttl_hops=draw(st.integers(1, 8)),
        relay_proc_delay_s=draw(st.sampled_from([0.0, 0.005])),
        session_latent_bytes=draw(st.sampled_from([0, 1200, 6000, 20_000])),
        flow_min_grid_hops=draw(st.integers(0, 2)),
    )
    return ExperimentConfig(
        constellation=ConstellationConfig(num_planes=planes, sats_per_plane=sats),
        channel=ChannelConfig(failure_rate=draw(st.sampled_from([0.0, 0.1, 0.4]))),
        simulation=sim,
        seed=draw(st.integers(0, 1000)),
    )


def make_controller(kind: str, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "policy":
        params = init_policy_params(rng, PolicyConfig(obs_dim=FEATURE_DIM, gat_hidden=8,
                                                      trunk_width=16))
        return PolicyController(params, rng=rng)
    return make_baseline_controller(BaselineSpec(kind=kind), rng)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=scenarios(), kind=st.sampled_from(CONTROLLERS))
def test_conservation_and_delay_composition(cfg, kind):
    engine = experiment.run_episode(cfg, 0, make_controller(kind, cfg.seed), hooks=[])
    assert engine.conservation_ok()
    c = engine.counters
    assert c.chunks_dropped == sum(c.drop_causes.values())
    for out in engine.outcomes:
        assert len(out.hop_records) == len(out.hop_trace) - 1
        if out.delivered:
            total = sum(r.total_s for r in out.hop_records)
            assert abs(out.end_to_end_delay_s - total) <= 1e-9
    for s in engine.sessions.values():
        if s.resolved and s.session_id not in {o.session_id for o in engine.outcomes}:
            raise AssertionError(f"session {s.session_id} resolved without an outcome")


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cfg=scenarios())
def test_bounded_search_matches_full_search_at_every_decision(cfg):
    engine = experiment.run_episode(cfg, 0, EarlyExitChecker(), hooks=[])
    assert engine.conservation_ok()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cfg=scenarios(), greedy=st.booleans())
def test_observe_and_act_match_their_references_at_every_decision(cfg, greedy):
    """``agent.observe`` against ``reference_observe.observe`` (with the
    snapshot and Dijkstra) and ``policy.act`` against
    ``reference_policy.act``, byte for byte, on drawn shells."""
    checked = CheckedAct()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pol, "act", checked)
        oracle = run_checked(cfg, greedy=greedy)
    assert checked.calls == oracle.decisions


def test_scenarios_cover_overflow_prune_and_ttl():
    """The strategy reaches the drop causes the property has to survive."""
    cfg = ExperimentConfig(
        constellation=ConstellationConfig(num_planes=3, sats_per_plane=3),
        simulation=dataclasses.replace(SimulationConfig(), episode_length_s=15.0, num_flows=4,
                                       sessions_per_flow=4, frame_interval_s=0.0,
                                       q_max_packets=12, ttl_hops=3,
                                       session_latent_bytes=6000),
        seed=4,
    )
    causes = {}
    for kind in CONTROLLERS:
        engine = experiment.run_episode(cfg, 0, make_controller(kind, 1), hooks=[])
        assert engine.conservation_ok()
        for cause, n in engine.counters.drop_causes.items():
            causes[cause] = causes.get(cause, 0) + n
    assert causes["queue_overflow"] > 0 and causes["pruned"] > 0 and causes["ttl_expired"] > 0
