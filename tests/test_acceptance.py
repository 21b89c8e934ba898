"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The learning-dependent
criteria share one trained checkpoint via a module-scoped fixture; its
training time is reported on the first criterion that uses it.
"""
import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest

from leosem import agent, gat
from leosem import policy as pol
from leosem.agent import (PpoSettings, clipped_surrogate, observe, ppo_loss,
                          ppo_loss_grads, ppo_update)
from leosem.baselines import BaselineSpec
from leosem.channel import ChannelConfig, ChannelModel
from leosem.config import tiny_config
from leosem.constellation import ConstellationConfig, build_constellation
from leosem.experiment import cmd_eval, cmd_train, evaluate, sweep, train
from leosem.gat import init_gat_params
from leosem.policy import JointAction, PolicyConfig, init_policy_params
from leosem.semantic import (BUDGET_SET, DEFAULT_CHUNK_BYTES, QualityProxyConfig,
                             SemanticState, packetize, quality)
from leosem.simcore import Engine, SimulationConfig, step_queue
from queue_log import occupancy, queue_log


def _report(n, label, t0):
    print(f"\n[acceptance] criterion {n:02d} ({label}): PASS ({time.time() - t0:.1f}s)")


class _RandomCtl:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def decide(self, view):
        ports = np.flatnonzero(view.mask)
        return JointAction(hop=int(ports[self.rng.integers(len(ports))]),
                           budget_idx=int(self.rng.integers(3)),
                           relay=int(self.rng.integers(2)))


def _chaos_engine(seed, trace=None, q_max=40, sessions=10, latent=12_000):
    con = build_constellation(ConstellationConfig(num_planes=3, sats_per_plane=3))
    ch = ChannelModel(ChannelConfig(failure_rate=0.08), con.edge_index, 0.1, seed=seed)
    engine = Engine(con, ch, _RandomCtl(seed + 1), QualityProxyConfig(),
                    SimulationConfig(q_max_packets=q_max, ttl_hops=8), trace=trace)
    rng = np.random.default_rng(seed + 2)
    for k in range(sessions):
        src = int(rng.integers(9))
        dst = int(rng.integers(9))
        engine.add_session(src, dst, spawn_s=0.2 * k, latent_bytes=latent, flow_id=k)
    return engine


@pytest.fixture(scope="module")
def trained():
    """The criterion-7 training run; criteria 8 and 9 reuse the checkpoint."""
    t0 = time.time()
    cfg = tiny_config(seed=0)
    result = train(cfg, episodes=300)
    print(f"\n[acceptance] shared training run: 300 episodes in {time.time() - t0:.1f}s")
    return cfg, result


# -------------------------------------------------------------------------
def test_criterion_01_queue_law():
    t0 = time.time()
    rng = np.random.default_rng(1)
    n = 1_000_000
    q = rng.integers(0, 700, size=n)
    o = rng.integers(0, 700, size=n)
    z = rng.integers(0, 700, size=n)
    qm = rng.integers(0, 700, size=n)
    oracle = np.minimum(np.maximum(q - o, 0) + z, qm)
    got = np.fromiter(
        (step_queue(int(q[i]), int(o[i]), int(z[i]), int(qm[i])) for i in range(n)),
        dtype=np.int64, count=n)
    assert np.array_equal(got, oracle)

    # simulator-measured per-slot deltas obey the same recursion when binned;
    # the log read from the trace holds the engine's own counts at every step
    events = []
    engine = _chaos_engine(seed=100, trace=events.append)
    t = 0.0
    while t < 40.0 and engine.sessions_resolved < len(engine.sessions):
        t += 0.1
        engine.run(t)
        rows = queue_log(events)
        assert np.array_equal(occupancy(rows, engine.slot, engine.occupancy.shape),
                              engine.occupancy)
    assert rows
    for _, _, _, q_start, arrivals, departures, q_end in rows:
        assert q_end == step_queue(q_start, departures, arrivals, engine.q_max)
    assert time.time() - t0 < 10.0
    _report(1, "queue law, 1e6 cases + binned simulation", t0)


def test_criterion_02_delay_composition():
    t0 = time.time()
    delivered = 0
    for ep in range(10):
        engine = _chaos_engine(seed=200 + ep)
        engine.run(40.0)
        for out in engine.outcomes:
            if not out.delivered:
                continue
            delivered += 1
            total = sum(r.total_s for r in out.hop_records)
            assert abs(out.end_to_end_delay_s - total) <= 1e-9
            for r in out.hop_records:
                assert r.prop_s >= 0 and r.tx_s >= 0 and r.queue_s >= 0 and r.proc_s >= 0
                assert abs(r.total_s - (r.prop_s + r.tx_s + r.queue_s + r.proc_s)) <= 1e-12
    assert delivered > 20
    assert time.time() - t0 < 60.0
    _report(2, f"delay composition over {delivered} delivered sessions", t0)


def test_criterion_03_packet_conservation():
    t0 = time.time()
    checks = 0
    for ep in range(100):
        engine = _chaos_engine(seed=300 + ep, sessions=8)
        t = 0.0
        while t < 30.0 and engine.sessions_resolved < len(engine.sessions):
            t += 0.1
            engine.run(t)
            # chunk-level identity; relay pruning counts under dropped
            assert engine.conservation_ok()
            checks += 1
    assert time.time() - t0 < 120.0
    _report(3, f"conservation after {checks} event batches / 100 episodes", t0)


def test_criterion_04_gat_correctness():
    t0 = time.time()
    rng = np.random.default_rng(4)

    def oracle(inp, params):
        m = inp.shape[0]
        h = params.hidden_dim
        z = inp @ params.w
        e = np.empty(m)
        for j in range(m):
            s = float(params.attn[:h] @ z[0] + params.attn[h:] @ z[j])
            e[j] = s if s > 0 else params.leaky_slope * s
        ex = np.exp(e - e.max())
        alpha = ex / ex.sum()
        agg = alpha @ z
        return alpha, np.where(agg > 0, agg, np.expm1(np.minimum(agg, 0)))

    def fd_grads(inp, params, g, h=1e-5):
        def loss(p):
            return float(g @ gat.forward(p, inp[None])[0][0])

        dw = np.zeros_like(params.w)
        for idx in np.ndindex(params.w.shape):
            p1, p2 = params.copy(), params.copy()
            p1.w[idx] += h
            p2.w[idx] -= h
            dw[idx] = (loss(p1) - loss(p2)) / (2 * h)
        da = np.zeros_like(params.attn)
        for i in range(params.attn.size):
            p1, p2 = params.copy(), params.copy()
            p1.attn[i] += h
            p2.attn[i] -= h
            da[i] = (loss(p1) - loss(p2)) / (2 * h)
        return dw, da

    checked = 0
    while checked < 100:
        m = int(rng.integers(1, 6))
        params = init_gat_params(rng, 5, 6)
        inp = rng.normal(size=(m, 5))
        _, cache = gat.forward(params, inp[None])
        if np.any(np.abs(cache.scores) < 1e-3):
            continue  # keep finite differences away from the LeakyReLU kink
        checked += 1
        assert abs(cache.alpha[0].sum() - 1.0) < 1e-12
        o_alpha, o_out = oracle(inp, params)
        assert np.max(np.abs(cache.alpha[0] - o_alpha)) < 1e-10
        assert np.max(np.abs(cache.out[0] - o_out)) < 1e-10

        g = rng.normal(size=6)
        grads = gat.backward(params, cache, g[None])
        fd_w, fd_a = fd_grads(inp, params, g)
        for analytic, fd in ((grads.w, fd_w), (grads.attn, fd_a)):
            scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(analytic - fd)) / scale < 1e-4
    assert time.time() - t0 < 30.0
    _report(4, "attention rows / dense oracle / gradient check x100", t0)


def _policy_rollout_buffer(params, cfg, rng, n, seg_len):
    """A rollout of decisions the policy itself made on random states.

    Each run of ``seg_len`` decisions is one session, closed by its last
    reward; a shorter last session is closed the same way.
    """
    from leosem.agent import Rollout
    rollout = Rollout()
    for i in range(n):
        sub = rng.normal(size=(int(rng.integers(1, 5)), cfg.obs_dim))
        mask = np.zeros(4, dtype=bool)
        mask[rng.integers(4)] = True
        mask |= rng.random(4) < 0.7
        action, logps, value = pol.act(pol.Actor(params), sub, mask, rng=rng)
        sid, index = divmod(i, seg_len)
        rollout.add(sid, sub, mask, action, logps, value)
        rollout.reward(sid, index, float(rng.normal()),
                       done=index == seg_len - 1 or i == n - 1)
    return rollout


def test_criterion_05_ppo_mechanics():
    t0 = time.time()
    # clipped-surrogate unit cases hold exactly
    assert clipped_surrogate(1.5, 1.0, 0.2) == 1.2
    assert clipped_surrogate(0.5, -1.0, 0.2) == -0.8

    s_cfg = PolicyConfig(obs_dim=8, gat_hidden=5, trunk_width=16)
    rng = np.random.default_rng(5)
    params = init_policy_params(rng, s_cfg)
    rollout = _policy_rollout_buffer(params, s_cfg, rng, n=32, seg_len=8)
    hyper = PpoSettings(minibatch_size=16, epochs=2, learning_rate=1e-3)
    samples = agent.stack_buffer(rollout, hyper)

    # analytic gradient of the full loss vs central finite differences
    loss0, grads = ppo_loss_grads(params, samples[:12], hyper)
    vec, g = params.to_vector(), grads.to_vector()
    scale = max(float(np.max(np.abs(g))), 1e-8)
    idx = np.random.default_rng(55).choice(vec.size, size=150, replace=False)
    worst = 0.0
    for i in idx:
        v1 = vec.copy(); v1[i] += 1e-5
        v2 = vec.copy(); v2[i] -= 1e-5
        fd = (ppo_loss(params.from_vector(v1), samples[:12], hyper)
              - ppo_loss(params.from_vector(v2), samples[:12], hyper)) / 2e-5
        worst = max(worst, abs(fd - g[i]) / scale)
    assert worst < 1e-3

    # ratios equal one on the first pass after a rollout
    _, stats = ppo_update(rollout, params, pol.Adam(lr=hyper.learning_rate),
                          hyper, rng)
    assert stats.initial_ratio_max_dev <= 1e-6
    assert time.time() - t0 < 60.0
    _report(5, f"ratio=1, clip cases, grad check (worst {worst:.1e})", t0)


def test_criterion_06_proxy_monotonicity():
    t0 = time.time()
    cfg = QualityProxyConfig()
    rng = np.random.default_rng(6)
    for _ in range(10_000):
        budget = int(rng.choice(BUDGET_SET))
        dist = float(rng.uniform(0, 4))
        pen = int(rng.integers(0, 8))
        snr = float(rng.uniform(-20, 40))
        state = SemanticState(session_id=0, budget_c=budget, accum_distortion=dist,
                              quant_penalties=pen, min_link_snr_db=snr)
        q = quality(state, cfg)
        assert 0.0 <= q <= 1.0
        up_b = {64: 96, 96: 128, 128: 128}[budget]
        assert quality(dataclasses.replace(state, budget_c=up_b), cfg) >= q - 1e-12
        assert quality(dataclasses.replace(state, min_link_snr_db=snr + 2.0),
                       cfg) >= q - 1e-12
        assert quality(dataclasses.replace(state, accum_distortion=dist + 0.2),
                       cfg) <= q + 1e-12
        assert quality(dataclasses.replace(state, quant_penalties=pen + 1),
                       cfg) <= q + 1e-12
    assert time.time() - t0 < 10.0
    _report(6, "proxy bounds and monotonicity on 1e4 states", t0)


def test_criterion_07_learning_trend(trained):
    t0 = time.time()
    cfg, result = trained
    returns = [row["mean_session_return"] for row in result.curve]
    first = float(np.mean(returns[:50]))
    last = float(np.mean(returns[-50:]))
    assert last > first, f"no improvement: first window {first}, last {last}"

    policy_bundle, _, _ = evaluate(cfg, result.params, episodes=50)
    random_bundle, _, _ = evaluate(cfg, None, episodes=50,
                                   baseline=BaselineSpec(kind="random"))
    gap = policy_bundle.delivery_rate - random_bundle.delivery_rate
    assert gap >= 0.20, f"delivery gap {gap:.3f} below 20 points"
    assert policy_bundle.objective < random_bundle.objective
    _report(7, f"reward {first:.2f}->{last:.2f}, delivery gap {gap * 100:.0f}pp", t0)


def test_criterion_08_competitiveness(trained):
    t0 = time.time()
    cfg, result = trained
    policy_bundle, _, _ = evaluate(cfg, result.params, episodes=50)
    sp_bundle, _, _ = evaluate(cfg, None, episodes=50,
                               baseline=BaselineSpec(kind="shortest_path"))
    ratio = policy_bundle.mean_delay_s / sp_bundle.mean_delay_s
    assert ratio <= 2.0, f"delay ratio {ratio:.2f} above 2x"

    ablation, _, _ = evaluate(cfg, result.params, episodes=50,
                              baseline=BaselineSpec(kind="policy_no_relay",
                                                    fixed_budget=64))
    assert policy_bundle.mean_quality >= ablation.mean_quality, (
        f"quality {policy_bundle.mean_quality:.3f} below fixed-C64 "
        f"no-relay {ablation.mean_quality:.3f}")
    assert time.time() - t0 < 300.0
    _report(8, f"delay {ratio:.2f}x shortest-path, quality "
               f"{policy_bundle.mean_quality:.3f} >= {ablation.mean_quality:.3f}", t0)


def test_criterion_09_sweep_trends(trained):
    t0 = time.time()
    cfg, result = trained
    snr_rows = sweep(cfg, "snr", [-5, 0, 5, 10, 15], result.params, episodes=20)
    qualities = [r["mean_quality"] for r in snr_rows]
    inversions = [(a - b) for a, b in zip(qualities, qualities[1:]) if b < a]
    assert len(inversions) <= 1 and all(v <= 0.02 for v in inversions), \
        f"quality column not rising: {qualities}"

    stress = dataclasses.replace(cfg, simulation=dataclasses.replace(
        cfg.simulation, q_max_packets=60, sessions_per_flow=6, frame_interval_s=1.5))
    load_rows = sweep(stress, "load", [1, 2, 4, 6, 8], result.params, episodes=20)
    drops = [r["drop_rate"] for r in load_rows]
    assert all(b >= a for a, b in zip(drops, drops[1:])), \
        f"drop column not nondecreasing: {drops}"
    assert time.time() - t0 < 600.0
    _report(9, f"snr quality {qualities[0]:.2f}->{qualities[-1]:.2f}, "
               f"load drops {drops[0]:.3f}->{drops[-1]:.3f}", t0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cfg = dataclasses.replace(tiny_config(seed=123))
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_train(cfg, a, episodes=20)
    cmd_train(cfg, b, episodes=20)
    assert filecmp.cmp(a / "curve.csv", b / "curve.csv", shallow=False)
    assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()

    ea, eb = tmp_path / "ea", tmp_path / "eb"
    cmd_eval(cfg, a / "checkpoint.npz", ea, episodes=10)
    cmd_eval(cfg, a / "checkpoint.npz", eb, episodes=10)
    assert (ea / "metrics.json").read_bytes() == (eb / "metrics.json").read_bytes()
    assert (ea / "sessions.csv").read_bytes() == (eb / "sessions.csv").read_bytes()
    assert time.time() - t0 < 300.0
    _report(10, "byte-identical curve.csv and metrics.json on replay", t0)


def test_criterion_11_payload_anchoring():
    t0 = time.time()
    proxy = QualityProxyConfig()
    assert packetize(proxy.base_latent_bytes, 128, DEFAULT_CHUNK_BYTES).num_chunks == 931
    assert packetize(proxy.base_latent_bytes, 64, DEFAULT_CHUNK_BYTES).num_chunks == 466
    assert time.time() - t0 < 1.0
    _report(11, "C=128 -> 931 chunks, C=64 -> 466 chunks", t0)
