import numpy as np
import pytest
import reference_policy

from leosem import agent
from leosem import policy as pol
from leosem.agent import (FEATURE_DIM, PolicyController, PpoSettings, RewardConfig,
                          RewardTracker, RolloutBuffer, TrajectorySegment,
                          Transition, clipped_surrogate, compute_gae, observe,
                          ppo_loss, ppo_loss_grads, ppo_update, progress_reward,
                          total_reward)
from leosem.channel import ChannelConfig, ChannelModel
from leosem.constellation import ConstellationConfig, build_constellation
from leosem.gat import SubgraphInput
from leosem.policy import JointAction, PolicyConfig, init_policy_params
from leosem.semantic import QualityProxyConfig
from leosem.simcore import Engine


class ViewCapture:
    """Controller that records decision views and plays a fixed action."""

    def __init__(self, port=0):
        self.views = []
        self.port = port

    def decide(self, view):
        self.views.append(view)
        # observe twice against the same live state: must be identical
        self.last = observe(view)
        self.last_again = observe(view)
        obs, subgraph, mask = self.last
        port = self.port if mask[self.port] else int(np.flatnonzero(mask)[0])
        return JointAction(hop=port, budget_idx=2, relay=0)


def capture_view(failure_rate=0.0, seed=2, q_fill=None):
    con = build_constellation(ConstellationConfig(num_planes=3, sats_per_plane=3))
    ch = ChannelModel(ChannelConfig(fast_std_db=0.0, jitter_amplitude_db=0.0,
                                    failure_rate=failure_rate, seed=seed),
                      con.edge_index, 0.1)
    ctl = ViewCapture()
    engine = Engine(con, ch, ctl, QualityProxyConfig(), ttl_hops=8)
    if q_fill:
        pid = 10_000
        for (node, port), occ in q_fill.items():
            for _ in range(occ):
                assert engine.enqueue(node, port, make_filler_packet(pid)) == "accepted"
                pid += 1
    engine.add_session(0, 4, spawn_s=0.0, latent_bytes=6000)
    engine.run(0.05)  # just the spawn decision
    return ctl, ctl.views[0]


def make_filler_packet(pid):
    from leosem.simcore import Packet
    return Packet(packet_id=pid, session_id=-1, src=0, dst=1, size_bytes=1200,
                  ttl_hops=8, created_s=0.0, hop_trace=[0])


# ---------------------------------------------------------------- observation

def test_empty_queues_zero_queue_features():
    ctl, _ = capture_view()
    obs, subgraph, _ = ctl.last
    assert np.all(obs[0:4] == 0.0)
    assert np.all(obs[17:21] == 0.0)
    assert obs.shape == (FEATURE_DIM,)


def test_full_queue_feature_is_one():
    _, view = capture_view(q_fill={(0, 0): 600})
    obs = agent.node_features(view, 0)
    assert obs[0] == pytest.approx(1.0)
    assert obs[17] == pytest.approx(1.0)


def test_observation_deterministic():
    ctl, _ = capture_view()
    (obs1, sub1, m1), (obs2, sub2, m2) = ctl.last, ctl.last_again
    assert np.array_equal(obs1, obs2)
    assert np.array_equal(sub1.features, sub2.features)
    assert np.array_equal(m1, m2)


def test_observation_layout_fields():
    ctl, _ = capture_view()
    obs, subgraph, mask = ctl.last
    assert obs[16] == pytest.approx(1.0)           # full TTL at the source
    assert np.all(obs[21:25] == 0.0)               # nothing visited yet
    assert obs[29] == pytest.approx(1.0)           # default budget 128
    assert obs[30] == pytest.approx(0.0)           # no distortion yet
    assert obs[12] == pytest.approx(mask.sum() / 4.0)
    # members: center plus one per available port
    assert subgraph.features.shape[0] == 1 + int(mask.sum())
    assert subgraph.members[0] == 0
    assert np.all((obs >= -1.0) & (obs <= 1.0))


def test_unavailable_ports_zeroed_and_masked():
    # pick a seed where the source sees at least one down port but not all
    for seed in range(40):
        try:
            ctl, view = capture_view(failure_rate=0.5, seed=seed)
        except IndexError:
            continue  # every port down: no decision to capture
        mask = view.mask
        if mask.any() and not mask.all():
            break
    else:
        pytest.skip("no partial-failure seed found")
    feats = agent.node_features(view, view.node)
    for p in range(4):
        if not mask[p]:
            assert feats[4 + p] == 0.0 and feats[8 + p] == 0.0 and feats[25 + p] == 0.0
    obs, subgraph, obs_mask = ctl.last
    assert np.array_equal(obs_mask, mask)
    assert subgraph.features.shape[0] == 1 + int(mask.sum())


def test_observe_rejects_wrong_holder():
    _, view = capture_view()
    view.node = 5
    with pytest.raises(ValueError):
        observe(view)


def test_revisit_flags_mark_trace_neighbors():
    _, view = capture_view()
    # pretend the payload came from the neighbor behind port 0
    back = view.snapshot.edge(0, 0).dst
    view.session.hop_trace.append(back)
    feats = agent.node_features(view, 0)
    assert feats[21] == 1.0
    others = [feats[21 + p] for p in range(1, 4)
              if view.snapshot.edge(0, p) is not None
              and view.snapshot.edge(0, p).dst not in view.session.hop_trace]
    assert all(v == 0.0 for v in others)


# ---------------------------------------------------------------- rewards

RC = RewardConfig()


def test_progress_reward_all_zero():
    assert progress_reward(100.0, 100.0, 0.0, 0.0, False, RC,
                           norm_km=100.0, slot_s=0.1) == 0.0


def test_progress_reward_loop_penalty():
    r = progress_reward(100.0, 100.0, 0.0, 0.0, True,
                        RewardConfig(w_loop=1.0), norm_km=100.0, slot_s=0.1)
    assert r == pytest.approx(-1.0)


def test_progress_reward_halving_distance():
    r = progress_reward(100.0, 50.0, 0.0, 0.0, False,
                        RewardConfig(w_hop=1.0), norm_km=100.0, slot_s=0.1)
    assert r == pytest.approx(0.5)


def test_progress_reward_delay_and_queue_terms():
    r = progress_reward(10.0, 10.0, 0.2, 0.5, False,
                        RewardConfig(w_delay=0.2, w_queue=0.2),
                        norm_km=10.0, slot_s=0.1)
    assert r == pytest.approx(-0.2 * 2.0 - 0.2 * 0.5)


def test_total_reward_events():
    assert total_reward("drop", 0.0, None, RewardConfig(r_fail=5.0)) == -5.0
    assert total_reward("deliver", 0.0, 1.0,
                        RewardConfig(r_succ=10.0, beta_sem=1.0)) == 11.0
    assert total_reward("forward", 0.37, None, RC) == 0.37
    with pytest.raises(ValueError):
        total_reward("deliver", 0.0, None, RC)
    with pytest.raises(ValueError):
        total_reward("vanish", 0.0, None, RC)


# ---------------------------------------------------------------- GAE

def test_gae_single_terminal_step():
    adv, ret = compute_gae([1.0], [0.0], [True], gamma=0.99, lam=0.95)
    assert adv[0] == pytest.approx(1.0)
    assert ret[0] == pytest.approx(1.0)


def test_gae_myopic_limit():
    rewards = [0.5, -1.0, 2.0]
    values = [0.2, 0.4, -0.3]
    adv, _ = compute_gae(rewards, values, [False, False, True], gamma=0.0, lam=0.95)
    assert np.allclose(adv, np.array(rewards) - np.array(values))


def test_gae_three_step_hand_oracle():
    # hand-unrolled recursion, gamma=0.9, lam=0.8
    adv, ret = compute_gae([1.0, -0.5, 2.0], [0.3, 0.1, -0.2],
                           [False, False, True], gamma=0.9, lam=0.8)
    assert np.allclose(adv, [1.36888, 0.804, 2.2], atol=1e-10)
    assert np.allclose(ret, [1.66888, 0.904, 2.0], atol=1e-10)


def test_gae_truncation_bootstraps():
    adv, _ = compute_gae([0.0], [0.0], [False], gamma=0.5, lam=1.0,
                         bootstrap_value=2.0)
    assert adv[0] == pytest.approx(1.0)


def test_gae_empty_rejected():
    with pytest.raises(ValueError):
        compute_gae([], [], [], 0.99, 0.95)


# ---------------------------------------------------------------- PPO pieces

def test_clipped_surrogate_unit_cases():
    assert clipped_surrogate(1.5, 1.0, 0.2) == pytest.approx(1.2, abs=1e-15)
    assert clipped_surrogate(0.5, -1.0, 0.2) == pytest.approx(-0.8, abs=1e-15)
    assert clipped_surrogate(1.0, 0.7, 0.2) == pytest.approx(0.7, abs=1e-15)


S_CFG = PolicyConfig(obs_dim=8, gat_hidden=5, trunk_width=16)


def synth_buffer(params, rng, n=14, seg_len=7):
    """Transitions produced by the policy itself on random states."""
    buffer = RolloutBuffer()
    transitions = []
    for i in range(n):
        obs = rng.normal(size=S_CFG.obs_dim)
        members = int(rng.integers(1, 5))
        sub = SubgraphInput(features=rng.normal(size=(members, S_CFG.obs_dim)))
        mask = np.zeros(4, dtype=bool)
        mask[rng.integers(4)] = True
        mask |= rng.random(4) < 0.7
        action, logps, value = pol.act(params, obs, sub, mask, rng=rng)
        transitions.append(Transition(
            obs=obs, subgraph=sub, mask=mask, action=action, log_probs=logps,
            value=value, reward=float(rng.normal()), done=(i % seg_len == seg_len - 1),
        ))
        if transitions[-1].done:
            buffer.add(TrajectorySegment(transitions=transitions))
            transitions = []
    if transitions:
        transitions[-1].done = True
        buffer.add(TrajectorySegment(transitions=transitions))
    return buffer


def test_first_epoch_ratios_are_one():
    rng = np.random.default_rng(0)
    params = init_policy_params(rng, S_CFG)
    buffer = synth_buffer(params, rng, n=24)
    hyper = PpoSettings(minibatch_size=8, epochs=2, learning_rate=1e-3)
    _, stats = ppo_update(buffer, params, pol.Adam(lr=hyper.learning_rate),
                          hyper, rng)
    assert stats.initial_ratio_max_dev <= 1e-6
    assert stats.n_samples == 24
    assert len(buffer) == 0  # cleared afterward


def test_update_moves_parameters():
    rng = np.random.default_rng(1)
    params = init_policy_params(rng, S_CFG)
    buffer = synth_buffer(params, rng, n=16)
    new_params, _ = ppo_update(buffer, params, pol.Adam(lr=1e-3),
                               PpoSettings(minibatch_size=8, epochs=2,
                                        learning_rate=1e-3), rng)
    assert not np.array_equal(new_params.to_vector(), params.to_vector())


def test_empty_buffer_rejected():
    rng = np.random.default_rng(2)
    params = init_policy_params(rng, S_CFG)
    with pytest.raises(ValueError):
        ppo_update(RolloutBuffer(), params, pol.Adam(), PpoSettings(), rng)


def _fd_check(params, samples, hyper, tol):
    loss0, grads = ppo_loss_grads(params, samples, hyper)
    vec = params.to_vector()
    g = grads.to_vector()
    rng = np.random.default_rng(123)
    idx = rng.choice(vec.size, size=min(120, vec.size), replace=False)
    h = 1e-5
    worst = 0.0
    scale = max(float(np.max(np.abs(g))), 1e-8)
    for i in idx:
        v1 = vec.copy(); v1[i] += h
        v2 = vec.copy(); v2[i] -= h
        fd = (ppo_loss(params.from_vector(v1), samples, hyper)
              - ppo_loss(params.from_vector(v2), samples, hyper)) / (2 * h)
        worst = max(worst, abs(fd - g[i]) / scale)
    assert worst < tol, f"worst relative gradient error {worst}"


def test_full_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = init_policy_params(rng, S_CFG)
    buffer = synth_buffer(params, rng, n=12)
    hyper = PpoSettings(minibatch_size=12, epochs=1)
    samples = agent.stack_buffer(buffer, hyper)
    _fd_check(params, samples, hyper, tol=1e-3)


def test_full_loss_gradient_with_clipped_ratios():
    # Perturb the parameters after collection so ratios leave 1 and some
    # samples clip; the analytic gradient must still match.
    rng = np.random.default_rng(4)
    params = init_policy_params(rng, S_CFG)
    buffer = synth_buffer(params, rng, n=12)
    hyper = PpoSettings(minibatch_size=12, epochs=1, clip_ratio=0.2)
    samples = agent.stack_buffer(buffer, hyper)
    vec = params.to_vector()
    vec = vec + rng.normal(scale=0.05, size=vec.size)
    moved = params.from_vector(vec)
    fwd = pol.forward(moved, samples.states)
    ratios = np.exp(pol.action_log_prob(fwd, samples.actions) - samples.old_logp)
    assert np.any((ratios < 0.8) | (ratios > 1.2)), "want some clipped samples"
    # keep a safe margin from the clip kink so finite differences are valid
    assert np.min(np.abs(np.stack([ratios - 0.8, ratios - 1.2]))) > 1e-3
    _fd_check(moved, samples, hyper, tol=1e-3)


# ---------------------------------------------------------------- collector

def test_policy_controller_closes_trajectories():
    rng = np.random.default_rng(5)
    params = init_policy_params(rng, PolicyConfig(obs_dim=FEATURE_DIM,
                                                  gat_hidden=8, trunk_width=16))
    buffer = RolloutBuffer()
    controller = PolicyController(params, rng=rng, buffer=buffer)
    tracker = RewardTracker(RC, slot_s=0.1, sink=controller.record_reward)

    con = build_constellation(ConstellationConfig(num_planes=3, sats_per_plane=3))
    ch = ChannelModel(ChannelConfig(seed=8), con.edge_index, 0.1)
    engine = Engine(con, ch, controller, QualityProxyConfig(), ttl_hops=8,
                    hooks=[tracker])
    for k in range(4):
        engine.add_session(k % 9, (k + 4) % 9, spawn_s=0.2 * k, latent_bytes=4800,
                           flow_id=k)
    engine.run(40.0)
    controller.finalize_truncated()
    assert engine.all_resolved or len(buffer) > 0
    assert not controller.trajectories  # everything moved out
    total = sum(len(seg.transitions) for seg in buffer.segments)
    assert total == sum(o.decision_count for o in engine.outcomes) \
        + sum(s.decision_count for s in engine.unresolved_sessions())
    for seg in buffer.segments:
        assert all(t.reward is not None for t in seg.transitions)
    assert set(tracker.session_returns) <= {o.session_id for o in engine.outcomes} \
        | {s.session_id for s in engine.unresolved_sessions()}


def mixed_rollouts(params, rng, n=40):
    """Buffer whose subgraphs have 1-5 members and whose hop masks vary."""
    buffer = RolloutBuffer()
    transitions = []
    for i in range(n):
        obs = rng.normal(size=S_CFG.obs_dim)
        sub = SubgraphInput(features=rng.normal(size=(1 + i % 5, S_CFG.obs_dim)))
        mask = rng.random(4) < 0.5
        mask[rng.integers(4)] = True
        action, logps, value = pol.act(params, obs, sub, mask, rng=rng)
        transitions.append(Transition(obs=obs, subgraph=sub, mask=mask, action=action,
                                      log_probs=logps, value=value,
                                      reward=float(rng.normal()), done=i % 8 == 7))
        if transitions[-1].done:
            buffer.add(TrajectorySegment(transitions=transitions))
            transitions = []
    return buffer


def test_batched_loss_and_gradient_match_per_sample_reference():
    rng = np.random.default_rng(6)
    params = init_policy_params(rng, S_CFG)
    hyper = PpoSettings(clip_ratio=0.2)
    batch = agent.stack_buffer(mixed_rollouts(params, rng), hyper)
    assert batch.states.member_mask.sum(axis=1).tolist() == [1, 2, 3, 4, 5] * 8
    # Move away from the behaviour policy so that some ratios clip.
    moved = params.from_vector(params.to_vector() + rng.normal(scale=0.05, size=params.flat.size))
    fwd = pol.forward(moved, batch.states)
    ratios = np.exp(pol.action_log_prob(fwd, batch.actions) - batch.old_logp)
    assert np.any((ratios < 0.8) | (ratios > 1.2)) and np.any(np.abs(ratios - 1) < 0.2)
    for p in (params, moved):
        loss, grads = ppo_loss_grads(p, batch, hyper)
        ref_loss, ref_grads = reference_policy.loss_and_grads(p, batch, hyper)
        scale = float(np.max(np.abs(ref_grads)))
        assert np.max(np.abs(grads.flat - ref_grads)) <= 1e-12 * scale
        assert abs(loss - ref_loss) <= 1e-12 * max(abs(ref_loss), 1.0)


def test_nan_reward_raises_before_any_step():
    rng = np.random.default_rng(7)
    params = init_policy_params(rng, S_CFG)
    buffer = synth_buffer(params, rng, n=16)
    buffer.segments[1].transitions[2].reward = float("nan")
    before = params.to_vector()
    opt = pol.Adam(lr=1e-3)
    with pytest.raises(FloatingPointError, match="advantage or return in trajectory segment 1"):
        ppo_update(buffer, params, opt, PpoSettings(minibatch_size=8, epochs=2), rng)
    assert opt.t == 0
    assert np.array_equal(params.to_vector(), before)


def test_inf_parameter_raises_before_any_step():
    rng = np.random.default_rng(8)
    params = init_policy_params(rng, S_CFG)
    buffer = synth_buffer(params, rng, n=16)
    params.w1[3, 2] = np.inf
    before = params.to_vector()
    opt = pol.Adam(lr=1e-3)
    with pytest.raises(FloatingPointError, match="block 'w1'"):
        ppo_update(buffer, params, opt, PpoSettings(minibatch_size=8, epochs=2), rng)
    assert opt.t == 0
    assert np.array_equal(params.to_vector(), before, equal_nan=True)


def test_nonfinite_gradient_named_by_epoch_minibatch_and_block():
    # Finite parameters whose value head is large enough for the backward
    # pass to overflow: the guard stops the update at the first minibatch.
    rng = np.random.default_rng(9)
    params = init_policy_params(rng, S_CFG)
    buffer = synth_buffer(params, rng, n=16)
    params.w_val[...] = 1e300
    opt = pol.Adam(lr=1e-3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match=r"block '\w+' at epoch 0, minibatch 0"):
        ppo_update(buffer, params, opt, PpoSettings(minibatch_size=8, epochs=2), rng)
    assert opt.t == 0
