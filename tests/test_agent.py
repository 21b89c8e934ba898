import gc
import tracemalloc

import numpy as np
import pytest
import reference_policy

from leosem import agent
from leosem import policy as pol
from leosem.agent import (FEATURE_DIM, PolicyController, PpoSettings, RewardConfig,
                          RewardTracker, Rollout, clipped_surrogate, compute_gae,
                          observe, ppo_loss, ppo_loss_grads, ppo_update, progress_reward,
                          total_reward)
from leosem.channel import ChannelConfig, ChannelModel
from leosem.constellation import ConstellationConfig, build_constellation
from leosem.policy import JointAction, PolicyConfig, init_policy_params
from leosem.semantic import QualityProxyConfig, SemanticState
from leosem.simcore import ActiveSession, Engine, HopMeasurements, SimulationConfig


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
        # The row of the deciding node alone, to compare with row 0.
        self.node = view.session.node
        self.center = agent._feature_rows(view, agent._slot_rows(view), [self.node])[0]
        mask = view.mask
        port = self.port if mask[self.port] else int(np.flatnonzero(mask)[0])
        return JointAction(hop=port, budget_idx=2, relay=0)


def capture_view(failure_rate=0.0, seed=2, fill_chunks=0):
    """The spawn decision of a session from node 0, with its observation.

    With ``fill_chunks``, a session spawned just before it first parks that
    many chunks on port 0 (groups that join in slot 0 wait for slot 1).
    """
    con = build_constellation(ConstellationConfig(num_planes=3, sats_per_plane=3))
    ch = ChannelModel(ChannelConfig(fast_std_db=0.0, jitter_amplitude_db=0.0,
                                    failure_rate=failure_rate),
                      con.edge_index, 0.1, seed=seed)
    ctl = ViewCapture()
    engine = Engine(con, ch, ctl, QualityProxyConfig(), SimulationConfig(ttl_hops=8))
    if fill_chunks:
        engine.add_session(0, 4, spawn_s=0.0, latent_bytes=engine.chunk_bytes * fill_chunks)
    engine.add_session(0, 4, spawn_s=0.0, latent_bytes=6000)
    engine.run(0.05)  # just the spawn decisions
    if fill_chunks:
        assert engine.occupancy[0, 0] == fill_chunks
        assert [b.num_chunks for b in engine.queues[0]] == [fill_chunks]
    return ctl, ctl.views[-1]


# ---------------------------------------------------------------- observation

def test_empty_queues_zero_queue_features():
    ctl, _ = capture_view()
    obs = ctl.last[0]
    assert np.all(obs[0:4] == 0.0)
    assert np.all(obs[17:21] == 0.0)
    assert obs.shape == (FEATURE_DIM,)


def test_full_queue_feature_is_one():
    ctl, _ = capture_view(fill_chunks=600)
    obs = ctl.last[0]
    assert obs[0] == pytest.approx(1.0)
    assert obs[17] == pytest.approx(1.0)


def test_observation_deterministic():
    ctl, _ = capture_view()
    assert ctl.last.tobytes() == ctl.last_again.tobytes()


def test_observation_layout_fields():
    ctl, view = capture_view()
    features, mask = ctl.last, view.mask
    obs = features[0]
    assert obs[16] == pytest.approx(1.0)           # full TTL at the source
    assert np.all(obs[21:25] == 0.0)               # nothing visited yet
    assert obs[29] == pytest.approx(1.0)           # default budget 128
    assert obs[30] == pytest.approx(0.0)           # no distortion yet
    assert obs[12] == pytest.approx(mask.sum() / 4.0)
    # members: center plus one per available port
    assert features.shape[0] == 1 + int(mask.sum())
    assert ctl.node == 0 and obs.tobytes() == ctl.center.tobytes()  # the source's row first
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
    feats = ctl.last[0]
    for p in range(4):
        if not mask[p]:
            assert feats[4 + p] == 0.0 and feats[8 + p] == 0.0 and feats[25 + p] == 0.0
    assert ctl.last.shape[0] == 1 + int(mask.sum())


def test_revisit_flags_mark_trace_neighbors():
    _, view = capture_view()
    # pretend the payload came from the neighbor behind port 0
    dst = view.snapshot.dst
    back = int(dst[0, 0])
    view.session.hop_trace.append(back)
    feats = observe(view)[0]
    assert feats[21] == 1.0
    others = [feats[21 + p] for p in range(1, 4)
              if dst[0, p] >= 0 and dst[0, p] not in view.session.hop_trace]
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
    """A rollout of decisions the policy itself made on random states.

    Each run of ``seg_len`` decisions is one session, closed by its last
    reward; a shorter last session is closed the same way.
    """
    rollout = Rollout()
    for i in range(n):
        members = int(rng.integers(1, 5))
        sub = rng.normal(size=(members, params.cfg.obs_dim))
        mask = np.zeros(4, dtype=bool)
        mask[rng.integers(4)] = True
        mask |= rng.random(4) < 0.7
        action, logps, value = pol.act(pol.Actor(params), sub, mask, rng=rng)
        sid, index = divmod(i, seg_len)
        rollout.add(sid, sub, mask, action, logps, value)
        rollout.reward(sid, index, float(rng.normal()),
                       done=index == seg_len - 1 or i == n - 1)
    return rollout


def test_first_epoch_ratios_are_one():
    rng = np.random.default_rng(0)
    params = init_policy_params(rng, S_CFG)
    rollout = synth_buffer(params, rng, n=24)
    hyper = PpoSettings(minibatch_size=8, epochs=2, learning_rate=1e-3)
    _, stats = ppo_update(rollout, params, pol.Adam(lr=hyper.learning_rate),
                          hyper, rng)
    assert stats.initial_ratio_max_dev <= 1e-6
    assert stats.n_samples == 24
    assert len(rollout) == 0  # cleared afterward


def test_minibatch_forward_starts_with_the_previous_minibatch_freed(monkeypatch):
    # The benchmark's network and PPO settings on a 300-row rollout, with
    # Adam's moments already allocated.  When a minibatch's forward starts,
    # the previous minibatch's gather, forward cache and gradient are gone:
    # at most about 0.75 MiB is live above the update's entry (the stacked
    # batch, the current parameters and each step's per-sample results),
    # and about 1.9 MiB when they stay alive until the next step replaces
    # them.
    rng = np.random.default_rng(4)
    params = init_policy_params(rng, PolicyConfig(obs_dim=FEATURE_DIM, gat_hidden=64,
                                                  trunk_width=128))
    hyper = PpoSettings()
    optimizer = pol.Adam(lr=hyper.learning_rate)
    ppo_update(synth_buffer(params, rng, n=300, seg_len=12), params, optimizer, hyper, rng)
    live = []
    loss_terms = agent._loss_terms

    def spied_loss_terms(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return loss_terms(*args)

    monkeypatch.setattr(agent, "_loss_terms", spied_loss_terms)
    tracemalloc.start()
    try:
        rollout = synth_buffer(params, rng, n=300, seg_len=12)
        gc.collect()
        entry = tracemalloc.get_traced_memory()[0]
        ppo_update(rollout, params, optimizer, hyper, rng)
    finally:
        tracemalloc.stop()
    steps = live[3:]  # after the three minibatches of the initial ratio check
    assert len(steps) == hyper.epochs * 3
    worst = max(steps) - entry
    assert worst < 1.3 * 2**20, f"{worst / 2**20:.2f} MiB"


def test_update_moves_parameters():
    rng = np.random.default_rng(1)
    params = init_policy_params(rng, S_CFG)
    rollout = synth_buffer(params, rng, n=16)
    new_params, _ = ppo_update(rollout, params, pol.Adam(lr=1e-3),
                               PpoSettings(minibatch_size=8, epochs=2,
                                        learning_rate=1e-3), rng)
    assert not np.array_equal(new_params.to_vector(), params.to_vector())


def test_empty_buffer_rejected():
    rng = np.random.default_rng(2)
    params = init_policy_params(rng, S_CFG)
    with pytest.raises(ValueError):
        ppo_update(Rollout(), params, pol.Adam(), PpoSettings(), rng)


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
    rollout = synth_buffer(params, rng, n=12)
    hyper = PpoSettings(minibatch_size=12, epochs=1)
    samples = agent.stack_buffer(rollout, hyper)
    _fd_check(params, samples, hyper, tol=1e-3)


def test_full_loss_gradient_with_clipped_ratios():
    # Perturb the parameters after collection so ratios leave 1 and some
    # samples clip; the analytic gradient must still match.
    rng = np.random.default_rng(4)
    params = init_policy_params(rng, S_CFG)
    rollout = synth_buffer(params, rng, n=12)
    hyper = PpoSettings(minibatch_size=12, epochs=1, clip_ratio=0.2)
    samples = agent.stack_buffer(rollout, hyper)
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
    rollout = Rollout()
    controller = PolicyController(params, rng=rng, rollout=rollout)
    tracker = RewardTracker(RC, slot_s=0.1, sink=rollout.reward)

    con = build_constellation(ConstellationConfig(num_planes=3, sats_per_plane=3))
    ch = ChannelModel(ChannelConfig(), con.edge_index, 0.1, seed=8)
    engine = Engine(con, ch, controller, QualityProxyConfig(), SimulationConfig(ttl_hops=8),
                    hooks=[tracker])
    for k in range(4):
        engine.add_session(k % 9, (k + 4) % 9, spawn_s=0.2 * k, latent_bytes=4800,
                           flow_id=k)
    engine.run(40.0)
    rollout.truncate()
    assert engine.sessions_resolved == len(engine.sessions) or len(rollout) > 0
    assert not rollout.open  # every session closed
    assert len(rollout) == len(rollout.values) \
        == sum(o.decision_count for o in engine.outcomes) \
        + sum(s.decision_count for s in engine.unresolved_sessions())
    assert all(r is not None for r in rollout.rewards)
    assert set(tracker.session_returns) <= {o.session_id for o in engine.outcomes} \
        | {s.session_id for s in engine.unresolved_sessions()}


def test_greedy_policy_controller_refuses_a_rollout():
    params = init_policy_params(np.random.default_rng(6), S_CFG)
    with pytest.raises(ValueError, match="greedy acting records no log-probs"):
        PolicyController(params, rollout=Rollout())
    assert PolicyController(params).rollout is None


def add_rows(rollout, sid, values):
    """Store one decision of session ``sid`` per value."""
    sub = np.zeros((1, S_CFG.obs_dim))
    for value in values:
        rollout.add(sid, sub, np.ones(4, dtype=bool), JointAction(hop=0, budget_idx=0, relay=0),
                    np.array([-0.5, -0.25, -0.125]), value)


def test_rollout_keeps_segments_in_close_order():
    rollout = Rollout()
    add_rows(rollout, 0, [0.1, 0.2])
    add_rows(rollout, 1, [1.1])
    add_rows(rollout, 2, [2.1])
    add_rows(rollout, 0, [0.3])
    rollout.reward(2, 0, 1.0, done=True)
    for index in range(3):
        rollout.reward(0, index, 0.5, done=index == 2)
    rollout.truncate()  # session 1 is still open
    assert [rows for rows, _ in rollout.segments] == [[3], [0, 1, 4], [2]]
    batch = agent.stack_buffer(rollout, PpoSettings(gamma=0.0, gae_lambda=0.0))
    # With gamma 0 each return is the row's own reward: the batch follows
    # the close order, not the order the rows were stored in.
    assert batch.ret.tolist() == [1.0, 0.5, 0.5, 0.5, 0.0]


def test_rollout_truncate_bootstraps_from_the_last_value():
    rollout = Rollout()
    add_rows(rollout, 7, [0.25, 0.5, 0.75])
    rollout.reward(7, 0, 1.0, done=False)
    rollout.truncate()
    assert rollout.segments == [([0, 1, 2], 0.75)]
    assert rollout.rewards == [1.0, 0.0, 0.0]  # uncredited rows get 0
    assert rollout.dones == [False, False, False]
    assert not rollout.open


def test_rollout_adds_rewards_credited_to_one_decision():
    # The engine credits a hop reward to the decision, then finds every port
    # down at the next node and charges the no_link penalty to the same one.
    rollout = Rollout()
    add_rows(rollout, 0, [0.0])
    tracker = RewardTracker(RC, slot_s=0.1, sink=rollout.reward)
    session = ActiveSession(session_id=0, flow_id=0, src=0, dst=4, spawn_s=0.0,
                            latent_bytes=1200, ttl_remaining=8,
                            sem=SemanticState(session_id=0), initial_dist_km=3000.0)
    m = HopMeasurements(decision_index=0, prev_dist_km=3000.0, new_dist_km=2000.0,
                        delay_s=0.05, queue_frac=0.1, revisited=False)
    tracker.on_hop(session, m)
    hop_reward = rollout.rewards[0]
    assert rollout.open == {0: [0]}
    tracker.on_drop(session, 0, None)
    assert rollout.rewards == [hop_reward + (0.0 - RC.r_fail)]
    assert rollout.dones == [True]
    assert rollout.segments == [([0], 0.0)]
    assert tracker.session_returns[0] == rollout.rewards[0]


def test_rollout_ignores_rewards_after_close():
    rollout = Rollout()
    add_rows(rollout, 3, [0.5, 0.5])
    rollout.reward(3, 0, 1.0, done=False)
    rollout.reward(3, 1, 2.0, done=True)
    rollout.reward(3, 1, 4.0, done=True)
    rollout.reward(9, 0, 8.0, done=True)  # a session with no rows
    assert rollout.rewards == [1.0, 2.0]
    assert rollout.segments == [([0, 1], 0.0)]


def test_rollout_len_counts_closed_rows_only():
    rollout = Rollout()
    add_rows(rollout, 0, [0.0, 0.0])
    add_rows(rollout, 1, [0.0, 0.0, 0.0])
    assert len(rollout) == 0
    for index in range(3):
        rollout.reward(1, index, 1.0, done=index == 2)
    assert len(rollout) == 3
    rollout.truncate()
    assert len(rollout) == 5
    rollout.clear()
    assert len(rollout) == 0 and not rollout.values


def test_rollout_done_requires_every_row_credited():
    rollout = Rollout()
    add_rows(rollout, 0, [0.0, 0.0])
    with pytest.raises(AssertionError):
        rollout.reward(0, 1, 1.0, done=True)  # row 0 never got a reward


def test_numpy_sums_three_columns_left_to_right():
    # Rollout.add stores the joint log-prob as (l_hop + l_budget) + l_relay,
    # the order numpy adds an (N, 3) array along axis 1; if a numpy release
    # regroups that sum, the stored log-probs stop matching earlier runs.
    x = np.log(np.random.default_rng(11).random((200_000, 3)))
    left = (x[:, 0] + x[:, 1]) + x[:, 2]
    assert np.array_equal(x.sum(axis=1), left), "(N, 3).sum(axis=1) is not left to right"
    assert not np.array_equal(x[:, 0] + (x[:, 1] + x[:, 2]), left)  # the order matters
    rollout = Rollout()
    sub = np.zeros((1, S_CFG.obs_dim))
    for row in x[:1000]:
        rollout.add(0, sub, np.ones(4, dtype=bool), JointAction(0, 0, 0), row, 0.0)
    assert np.array(rollout.logp).tobytes() == x[:1000].sum(axis=1).tobytes()


def mixed_rollouts(params, rng, n=40):
    """Rollout whose subgraphs have 1-5 members and whose hop masks vary."""
    rollout = Rollout()
    for i in range(n):
        sub = rng.normal(size=(1 + i % 5, S_CFG.obs_dim))
        mask = rng.random(4) < 0.5
        mask[rng.integers(4)] = True
        action, logps, value = pol.act(pol.Actor(params), sub, mask, rng=rng)
        sid, index = divmod(i, 8)
        rollout.add(sid, sub, mask, action, logps, value)
        rollout.reward(sid, index, float(rng.normal()), done=index == 7)
    return rollout


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
    rollout = synth_buffer(params, rng, n=16)
    rows, _ = rollout.segments[1]
    rollout.rewards[rows[2]] = float("nan")
    before = params.to_vector()
    opt = pol.Adam(lr=1e-3)
    with pytest.raises(FloatingPointError, match="advantage or return in trajectory segment 1"):
        ppo_update(rollout, params, opt, PpoSettings(minibatch_size=8, epochs=2), rng)
    assert opt.t == 0
    assert np.array_equal(params.to_vector(), before)


def test_nonfinite_initial_ratio_named_by_buffer_sample():
    # The initial check runs a minibatch at a time but names the sample by
    # its place in the whole batch.
    rng = np.random.default_rng(6)
    params = init_policy_params(rng, S_CFG)
    rollout = synth_buffer(params, rng, n=16)
    order = [r for rows, _ in rollout.segments for r in rows]
    rollout.logp[order[11]] = np.nan
    opt = pol.Adam(lr=1e-3)
    with pytest.raises(FloatingPointError, match="initial ratio check, sample 11"):
        ppo_update(rollout, params, opt, PpoSettings(minibatch_size=8, epochs=2), rng)
    assert opt.t == 0


def test_inf_parameter_raises_before_any_step():
    rng = np.random.default_rng(8)
    params = init_policy_params(rng, S_CFG)
    rollout = synth_buffer(params, rng, n=16)
    params.w1[3, 2] = np.inf
    before = params.to_vector()
    opt = pol.Adam(lr=1e-3)
    with pytest.raises(FloatingPointError, match="block 'w1'"):
        ppo_update(rollout, params, opt, PpoSettings(minibatch_size=8, epochs=2), rng)
    assert opt.t == 0
    assert np.array_equal(params.to_vector(), before, equal_nan=True)


def test_nonfinite_gradient_named_by_epoch_minibatch_and_block():
    # Finite parameters whose value head is large enough for the backward
    # pass to overflow: the guard stops the update at the first minibatch.
    rng = np.random.default_rng(9)
    params = init_policy_params(rng, S_CFG)
    rollout = synth_buffer(params, rng, n=16)
    params.w_val[...] = 1e300
    opt = pol.Adam(lr=1e-3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FloatingPointError, match=r"block '\w+' at epoch 0, minibatch 0"):
        ppo_update(rollout, params, opt, PpoSettings(minibatch_size=8, epochs=2), rng)
    assert opt.t == 0
