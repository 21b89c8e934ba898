import math

import numpy as np
import pytest
import reference_policy

from leosem import policy as pol
from leosem.gat import SubgraphInput
from leosem.policy import (Adam, JointAction, PolicyConfig, init_policy_params,
                           load_checkpoint, masked_log_softmax, save_checkpoint)

CFG = PolicyConfig(obs_dim=10, gat_hidden=6, trunk_width=12)


def rand_state(rng, members=3):
    obs = rng.normal(size=CFG.obs_dim)
    sub = SubgraphInput(features=rng.normal(size=(members, CFG.obs_dim)))
    mask = np.array([True, True, False, True])
    return obs, sub, mask


def one_state(obs, sub, mask):
    return pol.StateBatch(obs[None], sub.features[None], None, mask[None])


def test_masked_probs_sum_to_one_and_masked_zero():
    logits = np.array([0.3, -1.2, 2.0, 0.0])
    mask = np.array([True, False, True, False])
    logp, probs = masked_log_softmax(logits, mask)
    assert probs[1] == 0.0 and probs[3] == 0.0
    assert logp[1] == -np.inf and logp[3] == -np.inf
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_fully_masked_rejected():
    with pytest.raises(ValueError):
        masked_log_softmax(np.zeros(4), np.zeros(4, dtype=bool))


def test_single_open_port_forced():
    rng = np.random.default_rng(0)
    params = init_policy_params(rng, CFG)
    obs, sub, _ = rand_state(rng)
    mask = np.array([False, False, True, False])
    action, logps, _ = pol.act(params, obs, sub, mask, rng=rng)
    assert action.hop == 2
    assert logps[0] == pytest.approx(0.0, abs=1e-12)


def test_head_probabilities_normalized():
    rng = np.random.default_rng(1)
    params = init_policy_params(rng, CFG)
    obs, sub, mask = rand_state(rng)
    fwd = pol.forward(params, one_state(obs, sub, mask))
    for head in ("hop", "budget", "relay"):
        live = fwd.head(head)[1][0]
        assert live.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(live >= 0)
    assert np.all(fwd.head("hop")[1][0][~mask] == 0.0)


def test_sampling_reproducible_under_seed():
    rng = np.random.default_rng(2)
    params = init_policy_params(rng, CFG)
    obs, sub, mask = rand_state(rng)
    a1 = pol.act(params, obs, sub, mask, rng=np.random.default_rng(99))
    a2 = pol.act(params, obs, sub, mask, rng=np.random.default_rng(99))
    assert a1[0] == a2[0]
    assert np.array_equal(a1[1], a2[1])


def test_greedy_mode_needs_no_rng_and_breaks_ties_low():
    rng = np.random.default_rng(3)
    params = init_policy_params(rng, CFG)
    # zero head weights -> all logits equal -> argmax picks index 0 of the mask
    params.w_hop[...] = 0.0
    params.b_hop[...] = 0.0
    obs, sub, mask = rand_state(rng)
    action, _, _ = pol.act(params, obs, sub, mask, greedy=True)
    assert action.hop == int(np.flatnonzero(mask)[0])


def test_sampling_mode_requires_rng():
    rng = np.random.default_rng(4)
    params = init_policy_params(rng, CFG)
    obs, sub, mask = rand_state(rng)
    with pytest.raises(ValueError):
        pol.act(params, obs, sub, mask)


def test_joint_log_prob_is_head_sum():
    rng = np.random.default_rng(5)
    params = init_policy_params(rng, CFG)
    obs, sub, mask = rand_state(rng)
    fwd = pol.forward(params, one_state(obs, sub, mask))
    expected = (fwd.head("hop")[0][0, 1] + fwd.head("budget")[0][0, 2]
                + fwd.head("relay")[0][0, 0])
    assert pol.action_log_prob(fwd, np.array([[1, 2, 0]]))[0] == pytest.approx(
        expected, abs=1e-15)


def test_entropy_bounds():
    rng = np.random.default_rng(6)
    params = init_policy_params(rng, CFG)
    for _ in range(20):
        obs, sub, mask = rand_state(rng)
        fwd = pol.forward(params, one_state(obs, sub, mask))
        for head, k in (("hop", 4), ("budget", 3), ("relay", 2)):
            h = pol.categorical_entropy(fwd.head(head)[1][0])
            assert 0.0 <= h <= math.log(k) + 1e-12


def test_vector_roundtrip():
    rng = np.random.default_rng(7)
    params = init_policy_params(rng, CFG)
    vec = params.to_vector()
    back = params.from_vector(vec)
    assert np.array_equal(back.to_vector(), vec)
    with pytest.raises(ValueError):
        params.from_vector(vec[:-1])


def test_adam_moves_against_gradient():
    rng = np.random.default_rng(8)
    params = init_policy_params(rng, CFG)
    grads = pol.zeros_like_params(params)
    grads.w1[...] = 1.0
    opt = Adam(lr=1e-2)
    stepped = opt.step(params, grads, max_grad_norm=None)
    assert np.all(stepped.w1 < params.w1)
    assert np.array_equal(stepped.w2, params.w2)


def test_grad_norm_clipping():
    rng = np.random.default_rng(9)
    params = init_policy_params(rng, CFG)
    grads = pol.zeros_like_params(params)
    grads.w1[...] = 100.0
    opt = Adam(lr=1.0)
    opt.step(params, grads, max_grad_norm=0.5)
    # after clipping, the first moment norm can't exceed (1-beta1) * 0.5
    assert np.linalg.norm(opt.m) <= 0.5 * (1 - opt.beta1) + 1e-9


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    params = init_policy_params(rng, CFG)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params, hyper={"learning_rate": 5e-5}, seed=123)
    loaded, meta = load_checkpoint(path)
    assert np.array_equal(loaded.to_vector(), params.to_vector())
    assert meta["seed"] == 123
    assert meta["hyper"]["learning_rate"] == 5e-5
    assert meta["format_version"] == pol.CHECKPOINT_FORMAT_VERSION


def test_checkpoint_version_mismatch(tmp_path):
    rng = np.random.default_rng(11)
    params = init_policy_params(rng, CFG)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    import json

    import numpy as _np
    data = dict(_np.load(path))
    meta = json.loads(bytes(data["meta"].tobytes()).decode())
    meta["format_version"] = 999
    data["meta"] = _np.frombuffer(json.dumps(meta).encode(), dtype=_np.uint8)
    _np.savez(path, **data)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_act_matches_per_sample_reference():
    rng = np.random.default_rng(12)
    params = init_policy_params(rng, CFG)
    for i in range(20):
        obs, sub, _ = rand_state(rng, members=1 + i % 5)
        mask = rng.random(4) < 0.5
        mask[i % 4] = True
        ref = reference_policy.policy_forward(params, obs, sub.features, mask)
        for greedy in (True, False):
            action, logps, value = pol.act(params, obs, sub, mask,
                                           rng=np.random.default_rng(i), greedy=greedy)
            chosen = (action.hop, action.budget_idx, action.relay)
            expect = [ref["log_probs"][head][a] for head, a in zip(pol.HEADS, chosen)]
            assert np.max(np.abs(logps - expect)) <= 1e-12
            assert abs(value - ref["value"]) <= 1e-12
            if greedy:
                assert chosen == tuple(int(np.argmax(ref["probs"][head])) for head in pol.HEADS)


def test_checkpoint_with_reshaped_array_rejected(tmp_path):
    rng = np.random.default_rng(13)
    params = init_policy_params(rng, CFG)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    data = dict(np.load(path))
    data["w1"] = data["w1"].T
    np.savez(path, **data)
    with pytest.raises(ValueError, match=r"array 'w1' has shape \(12, 16\), expected \(16, 12\)"):
        load_checkpoint(path)
