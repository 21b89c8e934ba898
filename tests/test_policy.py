import json
import math
import re
import zipfile

import numpy as np
import pytest
import reference_policy

from leosem import policy as pol
from leosem.config import save_config, tiny_config
from leosem.policy import (Adam, JointAction, PolicyConfig, init_policy_params,
                           load_checkpoint, masked_log_softmax, save_checkpoint)

CFG = PolicyConfig(obs_dim=10, gat_hidden=6, trunk_width=12)


def rand_state(rng, members=3):
    """Random subgraph rows (the center row is the observation) and a hop mask."""
    sub = rng.normal(size=(members, CFG.obs_dim))
    mask = np.array([True, True, False, True])
    return sub, mask


def one_state(sub, mask):
    return pol.StateBatch(sub[None], None, mask[None])


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
    sub, _ = rand_state(rng)
    mask = np.array([False, False, True, False])
    action, logps, _ = pol.act(pol.Actor(params), sub, mask, rng=rng)
    assert action.hop == 2
    assert logps[0] == pytest.approx(0.0, abs=1e-12)


def test_head_probabilities_normalized():
    rng = np.random.default_rng(1)
    params = init_policy_params(rng, CFG)
    sub, mask = rand_state(rng)
    fwd = pol.forward(params, one_state(sub, mask))
    for head in ("hop", "budget", "relay"):
        live = fwd.head(head)[1][0]
        assert live.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(live >= 0)
    assert np.all(fwd.head("hop")[1][0][~mask] == 0.0)


def test_sampling_reproducible_under_seed():
    rng = np.random.default_rng(2)
    params = init_policy_params(rng, CFG)
    sub, mask = rand_state(rng)
    a1 = pol.act(pol.Actor(params), sub, mask, rng=np.random.default_rng(99))
    a2 = pol.act(pol.Actor(params), sub, mask, rng=np.random.default_rng(99))
    assert a1[0] == a2[0]
    assert np.array_equal(a1[1], a2[1])


@pytest.mark.parametrize("head, weights, bias", [("hop", "w_hop", "b_hop"),
                                                  ("budget", "w_bud", "b_bud"),
                                                  ("relay", "w_rel", "b_rel")], ids=pol.HEADS)
def test_greedy_mode_needs_no_rng_and_breaks_ties_low(head, weights, bias):
    rng = np.random.default_rng(3)
    params = init_policy_params(rng, CFG)
    # zero head weights and bias -> the head's logits all equal -> argmax
    # picks its lowest open index
    getattr(params, weights)[...] = 0.0
    getattr(params, bias)[...] = 0.0
    sub, mask = rand_state(rng)
    masks = [mask]
    if head == "hop":
        masks += [np.array(m) for m in ([False, True, False, True], [False, False, True, True],
                                        [False, False, False, True])]
    for mask in masks:
        action, logps, _ = pol.act(pol.Actor(params), sub, mask)
        assert logps is None
        chosen = (action.hop, action.budget_idx, action.relay)[pol.HEADS.index(head)]
        assert chosen == (int(np.flatnonzero(mask)[0]) if head == "hop" else 0)
        assert action == reference_policy.act(params, sub, mask)[0]


def test_act_reuses_its_actors_buffers_and_hands_out_shared_actions():
    rng = np.random.default_rng(4)
    params = init_policy_params(rng, CFG)
    actor = pol.Actor(params)
    states = [rand_state(rng, members) for members in (1, 2, 3, 4, 5, 3, 1)]
    for sub, mask in states:
        for draw in (None, 7):
            got, fresh = (pol.act(a, sub, mask, rng=None if draw is None
                                  else np.random.default_rng(draw))
                          for a in (actor, pol.Actor(params)))
            action = got[0]
            assert action is fresh[0] \
                is pol.JOINT_ACTIONS[action.hop][action.budget_idx][action.relay]
            assert got[2] == fresh[2]
            if draw is None:
                expect = reference_policy.act(params, sub, mask)
                assert got[1] is None and fresh[1] is None
                assert action == expect[0] and got[2].hex() == expect[2].hex()
            else:
                assert got[1].tobytes() == fresh[1].tobytes()
    with pytest.raises(ValueError, match="1 to 5 members, got 6"):
        pol.act(actor, rand_state(rng, 6)[0], states[0][1])


def test_joint_log_prob_is_head_sum():
    rng = np.random.default_rng(5)
    params = init_policy_params(rng, CFG)
    sub, mask = rand_state(rng)
    fwd = pol.forward(params, one_state(sub, mask))
    expected = (fwd.head("hop")[0][0, 1] + fwd.head("budget")[0][0, 2]
                + fwd.head("relay")[0][0, 0])
    assert pol.action_log_prob(fwd, np.array([[1, 2, 0]]))[0] == pytest.approx(
        expected, abs=1e-15)


def test_entropy_bounds():
    rng = np.random.default_rng(6)
    params = init_policy_params(rng, CFG)
    for _ in range(20):
        sub, mask = rand_state(rng)
        fwd = pol.forward(params, one_state(sub, mask))
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


class FormulaAdam:
    """The Adam step written as one expression per line, a fresh array each."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = self.v = 0.0

    def step(self, flat, g, max_grad_norm):
        if max_grad_norm is not None:
            norm = float(np.linalg.norm(g))
            if norm > max_grad_norm and norm > 0:
                g = g * (max_grad_norm / norm)
        self.t += 1
        self.m = self.m * self.beta1 + (1 - self.beta1) * g
        self.v = self.v * self.beta2 + (1 - self.beta2) * g * g
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        return flat - self.lr * mhat / (np.sqrt(vhat) + self.eps)


@pytest.mark.parametrize("max_grad_norm", [0.5, None])
def test_adam_steps_match_the_formula_bit_for_bit(max_grad_norm):
    rng = np.random.default_rng(17)
    params = init_policy_params(rng, CFG)
    opt, formula = Adam(lr=1e-3), FormulaAdam(lr=1e-3)
    flat = params.flat.copy()
    for k in range(20):
        grads = pol.zeros_like_params(params)
        # Norms from about 0.02 to 2.4: clipping engages on some steps only.
        grads.flat[...] = rng.normal(scale=10.0 ** rng.uniform(-3, -1), size=flat.shape)
        before, grads_before = params.flat.copy(), grads.flat.copy()
        stepped = opt.step(params, grads, max_grad_norm)
        flat = formula.step(flat, grads_before, max_grad_norm)
        assert stepped.flat.tobytes() == flat.tobytes(), f"step {k}"
        assert params.flat.tobytes() == before.tobytes()
        assert grads.flat.tobytes() == grads_before.tobytes()
        params = stepped


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
        sub, _ = rand_state(rng, members=1 + i % 5)
        mask = rng.random(4) < 0.5
        mask[i % 4] = True
        ref = reference_policy.policy_forward(params, sub[0], sub, mask)
        for rng in (None, np.random.default_rng(i)):
            action, logps, value = pol.act(pol.Actor(params), sub, mask, rng=rng)
            chosen = (action.hop, action.budget_idx, action.relay)
            assert abs(value - ref["value"]) <= 1e-12
            if rng is None:
                assert logps is None
                assert chosen == tuple(int(np.argmax(ref["probs"][head])) for head in pol.HEADS)
            else:
                expect = [ref["log_probs"][head][a] for head, a in zip(pol.HEADS, chosen)]
                assert np.max(np.abs(logps - expect)) <= 1e-12


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


@pytest.mark.parametrize("name, value", [("w1", math.nan), ("b_val", -math.inf)])
def test_checkpoint_with_nonfinite_array_rejected(tmp_path, name, value):
    params = init_policy_params(np.random.default_rng(14), CFG)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    data = dict(np.load(path))
    data[name].flat[0] = value
    np.savez(path, **data)
    with pytest.raises(ValueError, match=f"array '{name}' holds a non-finite value"):
        load_checkpoint(path)


def test_truncated_checkpoint_rejected_naming_the_path(tmp_path):
    params = init_policy_params(np.random.default_rng(15), CFG)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))} is not a"):
        load_checkpoint(path)


def _write_npy(path):
    with open(path, "wb") as fh:  # ``np.save`` would add ".npy" to a path
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("write", [
    lambda path: save_config(tiny_config(0), path),
    _write_npy,
    lambda path: path.write_bytes(b""),
], ids=["yaml_config", "npy_array", "empty"])
def test_file_that_is_no_checkpoint_rejected_naming_the_path(tmp_path, write):
    # numpy would unpickle a file it cannot read otherwise (and refuses),
    # hands back a lone array, or finds no data; none is a checkpoint.
    path = tmp_path / "ckpt.npz"
    write(path)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not a checkpoint"):
        load_checkpoint(path)


def _meta_bytes(**changes) -> np.ndarray:
    """A valid checkpoint's meta member with fields replaced (None: removed)."""
    meta = {"format_version": pol.CHECKPOINT_FORMAT_VERSION, "obs_dim": CFG.obs_dim,
            "gat_hidden": CFG.gat_hidden, "trunk_width": CFG.trunk_width,
            "leaky_slope": CFG.leaky_slope, "head_init_scale": CFG.head_init_scale}
    meta.update(changes)
    meta = {k: v for k, v in meta.items() if v is not None}
    return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


@pytest.mark.parametrize("meta, message", [
    (None, "has no 'meta' member"),
    (_meta_bytes(obs_dim=None), "metadata has no field 'obs_dim'"),
    (_meta_bytes(head_init_scale=None), "metadata has no field 'head_init_scale'"),
    (np.frombuffer(b"\xff\xfe{}", dtype=np.uint8), "has unreadable metadata"),
    (np.frombuffer(b'{"obs_dim": ', dtype=np.uint8), "has unreadable metadata"),
    (np.frombuffer(b"[1, 2]", dtype=np.uint8), "metadata is not a JSON object"),
    (_meta_bytes(format_version=999), "has unsupported format 999"),
    (_meta_bytes(trunk_width="wide"), "metadata field 'trunk_width' is 'wide', expected int"),
    (_meta_bytes(leaky_slope=[0.2]), r"metadata field 'leaky_slope' is \[0.2\], expected float"),
], ids=["no_meta", "no_obs_dim", "no_head_init_scale", "not_utf8", "not_json",
        "not_object", "bad_version", "bad_int", "bad_float"])
def test_checkpoint_with_bad_metadata_rejected_naming_the_path(tmp_path, meta, message):
    params = init_policy_params(np.random.default_rng(15), CFG)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    data = dict(np.load(path))
    if meta is None:
        del data["meta"]
    else:
        data["meta"] = meta
    np.savez(path, **data)
    with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))} {message}"):
        load_checkpoint(path)


def test_checkpoint_without_an_array_rejected_naming_the_path(tmp_path):
    params = init_policy_params(np.random.default_rng(15), CFG)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    data = dict(np.load(path))
    del data["w1"]
    np.savez(path, **data)
    with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))} has no array 'w1'"):
        load_checkpoint(path)


def _zero_mid_member(path, member):
    """Zero 20 bytes in the middle of a member's compressed data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    raw = bytearray(path.read_bytes())
    mid = info.header_offset + 30 + len(info.filename) + len(info.extra) + info.compress_size // 2
    raw[mid:mid + 20] = bytes(20)
    path.write_bytes(bytes(raw))


def _rewrite_member(path, member, edit):
    """Store ``edit(bytes)`` in place of a member, recompressed, so the CRC holds."""
    with zipfile.ZipFile(path) as archive:
        members = [(name, archive.read(name)) for name in archive.namelist()]
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in members:
            archive.writestr(name, edit(data) if name == member else data)


@pytest.mark.parametrize("corrupt", [
    lambda path: _zero_mid_member(path, "w2.npy"),
    lambda path: _rewrite_member(path, "w2.npy", lambda d: d[:len(d) // 2]),
    lambda path: _rewrite_member(path, "w2.npy", lambda d: d[:10] + b"{garbage" + d[18:]),
    lambda path: _rewrite_member(path, "w2.npy", lambda d: b"no magic" + d[8:]),
    lambda path: _rewrite_member(path, "meta.npy", lambda d: b"no magic" + d[8:]),
], ids=["zeroed_bytes", "cut_data", "bad_header", "no_magic", "meta_no_magic"])
def test_checkpoint_with_corrupt_array_rejected_naming_the_path(tmp_path, corrupt):
    # Before the check, a bad CRC escaped as zipfile.BadZipFile, a broken
    # stream as zlib.error and a member without the .npy magic as bytes.
    params = init_policy_params(np.random.default_rng(15), CFG)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    corrupt(path)
    with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))} array '(w2|meta)' "
                                         f"is unreadable"):
        load_checkpoint(path)


def test_act_rejects_nonfinite_probabilities_before_choosing():
    rng = np.random.default_rng(16)
    params = init_policy_params(rng, CFG)
    params.w1[0, 0] = math.nan
    sub, mask = rand_state(rng)
    with pytest.raises(FloatingPointError, match="non-finite action probabilities"):
        pol.act(pol.Actor(params), sub, mask)
    action_rng = np.random.default_rng(0)
    state = action_rng.bit_generator.state
    with pytest.raises(FloatingPointError, match="non-finite action probabilities"):
        pol.act(pol.Actor(params), sub, mask, rng=action_rng)
    assert action_rng.bit_generator.state == state


def batched_act(params, *args, **kwargs):
    # Unlike act, which computes it on floats, the batched path warns on inf - inf.
    with np.errstate(invalid="ignore"):
        return reference_policy.act(params, *args, **kwargs)


def rng_state(rng):
    return None if rng is None else rng.bit_generator.state


def act_outcomes(params, sub, mask):
    """``act``'s outcome in greedy and in sampling mode: an action, log-probs
    (``None`` in greedy mode) and value, or the type of the error raised.

    Each must be the batched B=1 path's (``reference_policy.act``), and the
    generator must end in the same state; an error must leave it untouched.
    """
    outcomes = []
    for sampling in (False, True):
        sides = []
        for run, arg in ((pol.act, pol.Actor(params)), (batched_act, params)):
            rng = np.random.default_rng(0) if sampling else None
            state = rng_state(rng)
            try:
                action, logps, value = run(arg, sub, mask, rng=rng)
                if sampling:
                    logps = logps.tobytes()
                elif run is pol.act:
                    assert logps is None
                else:
                    logps = None  # the reference returns them in both modes
                got = (action, logps, float(value).hex())
            except (ValueError, FloatingPointError) as exc:
                got = type(exc)
                assert rng_state(rng) == state
            sides.append((got, rng_state(rng)))
        assert sides[0] == sides[1]
        outcomes.append(sides[0][0])
    return outcomes


BIASES = [("b_hop", k) for k in range(pol.NUM_PORTS)] + \
    [("b_bud", k) for k in range(pol.NUM_BUDGETS)] + [("b_rel", k) for k in range(pol.NUM_RELAY)]


def test_act_rejects_an_all_masked_hop_without_drawing():
    params = init_policy_params(np.random.default_rng(17), CFG)
    sub, _ = rand_state(np.random.default_rng(18))
    assert act_outcomes(params, sub, np.zeros(4, dtype=bool)) == [ValueError] * 2


@pytest.mark.parametrize("port", [0, 1, 3])
def test_a_nan_logit_behind_a_masked_port_is_harmless(port):
    params = init_policy_params(np.random.default_rng(19), CFG)
    sub, _ = rand_state(np.random.default_rng(20))
    mask = np.arange(4) != port
    clean = act_outcomes(params, sub, mask)
    params.b_hop[port] = math.nan
    assert act_outcomes(params, sub, mask) == clean
    assert all(isinstance(outcome, tuple) for outcome in clean)


@pytest.mark.parametrize("name, k", [("b_hop", 0), ("b_hop", 2), ("b_bud", 1), ("b_rel", 0)])
def test_act_rejects_an_infinite_bias_in_both_modes(name, k):
    params = init_policy_params(np.random.default_rng(21), CFG)
    getattr(params, name)[k] = math.inf
    sub, _ = rand_state(np.random.default_rng(22))
    assert act_outcomes(params, sub, np.ones(4, dtype=bool)) == [FloatingPointError] * 2


@pytest.mark.parametrize("name, k", BIASES)
def test_act_rejects_an_unmasked_nan_logit_in_any_position(name, k):
    """Python's max skips a NaN in some positions; the head's sum still
    carries it, so every position fails as the batched path does, also when
    the NaN is the only open port's."""
    params = init_policy_params(np.random.default_rng(23), CFG)
    getattr(params, name)[k] = math.nan
    sub, _ = rand_state(np.random.default_rng(24))
    masks = [np.ones(4, dtype=bool)]
    if name == "b_hop":
        masks += [np.arange(4) == k, np.arange(4) >= k]
    for mask in masks:
        assert act_outcomes(params, sub, mask) == [FloatingPointError] * 2
