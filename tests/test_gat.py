import math

import numpy as np
import pytest

from leosem import gat
from leosem.gat import GatParams, init_gat_params


def forward1(inp, params):
    """One subgraph through the batched forward (B=1, no padding)."""
    out, cache = gat.forward(params, inp[None])
    return out[0], cache


def embed(inp, params):
    return forward1(inp, params)[0]


def attention(inp, params):
    return forward1(inp, params)[1].alpha[0]


def backward1(params, cache, g):
    return gat.backward(params, cache, g[None])


def rand_instance(rng, members=4, f=6, h=8, avoid_kinks=True):
    """Random subgraph + params; resample anything sitting on a LeakyReLU
    kink so finite differences stay meaningful."""
    for _ in range(50):
        params = init_gat_params(rng, f, h)
        inp = rng.normal(size=(members, f))
        _, cache = forward1(inp, params)
        if not avoid_kinks or np.all(np.abs(cache.scores) > 1e-3):
            return inp, params
    raise AssertionError("could not sample a kink-free instance")


def oracle_forward(inp: np.ndarray, params: GatParams):
    """Element-by-element recomputation with explicit loops."""
    m, f = inp.shape
    h = params.hidden_dim
    z = np.zeros((m, h))
    for i in range(m):
        for j in range(h):
            z[i, j] = sum(inp[i, k] * params.w[k, j] for k in range(f))
    e = np.zeros(m)
    for j in range(m):
        s = sum(params.attn[k] * z[0, k] for k in range(h)) \
            + sum(params.attn[h + k] * z[j, k] for k in range(h))
        e[j] = s if s > 0 else params.leaky_slope * s
    mx = e.max()
    ex = np.array([math.exp(v - mx) for v in e])
    alpha = ex / ex.sum()
    agg = np.zeros(h)
    for j in range(m):
        for k in range(h):
            agg[k] += alpha[j] * z[j, k]
    out = np.array([v if v > 0 else math.exp(v) - 1.0 for v in agg])
    return alpha, out


def test_isolated_center_attention_is_one():
    rng = np.random.default_rng(0)
    params = init_gat_params(rng, 5, 4)
    inp = rng.normal(size=(1, 5))
    alpha = attention(inp, params)
    assert alpha.shape == (1,)
    assert alpha[0] == pytest.approx(1.0, abs=1e-15)


def test_identical_members_share_attention():
    rng = np.random.default_rng(1)
    params = init_gat_params(rng, 5, 4)
    row = rng.normal(size=5)
    inp = np.stack([row, row, row])
    alpha = attention(inp, params)
    assert np.allclose(alpha, 1.0 / 3.0, atol=1e-12)


def test_attention_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        inp, params = rand_instance(rng, members=4, avoid_kinks=False)
        alpha = attention(inp, params)
        oracle_alpha, _ = oracle_forward(inp, params)
        assert np.max(np.abs(alpha - oracle_alpha)) < 1e-10


def test_embedding_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        inp, params = rand_instance(rng, members=5, avoid_kinks=False)
        out = embed(inp, params)
        _, oracle_out = oracle_forward(inp, params)
        assert np.max(np.abs(out - oracle_out)) < 1e-10


def test_zero_features_zero_embedding():
    rng = np.random.default_rng(4)
    params = init_gat_params(rng, 6, 8)
    inp = np.zeros((3, 6))
    assert np.allclose(embed(inp, params), 0.0, atol=1e-15)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        inp, params = rand_instance(rng, members=m, avoid_kinks=False)
        alpha = attention(inp, params)
        assert abs(alpha.sum() - 1.0) < 1e-12
        assert np.all(alpha >= 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(6)
    inp, params = rand_instance(rng, members=4, avoid_kinks=False)
    _, cache = forward1(inp, params)
    shifted = cache.act + 17.3
    ex = np.exp(shifted - shifted.max())
    assert np.allclose(ex / ex.sum(), cache.alpha, atol=1e-12)


def test_neighbor_permutation_invariance():
    rng = np.random.default_rng(7)
    inp, params = rand_instance(rng, members=5, avoid_kinks=False)
    out = embed(inp, params)
    perm = [0, 3, 1, 4, 2]
    out_p = embed(inp[perm], params)
    assert np.max(np.abs(out - out_p)) < 1e-12


def test_zero_upstream_gradient_zero_param_gradients():
    rng = np.random.default_rng(8)
    inp, params = rand_instance(rng)
    _, cache = forward1(inp, params)
    grads = backward1(params, cache, np.zeros(params.hidden_dim))
    assert np.all(grads.w == 0.0)
    assert np.all(grads.attn == 0.0)


def test_symmetric_neighbors_get_equal_treatment():
    # Two identical neighbor rows attract identical attention, and swapping
    # them leaves every gradient untouched.
    rng = np.random.default_rng(9)
    params = init_gat_params(rng, 6, 8)
    center = rng.normal(size=6)
    nb = rng.normal(size=6)
    inp = np.stack([center, nb, nb.copy()])
    g = rng.normal(size=8)
    _, cache = forward1(inp, params)
    grads = backward1(params, cache, g)
    assert cache.alpha[0, 1] == pytest.approx(cache.alpha[0, 2], abs=1e-15)
    swapped = inp[[0, 2, 1]]
    _, cache_s = forward1(swapped, params)
    grads_s = backward1(params, cache_s, g)
    assert np.allclose(grads.w, grads_s.w, atol=1e-14)
    assert np.allclose(grads.attn, grads_s.attn, atol=1e-14)


def finite_diff_grads(inp, params, g, h=1e-5):
    def loss(p):
        return float(g @ embed(inp, p))

    dw = np.zeros_like(params.w)
    for idx in np.ndindex(params.w.shape):
        p1 = params.copy(); p1.w[idx] += h
        p2 = params.copy(); p2.w[idx] -= h
        dw[idx] = (loss(p1) - loss(p2)) / (2 * h)
    da = np.zeros_like(params.attn)
    for i in range(params.attn.size):
        p1 = params.copy(); p1.attn[i] += h
        p2 = params.copy(); p2.attn[i] -= h
        da[i] = (loss(p1) - loss(p2)) / (2 * h)
    return dw, da


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def test_gradients_match_finite_differences_100_instances():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        inp, params = rand_instance(rng, members=m, f=5, h=6)
        g = rng.normal(size=6)
        _, cache = forward1(inp, params)
        grads = backward1(params, cache, g)
        fd_w, fd_a = finite_diff_grads(inp, params, g)
        assert rel_err(grads.w, fd_w) < 1e-4
        assert rel_err(grads.attn, fd_a) < 1e-4


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(11)
    params = init_gat_params(rng, 6, 8)
    with pytest.raises(ValueError):
        embed(rng.normal(size=(2, 5)), params)


def test_padded_batch_matches_subgraphs_one_at_a_time():
    # Subgraphs of 1-5 members zero-padded into one batch: padded members
    # get exactly zero attention, each row embeds as its subgraph alone, and
    # the batch gradient is the sum of the per-subgraph gradients.
    rng = np.random.default_rng(12)
    params = init_gat_params(rng, 6, 8)
    subs = [rng.normal(size=(m, 6)) for m in (3, 1, 5, 2, 4)]
    feats, mask = gat.pad_subgraphs(subs)
    assert feats.shape == (5, 5, 6)
    assert mask.sum(axis=1).tolist() == [3, 1, 5, 2, 4]
    assert gat.pad_subgraphs(subs[:1])[1] is None
    g = rng.normal(size=(5, 8))
    out, cache = gat.forward(params, feats, mask)
    assert np.all(cache.alpha[~mask] == 0.0)
    grads = gat.backward(params, cache, g)
    sum_w, sum_a = np.zeros_like(grads.w), np.zeros_like(grads.attn)
    for b, sub in enumerate(subs):
        out_b, cache_b = forward1(sub, params)
        assert np.max(np.abs(out[b] - out_b)) < 1e-12
        grads_b = backward1(params, cache_b, g[b])
        sum_w += grads_b.w
        sum_a += grads_b.attn
    assert rel_err(grads.w, sum_w) < 1e-12
    assert rel_err(grads.attn, sum_a) < 1e-12
