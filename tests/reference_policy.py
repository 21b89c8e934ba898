"""Per-sample reference for the batched policy, its backward pass and the PPO loss.

This is the loop implementation the batched code replaced: one subgraph,
one state, one sample at a time, with the same arithmetic.  Tests compare
the batched forward, gradients and loss against it.
"""
import math

import numpy as np

from leosem import policy as pol


def gat_forward(p, x):
    """Embedding of one (M, F) subgraph, center in row 0, plus its cache."""
    h = p.hidden_dim
    z = x @ p.w
    a_c, a_m = p.attn[:h], p.attn[h:]
    scores = float(z[0] @ a_c) + z @ a_m
    act = np.where(scores > 0, scores, p.leaky_slope * scores)
    exp = np.exp(act - act.max())
    alpha = exp / exp.sum()
    agg = alpha @ z
    out = np.where(agg > 0, agg, np.expm1(np.minimum(agg, 0.0)))
    return out, dict(x=x, z=z, scores=scores, alpha=alpha, agg=agg)


def gat_backward(p, c, grad_out):
    h = p.hidden_dim
    a_c, a_m = p.attn[:h], p.attn[h:]
    d_agg = grad_out * np.where(c["agg"] > 0, 1.0, np.exp(np.minimum(c["agg"], 0.0)))
    d_alpha = c["z"] @ d_agg
    d_z = np.outer(c["alpha"], d_agg)
    d_act = c["alpha"] * (d_alpha - float(c["alpha"] @ d_alpha))
    d_scores = d_act * np.where(c["scores"] > 0, 1.0, p.leaky_slope)
    d_ac = d_scores.sum() * c["z"][0]
    d_am = d_scores @ c["z"]
    d_z += np.outer(d_scores, a_m)
    d_z[0] += d_scores.sum() * a_c
    return c["x"].T @ d_z, np.concatenate([d_ac, d_am])


def log_softmax(logits, mask=None):
    if mask is None:
        mask = np.ones(logits.shape, dtype=bool)
    logp = np.full(logits.shape, -np.inf)
    live = logits[mask]
    m = live.max()
    lse = m + math.log(np.exp(live - m).sum())
    logp[mask] = logits[mask] - lse
    probs = np.zeros(logits.shape)
    probs[mask] = np.exp(logp[mask])
    return logp, probs


def entropy(probs):
    live = probs[probs > 0]
    return float(-(live * np.log(live)).sum())


def policy_forward(params, obs, features, mask):
    emb, cache = gat_forward(params.gat, features)
    s = np.concatenate([obs, emb])
    t1 = np.tanh(s @ params.w1 + params.b1)
    t2 = np.tanh(t1 @ params.w2 + params.b2)
    logits = {
        "hop": t2 @ params.w_hop + params.b_hop,
        "budget": t2 @ params.w_bud + params.b_bud,
        "relay": t2 @ params.w_rel + params.b_rel,
    }
    masks = {"hop": np.asarray(mask, dtype=bool), "budget": None, "relay": None}
    log_probs, probs = {}, {}
    for head, lg in logits.items():
        log_probs[head], probs[head] = log_softmax(lg, masks[head])
    value = float((t2 @ params.w_val + params.b_val)[0])
    return dict(state=s, t1=t1, t2=t2, gat_cache=cache, log_probs=log_probs,
                probs=probs, value=value)


def policy_backward(params, fwd, d_logits, d_value):
    """Gradient of one sample as a flat vector in the parameters' layout."""
    g = pol.PolicyParams(params.cfg)
    t2, t1 = fwd["t2"], fwd["t1"]
    g.w_hop[...] = np.outer(t2, d_logits["hop"])
    g.b_hop[...] = d_logits["hop"]
    g.w_bud[...] = np.outer(t2, d_logits["budget"])
    g.b_bud[...] = d_logits["budget"]
    g.w_rel[...] = np.outer(t2, d_logits["relay"])
    g.b_rel[...] = d_logits["relay"]
    g.w_val[...] = (t2 * d_value)[:, None]
    g.b_val[...] = d_value
    dt2 = (params.w_hop @ d_logits["hop"] + params.w_bud @ d_logits["budget"]
           + params.w_rel @ d_logits["relay"] + params.w_val[:, 0] * d_value)
    dpre2 = dt2 * (1.0 - t2**2)
    g.w2[...] = np.outer(t1, dpre2)
    g.b2[...] = dpre2
    dpre1 = (params.w2 @ dpre2) * (1.0 - t1**2)
    g.w1[...] = np.outer(fwd["state"], dpre1)
    g.b1[...] = dpre1
    d_emb = (params.w1 @ dpre1)[params.cfg.obs_dim:]
    g.gat.w[...], g.gat.attn[...] = gat_backward(params.gat, fwd["gat_cache"], d_emb)
    return g.flat


def sample_loss(params, obs, features, mask, action, old_logp, adv, ret, hyper):
    """Loss of one sample and its gradient as a flat vector."""
    fwd = policy_forward(params, obs, features, mask)
    logp = sum(fwd["log_probs"][head][a] for head, a in zip(pol.HEADS, action))
    ratio = math.exp(logp - old_logp)
    surr1 = ratio * adv
    surr2 = float(np.clip(ratio, 1.0 - hyper.clip_ratio, 1.0 + hyper.clip_ratio)) * adv
    ent = sum(entropy(fwd["probs"][head]) for head in pol.HEADS)
    v_err = fwd["value"] - ret
    loss = -min(surr1, surr2) + hyper.value_coef * v_err**2 - hyper.entropy_coef * ent
    g_logp = -adv * ratio if surr1 <= surr2 else 0.0
    d_logits = {}
    for head, a in zip(pol.HEADS, action):
        probs, log_probs = fwd["probs"][head], fwd["log_probs"][head]
        d_logp = -probs.copy()
        d_logp[a] += 1.0
        d = g_logp * d_logp
        live = probs > 0
        d_ent = np.zeros_like(probs)
        d_ent[live] = -probs[live] * (log_probs[live] + entropy(probs))
        d_logits[head] = d - hyper.entropy_coef * d_ent
    return loss, policy_backward(params, fwd, d_logits, 2.0 * hyper.value_coef * v_err)


def loss_and_grads(params, batch, hyper):
    """Mean loss and mean gradient of a RolloutBatch, one sample at a time."""
    states = batch.states
    losses, grads = [], []
    for i in range(len(batch)):
        members = (int(states.member_mask[i].sum()) if states.member_mask is not None
                   else states.features.shape[1])
        loss, g = sample_loss(params, states.obs[i], states.features[i, :members],
                              states.hop_mask[i], batch.actions[i], batch.old_logp[i],
                              batch.advantage[i], batch.ret[i], hyper)
        losses.append(loss)
        grads.append(g)
    return float(np.mean(losses)), np.mean(grads, axis=0)
