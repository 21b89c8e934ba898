"""Shared actor-critic network over [observation || graph embedding].

Architecture: a one-hop graph attention encoder feeds, together with the
raw local observation, a two-layer tanh trunk with three categorical heads
(next-hop port, semantic budget, relay mode) and a scalar value head.  The
hop head is masked by port availability; masked entries carry exactly zero
probability.  Everything is numpy with hand-written gradients so the full
training loss can be verified against finite differences.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import gat
from .gat import GatCache, GatGrads, GatParams, SubgraphInput
from .semantic import BUDGET_SET

CHECKPOINT_FORMAT_VERSION = 1

NUM_PORTS = 4
NUM_BUDGETS = len(BUDGET_SET)
NUM_RELAY = 2


@dataclass(frozen=True)
class JointAction:
    """Factorized decision: which port, which budget index, relay or not."""
    hop: int
    budget_idx: int
    relay: int

    @property
    def budget_c(self) -> int:
        return BUDGET_SET[self.budget_idx]


@dataclass(frozen=True)
class PolicyConfig:
    obs_dim: int
    gat_hidden: int = 64
    trunk_width: int = 128
    leaky_slope: float = 0.2
    # Small head init keeps the initial policy near-uniform so early
    # advantage signals, not init noise, decide the greedy action order.
    head_init_scale: float = 0.01

    @property
    def state_dim(self) -> int:
        return self.obs_dim + self.gat_hidden


@dataclass
class PolicyParams:
    cfg: PolicyConfig
    gat: GatParams
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_hop: np.ndarray
    b_hop: np.ndarray
    w_bud: np.ndarray
    b_bud: np.ndarray
    w_rel: np.ndarray
    b_rel: np.ndarray
    w_val: np.ndarray
    b_val: np.ndarray

    def _arrays(self) -> list[np.ndarray]:
        return [
            self.gat.w, self.gat.attn,
            self.w1, self.b1, self.w2, self.b2,
            self.w_hop, self.b_hop, self.w_bud, self.b_bud,
            self.w_rel, self.b_rel, self.w_val, self.b_val,
        ]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self._arrays()])

    def from_vector(self, vec: np.ndarray) -> "PolicyParams":
        out = zeros_like_params(self)
        pos = 0
        for src, dst in zip(self._arrays(), out._arrays()):
            n = src.size
            dst[...] = vec[pos:pos + n].reshape(src.shape)
            pos += n
        if pos != vec.size:
            raise ValueError("parameter vector size mismatch")
        return out

    def copy(self) -> "PolicyParams":
        return self.from_vector(self.to_vector())


def zeros_like_params(p: PolicyParams) -> PolicyParams:
    return PolicyParams(
        cfg=p.cfg,
        gat=GatParams(np.zeros_like(p.gat.w), np.zeros_like(p.gat.attn), p.gat.leaky_slope),
        w1=np.zeros_like(p.w1), b1=np.zeros_like(p.b1),
        w2=np.zeros_like(p.w2), b2=np.zeros_like(p.b2),
        w_hop=np.zeros_like(p.w_hop), b_hop=np.zeros_like(p.b_hop),
        w_bud=np.zeros_like(p.w_bud), b_bud=np.zeros_like(p.b_bud),
        w_rel=np.zeros_like(p.w_rel), b_rel=np.zeros_like(p.b_rel),
        w_val=np.zeros_like(p.w_val), b_val=np.zeros_like(p.b_val),
    )


def init_policy_params(rng: np.random.Generator, cfg: PolicyConfig) -> PolicyParams:
    def glorot(n_in, n_out, scale=1.0):
        b = scale * math.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-b, b, size=(n_in, n_out))

    d = cfg.trunk_width
    s = cfg.state_dim
    hs = cfg.head_init_scale
    return PolicyParams(
        cfg=cfg,
        gat=gat.init_gat_params(rng, cfg.obs_dim, cfg.gat_hidden, cfg.leaky_slope),
        w1=glorot(s, d), b1=np.zeros(d),
        w2=glorot(d, d), b2=np.zeros(d),
        w_hop=glorot(d, NUM_PORTS, hs), b_hop=np.zeros(NUM_PORTS),
        w_bud=glorot(d, NUM_BUDGETS, hs), b_bud=np.zeros(NUM_BUDGETS),
        w_rel=glorot(d, NUM_RELAY, hs), b_rel=np.zeros(NUM_RELAY),
        w_val=glorot(d, 1), b_val=np.zeros(1),
    )


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(log_probs, probs) with masked entries at -inf / exactly 0."""
    if mask is None:
        mask = np.ones(logits.shape, dtype=bool)
    if not mask.any():
        raise ValueError("at least one action must be unmasked")
    logp = np.full(logits.shape, -np.inf)
    live = logits[mask]
    m = live.max()
    lse = m + math.log(np.exp(live - m).sum())
    logp[mask] = logits[mask] - lse
    probs = np.zeros(logits.shape)
    probs[mask] = np.exp(logp[mask])
    return logp, probs


def categorical_entropy(probs: np.ndarray) -> float:
    live = probs[probs > 0]
    return float(-(live * np.log(live)).sum())


@dataclass
class PolicyForward:
    """Everything the backward pass and the PPO loss need from one state."""
    state: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    gat_cache: GatCache
    logits: dict[str, np.ndarray]
    log_probs: dict[str, np.ndarray]
    probs: dict[str, np.ndarray]
    mask: np.ndarray
    value: float


def forward(params: PolicyParams, obs: np.ndarray, subgraph: SubgraphInput,
            mask: np.ndarray) -> PolicyForward:
    emb, cache = gat.forward(subgraph, params.gat)
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
        lp, pr = masked_log_softmax(lg, masks[head])
        log_probs[head] = lp
        probs[head] = pr
    value = float((t2 @ params.w_val + params.b_val)[0])
    return PolicyForward(
        state=s, t1=t1, t2=t2, gat_cache=cache, logits=logits,
        log_probs=log_probs, probs=probs, mask=masks["hop"], value=value,
    )


def sample_categorical(rng: np.random.Generator, probs: np.ndarray) -> int:
    u = rng.random()
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u, side="right"), len(probs) - 1))


def act(params: PolicyParams, obs: np.ndarray, subgraph: SubgraphInput,
        mask: np.ndarray, rng: np.random.Generator | None = None,
        greedy: bool = False) -> tuple[JointAction, np.ndarray, float]:
    """Pick a joint action; returns (action, per-head log-probs, value).

    Sampling mode needs an rng; greedy mode takes the argmax of each head
    (ties resolved to the lowest index).
    """
    fwd = forward(params, obs, subgraph, mask)
    if greedy:
        hop = int(np.argmax(fwd.probs["hop"]))
        bud = int(np.argmax(fwd.probs["budget"]))
        rel = int(np.argmax(fwd.probs["relay"]))
    else:
        if rng is None:
            raise ValueError("sampling mode requires an rng")
        hop = sample_categorical(rng, fwd.probs["hop"])
        bud = sample_categorical(rng, fwd.probs["budget"])
        rel = sample_categorical(rng, fwd.probs["relay"])
    action = JointAction(hop=hop, budget_idx=bud, relay=rel)
    logps = np.array([
        fwd.log_probs["hop"][hop],
        fwd.log_probs["budget"][bud],
        fwd.log_probs["relay"][rel],
    ])
    return action, logps, fwd.value


def action_log_prob(fwd: PolicyForward, action: JointAction) -> float:
    return float(
        fwd.log_probs["hop"][action.hop]
        + fwd.log_probs["budget"][action.budget_idx]
        + fwd.log_probs["relay"][action.relay]
    )


def joint_entropy(fwd: PolicyForward) -> float:
    return (
        categorical_entropy(fwd.probs["hop"])
        + categorical_entropy(fwd.probs["budget"])
        + categorical_entropy(fwd.probs["relay"])
    )


def backward(params: PolicyParams, fwd: PolicyForward,
             d_logits: dict[str, np.ndarray], d_value: float) -> PolicyParams:
    """Backpropagate head-logit and value gradients into a grads container."""
    g = zeros_like_params(params)
    g.w_hop[...] = np.outer(fwd.t2, d_logits["hop"])
    g.b_hop[...] = d_logits["hop"]
    g.w_bud[...] = np.outer(fwd.t2, d_logits["budget"])
    g.b_bud[...] = d_logits["budget"]
    g.w_rel[...] = np.outer(fwd.t2, d_logits["relay"])
    g.b_rel[...] = d_logits["relay"]
    g.w_val[...] = (fwd.t2 * d_value)[:, None]
    g.b_val[...] = d_value

    dt2 = (
        params.w_hop @ d_logits["hop"]
        + params.w_bud @ d_logits["budget"]
        + params.w_rel @ d_logits["relay"]
        + params.w_val[:, 0] * d_value
    )
    dpre2 = dt2 * (1.0 - fwd.t2**2)
    g.w2[...] = np.outer(fwd.t1, dpre2)
    g.b2[...] = dpre2
    dt1 = params.w2 @ dpre2
    dpre1 = dt1 * (1.0 - fwd.t1**2)
    g.w1[...] = np.outer(fwd.state, dpre1)
    g.b1[...] = dpre1
    ds = params.w1 @ dpre1
    d_emb = ds[params.cfg.obs_dim:]
    gg: GatGrads = gat.backward(params.gat, fwd.gat_cache, d_emb)
    g.gat.w[...] = gg.w
    g.gat.attn[...] = gg.attn
    return g


def grad_entropy_logits(probs: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """d(entropy)/d(logits) for a (possibly masked) categorical head."""
    ent = categorical_entropy(probs)
    out = np.zeros_like(probs)
    live = probs > 0
    out[live] = -probs[live] * (log_probs[live] + ent)
    return out


def grad_log_prob_logits(probs: np.ndarray, action: int) -> np.ndarray:
    out = -probs.copy()
    out[action] += 1.0
    return out


class Adam:
    """First/second-moment adaptive steps on the flat parameter vector."""

    def __init__(self, lr: float = 5e-5, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: PolicyParams, grads: PolicyParams,
             max_grad_norm: float | None = 0.5) -> PolicyParams:
        g = grads.to_vector()
        if max_grad_norm is not None:
            norm = float(np.linalg.norm(g))
            if norm > max_grad_norm and norm > 0:
                g = g * (max_grad_norm / norm)
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        vec = params.to_vector() - self.lr * mhat / (np.sqrt(vhat) + self.eps)
        return params.from_vector(vec)


def save_checkpoint(path, params: PolicyParams, hyper: dict | None = None,
                    seed: int | None = None) -> None:
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "obs_dim": params.cfg.obs_dim,
        "gat_hidden": params.cfg.gat_hidden,
        "trunk_width": params.cfg.trunk_width,
        "leaky_slope": params.cfg.leaky_slope,
        "head_init_scale": params.cfg.head_init_scale,
        "hyper": hyper or {},
        "seed": seed,
    }
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
        gat_w=params.gat.w, gat_attn=params.gat.attn,
        w1=params.w1, b1=params.b1, w2=params.w2, b2=params.b2,
        w_hop=params.w_hop, b_hop=params.b_hop,
        w_bud=params.w_bud, b_bud=params.b_bud,
        w_rel=params.w_rel, b_rel=params.b_rel,
        w_val=params.w_val, b_val=params.b_val,
    )


def load_checkpoint(path) -> tuple[PolicyParams, dict]:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format {meta.get('format_version')!r}, "
                f"expected {CHECKPOINT_FORMAT_VERSION}"
            )
        cfg = PolicyConfig(
            obs_dim=int(meta["obs_dim"]),
            gat_hidden=int(meta["gat_hidden"]),
            trunk_width=int(meta["trunk_width"]),
            leaky_slope=float(meta["leaky_slope"]),
            head_init_scale=float(meta["head_init_scale"]),
        )
        params = PolicyParams(
            cfg=cfg,
            gat=GatParams(data["gat_w"].copy(), data["gat_attn"].copy(), cfg.leaky_slope),
            w1=data["w1"].copy(), b1=data["b1"].copy(),
            w2=data["w2"].copy(), b2=data["b2"].copy(),
            w_hop=data["w_hop"].copy(), b_hop=data["b_hop"].copy(),
            w_bud=data["w_bud"].copy(), b_bud=data["b_bud"].copy(),
            w_rel=data["w_rel"].copy(), b_rel=data["b_rel"].copy(),
            w_val=data["w_val"].copy(), b_val=data["b_val"].copy(),
        )
    return params, meta
