"""Shared actor-critic network over [observation || graph embedding].

Architecture: a one-hop graph attention encoder feeds, together with the
raw local observation, a two-layer tanh trunk with three categorical heads
(next-hop port, semantic budget, relay mode) and a scalar value head.  The
hop head is masked by port availability; masked entries carry exactly zero
probability.  Everything is numpy with hand-written gradients so the full
training loss can be verified against finite differences.

``forward`` and ``backward`` work on a batch of B states whose attention
subgraphs are zero-padded to a common member count; acting at decision time
is the B=1 case.  Parameters and gradients live in one flat vector.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import gat
from .constellation import NUM_PORTS
from .gat import GatCache, GatGrads, GatParams, SubgraphInput
from .semantic import BUDGET_SET

CHECKPOINT_FORMAT_VERSION = 1

NUM_BUDGETS = len(BUDGET_SET)
NUM_RELAY = 2
# Head order of the per-head log-probs and of a (B, 3) action array.
HEADS = ("hop", "budget", "relay")
HEAD_SIZES = (NUM_PORTS, NUM_BUDGETS, NUM_RELAY)
# The heads sit side by side in one row of logits / log-probs / probs.
HEAD_OFFSETS = np.array([0, NUM_PORTS, NUM_PORTS + NUM_BUDGETS])
HEAD_COLUMNS = {head: slice(int(o), int(o) + n)
                for head, o, n in zip(HEADS, HEAD_OFFSETS, HEAD_SIZES)}


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


def param_shapes(cfg: PolicyConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter array by name, in flat-vector order.

    The names are also the checkpoint's archive member names.
    """
    d, s, h = cfg.trunk_width, cfg.state_dim, cfg.gat_hidden
    return {
        "gat_w": (cfg.obs_dim, h), "gat_attn": (2 * h,),
        "w1": (s, d), "b1": (d,), "w2": (d, d), "b2": (d,),
        "w_hop": (d, NUM_PORTS), "b_hop": (NUM_PORTS,),
        "w_bud": (d, NUM_BUDGETS), "b_bud": (NUM_BUDGETS,),
        "w_rel": (d, NUM_RELAY), "b_rel": (NUM_RELAY,),
        "w_val": (d, 1), "b_val": (1,),
    }


class PolicyParams:
    """All network parameters in one flat float64 vector.

    ``arrays`` maps each name of ``param_shapes`` to a view into ``flat``;
    the same views are attributes (``w1``, ``b1``, ...) and ``gat`` holds
    the attention layer's two.  Writing through a view writes the vector.
    Gradients use the same container.
    """

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

    def __init__(self, cfg: PolicyConfig, flat: np.ndarray | None = None):
        shapes = param_shapes(cfg)
        size = sum(math.prod(shape) for shape in shapes.values())
        if flat is None:
            flat = np.zeros(size)
        elif flat.shape != (size,) or flat.dtype != np.float64:
            raise ValueError(f"parameter vector size mismatch: got {flat.dtype} "
                             f"{flat.shape}, expected float64 ({size},)")
        self.cfg = cfg
        self.flat = flat
        self.arrays: dict[str, np.ndarray] = {}
        pos = 0
        for name, shape in shapes.items():
            n = math.prod(shape)
            self.arrays[name] = view = flat[pos:pos + n].reshape(shape)
            setattr(self, name, view)
            pos += n
        self.gat = GatParams(self.arrays["gat_w"], self.arrays["gat_attn"], cfg.leaky_slope)

    def to_vector(self) -> np.ndarray:
        return self.flat.copy()

    def from_vector(self, vec: np.ndarray) -> "PolicyParams":
        return PolicyParams(self.cfg, np.array(vec, dtype=np.float64))

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.cfg, self.flat.copy())

    def nonfinite_block(self) -> str | None:
        """Name of the first array holding a NaN or an infinity, if any."""
        if np.isfinite(self.flat).all():
            return None
        return next(name for name, a in self.arrays.items() if not np.isfinite(a).all())


def zeros_like_params(p: PolicyParams) -> PolicyParams:
    return PolicyParams(p.cfg)


def init_policy_params(rng: np.random.Generator, cfg: PolicyConfig) -> PolicyParams:
    def glorot(n_in, n_out, scale=1.0):
        b = scale * math.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-b, b, size=(n_in, n_out))

    d = cfg.trunk_width
    s = cfg.state_dim
    hs = cfg.head_init_scale
    params = PolicyParams(cfg)  # biases start at zero
    g = gat.init_gat_params(rng, cfg.obs_dim, cfg.gat_hidden, cfg.leaky_slope)
    params.gat.w[...] = g.w
    params.gat.attn[...] = g.attn
    params.w1[...] = glorot(s, d)
    params.w2[...] = glorot(d, d)
    params.w_hop[...] = glorot(d, NUM_PORTS, hs)
    params.w_bud[...] = glorot(d, NUM_BUDGETS, hs)
    params.w_rel[...] = glorot(d, NUM_RELAY, hs)
    params.w_val[...] = glorot(d, 1)
    return params


@functools.cache
def _segments(sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """First column of each segment, and the segment of each column."""
    return np.cumsum((0,) + sizes[:-1]), np.repeat(np.arange(len(sizes)), sizes)


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray | None = None,
                       sizes: tuple[int, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(log_probs, probs) over the last axis, masked entries at -inf / exactly 0.

    With ``sizes`` the last axis holds consecutive categorical heads of those
    sizes, each normalized on its own.  Every head needs an unmasked entry.
    """
    starts, head_of = _segments(sizes or (logits.shape[-1],))
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    m = np.maximum.reduceat(logits, starts, axis=-1)
    if (m == -np.inf).any():
        raise ValueError("at least one action must be unmasked")
    lse = m + np.log(np.add.reduceat(np.exp(logits - m[..., head_of]), starts, axis=-1))
    logp = logits - lse[..., head_of]
    return logp, np.exp(logp)


def categorical_entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy over the last axis; zero-probability entries add nothing."""
    return -(probs * np.log(np.where(probs > 0, probs, 1.0))).sum(axis=-1)


@dataclass
class StateBatch:
    """B decision states: observation, padded attention subgraph, hop mask."""
    obs: np.ndarray                  # (B, obs_dim)
    features: np.ndarray             # (B, M, obs_dim) subgraph rows, center first
    member_mask: np.ndarray | None   # (B, M) live members; None when none is padded
    hop_mask: np.ndarray             # (B, NUM_PORTS) available ports

    def __len__(self) -> int:
        return self.obs.shape[0]

    def __getitem__(self, idx) -> "StateBatch":
        return StateBatch(self.obs[idx], self.features[idx],
                          None if self.member_mask is None else self.member_mask[idx],
                          self.hop_mask[idx])


@dataclass
class PolicyForward:
    """Everything the backward pass and the PPO loss need from B states."""
    state: np.ndarray       # (B, state_dim) [obs || embedding]
    t1: np.ndarray          # (B, trunk_width)
    t2: np.ndarray          # (B, trunk_width)
    gat_cache: GatCache
    log_probs: np.ndarray   # (B, sum(HEAD_SIZES)) heads side by side, -inf where masked
    probs: np.ndarray       # (B, sum(HEAD_SIZES)), 0 where masked
    value: np.ndarray       # (B,)

    def head(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(log_probs, probs) of one head, (B, K) views."""
        cols = HEAD_COLUMNS[name]
        return self.log_probs[:, cols], self.probs[:, cols]


def forward(params: PolicyParams, states: StateBatch) -> PolicyForward:
    emb, cache = gat.forward(params.gat, states.features, states.member_mask)
    s = np.concatenate([states.obs, emb], axis=1)
    # np.dot rather than @: same product, less call overhead at B=1 (acting).
    t1 = np.tanh(np.dot(s, params.w1) + params.b1)
    t2 = np.tanh(np.dot(t1, params.w2) + params.b2)
    # All heads and the value in one product: columns hop | budget | relay | value.
    out = (np.dot(t2, np.concatenate([params.w_hop, params.w_bud, params.w_rel, params.w_val],
                                     axis=1))
           + np.concatenate([params.b_hop, params.b_bud, params.b_rel, params.b_val]))
    mask = np.concatenate(
        [states.hop_mask, np.ones((len(states), NUM_BUDGETS + NUM_RELAY), dtype=bool)], axis=1)
    log_probs, probs = masked_log_softmax(out[:, :-1], mask, HEAD_SIZES)
    return PolicyForward(state=s, t1=t1, t2=t2, gat_cache=cache,
                         log_probs=log_probs, probs=probs, value=out[:, -1])


def sample_categorical(rng: np.random.Generator, probs: np.ndarray) -> int:
    u = rng.random()
    cum = np.cumsum(probs)
    return int(min(np.searchsorted(cum, u, side="right"), len(probs) - 1))


def act(params: PolicyParams, obs: np.ndarray, subgraph: SubgraphInput,
        mask: np.ndarray, rng: np.random.Generator | None = None,
        greedy: bool = False) -> tuple[JointAction, np.ndarray, float]:
    """Pick a joint action; returns (action, per-head log-probs, value).

    The B=1 case of ``forward``.  Sampling mode needs an rng; greedy mode
    takes the argmax of each head (ties resolved to the lowest index).
    """
    if rng is None and not greedy:
        raise ValueError("sampling mode requires an rng")
    fwd = forward(params, StateBatch(obs[None], subgraph.features[None], None, mask[None]))
    if greedy:
        row = fwd.probs[0].tolist()
        # list.index finds the first of equal maxima: ties go to the lowest index.
        choice = [row[c].index(max(row[c])) for c in HEAD_COLUMNS.values()]
    else:
        choice = [sample_categorical(rng, fwd.probs[0, c]) for c in HEAD_COLUMNS.values()]
    logp_row = fwd.log_probs[0].tolist()
    logps = np.array([logp_row[c.start + a] for c, a in zip(HEAD_COLUMNS.values(), choice)])
    return JointAction(*choice), logps, float(fwd.value[0])


def action_log_prob(fwd: PolicyForward, actions: np.ndarray) -> np.ndarray:
    """Joint log-prob of (B, 3) actions [hop, budget index, relay]."""
    rows = np.arange(len(actions))[:, None]
    return fwd.log_probs[rows, actions + HEAD_OFFSETS].sum(axis=1)


def joint_entropy(fwd: PolicyForward) -> np.ndarray:
    """Sum of the three heads' entropies."""
    return categorical_entropy(fwd.probs)


def backward(params: PolicyParams, fwd: PolicyForward,
             d_logits: dict[str, np.ndarray], d_value: np.ndarray) -> PolicyParams:
    """Backpropagate (B, K) head-logit and (B,) value gradients.

    Returns the gradient summed over the batch, in a parameter container.
    """
    g = zeros_like_params(params)
    d_hop, d_bud, d_rel = d_logits["hop"], d_logits["budget"], d_logits["relay"]
    t2T = fwd.t2.T
    g.w_hop[...] = t2T @ d_hop
    g.b_hop[...] = d_hop.sum(axis=0)
    g.w_bud[...] = t2T @ d_bud
    g.b_bud[...] = d_bud.sum(axis=0)
    g.w_rel[...] = t2T @ d_rel
    g.b_rel[...] = d_rel.sum(axis=0)
    g.w_val[...] = t2T @ d_value[:, None]
    g.b_val[...] = d_value.sum()

    dt2 = (
        d_hop @ params.w_hop.T
        + d_bud @ params.w_bud.T
        + d_rel @ params.w_rel.T
        + d_value[:, None] * params.w_val[:, 0]
    )
    dpre2 = dt2 * (1.0 - fwd.t2**2)
    g.w2[...] = fwd.t1.T @ dpre2
    g.b2[...] = dpre2.sum(axis=0)
    dpre1 = (dpre2 @ params.w2.T) * (1.0 - fwd.t1**2)
    g.w1[...] = fwd.state.T @ dpre1
    g.b1[...] = dpre1.sum(axis=0)
    d_emb = dpre1 @ params.w1[params.cfg.obs_dim:].T
    gg: GatGrads = gat.backward(params.gat, fwd.gat_cache, d_emb)
    g.gat.w[...] = gg.w
    g.gat.attn[...] = gg.attn
    return g


def grad_entropy_logits(probs: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """d(entropy)/d(logits) over the last axis of a (possibly masked) head."""
    ent = categorical_entropy(probs)
    return -probs * (np.where(probs > 0, log_probs, 0.0) + ent[..., None])


def grad_log_prob_logits(probs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """d(log p[action])/d(logits) for (B, K) probs and (B,) actions."""
    out = -probs
    out[np.arange(len(actions)), actions] += 1.0
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
        """Return the stepped parameters; ``params`` itself is left as it was."""
        g = grads.flat
        if max_grad_norm is not None:
            norm = float(np.linalg.norm(g))
            if norm > max_grad_norm and norm > 0:
                g = g * (max_grad_norm / norm)
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
        self.t += 1
        self.m *= self.beta1
        self.m += (1 - self.beta1) * g
        self.v *= self.beta2
        self.v += (1 - self.beta2) * g * g
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        return PolicyParams(params.cfg, params.flat - self.lr * mhat / (np.sqrt(vhat) + self.eps))


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
        **params.arrays,
    )


def load_checkpoint(path) -> tuple[PolicyParams, dict]:
    """Load parameters and metadata, checking every array's shape.

    The shapes must be those of the ``PolicyConfig`` the metadata describes;
    a missing or misshapen array raises ``ValueError`` naming it.
    """
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
        params = PolicyParams(cfg)
        for name, view in params.arrays.items():
            if name not in data.files:
                raise ValueError(f"checkpoint has no array {name!r}")
            arr = data[name]
            if arr.shape != view.shape:
                raise ValueError(f"checkpoint array {name!r} has shape {arr.shape}, "
                                 f"expected {view.shape} for {cfg}")
            view[...] = arr
    return params, meta
