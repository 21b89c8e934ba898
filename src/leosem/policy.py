"""Shared actor-critic network over [observation || graph embedding].

Architecture: a one-hop graph attention encoder feeds, together with the
raw local observation (the subgraph's center row), a two-layer tanh trunk
with three categorical heads (next-hop port, semantic budget, relay mode)
and a scalar value head.  The hop head is masked by port availability;
masked entries carry exactly zero probability.  Everything is numpy with
hand-written gradients so the full training loss can be verified against
finite differences.

``forward`` and ``backward`` work on a batch of B states whose attention
subgraphs are zero-padded to a common member count; the PPO update uses
them.  Acting at decision time is ``act``: the same operations on one state,
computed directly from an ``Actor`` built once per parameter set, with none
of the batch scaffolding.  Sampling (training) runs through the softmaxes to
the chosen entries' log-probs; greedy acting stops at the logits and takes
each head's argmax, which softmax, being monotone, leaves in place.
Parameters and gradients live in one flat vector.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

from . import gat
from .constellation import NUM_PORTS
from .gat import GatCache, GatGrads, GatParams
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


# Every joint action, built once and shared: JOINT_ACTIONS[hop][budget_idx][relay].
JOINT_ACTIONS = tuple(
    tuple(tuple(JointAction(hop, budget_idx, relay) for relay in range(NUM_RELAY))
          for budget_idx in range(NUM_BUDGETS))
    for hop in range(NUM_PORTS))


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
    """B decision states: padded attention subgraph, hop mask.

    Each state's center row, ``features[:, 0]``, is also the trunk's
    observation input.
    """
    features: np.ndarray             # (B, M, obs_dim) subgraph rows, center first
    member_mask: np.ndarray | None   # (B, M) live members; None when none is padded
    hop_mask: np.ndarray             # (B, NUM_PORTS) available ports

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, idx) -> "StateBatch":
        return StateBatch(self.features[idx],
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
    s = np.concatenate([states.features[:, 0], emb], axis=1)
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


def sample_categorical(rng: np.random.Generator, probs) -> int:
    """Inverse-CDF draw from a sequence of probabilities, with one uniform.

    The running sums are sequential, as ``np.cumsum`` forms them, and the
    bisection matches ``np.searchsorted(..., side="right")``.
    """
    u = rng.random()
    cum = list(itertools.accumulate(probs))
    return min(bisect.bisect_right(cum, u), len(cum) - 1)


class Actor:
    """What ``act`` reads of one parameter set, prepared once for it, and
    the workspace ``act`` writes into.

    Holds the four head matrices side by side (hop | budget | relay | value)
    and their biases, and the attention vector as an (H, 2) view whose
    columns score the center and the member.  The projection and the trunk
    are references to ``params``, not copies, so the parameters must not
    change while an ``Actor`` is in use; ``Adam.step`` returns new ones.

    The workspace: per member count M = 1..NUM_PORTS + 1 an (M, H)
    projection and an (M, 2) score buffer, the (H,) attention aggregate, a
    (1, state_dim) trunk input row (center row || embedding), the two
    (1, trunk_width) trunk rows and the (1, 10) head row, which after a call
    holds that state's nine logits and its value.  ``act`` overwrites them
    on every call, so an ``Actor`` is not re-entrant: one per controller,
    never shared by engines running at the same time.  Batches of states go
    through ``forward``.
    """

    def __init__(self, params: PolicyParams):
        cfg = params.cfg
        self.params = params
        self.gat_w = params.gat.w
        self.attn2 = params.gat.attn.reshape(2, params.gat.hidden_dim).T
        self.leaky_slope = params.gat.leaky_slope
        # The biases as (1, n) rows: adding one to a (1, n) row then needs
        # no broadcasting, which costs more than the addition.
        self.w1, self.b1 = params.w1, params.b1.reshape(1, -1)
        self.w2, self.b2 = params.w2, params.b2.reshape(1, -1)
        self.w_head = np.concatenate([params.w_hop, params.w_bud, params.w_rel, params.w_val],
                                     axis=1)
        self.b_head = np.concatenate(
            [params.b_hop, params.b_bud, params.b_rel, params.b_val]).reshape(1, -1)
        h = cfg.gat_hidden
        self.attention = {m: (np.empty((m, h)), np.empty((m, 2)))
                          for m in range(1, NUM_PORTS + 2)}
        self.agg = np.empty(h)
        self.zeros = np.zeros(h)
        self.state = np.empty((1, cfg.state_dim))
        self.obs_part = self.state[0, :cfg.obs_dim]
        self.emb_part = self.state[0, cfg.obs_dim:]
        self.t1 = np.empty((1, cfg.trunk_width))
        self.t2 = np.empty((1, cfg.trunk_width))
        self.head = np.empty_like(self.b_head)


_INF = math.inf
_NEG_INF = -math.inf


def act(actor: Actor, features: np.ndarray, mask: np.ndarray,
        rng: np.random.Generator | None = None
        ) -> tuple[JointAction, np.ndarray | None, float]:
    """Pick a joint action; returns (action, per-head log-probs, value).

    ``features`` holds the (M, F) float64 subgraph rows, the center's first,
    and ``mask`` the open ports.  The one-state case of ``forward``, in the
    same bits.  The products are the same BLAS calls (``ndarray.dot``, which
    costs less per call than ``@`` or ``np.dot``), written into the actor's
    buffers, and every exp, log, tanh and expm1 is the same numpy call on a
    contiguous array; the softmaxes' other steps run on Python floats,
    summing in numpy's order.  The action is an entry of ``JOINT_ACTIONS``.

    The rng picks the mode.  With one each head is sampled from its softmax
    and the chosen entries' log-probs are returned.  Without one each head's
    argmax over its open logits is taken, ties going to the lowest index, and
    the log-probs are ``None``: softmax is monotone, so that is the
    probability argmax unless rounding merges two probabilities.  A head
    with no open entry raises ``ValueError``; a NaN or +inf among the open
    logits raises ``FloatingPointError`` in either mode, before any choice.
    """
    # Graph attention over the subgraph, center in row 0.
    try:
        z, za = actor.attention[len(features)]
    except KeyError:
        raise ValueError(f"a subgraph has 1 to {len(actor.attention)} members, "
                         f"got {len(features)}") from None
    features.dot(actor.gat_w, out=z)
    scores_by_member = z.dot(actor.attn2, out=za).tolist()
    center, slope = scores_by_member[0][0], actor.leaky_slope
    scores = []
    for _, a in scores_by_member:
        score = center + a
        scores.append(max(score, slope * score))  # LeakyReLU, slope <= 1
    top = max(scores)
    exp = np.exp([score - top for score in scores])
    # np.sum adds a short 1-D array left to right; the built-in sum
    # compensates from Python 3.12 on.
    total = 0.0
    for weight in exp.tolist():
        total += weight
    agg = (exp / total).dot(z, out=actor.agg)
    # Trunk input [center row || ELU(agg)], written into the actor's row;
    # the embedding's slot holds min(agg, 0) and then its expm1 on the way.
    actor.obs_part[...] = features[0]
    emb = actor.emb_part
    np.minimum(agg, actor.zeros, out=emb)
    np.maximum(agg, np.expm1(emb, out=emb), out=emb)
    t1 = actor.state.dot(actor.w1, out=actor.t1)
    t1 += actor.b1
    np.tanh(t1, out=t1)
    t2 = t1.dot(actor.w2, out=actor.t2)
    t2 += actor.b2
    np.tanh(t2, out=t2)
    # Every head and the value in one product.
    head = t2.dot(actor.w_head, out=actor.head)
    head += actor.b_head
    out = head.tolist()[0]
    up0, up1, up2, up3 = mask.tolist()
    hop = [out[0] if up0 else _NEG_INF, out[1] if up1 else _NEG_INF,
           out[2] if up2 else _NEG_INF, out[3] if up3 else _NEG_INF]
    bud, rel = out[4:7], out[7:9]
    if hop.count(_NEG_INF) == 4 or bud.count(_NEG_INF) == 3 or rel.count(_NEG_INF) == 2:
        raise ValueError("at least one action must be unmasked")
    if rng is None:
        # ``not x < inf`` holds for NaN and +inf alone; max() may skip a NaN.
        logits = hop + bud + rel
        for x in logits:
            if not x < _INF:
                raise FloatingPointError(
                    f"non-finite action probabilities from logits {logits}; "
                    "check the parameters and observation")
        # list.index finds the first of equal maxima: ties go to the lowest index.
        return (JOINT_ACTIONS[hop.index(max(hop))][bud.index(max(bud))][rel.index(max(rel))],
                None, out[9])
    # Each head's log-softmax as ``masked_log_softmax`` computes it, spelled
    # out for heads of 4, 3 and 2 entries.  A NaN may hide from max(); it
    # then reaches its head's sum, which turns the whole head to NaN.
    m_hop, m_bud, m_rel = max(hop), max(bud), max(rel)
    e = np.exp([hop[0] - m_hop, hop[1] - m_hop, hop[2] - m_hop, hop[3] - m_hop,
                bud[0] - m_bud, bud[1] - m_bud, bud[2] - m_bud,
                rel[0] - m_rel, rel[1] - m_rel]).tolist()
    # np.add.reduceat's order: a head's first value plus the left-to-right
    # sum of the rest.
    lse_hop, lse_bud, lse_rel = np.log(
        [e[0] + ((e[1] + e[2]) + e[3]), e[4] + (e[5] + e[6]), e[7] + e[8]]).tolist()
    lse_hop += m_hop
    lse_bud += m_bud
    lse_rel += m_rel
    log_probs = [hop[0] - lse_hop, hop[1] - lse_hop, hop[2] - lse_hop, hop[3] - lse_hop,
                 bud[0] - lse_bud, bud[1] - lse_bud, bud[2] - lse_bud,
                 rel[0] - lse_rel, rel[1] - lse_rel]
    row = np.exp(log_probs).tolist()
    if not math.isfinite(sum(row)):
        raise FloatingPointError(
            f"non-finite action probabilities {row}; check the parameters and observation")
    hop_idx = sample_categorical(rng, row[:4])
    budget_idx = sample_categorical(rng, row[4:7])
    relay = sample_categorical(rng, row[7:])
    logps = np.array([log_probs[hop_idx], log_probs[4 + budget_idx], log_probs[7 + relay]])
    return JOINT_ACTIONS[hop_idx][budget_idx][relay], logps, out[9]


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
    Products and sums are written straight into the container, and the
    trunk's intermediates share three (B, trunk_width) buffers, with the
    operands and the order of the plain expressions, so the bits are theirs.
    """
    g = zeros_like_params(params)
    d_hop, d_bud, d_rel = d_logits["hop"], d_logits["budget"], d_logits["relay"]
    d_val = d_value[:, None]
    t2T = fwd.t2.T
    np.matmul(t2T, d_hop, out=g.w_hop)
    np.sum(d_hop, axis=0, out=g.b_hop)
    np.matmul(t2T, d_bud, out=g.w_bud)
    np.sum(d_bud, axis=0, out=g.b_bud)
    np.matmul(t2T, d_rel, out=g.w_rel)
    np.sum(d_rel, axis=0, out=g.b_rel)
    np.matmul(t2T, d_val, out=g.w_val)
    g.b_val[...] = d_value.sum()

    # dt2 = d_hop w_hop' + d_bud w_bud' + d_rel w_rel' + d_value w_val',
    # added left to right.
    dt2 = np.matmul(d_hop, params.w_hop.T)
    prod = np.matmul(d_bud, params.w_bud.T)
    dt2 += prod
    dt2 += np.matmul(d_rel, params.w_rel.T, out=prod)
    dt2 += np.multiply(d_val, params.w_val[:, 0], out=prod)
    # tanh' = 1 - t**2 for both trunk layers, in one buffer.
    tanh_grad = np.square(fwd.t2)
    np.subtract(1.0, tanh_grad, out=tanh_grad)
    dpre2 = np.multiply(dt2, tanh_grad, out=dt2)
    np.matmul(fwd.t1.T, dpre2, out=g.w2)
    np.sum(dpre2, axis=0, out=g.b2)
    dpre1 = np.matmul(dpre2, params.w2.T, out=prod)
    np.square(fwd.t1, out=tanh_grad)
    np.subtract(1.0, tanh_grad, out=tanh_grad)
    dpre1 *= tanh_grad
    np.matmul(fwd.state.T, dpre1, out=g.w1)
    np.sum(dpre1, axis=0, out=g.b1)
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
    """First/second-moment adaptive steps on the flat parameter vector.

    The moments and two scratch vectors are allocated on the first step and
    reused; each step allocates only the new parameter vector.
    """

    def __init__(self, lr: float = 5e-5, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    def step(self, params: PolicyParams, grads: PolicyParams,
             max_grad_norm: float | None = 0.5) -> PolicyParams:
        """Return the stepped parameters; ``params`` itself is left as it was."""
        g = grads.flat
        if self.m is None:
            self.m, self.v = np.zeros_like(g), np.zeros_like(g)
            self._scratch = np.empty_like(g), np.empty_like(g)
        a, b = self._scratch
        if max_grad_norm is not None:
            norm = float(np.linalg.norm(g))
            if norm > max_grad_norm and norm > 0:
                g = np.multiply(g, max_grad_norm / norm, out=a)
        self.t += 1
        # The operation order of m += (1-b1)*g, v += ((1-b2)*g)*g and
        # (lr*mhat) / (sqrt(vhat)+eps), in the scratch vectors a and b.
        self.m *= self.beta1
        self.m += np.multiply(g, 1 - self.beta1, out=b)
        self.v *= self.beta2
        np.multiply(g, 1 - self.beta2, out=b)
        b *= g
        self.v += b
        mhat = np.divide(self.m, 1 - self.beta1**self.t, out=a)
        mhat *= self.lr
        vhat = np.divide(self.v, 1 - self.beta2**self.t, out=b)
        np.sqrt(vhat, out=vhat)
        vhat += self.eps
        mhat /= vhat
        return PolicyParams(params.cfg, params.flat - mhat)


class CheckpointError(ValueError):
    """A checkpoint file that cannot be loaded, or that does not fit the config."""


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


# The metadata fields a checkpoint's network shape is built from.
_META_FIELDS = {"obs_dim": int, "gat_hidden": int, "trunk_width": int,
                "leaky_slope": float, "head_init_scale": float}


def _read_meta(path, data) -> tuple[dict, PolicyConfig]:
    """A checkpoint's metadata and the ``PolicyConfig`` it describes.

    Missing or unreadable metadata, an unsupported format, and a missing or
    non-numeric field each raise ``CheckpointError`` naming the path.
    """
    if "meta" not in data.files:
        raise CheckpointError(f"checkpoint {path} has no 'meta' member")
    raw = _read_member(path, data, "meta")
    try:
        meta = json.loads(raw.tobytes().decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CheckpointError(f"checkpoint {path} has unreadable metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint {path} metadata is not a JSON object")
    if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported format {meta.get('format_version')!r}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    values = {}
    for name, kind in _META_FIELDS.items():
        if name not in meta:
            raise CheckpointError(f"checkpoint {path} metadata has no field {name!r}")
        try:
            values[name] = kind(meta[name])
        except (TypeError, ValueError):
            raise CheckpointError(f"checkpoint {path} metadata field {name!r} is "
                                  f"{meta[name]!r}, expected {kind.__name__}") from None
    return meta, PolicyConfig(**values)


def _read_member(path, data, name: str) -> np.ndarray:
    """One array of an open checkpoint archive.

    A corrupt member (bad CRC, broken compressed stream, cut short, or a
    bad ``.npy`` header) raises ``CheckpointError`` naming the path and the array.
    """
    try:
        arr = data[name]
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} array {name!r} is unreadable: "
                              f"{type(exc).__name__}: {exc}") from exc
    # np.load hands over a member without the .npy magic string as raw bytes.
    if not isinstance(arr, np.ndarray):
        raise CheckpointError(f"checkpoint {path} array {name!r} is unreadable: no .npy header")
    return arr


def load_checkpoint(path) -> tuple[PolicyParams, dict]:
    """Load parameters and metadata, checking every array's shape.

    The shapes must be those of the ``PolicyConfig`` the metadata describes;
    a missing, unreadable or misshapen array, or one holding a non-finite
    value, raises ``CheckpointError`` naming the path and the array.  So do a
    file that is not a readable archive and missing or bad metadata, naming
    the path.
    """
    try:
        archive = np.load(path)
    except zipfile.BadZipFile as exc:
        raise CheckpointError(f"checkpoint {path} is not a readable .npz archive: {exc}") from exc
    except (ValueError, EOFError) as exc:  # numpy would unpickle it, or it is empty
        raise CheckpointError(f"{path} is not a checkpoint: not an .npz archive") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):  # a lone .npy array
        raise CheckpointError(f"{path} is not a checkpoint: not an .npz archive")
    with archive as data:
        meta, cfg = _read_meta(path, data)
        params = PolicyParams(cfg)
        for name, view in params.arrays.items():
            if name not in data.files:
                raise CheckpointError(f"checkpoint {path} has no array {name!r}")
            arr = _read_member(path, data, name)
            if arr.shape != view.shape:
                raise CheckpointError(f"checkpoint {path} array {name!r} has shape "
                                      f"{arr.shape}, expected {view.shape} for {cfg}")
            view[...] = arr
    bad = params.nonfinite_block()
    if bad is not None:
        raise CheckpointError(f"checkpoint {path} array {bad!r} holds a non-finite value")
    return params, meta
