"""Single-head, single-layer graph attention over padded one-hop subgraphs.

Forward: project member features with W, score each member j against the
center via LeakyReLU(a . [W x_center || W x_j]), softmax the scores over
the members, aggregate the projected features with those weights and pass
the sum through an ELU.  Backward returns exact gradients with respect to
W and a; the implementation is plain numpy so the gradients can be checked
against finite differences.

Both passes work on a batch of B subgraphs zero-padded to a common member
count M, row 0 of each being its center.  Padded members score -inf before
the softmax, so their attention weight is exactly 0 and they contribute
nothing to the embedding or to the gradients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class GatParams:
    w: np.ndarray       # (F, H) projection
    attn: np.ndarray    # (2H,) attention vector [a_center; a_member]
    leaky_slope: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError("leaky_slope must be in [0, 1]")

    @property
    def in_dim(self) -> int:
        return self.w.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[1]

    def copy(self) -> "GatParams":
        return GatParams(self.w.copy(), self.attn.copy(), self.leaky_slope)


@dataclass
class GatGrads:
    w: np.ndarray
    attn: np.ndarray


@dataclass(frozen=True)
class SubgraphInput:
    """Feature matrix for the center (row 0) and its one-hop neighbors."""
    features: np.ndarray          # (M, F)
    members: tuple[int, ...] = ()  # node ids, row-aligned; optional

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be (M, F) with M >= 1")
        if self.members and len(self.members) != self.features.shape[0]:
            raise ValueError("members must align with feature rows")


def pad_subgraphs(subgraphs) -> tuple[np.ndarray, np.ndarray | None]:
    """Stack subgraphs into (B, M, F) zero-padded features and a (B, M) mask.

    M is the largest member count in the batch; the mask is None when no
    subgraph needed padding.
    """
    counts = np.array([s.features.shape[0] for s in subgraphs])
    width = int(counts.max())
    feats = np.zeros((len(subgraphs), width, subgraphs[0].features.shape[1]))
    for row, s in zip(feats, subgraphs):
        row[:s.features.shape[0]] = s.features
    if np.all(counts == width):
        return feats, None
    return feats, np.arange(width) < counts[:, None]


def init_gat_params(rng: np.random.Generator, in_dim: int, hidden_dim: int = 64,
                    leaky_slope: float = 0.2) -> GatParams:
    # Glorot-uniform bounds.
    bw = math.sqrt(6.0 / (in_dim + hidden_dim))
    ba = math.sqrt(6.0 / (2 * hidden_dim + 1))
    return GatParams(
        w=rng.uniform(-bw, bw, size=(in_dim, hidden_dim)),
        attn=rng.uniform(-ba, ba, size=2 * hidden_dim),
        leaky_slope=leaky_slope,
    )


@dataclass
class GatCache:
    x: np.ndarray        # (B, M, F) inputs
    z: np.ndarray        # (B, M, H) projected features
    scores: np.ndarray   # (B, M) pre-activation attention scores
    act: np.ndarray      # (B, M) LeakyReLU(scores), -inf on padded members
    alpha: np.ndarray    # (B, M) softmax coefficients, 0 on padded members
    agg: np.ndarray      # (B, H) pre-ELU aggregate
    out: np.ndarray      # (B, H) embedding


def forward(params: GatParams, features: np.ndarray,
            member_mask: np.ndarray | None = None) -> tuple[np.ndarray, GatCache]:
    """Embed a batch: ``features`` is (B, M, F), ``member_mask`` (B, M) or
    None when every member is live.  Returns the (B, H) embeddings."""
    _, _, f = features.shape
    if f != params.in_dim:
        raise ValueError(f"feature dim {f} != param dim {params.in_dim}")
    h = params.hidden_dim
    z = features @ params.w
    # za[..., 0] = a_center . z and za[..., 1] = a_member . z; member j scores
    # the center's first column plus its own second column.
    za = z @ params.attn.reshape(2, h).T
    scores = za[:, :1, 0] + za[:, :, 1]
    act = np.maximum(scores, params.leaky_slope * scores)  # LeakyReLU, slope <= 1
    if member_mask is not None:
        act = np.where(member_mask, act, -np.inf)
    exp = np.exp(act - act.max(axis=1, keepdims=True))
    alpha = exp / exp.sum(axis=1, keepdims=True)
    agg = (alpha[:, None, :] @ z)[:, 0]
    out = _elu(agg)
    return out, GatCache(x=features, z=z, scores=scores, act=act, alpha=alpha, agg=agg,
                         out=out)


def backward(params: GatParams, cache: GatCache, grad_out: np.ndarray) -> GatGrads:
    """Exact gradients of sum_b (grad_out[b] . embedding[b]) w.r.t. W and a."""
    h = params.hidden_dim
    a_c, a_m = params.attn[:h], params.attn[h:]
    z, alpha = cache.z, cache.alpha
    b, m, _ = z.shape
    d_agg = grad_out * _elu_grad(cache.agg)                     # (B, H)

    # Aggregation path.
    d_alpha = (z @ d_agg[:, :, None])[..., 0]                   # (B, M)
    d_z = alpha[:, :, None] * d_agg[:, None, :]                 # (B, M, H)

    # Softmax and LeakyReLU paths.
    d_act = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
    d_scores = d_act * np.where(cache.scores > 0, 1.0, params.leaky_slope)
    d_center = d_scores.sum(axis=1)                             # (B,)

    d_ac = d_center @ z[:, 0]
    d_am = d_scores.reshape(b * m) @ z.reshape(b * m, h)
    d_z += d_scores[:, :, None] * a_m
    d_z[:, 0] += d_center[:, None] * a_c

    d_w = cache.x.reshape(b * m, -1).T @ d_z.reshape(b * m, h)
    return GatGrads(w=d_w, attn=np.concatenate([d_ac, d_am]))


def _elu(x: np.ndarray) -> np.ndarray:
    # expm1(x) >= x, so the maximum picks x above 0 and expm1(x) below.
    return np.maximum(x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))
