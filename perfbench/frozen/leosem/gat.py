"""Single-head, single-layer graph attention over a one-hop subgraph.

Forward: project member features with W, score each member j against the
center via LeakyReLU(a . [W x_center || W x_j]), softmax the scores over
the members, aggregate the projected features with those weights and pass
the sum through an ELU.  Backward returns exact gradients with respect to
W and a; the implementation is plain numpy so the gradients can be checked
against finite differences.
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
    x: np.ndarray        # (M, F) inputs
    z: np.ndarray        # (M, H) projected features
    scores: np.ndarray   # (M,) pre-activation attention scores
    act: np.ndarray      # (M,) LeakyReLU(scores)
    alpha: np.ndarray    # (M,) softmax coefficients
    agg: np.ndarray      # (H,) pre-ELU aggregate
    out: np.ndarray      # (H,) embedding


def forward(inputs: SubgraphInput, params: GatParams) -> tuple[np.ndarray, GatCache]:
    x = inputs.features
    if x.shape[1] != params.in_dim:
        raise ValueError(f"feature dim {x.shape[1]} != param dim {params.in_dim}")
    h = params.hidden_dim
    z = x @ params.w
    a_c, a_m = params.attn[:h], params.attn[h:]
    scores = float(z[0] @ a_c) + z @ a_m
    act = np.where(scores > 0, scores, params.leaky_slope * scores)
    shifted = act - act.max()
    exp = np.exp(shifted)
    alpha = exp / exp.sum()
    agg = alpha @ z
    out = _elu(agg)
    return out, GatCache(x=x, z=z, scores=scores, act=act, alpha=alpha, agg=agg, out=out)


def attention_scores(inputs: SubgraphInput, params: GatParams) -> np.ndarray:
    """Softmax-normalized attention coefficients over center + neighbors."""
    _, cache = forward(inputs, params)
    return cache.alpha


def embed(inputs: SubgraphInput, params: GatParams) -> np.ndarray:
    out, _ = forward(inputs, params)
    return out


def backward(params: GatParams, cache: GatCache, grad_out: np.ndarray) -> GatGrads:
    """Exact gradients of (grad_out . embedding) w.r.t. W and a."""
    h = params.hidden_dim
    a_c, a_m = params.attn[:h], params.attn[h:]
    d_agg = grad_out * _elu_grad(cache.agg)

    # Aggregation path.
    d_alpha = cache.z @ d_agg                       # (M,)
    d_z = np.outer(cache.alpha, d_agg)              # (M, H)

    # Softmax and LeakyReLU paths.
    d_act = cache.alpha * (d_alpha - float(cache.alpha @ d_alpha))
    d_scores = d_act * np.where(cache.scores > 0, 1.0, params.leaky_slope)

    d_ac = d_scores.sum() * cache.z[0]
    d_am = d_scores @ cache.z
    d_z += np.outer(d_scores, a_m)
    d_z[0] += d_scores.sum() * a_c

    d_w = cache.x.T @ d_z
    return GatGrads(w=d_w, attn=np.concatenate([d_ac, d_am]))


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))
