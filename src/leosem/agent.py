"""Decision stack: observations, rewards, advantage estimation, PPO.

Observation layout (one vector per node, used both for the policy input
and for every member of the attention subgraph); all entries in [0, 1]
or [-1, 1]:

  net block (13)
    [0:4]   per-port send-queue occupancy / q_max
    [4:8]   per-port availability flag
    [8:12]  per-port link SNR, min-max normalized over [-10, 30] dB
    [12]    available out-degree / 4
  pkt block (12)
    [13]    great-circle offset node->destination, radians / pi
    [14]    signed wrap-around plane delta to destination, normalized
    [15]    signed wrap-around slot delta to destination, normalized
    [16]    remaining TTL fraction
    [17:21] per-port queue length / q_max
    [21:25] per-port revisit flag: 1 if that port's neighbor is already on
            the payload's hop trace (loops are legal but penalized, so the
            policy needs to see them coming)
  sem block (7)
    [25:29] per-port bottleneck SNR if the session took that port
            (min of the session's running minimum and the candidate link)
    [29]    current budget / 128
    [30]    accumulated-distortion proxy 1 - exp(-D)
    [31]    hops since last relay processing / TTL

Ports that are absent or currently unavailable contribute zeroed link
features plus a zero mask bit.

The session-independent part of every node's row ([4:13], a contiguous
copy of the normalized-SNR columns and the unit position vectors) is built
once per snapshot and cached on it; a decision gathers its members' rows
with ``take`` and fills in the live part, each computed on a contiguous
temporary and then copied into its columns.  ``observe`` returns the rows
as one (M, FEATURE_DIM) array, the deciding node's first.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gat, policy as pol
from ._fields import ConfigError, check_numeric_fields
from .constellation import NUM_PORTS
from .policy import JointAction, PolicyParams
from .simcore import ActiveSession, DecisionView, HopMeasurements, SimHooks

SNR_NORM_LO_DB = -10.0
SNR_NORM_HI_DB = 30.0

NET_BLOCK_DIM = 3 * NUM_PORTS + 1
PKT_BLOCK_DIM = 4 + 2 * NUM_PORTS
SEM_BLOCK_DIM = NUM_PORTS + 3
FEATURE_DIM = NET_BLOCK_DIM + PKT_BLOCK_DIM + SEM_BLOCK_DIM


def _snr_norm(snr_db):
    """SNR (dB, scalar or array) mapped onto [0, 1]; NaN stays NaN."""
    x = (snr_db - SNR_NORM_LO_DB) / (SNR_NORM_HI_DB - SNR_NORM_LO_DB)
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _wrap_delta(raw: int, n: int) -> float:
    if n <= 1:
        return 0.0
    d = raw % n
    if d > n / 2:
        d -= n
    return d / max(n // 2, 1)


@functools.cache
def _wrap_pairs(n_p: int, n_s: int) -> np.ndarray:
    """(N, N, 2) table: at [dst, node], the plane and slot wrap deltas
    ``_wrap_delta`` gives from ``node`` to ``dst``; one per shell shape."""
    wrap_p = np.array([_wrap_delta(r, n_p) for r in range(n_p)])
    wrap_s = np.array([_wrap_delta(r, n_s) for r in range(n_s)])
    plane, slot = np.divmod(np.arange(n_p * n_s), n_s)
    return np.stack([wrap_p[(plane[:, None] - plane) % n_p],
                     wrap_s[(slot[:, None] - slot) % n_s]], axis=-1)


@dataclass
class _SlotRows:
    """The session-independent observation of every node for one snapshot."""
    rows: np.ndarray              # (N, FEATURE_DIM): [4:13] filled, zeros elsewhere
    snr: np.ndarray               # (N, NUM_PORTS) contiguous copy of rows[:, 8:12]
    unit: np.ndarray              # (N, 3) unit position vectors


def _slot_rows(view: DecisionView) -> _SlotRows:
    """The snapshot's ``_SlotRows``, built on first use and kept on the snapshot."""
    snap = view.snapshot
    if snap.obs_rows is None:
        avail = snap.avail
        rows = np.zeros((len(avail), FEATURE_DIM))
        rows[:, NUM_PORTS:2 * NUM_PORTS] = avail
        snr = np.where(avail, _snr_norm(snap.snr_db), 0.0)
        rows[:, 2 * NUM_PORTS:3 * NUM_PORTS] = snr
        rows[:, 3 * NUM_PORTS] = avail.sum(axis=1) / NUM_PORTS
        pos = snap.positions
        snap.obs_rows = _SlotRows(
            rows=rows,
            snr=snr,
            # sqrt of vecdot rounds exactly like a per-vector np.linalg.norm.
            unit=pos / np.sqrt(np.vecdot(pos, pos))[:, None],
        )
    return snap.obs_rows


def _feature_rows(view: DecisionView, base: _SlotRows, members: list[int]) -> np.ndarray:
    """(M, FEATURE_DIM) feature rows of ``members``, session context included.

    Gathers each member's row from the snapshot's ``_SlotRows`` (``base``)
    and fills in the live part: queue occupancy, revisit flags, bottleneck
    SNR, the offset to the destination, TTL, budget and distortion.
    """
    session = view.session
    sem = session.sem
    # ``take`` gathers the same rows as fancy indexing at a third of the
    # call cost; the live blocks are computed on contiguous (M, 4)
    # temporaries, since a ufunc writing through a strided column view
    # costs several times more than the copy.
    idx = np.array(members)
    out = base.rows.take(idx, axis=0)
    # Absent ports have no queue, so their occupancy stays 0.
    occ = view.occupancy.take(idx, axis=0) / view.q_max
    out[:, 0:NUM_PORTS] = occ
    out[:, NET_BLOCK_DIM + 4:NET_BLOCK_DIM + 8] = occ
    # Index -1 (an absent port) reads the False past the last node.
    snap = view.snapshot
    visited = np.zeros(len(snap.dst) + 1, dtype=bool)
    visited[session.hop_trace] = True
    out[:, NET_BLOCK_DIM + 8:NET_BLOCK_DIM + 12] = visited.take(snap.dst.take(idx, axis=0))
    # The normalisation is monotone, so the bottleneck's norm is the minimum
    # of the two norms; unavailable ports stay 0.  ``_snr_norm`` on floats:
    # max and min keep a NaN first argument, as np.maximum/np.minimum do.
    sem_at = NET_BLOCK_DIM + PKT_BLOCK_DIM
    norm = (sem.min_link_snr_db - SNR_NORM_LO_DB) / (SNR_NORM_HI_DB - SNR_NORM_LO_DB)
    out[:, sem_at:sem_at + NUM_PORTS] = np.minimum(base.snr.take(idx, axis=0),
                                                   min(max(norm, 0.0), 1.0))

    offset = []
    for cos in np.vecdot(base.unit.take(idx, axis=0), base.unit[session.dst]).tolist():
        offset.append(math.acos(min(max(cos, -1.0), 1.0)) / math.pi)
    out[:, 13] = offset
    shell = view.constellation.cfg
    wrap = _wrap_pairs(shell.num_planes, shell.sats_per_plane)[session.dst]
    out[:, 14:16] = wrap.take(idx, axis=0)
    out[:, 16] = session.ttl_remaining / view.ttl_max
    out[:, 29:32] = (sem.budget_c / 128.0, 1.0 - math.exp(-sem.accum_distortion),
                     min(1.0, sem.hops_since_process / view.ttl_max))
    return out


def observe(view: DecisionView) -> np.ndarray:
    """The (M, FEATURE_DIM) attention-subgraph rows of one decision: the
    session's node first, then one row per open port in port order.  The hop
    mask that goes with them is ``view.mask``."""
    node = view.session.node
    cell = node * NUM_PORTS
    members = [node]
    for d, up in zip(view.snapshot.dst_cells[cell:cell + NUM_PORTS], view.mask.tolist()):
        if up:
            members.append(d)
    return _feature_rows(view, _slot_rows(view), members)


# ----------------------------------------------------------------------
# rewards

@dataclass(frozen=True)
class RewardConfig:
    """Reward weights; the ``reward`` section of an experiment config."""
    w_hop: float = 1.0
    w_delay: float = 0.2
    w_queue: float = 0.2
    w_loop: float = 1.0
    r_succ: float = 10.0
    r_fail: float = 5.0
    beta_sem: float = 1.0

    def __post_init__(self):
        check_numeric_fields(self)
        for name in ("w_hop", "w_delay", "w_queue", "w_loop", "r_succ", "r_fail", "beta_sem"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


def progress_reward(prev_dist_km: float, new_dist_km: float, delay_s: float,
                    queue_frac: float, revisited: bool, cfg: RewardConfig,
                    norm_km: float, slot_s: float) -> float:
    """Shaping term: distance progress minus delay, congestion, loop penalties."""
    if prev_dist_km < 0 or new_dist_km < 0:
        raise ValueError("distances must be >= 0")
    delta = (prev_dist_km - new_dist_km) / norm_km if norm_km > 0 else 0.0
    return (
        cfg.w_hop * delta
        - cfg.w_delay * (delay_s / slot_s)
        - cfg.w_queue * queue_frac
        - cfg.w_loop * (1.0 if revisited else 0.0)
    )


def total_reward(event: str, shaping: float, quality: float | None, cfg: RewardConfig) -> float:
    """Combine shaping with the terminal bonus or penalty for one event."""
    if event == "forward":
        return shaping
    if event == "deliver":
        if quality is None:
            raise ValueError("delivery reward requires a quality score")
        return shaping + cfg.r_succ + cfg.beta_sem * quality
    if event == "drop":
        return shaping - cfg.r_fail
    raise ValueError(f"unknown event {event!r}")


# ----------------------------------------------------------------------
# rollout storage and advantage estimation

class Rollout:
    """Rollout storage: one row per decision, one segment per session.

    The columns are plain lists in the order the decisions were made.  A
    session's rows stay open until a ``done`` reward closes them or
    ``truncate`` cuts them off at the horizon; ``segments`` holds the closed
    sessions' rows in the order they closed, which is the row order of the
    batch ``stack_buffer`` builds.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Forget every row, open sessions' rows included."""
        self.features: list[np.ndarray] = []          # (M, FEATURE_DIM) per decision
        self.masks: list[np.ndarray] = []
        self.actions: list[tuple[int, int, int]] = []  # hop, budget index, relay
        self.logp: list[float] = []                   # joint behaviour log-prob
        self.values: list[float] = []
        self.rewards: list[float | None] = []         # None until credited
        self.dones: list[bool] = []
        self.open: dict[int, list[int]] = {}          # session id -> its rows
        self.segments: list[tuple[list[int], float]] = []  # rows, bootstrap value

    def __len__(self) -> int:
        """Rows of the closed segments; open sessions' rows do not count."""
        return sum(len(rows) for rows, _ in self.segments)

    def add(self, sid: int, features: np.ndarray, mask: np.ndarray,
            action: JointAction, logps: np.ndarray, value: float) -> None:
        """Store a decision of session ``sid``, given its subgraph rows and
        per-head log-probs."""
        self.open.setdefault(sid, []).append(len(self.values))
        self.features.append(features)
        self.masks.append(mask)
        self.actions.append((action.hop, action.budget_idx, action.relay))
        l_hop, l_budget, l_relay = logps.tolist()
        # Left to right, as numpy sums an (N, 3) array along axis 1.
        self.logp.append((l_hop + l_budget) + l_relay)
        self.values.append(value)
        self.rewards.append(None)
        self.dones.append(False)

    def reward(self, sid: int, index: int, reward: float, done: bool) -> None:
        """``RewardTracker`` sink: credit decision ``index`` of session ``sid``.

        Rewards credited to one decision add up.  A ``done`` reward closes
        the session with bootstrap value 0; a reward for a session with no
        open rows is ignored.
        """
        rows = self.open.get(sid)
        if rows is None:
            return
        row = rows[index]
        old = self.rewards[row]
        self.rewards[row] = reward if old is None else old + reward
        if done:
            self.dones[row] = True
            del self.open[sid]
            assert all(self.rewards[r] is not None for r in rows)
            self.segments.append((rows, 0.0))

    def truncate(self) -> None:
        """Close the sessions the horizon cut off.

        Each bootstraps from its last decision's value; rows that were never
        credited get reward 0.
        """
        for rows in self.open.values():
            for r in rows:
                if self.rewards[r] is None:
                    self.rewards[r] = 0.0
            self.segments.append((rows, self.values[rows[-1]]))
        self.open.clear()


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                gamma: float, lam: float, bootstrap_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage recursion over one trajectory.

    ``bootstrap_value`` stands in for the value of the state after the last
    decision when the trajectory was truncated rather than terminated.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    if len(rewards) == 0:
        raise ValueError("empty trajectory")
    n = len(rewards)
    adv = np.zeros(n)
    gae = 0.0
    next_value = bootstrap_value
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        gae = delta + gamma * lam * nonterminal * gae
        adv[t] = gae
        next_value = values[t]
    return adv, adv + values


def clipped_surrogate(ratio, advantage, eps: float):
    """The clipped objective term, per sample (scalars or arrays)."""
    return np.minimum(ratio * advantage, np.clip(ratio, 1.0 - eps, 1.0 + eps) * advantage)


# ----------------------------------------------------------------------
# PPO update

@dataclass(frozen=True)
class PpoSettings:
    """PPO and network-width settings; the ``ppo`` section of an experiment config."""
    learning_rate: float = 5e-5
    gamma: float = 0.99
    gae_lambda: float = 0.95
    horizon: int = 256
    clip_ratio: float = 0.2
    epochs: int = 4
    minibatch_size: int = 128
    entropy_coef: float = 0.05
    value_coef: float = 0.5
    trunk_width: int = 128
    gat_hidden: int = 64
    max_grad_norm: float = 0.5
    episodes: int = 300

    def __post_init__(self):
        check_numeric_fields(self)
        for name in ("minibatch_size", "epochs", "horizon", "trunk_width", "gat_hidden"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("learning_rate", "clip_ratio", "max_grad_norm"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("gamma", "gae_lambda"):
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0, 1]")
        for name in ("entropy_coef", "value_coef", "episodes"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass
class RolloutBatch:
    """Rollout rows stacked into arrays, one row per decision.

    Indexing with a slice or an index array gathers a sub-batch.
    """
    states: pol.StateBatch
    actions: np.ndarray     # (N, 3) hop, budget index, relay
    old_logp: np.ndarray    # (N,) behaviour joint log-prob
    advantage: np.ndarray   # (N,) GAE advantage, normalized over the batch
    ret: np.ndarray         # (N,) GAE return

    def __len__(self) -> int:
        return len(self.old_logp)

    def __getitem__(self, idx) -> "RolloutBatch":
        return RolloutBatch(self.states[idx], self.actions[idx], self.old_logp[idx],
                            self.advantage[idx], self.ret[idx])


def stack_buffer(rollout: Rollout, hyper: PpoSettings) -> RolloutBatch:
    """GAE per closed segment, then their rows stacked into one batch.

    Raises ``FloatingPointError`` on a non-finite advantage or return.
    """
    adv_parts, ret_parts, order = [], [], []
    for k, (rows, bootstrap) in enumerate(rollout.segments):
        adv, ret = compute_gae([rollout.rewards[r] for r in rows],
                               [rollout.values[r] for r in rows],
                               [rollout.dones[r] for r in rows],
                               hyper.gamma, hyper.gae_lambda, bootstrap)
        if not (np.isfinite(adv).all() and np.isfinite(ret).all()):
            raise FloatingPointError(
                f"non-finite advantage or return in trajectory segment {k}; "
                "check its rewards, values and bootstrap value")
        adv_parts.append(adv)
        ret_parts.append(ret)
        order.extend(rows)
    adv, ret = np.concatenate(adv_parts), np.concatenate(ret_parts)
    mean, std = float(adv.mean()), float(adv.std())
    scale = std if std > 1e-8 else 1.0

    features, member_mask = gat.pad_subgraphs([rollout.features[r] for r in order])
    states = pol.StateBatch(features=features, member_mask=member_mask,
                            hop_mask=np.stack([rollout.masks[r] for r in order]))
    actions = np.array([rollout.actions[r] for r in order])
    old_logp = np.array([rollout.logp[r] for r in order])
    return RolloutBatch(states, actions, old_logp, (adv - mean) / scale, ret)


@dataclass
class _LossTerms:
    """Per-sample pieces of the PPO loss on one batch."""
    fwd: pol.PolicyForward
    ratio: np.ndarray      # new over behaviour probability of the taken action
    surr: np.ndarray       # clipped surrogate
    entropy: np.ndarray    # joint entropy of the three heads
    v_err: np.ndarray      # value minus return

    def mean_loss(self, hyper: PpoSettings) -> float:
        return float(np.mean(-self.surr + hyper.value_coef * self.v_err**2
                             - hyper.entropy_coef * self.entropy))


def _loss_terms(params: PolicyParams, batch: RolloutBatch, hyper: PpoSettings) -> _LossTerms:
    fwd = pol.forward(params, batch.states)
    ratio = np.exp(pol.action_log_prob(fwd, batch.actions) - batch.old_logp)
    return _LossTerms(fwd, ratio, clipped_surrogate(ratio, batch.advantage, hyper.clip_ratio),
                      pol.joint_entropy(fwd), fwd.value - batch.ret)


def _mean_grads(params: PolicyParams, batch: RolloutBatch, hyper: PpoSettings,
                terms: _LossTerms) -> PolicyParams:
    """Gradient of the mean loss: one backward pass over the whole batch."""
    adv, ratio, fwd = batch.advantage, terms.ratio, terms.fwd
    # The surrogate's gradient flows only where the unclipped term is the minimum.
    unclipped = ratio * adv <= np.clip(ratio, 1.0 - hyper.clip_ratio, 1.0 + hyper.clip_ratio) * adv
    g_logp = np.where(unclipped, -adv * ratio, 0.0)
    d_logits = {}
    for col, head in enumerate(pol.HEADS):
        log_probs, probs = fwd.head(head)
        d = g_logp[:, None] * pol.grad_log_prob_logits(probs, batch.actions[:, col])
        d -= hyper.entropy_coef * pol.grad_entropy_logits(probs, log_probs)
        d_logits[head] = d
    grads = pol.backward(params, fwd, d_logits, 2.0 * hyper.value_coef * terms.v_err)
    grads.flat /= len(batch)
    return grads


def ppo_loss(params: PolicyParams, batch: RolloutBatch, hyper: PpoSettings) -> float:
    return _loss_terms(params, batch, hyper).mean_loss(hyper)


def ppo_loss_grads(params: PolicyParams, batch: RolloutBatch,
                   hyper: PpoSettings) -> tuple[float, PolicyParams]:
    """Mean loss over the batch and its gradient."""
    terms = _loss_terms(params, batch, hyper)
    return terms.mean_loss(hyper), _mean_grads(params, batch, hyper, terms)


@dataclass
class UpdateStats:
    n_samples: int
    policy_loss: float
    value_loss: float
    entropy: float
    initial_ratio_max_dev: float
    mean_ratio: float


def ppo_update(rollout: Rollout, params: PolicyParams, optimizer: pol.Adam,
               hyper: PpoSettings, rng: np.random.Generator) -> tuple[PolicyParams, UpdateStats]:
    """Clipped-surrogate update over the rollout's closed segments; clears it.

    Each minibatch is one batched forward, one backward and one optimizer
    step.  A non-finite parameter, advantage, return, ratio or gradient
    raises ``FloatingPointError`` before it can reach an optimizer step;
    ``params`` itself is never modified.
    """
    if len(rollout) == 0:
        raise ValueError("empty rollout")
    block = params.nonfinite_block()
    if block is not None:
        raise FloatingPointError(f"non-finite parameter block {block!r} before the update")
    batch = stack_buffer(rollout, hyper)
    # The rows are dropped when the update ends, raising or not.  Dropping
    # them as soon as they are stacked lowers the update's traced peak but
    # not the process's: the allocator then hands the freed heap back after
    # every update and page-faults it in again during the next one.
    try:
        n = len(batch)

        # Behavior log-probs must match the pre-update policy exactly.
        # Checked a minibatch at a time, so no forward cache of the whole
        # batch is held.
        initial_dev = 0.0
        for start in range(0, n, hyper.minibatch_size):
            ratio = _loss_terms(params, batch[start:start + hyper.minibatch_size], hyper).ratio
            _check_ratio(ratio, "initial ratio check", offset=start)
            initial_dev = max(initial_dev, float(np.max(np.abs(ratio - 1.0))))

        parts = []  # per minibatch: surrogate, value error, entropy, ratio
        for epoch in range(hyper.epochs):
            order = rng.permutation(n)
            for k, start in enumerate(range(0, n, hyper.minibatch_size)):
                params, part = _minibatch_step(
                    params, batch[order[start:start + hyper.minibatch_size]], optimizer,
                    hyper, f"epoch {epoch}, minibatch {k}")
                parts.append(part)
    finally:
        rollout.clear()
    surr, v_err, entropy, ratio = (np.concatenate(p) for p in zip(*parts))
    stats = UpdateStats(
        n_samples=n,
        policy_loss=float(np.mean(-surr)),
        value_loss=float(np.mean(v_err**2)),
        entropy=float(np.mean(entropy)),
        initial_ratio_max_dev=initial_dev,
        mean_ratio=float(np.mean(ratio)),
    )
    return params, stats


def _minibatch_step(params: PolicyParams, mb: RolloutBatch, optimizer: pol.Adam,
                    hyper: PpoSettings, where: str) -> tuple[PolicyParams, tuple]:
    """One forward, backward and optimizer step on the minibatch ``mb``.

    Returns the stepped parameters and the minibatch's (surrogate, value
    error, entropy, ratio).  Its forward cache and gradient are gone once it
    returns, before the next minibatch's forward starts.
    """
    terms = _loss_terms(params, mb, hyper)
    _check_ratio(terms.ratio, where)
    grads = _mean_grads(params, mb, hyper, terms)
    block = grads.nonfinite_block()
    if block is not None:
        raise FloatingPointError(f"non-finite gradient in parameter block {block!r} at {where}")
    return (optimizer.step(params, grads, hyper.max_grad_norm),
            (terms.surr, terms.v_err, terms.entropy, terms.ratio))


def _check_ratio(ratio: np.ndarray, where: str, offset: int = 0) -> None:
    bad = np.flatnonzero(~np.isfinite(ratio))
    if bad.size:
        raise FloatingPointError(
            f"non-finite probability ratio at {where}, sample {offset + bad[0]}")


# ----------------------------------------------------------------------
# engine adapters

class RewardTracker(SimHooks):
    """Turns engine hop/terminal events into scalar rewards.

    Used identically for learned and baseline runs so reported rewards are
    comparable; an optional sink receives (session_id, decision_index,
    reward, done) for rollout collection.
    """

    def __init__(self, reward_cfg: RewardConfig, slot_s: float, sink=None):
        self.reward_cfg = reward_cfg
        self.slot_s = slot_s
        self.sink = sink
        self.session_returns: dict[int, float] = {}

    def _shaping(self, session: ActiveSession, m: HopMeasurements) -> float:
        new_dist = m.new_dist_km if m.new_dist_km is not None else m.prev_dist_km
        return progress_reward(
            m.prev_dist_km, new_dist, m.delay_s, m.queue_frac, m.revisited,
            self.reward_cfg, norm_km=session.initial_dist_km, slot_s=self.slot_s)

    def _record(self, sid: int, index: int, reward: float, done: bool) -> None:
        self.session_returns[sid] = self.session_returns.get(sid, 0.0) + reward
        if self.sink is not None:
            self.sink(sid, index, reward, done)

    def on_hop(self, session, m):
        self._record(session.session_id, m.decision_index,
                     total_reward("forward", self._shaping(session, m), None,
                                  self.reward_cfg), done=False)

    def on_deliver(self, session, m):
        if m is None:
            return  # zero-hop delivery: nothing was decided, nothing to score
        r = total_reward("deliver", self._shaping(session, m), session.quality,
                         self.reward_cfg)
        self._record(session.session_id, m.decision_index, r, done=True)

    def on_drop(self, session, penalty_index, m):
        if penalty_index is None:
            return  # died before the first decision; no decision to blame
        shaping = self._shaping(session, m) if m is not None else 0.0
        self._record(session.session_id, penalty_index,
                     total_reward("drop", shaping, None, self.reward_cfg), done=True)


class PolicyController:
    """Drives the engine with the policy of one parameter set.

    With an rng it samples each head; without one it takes each head's
    logit argmax, gets no log-probs and keeps no per-episode state.  With a
    rollout attached every decision becomes a row of it, and the rollout's
    ``reward`` method, given to a RewardTracker as its sink, credits the
    rows; a rollout needs the log-probs, so it needs an rng.  Without one
    (greedy evaluation, baseline variants) no decision is kept.
    """

    def __init__(self, params: PolicyParams, rng: np.random.Generator | None = None,
                 rollout: Rollout | None = None):
        if rollout is not None and rng is None:
            raise ValueError("a rollout needs an rng: greedy acting records no log-probs")
        self.actor = pol.Actor(params)
        self.rng = rng
        self.rollout = rollout

    def decide(self, view: DecisionView) -> JointAction:
        features = observe(view)
        action, logps, value = pol.act(self.actor, features, view.mask, rng=self.rng)
        action = self.adjust_action(view, action)
        if self.rollout is not None:
            self.rollout.add(view.session.session_id, features, view.mask, action, logps, value)
        return action

    def adjust_action(self, view: DecisionView, action: JointAction) -> JointAction:
        """Hook for reduced variants; the full policy executes as sampled."""
        return action
