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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gat, policy as pol
from .constellation import NUM_PORTS
from .gat import SubgraphInput
from .policy import JointAction, PolicyParams
from .simcore import ActiveSession, DecisionView, HopMeasurements, SessionOutcome, SimHooks

SNR_NORM_LO_DB = -10.0
SNR_NORM_HI_DB = 30.0

NET_BLOCK_DIM = 3 * NUM_PORTS + 1
PKT_BLOCK_DIM = 4 + 2 * NUM_PORTS
SEM_BLOCK_DIM = NUM_PORTS + 3
FEATURE_DIM = NET_BLOCK_DIM + PKT_BLOCK_DIM + SEM_BLOCK_DIM


def _snr_norm(snr_db: float) -> float:
    return float(np.clip((snr_db - SNR_NORM_LO_DB) / (SNR_NORM_HI_DB - SNR_NORM_LO_DB), 0.0, 1.0))


def node_features(view: DecisionView, node: int) -> np.ndarray:
    """The fixed-layout feature vector for one node, session context included."""
    session = view.session
    snap = view.snapshot
    out = np.zeros(FEATURE_DIM)
    visited = set(session.hop_trace)

    degree = 0
    for p in range(NUM_PORTS):
        edge = snap.edge(node, p)
        occ = float(view.occupancy[node, p]) / view.q_max if edge is not None else 0.0
        out[p] = occ
        out[NET_BLOCK_DIM + 4 + p] = occ
        if edge is not None and edge.dst in visited:
            out[NET_BLOCK_DIM + 8 + p] = 1.0
        if edge is not None and edge.available:
            degree += 1
            out[NUM_PORTS + p] = 1.0
            out[2 * NUM_PORTS + p] = _snr_norm(edge.snr_db)
            bottleneck = min(session.sem.min_link_snr_db, edge.snr_db)
            out[NET_BLOCK_DIM + PKT_BLOCK_DIM + p] = _snr_norm(bottleneck)
    out[12] = degree / NUM_PORTS

    pos = snap.positions
    u = pos[node] / np.linalg.norm(pos[node])
    v = pos[session.dst] / np.linalg.norm(pos[session.dst])
    out[13] = math.acos(float(np.clip(u @ v, -1.0, 1.0))) / math.pi
    cfg = view.constellation.cfg
    p_n, s_n = view.constellation.plane_slot(node)
    p_d, s_d = view.constellation.plane_slot(session.dst)
    out[14] = _wrap_delta(p_d - p_n, cfg.num_planes)
    out[15] = _wrap_delta(s_d - s_n, cfg.sats_per_plane)
    out[16] = session.ttl_remaining / view.ttl_max

    out[29] = session.sem.budget_c / 128.0
    out[30] = 1.0 - math.exp(-session.sem.accum_distortion)
    out[31] = min(1.0, session.sem.hops_since_process / view.ttl_max)
    return out


def _wrap_delta(raw: int, n: int) -> float:
    if n <= 1:
        return 0.0
    d = raw % n
    if d > n / 2:
        d -= n
    return d / max(n // 2, 1)


def observe(view: DecisionView) -> tuple[np.ndarray, SubgraphInput, np.ndarray]:
    """Center observation, attention subgraph and hop mask for one decision."""
    if view.session.node != view.node:
        raise ValueError("session is not held at the observed node")
    center = node_features(view, view.node)
    rows = [center]
    members = [view.node]
    for p in range(NUM_PORTS):
        edge = view.snapshot.edge(view.node, p)
        if edge is not None and edge.available:
            rows.append(node_features(view, edge.dst))
            members.append(edge.dst)
    subgraph = SubgraphInput(features=np.stack(rows), members=tuple(members))
    return center, subgraph, view.mask.copy()


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
        for name in ("w_hop", "w_delay", "w_queue", "w_loop", "r_succ", "r_fail", "beta_sem"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


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

@dataclass
class Transition:
    obs: np.ndarray
    subgraph: SubgraphInput
    mask: np.ndarray
    action: JointAction
    log_probs: np.ndarray  # (3,) behavior log-probs, one per head
    value: float
    reward: float | None = None
    done: bool = False


@dataclass
class TrajectorySegment:
    transitions: list[Transition]
    bootstrap_value: float = 0.0


class RolloutBuffer:
    def __init__(self):
        self.segments: list[TrajectorySegment] = []

    def add(self, segment: TrajectorySegment) -> None:
        if segment.transitions:
            self.segments.append(segment)

    def __len__(self) -> int:
        return sum(len(s.transitions) for s in self.segments)

    def clear(self) -> None:
        self.segments = []


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray,
                gamma: float, lam: float, bootstrap_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage recursion over one trajectory.

    ``bootstrap_value`` stands in for the value of the state after the last
    transition when the trajectory was truncated rather than terminated.
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
        for name in ("minibatch_size", "epochs", "horizon", "trunk_width", "gat_hidden"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("learning_rate", "clip_ratio", "max_grad_norm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("gamma", "gae_lambda"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("entropy_coef", "value_coef", "episodes"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class RolloutBatch:
    """Buffered decisions stacked into arrays, one row per decision.

    Indexing with a slice or an index array gathers a sub-batch.
    """
    states: pol.StateBatch
    actions: np.ndarray     # (N, 3) hop, budget index, relay
    old_logp: np.ndarray    # (N,) behaviour joint log-prob
    advantage: np.ndarray   # (N,) GAE advantage, normalized over the buffer
    ret: np.ndarray         # (N,) GAE return

    def __len__(self) -> int:
        return len(self.old_logp)

    def __getitem__(self, idx) -> "RolloutBatch":
        return RolloutBatch(self.states[idx], self.actions[idx], self.old_logp[idx],
                            self.advantage[idx], self.ret[idx])


def stack_buffer(buffer: RolloutBuffer, hyper: PpoSettings) -> RolloutBatch:
    """GAE per segment, then every transition stacked into one batch.

    Raises ``FloatingPointError`` on a non-finite advantage or return.
    """
    adv_parts, ret_parts = [], []
    for k, seg in enumerate(buffer.segments):
        rewards = np.array([t.reward for t in seg.transitions], dtype=float)
        values = np.array([t.value for t in seg.transitions], dtype=float)
        dones = np.array([t.done for t in seg.transitions], dtype=bool)
        adv, ret = compute_gae(rewards, values, dones, hyper.gamma, hyper.gae_lambda,
                               seg.bootstrap_value)
        if not (np.isfinite(adv).all() and np.isfinite(ret).all()):
            raise FloatingPointError(
                f"non-finite advantage or return in trajectory segment {k}; "
                "check its rewards, values and bootstrap value")
        adv_parts.append(adv)
        ret_parts.append(ret)
    adv, ret = np.concatenate(adv_parts), np.concatenate(ret_parts)
    mean, std = float(adv.mean()), float(adv.std())
    scale = std if std > 1e-8 else 1.0

    transitions = [t for seg in buffer.segments for t in seg.transitions]
    features, member_mask = gat.pad_subgraphs([t.subgraph for t in transitions])
    states = pol.StateBatch(
        obs=np.stack([t.obs for t in transitions]), features=features,
        member_mask=member_mask, hop_mask=np.stack([t.mask for t in transitions]))
    actions = np.array([(t.action.hop, t.action.budget_idx, t.action.relay)
                        for t in transitions])
    old_logp = np.stack([t.log_probs for t in transitions]).sum(axis=1)
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


def ppo_update(buffer: RolloutBuffer, params: PolicyParams, optimizer: pol.Adam,
               hyper: PpoSettings, rng: np.random.Generator) -> tuple[PolicyParams, UpdateStats]:
    """Clipped-surrogate update over the buffered rollouts; clears the buffer.

    Each minibatch is one batched forward, one backward and one optimizer
    step.  A non-finite parameter, advantage, return, ratio or gradient
    raises ``FloatingPointError`` before it can reach an optimizer step;
    ``params`` itself is never modified.
    """
    if len(buffer) == 0:
        raise ValueError("empty rollout buffer")
    block = params.nonfinite_block()
    if block is not None:
        raise FloatingPointError(f"non-finite parameter block {block!r} before the update")
    batch = stack_buffer(buffer, hyper)
    n = len(batch)

    # Behavior log-probs must match the pre-update policy exactly.
    ratio = _loss_terms(params, batch, hyper).ratio
    _check_ratio(ratio, "initial ratio check")
    initial_dev = float(np.max(np.abs(ratio - 1.0)))

    parts = []  # per minibatch: surrogate, value error, entropy, ratio
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        for k, start in enumerate(range(0, n, hyper.minibatch_size)):
            mb = batch[order[start:start + hyper.minibatch_size]]
            terms = _loss_terms(params, mb, hyper)
            _check_ratio(terms.ratio, f"epoch {epoch}, minibatch {k}")
            grads = _mean_grads(params, mb, hyper, terms)
            block = grads.nonfinite_block()
            if block is not None:
                raise FloatingPointError(
                    f"non-finite gradient in parameter block {block!r} "
                    f"at epoch {epoch}, minibatch {k}")
            params = optimizer.step(params, grads, hyper.max_grad_norm)
            parts.append((terms.surr, terms.v_err, terms.entropy, terms.ratio))
    buffer.clear()
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


def _check_ratio(ratio: np.ndarray, where: str) -> None:
    bad = np.flatnonzero(~np.isfinite(ratio))
    if bad.size:
        raise FloatingPointError(f"non-finite probability ratio at {where}, sample {bad[0]}")


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

    def on_deliver(self, session, m, outcome: SessionOutcome):
        if m is None:
            return  # zero-hop delivery: nothing was decided, nothing to score
        r = total_reward("deliver", self._shaping(session, m), outcome.quality,
                         self.reward_cfg)
        self._record(session.session_id, m.decision_index, r, done=True)

    def on_drop(self, session, penalty_index, m, outcome: SessionOutcome):
        if penalty_index is None:
            return  # died before the first decision; no transition to blame
        shaping = self._shaping(session, m) if m is not None else 0.0
        self._record(session.session_id, penalty_index,
                     total_reward("drop", shaping, None, self.reward_cfg), done=True)


class PolicyController:
    """Drives the engine with the policy and collects rewarded transitions.

    In sampling mode every decision is stored per session; rewards arrive
    through ``record_reward`` (wired to a RewardTracker sink) and finished
    trajectories move into the rollout buffer.  In greedy mode transitions
    are still tracked but typically no buffer is attached.
    """

    def __init__(self, params: PolicyParams, rng: np.random.Generator | None = None,
                 greedy: bool = False, buffer: RolloutBuffer | None = None):
        self.params = params
        self.rng = rng
        self.greedy = greedy
        self.buffer = buffer
        self.trajectories: dict[int, list[Transition]] = {}

    def decide(self, view: DecisionView) -> JointAction:
        obs, subgraph, mask = observe(view)
        action, logps, value = pol.act(
            self.params, obs, subgraph, mask, rng=self.rng, greedy=self.greedy)
        action = self.adjust_action(view, action)
        self.trajectories.setdefault(view.session.session_id, []).append(Transition(
            obs=obs, subgraph=subgraph, mask=mask, action=action,
            log_probs=logps, value=value,
        ))
        return action

    def adjust_action(self, view: DecisionView, action: JointAction) -> JointAction:
        """Hook for reduced variants; the full policy executes as sampled."""
        return action

    def record_reward(self, sid: int, index: int, reward: float, done: bool) -> None:
        traj = self.trajectories.get(sid)
        if traj is None:
            return
        tr = traj[index]
        tr.reward = reward if tr.reward is None else tr.reward + reward
        tr.done = tr.done or done
        if done:
            self._finish_session(sid)

    def _finish_session(self, sid: int) -> None:
        traj = self.trajectories.pop(sid, None)
        if traj and self.buffer is not None:
            assert all(t.reward is not None for t in traj)
            self.buffer.add(TrajectorySegment(transitions=traj, bootstrap_value=0.0))

    def finalize_truncated(self) -> None:
        """Close out sessions cut off by the episode horizon."""
        for sid, traj in list(self.trajectories.items()):
            for tr in traj:
                if tr.reward is None:
                    tr.reward = 0.0
            if self.buffer is not None and traj:
                self.buffer.add(TrajectorySegment(
                    transitions=traj, bootstrap_value=traj[-1].value))
            del self.trajectories[sid]
