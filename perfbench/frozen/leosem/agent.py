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

from . import policy as pol
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


def clipped_surrogate(ratio: float, advantage: float, eps: float) -> float:
    """The per-sample clipped objective term."""
    return min(ratio * advantage, float(np.clip(ratio, 1.0 - eps, 1.0 + eps)) * advantage)


# ----------------------------------------------------------------------
# PPO update

@dataclass(frozen=True)
class PpoHyper:
    learning_rate: float = 5e-5
    gamma: float = 0.99
    gae_lambda: float = 0.95
    horizon: int = 256
    clip_ratio: float = 0.2
    epochs: int = 4
    minibatch_size: int = 128
    entropy_coef: float = 0.05
    value_coef: float = 0.5
    max_grad_norm: float = 0.5


@dataclass
class _Sample:
    tr: Transition
    advantage: float
    ret: float
    old_logp: float


def _flatten_buffer(buffer: RolloutBuffer, hyper: PpoHyper) -> list[_Sample]:
    samples: list[_Sample] = []
    all_adv = []
    per_segment = []
    for seg in buffer.segments:
        rewards = np.array([t.reward for t in seg.transitions], dtype=float)
        values = np.array([t.value for t in seg.transitions], dtype=float)
        dones = np.array([t.done for t in seg.transitions], dtype=bool)
        adv, ret = compute_gae(rewards, values, dones, hyper.gamma, hyper.gae_lambda,
                               seg.bootstrap_value)
        per_segment.append((seg, adv, ret))
        all_adv.append(adv)
    flat = np.concatenate(all_adv)
    mean, std = float(flat.mean()), float(flat.std())
    scale = std if std > 1e-8 else 1.0
    for seg, adv, ret in per_segment:
        for i, tr in enumerate(seg.transitions):
            samples.append(_Sample(
                tr=tr,
                advantage=(float(adv[i]) - mean) / scale,
                ret=float(ret[i]),
                old_logp=float(tr.log_probs.sum()),
            ))
    return samples


def _sample_loss(params: PolicyParams, s: _Sample, hyper: PpoHyper,
                 want_grads: bool):
    """Per-sample PPO loss and, optionally, head-logit/value gradients."""
    fwd = pol.forward(params, s.tr.obs, s.tr.subgraph, s.tr.mask)
    a = s.tr.action
    logp = pol.action_log_prob(fwd, a)
    ratio = math.exp(logp - s.old_logp)
    surr1 = ratio * s.advantage
    surr2 = float(np.clip(ratio, 1.0 - hyper.clip_ratio, 1.0 + hyper.clip_ratio)) * s.advantage
    entropy = pol.joint_entropy(fwd)
    v_err = fwd.value - s.ret
    loss = -min(surr1, surr2) + hyper.value_coef * v_err**2 - hyper.entropy_coef * entropy
    if not want_grads:
        return loss, ratio, entropy, None, None
    g_logp = -s.advantage * ratio if surr1 <= surr2 else 0.0
    chosen = {"hop": a.hop, "budget": a.budget_idx, "relay": a.relay}
    d_logits = {}
    for head, idx in chosen.items():
        d = g_logp * pol.grad_log_prob_logits(fwd.probs[head], idx)
        d -= hyper.entropy_coef * pol.grad_entropy_logits(fwd.probs[head], fwd.log_probs[head])
        d_logits[head] = d
    d_value = 2.0 * hyper.value_coef * v_err
    return loss, ratio, entropy, (fwd, d_logits), d_value


def ppo_loss(params: PolicyParams, samples: list[_Sample], hyper: PpoHyper) -> float:
    return float(np.mean([_sample_loss(params, s, hyper, False)[0] for s in samples]))


def ppo_loss_grads(params: PolicyParams, samples: list[_Sample],
                   hyper: PpoHyper) -> tuple[float, PolicyParams]:
    total = pol.zeros_like_params(params)
    acc = total.to_vector()
    losses = []
    for s in samples:
        loss, _, _, (fwd, d_logits), d_value = _sample_loss(params, s, hyper, True)
        g = pol.backward(params, fwd, d_logits, d_value)
        acc += g.to_vector()
        losses.append(loss)
    acc /= len(samples)
    return float(np.mean(losses)), params.from_vector(acc)


@dataclass
class UpdateStats:
    n_samples: int
    policy_loss: float
    value_loss: float
    entropy: float
    initial_ratio_max_dev: float
    mean_ratio: float


def ppo_update(buffer: RolloutBuffer, params: PolicyParams, optimizer: pol.Adam,
               hyper: PpoHyper, rng: np.random.Generator) -> tuple[PolicyParams, UpdateStats]:
    """Clipped-surrogate update over the buffered rollouts; clears the buffer."""
    if len(buffer) == 0:
        raise ValueError("empty rollout buffer")
    samples = _flatten_buffer(buffer, hyper)
    n = len(samples)

    # Behavior log-probs must match the pre-update policy exactly.
    initial_dev = 0.0
    for s in samples:
        fwd = pol.forward(params, s.tr.obs, s.tr.subgraph, s.tr.mask)
        ratio = math.exp(pol.action_log_prob(fwd, s.tr.action) - s.old_logp)
        initial_dev = max(initial_dev, abs(ratio - 1.0))

    pol_losses, val_losses, entropies, ratios = [], [], [], []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.minibatch_size):
            batch = [samples[i] for i in order[start:start + hyper.minibatch_size]]
            acc = pol.zeros_like_params(params).to_vector()
            for s in batch:
                loss, ratio, entropy, (fwd, d_logits), d_value = _sample_loss(
                    params, s, hyper, True)
                g = pol.backward(params, fwd, d_logits, d_value)
                acc += g.to_vector()
                ratios.append(ratio)
                entropies.append(entropy)
                pol_losses.append(-clipped_surrogate(ratio, s.advantage, hyper.clip_ratio))
                val_losses.append((fwd.value - s.ret) ** 2)
            acc /= len(batch)
            grads = params.from_vector(acc)
            params = optimizer.step(params, grads, hyper.max_grad_norm)
    buffer.clear()
    stats = UpdateStats(
        n_samples=n,
        policy_loss=float(np.mean(pol_losses)),
        value_loss=float(np.mean(val_losses)),
        entropy=float(np.mean(entropies)),
        initial_ratio_max_dev=initial_dev,
        mean_ratio=float(np.mean(ratios)),
    )
    return params, stats


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
