"""Deterministic discrete-event engine for store-and-forward sessions.

A session's payload travels as one group of fixed-size chunks, held as a
chunk count and a byte total; every hop the holding node asks a
controller for a joint decision (port, budget, relay mode), the chunks
enter the chosen send queue together, wait for the port, transmit at the
slot's Shannon rate and arrive after the propagation delay.  Queues are
FIFO per port with a hard packet capacity; a group only begins service
in a slot after the one it was enqueued in, which makes slot-binned
queue counts obey

    q[t+1] = min(max(q[t] - departures, 0) + arrivals, q_max)

exactly.  All event ties break on a monotone sequence number, so a fixed
seed replays to a bit-identical event log.

Accounting is chunk-level: chunks created = delivered + dropped + in
flight at every instant.  Relay-side budget pruning discards payload
chunks on purpose; those count toward the dropped total under the
``pruned`` cause, while whole-session failures only ever carry the
``ttl_expired``, ``queue_overflow`` or ``no_link`` causes.
"""
from __future__ import annotations

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import semantic
from ._fields import ConfigError, check_numeric_fields
from .constellation import Constellation, GraphSnapshot, NUM_PORTS
from .channel import ChannelModel
from .policy import JointAction
from .semantic import QualityProxyConfig, SemanticState

C0_KM_S = 299792.458

DROP_TTL = "ttl_expired"
DROP_OVERFLOW = "queue_overflow"
DROP_NO_LINK = "no_link"
DROP_PRUNED = "pruned"  # chunk-level only; never a session outcome

_EV_SLOT = 0
_EV_OTHER = 1

# The valid values of a joint action's three parts.
_HOPS = range(NUM_PORTS)
_BUDGET_IDXS = range(len(semantic.BUDGET_SET))
_RELAYS = range(2)


@dataclass(frozen=True)
class SimulationConfig:
    """Episode and forwarding settings; the ``simulation`` section of an
    experiment config.  ``Engine`` reads the slot, queue, TTL, chunk and
    relay values."""
    slot_length_s: float = 0.1
    episode_length_s: float = 60.0
    num_flows: int = 2
    sessions_per_flow: int = 1
    frame_interval_s: float = 6.0
    q_max_packets: int = 600
    ttl_hops: int = 16
    chunk_bytes: int = semantic.DEFAULT_CHUNK_BYTES
    relay_proc_delay_s: float = 0.005
    # Payload scale fed into the simulator; the packetization anchor keeps
    # its own default so full-size payload math stays exact.
    session_latent_bytes: int = 36_000
    flow_min_grid_hops: int = 1

    def __post_init__(self):
        check_numeric_fields(self)
        for name in ("slot_length_s", "episode_length_s"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("q_max_packets", "ttl_hops", "chunk_bytes"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("num_flows", "sessions_per_flow", "frame_interval_s",
                     "relay_proc_delay_s", "session_latent_bytes", "flow_min_grid_hops"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0")


def step_queue(q_len: int, departures: int, arrivals: int, q_max: int) -> int:
    """One slot of the send-queue recursion with capacity clamping."""
    if min(q_len, departures, arrivals, q_max) < 0:
        raise ValueError("queue arguments must be >= 0")
    return min(max(q_len - departures, 0) + arrivals, q_max)


def propagation_delay(distance_km: float) -> float:
    if distance_km < 0:
        raise ValueError("distance_km must be >= 0")
    return distance_km / C0_KM_S


def transmission_delay(payload_bytes: int, rate_bps: float) -> float:
    if rate_bps <= 0:
        raise ValueError("rate_bps must be > 0 (dead link)")
    return 8.0 * payload_bytes / rate_bps


@dataclass(slots=True)
class HopDelayRecord:
    prop_s: float
    tx_s: float
    queue_s: float
    proc_s: float
    total_s: float

    def __post_init__(self):
        # Two comparisons unless a part is bad.  ``min`` may skip a NaN that
        # is not first, but the sum of the parts is NaN or inf whenever a
        # part is.
        p, t, q, r = self.prop_s, self.tx_s, self.queue_s, self.proc_s
        if not (min(p, t, q, r) >= -1e-12 and p + t + q + r < math.inf):
            for name in ("prop_s", "tx_s", "queue_s", "proc_s"):
                value = getattr(self, name)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
                if value < -1e-12:
                    raise ValueError(f"{name} must be >= 0")

    @classmethod
    def build(cls, prop_s, tx_s, queue_s, proc_s) -> "HopDelayRecord":
        return cls(prop_s, tx_s, queue_s, proc_s, prop_s + tx_s + queue_s + proc_s)


@dataclass(slots=True)
class _Burst:
    session: ActiveSession
    num_chunks: int
    total_bytes: int
    enqueue_s: float = 0.0
    enqueue_slot: int = -1
    service_start_s: float | None = None
    frozen_prop_s: float = 0.0
    frozen_snr_db: float = 0.0


@dataclass(slots=True)
class ActiveSession:
    session_id: int
    flow_id: int
    src: int
    dst: int
    spawn_s: float
    latent_bytes: int
    ttl_remaining: int
    sem: SemanticState
    node: int = -1
    num_chunks: int = 0      # chunks the payload occupies now
    payload_bytes: int = 0   # their byte total
    hop_trace: list[int] = field(default_factory=list)
    # Four floats per completed hop: its prop, tx, queue and proc seconds.
    hop_delays: array = field(default_factory=lambda: array("d"))
    decision_count: int = 0
    relay_count: int = 0
    resolved: bool = False
    # Between a decision and its arrival: (decision_index, next_node,
    # prev_dist_km, queue_frac, revisited, proc_s).
    pending: tuple | None = None
    initial_dist_km: float = 0.0
    chunks_created: int = 0
    # The end state, set when the session is delivered or dropped.
    delivered: bool = False
    drop_cause: str | None = None
    end_to_end_delay_s: float | None = None
    quality: float | None = None

    @property
    def hop_records(self) -> list[HopDelayRecord]:
        """One record per completed hop, built from ``hop_delays``."""
        d = self.hop_delays
        return [HopDelayRecord.build(*d[i:i + 4]) for i in range(0, len(d), 4)]


@dataclass(slots=True)
class HopMeasurements:
    """What a reward function needs to know about one decision's outcome."""
    decision_index: int
    prev_dist_km: float
    new_dist_km: float | None
    delay_s: float
    queue_frac: float
    revisited: bool


@dataclass(slots=True)
class DecisionView:
    """One hop decision at ``session.node``; the engine counts it in
    ``session.decision_count`` only after ``decide`` returns, so 0 means the source."""
    session: ActiveSession
    snapshot: GraphSnapshot
    mask: np.ndarray
    occupancy: np.ndarray  # (N, NUM_PORTS); treat as read-only
    q_max: int
    ttl_max: int
    constellation: Constellation


class SimHooks:
    """Override any subset; the engine calls these as sessions progress."""

    def on_hop(self, session: ActiveSession, m: HopMeasurements) -> None:
        pass

    def on_deliver(self, session: ActiveSession, m: HopMeasurements | None) -> None:
        pass

    def on_drop(self, session: ActiveSession, penalty_decision_index: int | None,
                m: HopMeasurements | None) -> None:
        pass


@dataclass
class EngineCounters:
    chunks_created: int = 0
    chunks_delivered: int = 0
    chunks_dropped: int = 0
    drop_causes: dict[str, int] = field(
        default_factory=lambda: {DROP_TTL: 0, DROP_OVERFLOW: 0, DROP_NO_LINK: 0, DROP_PRUNED: 0}
    )


class Engine:
    """Event-driven simulation of one episode on one constellation.

    The per-hop records (``DecisionView``, ``_Burst``, ``HopMeasurements``)
    are built from positional arguments: keywords make a slotted
    dataclass's ``__init__`` cost about twice as much.  A hop's delay parts
    go straight into its session's ``hop_delays``, with no record object.
    """

    def __init__(self, constellation: Constellation, channel: ChannelModel,
                 controller, proxy_cfg: QualityProxyConfig,
                 sim: SimulationConfig = SimulationConfig(),
                 hooks: list[SimHooks] | None = None, trace=None):
        self.constellation = constellation
        self.channel = channel
        self.controller = controller
        self.proxy_cfg = proxy_cfg
        # Copies of the values the per-event code reads, one lookup each.
        self.slot_length_s = sim.slot_length_s
        self.q_max = sim.q_max_packets
        self.ttl_hops = sim.ttl_hops
        self.relay_proc_delay_s = sim.relay_proc_delay_s
        self.chunk_bytes = sim.chunk_bytes
        self.hooks = hooks or []
        self.trace = trace

        # Every link is addressed by its cell ``node * NUM_PORTS + port``.
        # Per cell, the FIFO of chunk groups waiting for the port (None where
        # the shell has no such port) and whether the port is transmitting.
        # A queue holds a few groups at most, so a list's ``pop(0)`` is
        # cheap, and an empty list is a tenth of an empty deque's size.
        self.queues: list[list[_Burst] | None] = [
            [] if dst >= 0 else None for dst in constellation.dst_cells]
        self._busy = [False] * len(self.queues)
        # Chunks held by each send queue; ``_occ`` is a view of it by cell.
        n = constellation.cfg.num_sats
        self.occupancy = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._occ = self.occupancy.reshape(-1)
        # Idle queues whose head group could not start: it joined in the
        # current slot or its link is down.  Only these restart at a slot
        # boundary.  Every idle queue with groups is here, and its head
        # cannot start before the next boundary: a head is retried at each
        # boundary and as soon as the service ahead of it ends.
        self._waiting: set[int] = set()

        self.now_s = 0.0
        self.slot = 0
        self._heap: list = []
        self._seq = itertools.count()
        self._snapshot: GraphSnapshot | None = None

        self.sessions: dict[int, ActiveSession] = {}
        self._next_session_id = itertools.count()
        self.outcomes: list[ActiveSession] = []  # resolved, in the order they ended
        self.counters = EngineCounters()
        self.sessions_resolved = 0

        self._push(self.slot_length_s, _EV_SLOT, ("slot", 1))

    # ------------------------------------------------------------------
    # event plumbing

    def _push(self, time_s: float, prio: int, item) -> None:
        heapq.heappush(self._heap, (time_s, prio, next(self._seq), item))

    def _emit(self, kind: str, **fields) -> None:
        # The engine's own call sites check ``self.trace`` first, so an
        # untraced run builds no event fields.
        if self.trace is not None:
            self.trace({"t": round(self.now_s, 9), "ev": kind, **fields})

    def add_session(self, src: int, dst: int, spawn_s: float,
                    latent_bytes: int | None = None, flow_id: int = -1) -> int:
        sid = next(self._next_session_id)
        session = ActiveSession(
            session_id=sid, flow_id=flow_id, src=src, dst=dst, spawn_s=spawn_s,
            latent_bytes=self.proxy_cfg.base_latent_bytes if latent_bytes is None else latent_bytes,
            ttl_remaining=self.ttl_hops,
            sem=SemanticState(session_id=sid),
            node=src, hop_trace=[src],
        )
        self.sessions[sid] = session
        self._push(spawn_s, _EV_OTHER, ("spawn", sid))
        return sid

    def unresolved_sessions(self) -> list[ActiveSession]:
        return [s for s in self.sessions.values() if not s.resolved]

    def run(self, until_s: float) -> None:
        """Process every event with timestamp <= until_s, stopping early
        once every session has ended.  A later call resumes where this one
        stopped, until ``finish``."""
        heap, pop = self._heap, heapq.heappop
        if heap is None:
            raise RuntimeError("the episode has ended: a finished engine cannot run on")
        limit = until_s + 1e-12
        n = len(self.sessions)
        while heap and heap[0][0] <= limit:
            if n and self.sessions_resolved == n:
                break
            time_s, _, _, item = pop(heap)
            if time_s > self.now_s:
                self.now_s = time_s
            kind = item[0]  # the most frequent kinds first
            if kind == "arrival":
                self._on_arrival(item[1])
            elif kind == "service_end":
                self._on_service_end(item[1], item[2])
            elif kind == "slot":
                self._on_slot(item[1])
            elif kind == "spawn":
                self._on_spawn(item[1])
            else:  # "enqueue", after a relay's processing delay
                self._do_enqueue(item[1], item[2])
        if not (n and self.sessions_resolved == n):
            self.now_s = max(self.now_s, until_s)

    def finish(self) -> None:
        """End the episode: keep its results, drop what only running needs.

        ``outcomes``, ``counters``, ``sessions`` and ``conservation_ok()``
        still read as after ``run``.  The controller goes (a policy's
        parameters, its actor and its rollout would otherwise stay alive
        with every kept engine), and so do the hooks, the send queues, the
        event heap, the constellation with its block of slot state and the
        channel with its drawn rows; ``run`` and ``snapshot`` then raise.
        """
        self.controller = self.hooks = None
        self.queues = self._busy = self._waiting = self._heap = None
        self.constellation = self.channel = self._snapshot = None

    # ------------------------------------------------------------------
    # slot boundary

    @property
    def snapshot(self) -> GraphSnapshot:
        """The graph of the current slot, built on its first read in the slot.

        ``Constellation.snapshot`` advances the channel to the slot in one
        ``advance_to_slot`` call and returns views of the slot's row of a
        block of ``SLOT_BLOCK`` slots, whose state it computes on the
        block's first read; slots nobody reads cost only their share of
        that pass.  The channel draws every slot in order, so each snapshot
        holds the same values as one built alone at the slot boundary.
        """
        if self._snapshot is None:
            if self.constellation is None:
                raise RuntimeError("the episode has ended: a finished engine has no slot state")
            self._snapshot = self.constellation.snapshot(
                self.slot * self.slot_length_s, self.channel)
        return self._snapshot

    def _on_slot(self, slot: int) -> None:
        self.slot = slot
        self._snapshot = None
        if self.trace is not None:
            self._emit("slot", slot=slot)
        # Sorted cells are in queue order, so service starts get the same
        # sequence numbers as a walk over every queue.
        for cell in sorted(self._waiting):
            self._try_start(cell)
        self._push((slot + 1) * self.slot_length_s, _EV_SLOT, ("slot", slot + 1))

    # ------------------------------------------------------------------
    # session lifecycle

    def _on_spawn(self, sid: int) -> None:
        session = self.sessions[sid]
        if self.trace is not None:
            self._emit("spawn", session=sid, src=session.src, dst=session.dst)
        session.initial_dist_km = dist_km = self.snapshot.distance_km(session.src, session.dst)
        if session.src == session.dst:
            self._deliver(session, None)
            return
        self._decide(session, dist_km)

    def _decide(self, session: ActiveSession, dist_km: float) -> None:
        """One hop decision at the session's node; ``dist_km`` is the
        node's distance to the destination in the current slot."""
        node = session.node
        snap = self.snapshot
        mask = snap.port_mask(node)
        is_open = mask.tolist()
        if not any(is_open):  # a numpy reduction costs ten times as much
            self._fail(session, DROP_NO_LINK,
                       penalty_index=session.decision_count - 1 if session.decision_count else None,
                       measurements=None)
            return
        decision_index = session.decision_count
        view = DecisionView(session, snap, mask, self.occupancy, self.q_max,
                            self.ttl_hops, self.constellation)
        action: JointAction = self.controller.decide(view)
        # A negative index would wrap: a port into another node's cell, a
        # budget index into the largest budget.
        if action.hop not in _HOPS or action.budget_idx not in _BUDGET_IDXS \
                or action.relay not in _RELAYS:
            for name, value, valid in (("hop", action.hop, _HOPS),
                                       ("budget_idx", action.budget_idx, _BUDGET_IDXS),
                                       ("relay", action.relay, _RELAYS)):
                if value not in valid:
                    raise ValueError(f"controller returned {name}={value!r} at node {node}; "
                                     f"expected 0..{valid[-1]}")
        if not is_open[action.hop]:
            raise ValueError(f"controller picked masked port {action.hop} at node {node}")
        port = int(action.hop)
        cell = node * NUM_PORTS + port
        next_node = snap.dst_cells[cell]
        session.decision_count += 1

        proc_s = 0.0
        at_source = decision_index == 0
        if at_source:
            session.sem = semantic.SemanticState(
                session_id=session.session_id, budget_c=action.budget_c)
            plan = semantic.packetize(
                session.latent_bytes, action.budget_c, self.chunk_bytes)
            session.num_chunks = session.chunks_created = plan.num_chunks
            session.payload_bytes = plan.payload_bytes
            self.counters.chunks_created += plan.num_chunks
        elif action.relay == semantic.MODE_PROCESS:
            session.sem = semantic.relay_process(
                session.sem, semantic.MODE_PROCESS, action.budget_c, self.proxy_cfg)
            session.relay_count += 1
            proc_s = self.relay_proc_delay_s
            self._apply_prune(session)

        if self.trace is not None:
            self._emit("decision", session=session.session_id, node=node, port=port,
                       next=next_node, budget=action.budget_c, relay=int(action.relay),
                       source=at_source)

        # ``item``: a numpy scalar would flow on into the rewards.
        session.pending = (decision_index, next_node, dist_km,
                           self._occ.item(cell) / self.q_max,
                           next_node in session.hop_trace, proc_s)
        if proc_s > 0:
            self._push(self.now_s + proc_s, _EV_OTHER, ("enqueue", session.session_id, cell))
        else:
            self._do_enqueue(session.session_id, cell)

    def _apply_prune(self, session: ActiveSession) -> None:
        """Re-pack the payload after a budget change; surplus chunks are shed."""
        plan = semantic.packetize(
            session.latent_bytes, session.sem.budget_c, self.chunk_bytes)
        keep = plan.num_chunks
        if keep >= session.num_chunks:
            return
        shed = session.num_chunks - keep
        session.num_chunks = keep
        session.payload_bytes = plan.payload_bytes
        self.counters.chunks_dropped += shed
        self.counters.drop_causes[DROP_PRUNED] += shed
        if self.trace is not None:
            self._emit("prune", session=session.session_id, shed=shed, keep=keep,
                       budget=session.sem.budget_c)

    def _do_enqueue(self, sid: int, cell: int) -> None:
        session = self.sessions[sid]
        chunks = session.num_chunks
        # All or nothing: a partial payload is useless downstream.
        occ = self._occ.item(cell)
        if chunks > self.q_max - occ:
            decision_index, _, prev_dist_km, queue_frac, revisited, _ = session.pending
            m = HopMeasurements(
                decision_index=decision_index, prev_dist_km=prev_dist_km,
                new_dist_km=None, delay_s=0.0, queue_frac=queue_frac,
                revisited=revisited,
            )
            if self.trace is not None:
                node, port = divmod(cell, NUM_PORTS)
                self._emit("enqueue_overflow", session=sid, node=node, port=port,
                           occupancy=occ)
            self._fail(session, DROP_OVERFLOW, penalty_index=decision_index,
                       measurements=m)
            return
        self.queues[cell].append(_Burst(session, chunks, session.payload_bytes,
                                        self.now_s, self.slot))
        self._occ[cell] = occ + chunks
        if self.trace is not None:
            node, port = divmod(cell, NUM_PORTS)
            self._emit("enqueue", session=sid, node=node, port=port, chunks=chunks)
        if not self._busy[cell]:
            # Neither this group (it joined in this slot) nor a head already
            # waiting can start before the next slot boundary.
            self._waiting.add(cell)

    def _try_start(self, cell: int) -> None:
        queue = self.queues[cell]
        if not queue or self._busy[cell]:
            self._waiting.discard(cell)
            return
        burst = queue[0]
        if burst.enqueue_slot >= self.slot:
            self._waiting.add(cell)
            return  # groups only serve from the slot after they joined
        snap = self.snapshot
        km = snap.link_km()[cell]
        if km == math.inf:
            self._waiting.add(cell)
            return  # link down: stalled; re-checked at the next slot boundary
        self._waiting.discard(cell)
        queue.pop(0)
        self._occ[cell] -= burst.num_chunks
        burst.service_start_s = self.now_s
        burst.frozen_prop_s = propagation_delay(km)
        # Two scalar reads per service start cost less than listing the
        # slot's SNRs and rates: a slot starts a few services, not hundreds.
        burst.frozen_snr_db = snap.snr_db.item(cell)
        tx_s = transmission_delay(burst.total_bytes, snap.rate_bps.item(cell)) \
            if burst.total_bytes else 0.0
        self._busy[cell] = True
        if self.trace is not None:
            node, port = divmod(cell, NUM_PORTS)
            self._emit("service_start", session=burst.session.session_id,
                       node=node, port=port, tx_s=round(tx_s, 9))
        self._push(self.now_s + tx_s, _EV_OTHER, ("service_end", cell, burst))

    def _on_service_end(self, cell: int, burst: _Burst) -> None:
        self._busy[cell] = False
        self._push(self.now_s + burst.frozen_prop_s, _EV_OTHER, ("arrival", burst))
        if self.queues[cell]:  # an empty queue is never waiting
            self._try_start(cell)

    def _on_arrival(self, burst: _Burst) -> None:
        session = burst.session
        decision_index, node, prev_dist_km, queue_frac, revisited, proc_s = session.pending
        session.pending = None
        prop_s = burst.frozen_prop_s
        tx_s = max(self.now_s - prop_s - burst.service_start_s, 0.0)
        queue_s = max(burst.service_start_s - burst.enqueue_s, 0.0)
        # NaN or inf whenever a part is; ``min`` may skip a NaN.
        delay_s = prop_s + tx_s + queue_s + proc_s
        if not (min(prop_s, tx_s, queue_s, proc_s) >= -1e-12 and delay_s < math.inf):
            HopDelayRecord.build(prop_s, tx_s, queue_s, proc_s)  # names the bad part
        session.hop_delays.extend((prop_s, tx_s, queue_s, proc_s))
        session.sem = semantic.record_hop(session.sem, burst.frozen_snr_db, self.proxy_cfg)
        session.ttl_remaining -= 1
        session.node = node
        session.hop_trace.append(node)
        dist_km = self.snapshot.distance_km(node, session.dst)
        m = HopMeasurements(decision_index, prev_dist_km, dist_km, delay_s, queue_frac,
                            revisited)
        if self.trace is not None:
            self._emit("arrival", session=session.session_id, node=node,
                       ttl=session.ttl_remaining)
        if node == session.dst:
            self._deliver(session, m)
        elif session.ttl_remaining <= 0:
            self._fail(session, DROP_TTL, penalty_index=decision_index, measurements=m)
        else:
            for h in self.hooks:
                h.on_hop(session, m)
            self._decide(session, dist_km)

    def _deliver(self, session: ActiveSession, m: HopMeasurements | None) -> None:
        session.resolved = session.delivered = True
        self.sessions_resolved += 1
        self.counters.chunks_delivered += session.num_chunks
        session.end_to_end_delay_s = delay = self.now_s - session.spawn_s
        session.quality = semantic.quality(session.sem, self.proxy_cfg)
        self.outcomes.append(session)
        if self.trace is not None:
            self._emit("deliver", session=session.session_id, delay_s=round(delay, 9),
                       quality=session.quality)
        for h in self.hooks:
            h.on_deliver(session, m)

    def _fail(self, session: ActiveSession, cause: str, penalty_index: int | None,
              measurements: HopMeasurements | None) -> None:
        session.resolved = True
        session.drop_cause = cause
        self.sessions_resolved += 1
        shed = session.num_chunks
        session.num_chunks = session.payload_bytes = 0
        self.counters.chunks_dropped += shed
        self.counters.drop_causes[cause] += shed
        self.outcomes.append(session)
        if self.trace is not None:
            self._emit("drop", session=session.session_id, cause=cause)
        for h in self.hooks:
            h.on_drop(session, penalty_index, measurements)

    # ------------------------------------------------------------------
    # accounting

    def in_flight_chunks(self) -> int:
        return sum(s.num_chunks for s in self.sessions.values() if not s.resolved)

    def conservation_ok(self) -> bool:
        c = self.counters
        return c.chunks_created == c.chunks_delivered + c.chunks_dropped + self.in_flight_chunks()
