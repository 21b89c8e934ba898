"""Deterministic discrete-event engine for store-and-forward sessions.

A session's payload travels as one group of fixed-size chunks; every hop
the holding node asks a controller for a joint decision (port, budget,
relay mode), the chunks enter the chosen send queue together, wait for
the port, transmit at the slot's Shannon rate and arrive after the
propagation delay.  Queues are FIFO per port with a hard packet capacity;
a group only begins service in a slot after the one it was enqueued in,
which makes slot-binned queue counts obey

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
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import semantic
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


@dataclass
class Packet:
    packet_id: int
    session_id: int
    src: int
    dst: int
    size_bytes: int
    ttl_hops: int
    created_s: float
    hop_trace: list[int]
    sem_meta: SemanticState | None = None

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be > 0")
        if self.ttl_hops < 0:
            raise ValueError("ttl_hops must be >= 0")


@dataclass(frozen=True)
class HopDelayRecord:
    prop_s: float
    tx_s: float
    queue_s: float
    proc_s: float
    total_s: float

    def __post_init__(self):
        for name in ("prop_s", "tx_s", "queue_s", "proc_s"):
            if getattr(self, name) < -1e-12:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def build(cls, prop_s, tx_s, queue_s, proc_s) -> "HopDelayRecord":
        return cls(prop_s, tx_s, queue_s, proc_s, prop_s + tx_s + queue_s + proc_s)


@dataclass
class SessionOutcome:
    session_id: int
    delivered: bool
    end_to_end_delay_s: float | None
    path: list[int]
    drop_cause: str | None
    quality: float | None = None
    hop_records: list[HopDelayRecord] = field(default_factory=list)
    src: int = -1
    dst: int = -1
    flow_id: int = -1
    spawn_s: float = 0.0
    chunks_created: int = 0
    final_budget: int | None = None
    requant_count: int = 0
    relay_count: int = 0
    decision_count: int = 0


def end_to_end_delay(outcome: SessionOutcome) -> float:
    """Cumulative delay along the traversed path (delivered sessions only)."""
    if not outcome.delivered:
        raise ValueError("session was not delivered")
    return float(sum(rec.total_s for rec in outcome.hop_records))


@dataclass
class _Burst:
    session: "ActiveSession | None"
    chunks: list[Packet]
    enqueue_s: float = 0.0
    enqueue_slot: int = -1
    service_start_s: float | None = None
    frozen_prop_s: float = 0.0
    frozen_snr_db: float = 0.0

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def total_bytes(self) -> int:
        return sum(p.size_bytes for p in self.chunks)


class PortQueue:
    """FIFO queue of chunk groups with a hard per-packet capacity."""

    def __init__(self, node: int, port: int, capacity: int):
        self.node = node
        self.port = port
        self.capacity = capacity
        self.entries: deque[_Burst] = deque()
        self.occupancy = 0

    def space(self) -> int:
        return self.capacity - self.occupancy

    def push(self, burst: _Burst) -> bool:
        """All-or-nothing admit; partial payloads are useless downstream."""
        if burst.num_chunks > self.space():
            return False
        self.entries.append(burst)
        self.occupancy += burst.num_chunks
        return True

    def pop(self) -> _Burst:
        burst = self.entries.popleft()
        self.occupancy -= burst.num_chunks
        return burst

    def head(self) -> _Burst | None:
        return self.entries[0] if self.entries else None


@dataclass
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
    chunks: list[Packet] = field(default_factory=list)
    hop_trace: list[int] = field(default_factory=list)
    hop_records: list[HopDelayRecord] = field(default_factory=list)
    decision_count: int = 0
    relay_count: int = 0
    resolved: bool = False
    pending: dict | None = None
    initial_dist_km: float = 0.0
    chunks_created: int = 0


@dataclass(frozen=True)
class HopMeasurements:
    """What a reward function needs to know about one decision's outcome."""
    decision_index: int
    prev_dist_km: float
    new_dist_km: float | None
    delay_s: float
    queue_frac: float
    revisited: bool
    hop_completed: bool


@dataclass
class DecisionView:
    time_s: float
    slot: int
    node: int
    session: ActiveSession
    snapshot: GraphSnapshot
    mask: np.ndarray
    occupancy: np.ndarray  # (N, NUM_PORTS); treat as read-only
    q_max: int
    ttl_max: int
    constellation: Constellation
    is_source: bool


class SimHooks:
    """Override any subset; the engine calls these as sessions progress."""

    def on_hop(self, session: ActiveSession, m: HopMeasurements) -> None:
        pass

    def on_deliver(self, session: ActiveSession, m: HopMeasurements,
                   outcome: SessionOutcome) -> None:
        pass

    def on_drop(self, session: ActiveSession, penalty_decision_index: int | None,
                m: HopMeasurements | None, outcome: SessionOutcome) -> None:
        pass


@dataclass
class QueueLawRow:
    slot: int
    node: int
    port: int
    q_start: int
    arrivals: int
    departures: int
    q_end: int


@dataclass
class EngineCounters:
    chunks_created: int = 0
    chunks_delivered: int = 0
    chunks_dropped: int = 0
    drop_causes: dict[str, int] = field(
        default_factory=lambda: {DROP_TTL: 0, DROP_OVERFLOW: 0, DROP_NO_LINK: 0, DROP_PRUNED: 0}
    )


class Engine:
    """Event-driven simulation of one episode on one constellation."""

    def __init__(self, constellation: Constellation, channel: ChannelModel,
                 controller, proxy_cfg: QualityProxyConfig,
                 slot_length_s: float = 0.1, q_max: int = 600, ttl_hops: int = 16,
                 relay_proc_delay_s: float = 0.005,
                 chunk_bytes: int = semantic.DEFAULT_CHUNK_BYTES,
                 hooks: list[SimHooks] | None = None,
                 trace=None, collect_queue_log: bool = False):
        self.constellation = constellation
        self.channel = channel
        self.controller = controller
        self.proxy_cfg = proxy_cfg
        self.slot_length_s = slot_length_s
        self.q_max = q_max
        self.ttl_hops = ttl_hops
        self.relay_proc_delay_s = relay_proc_delay_s
        self.chunk_bytes = chunk_bytes
        self.hooks = hooks or []
        self.trace = trace
        self.collect_queue_log = collect_queue_log

        n = constellation.cfg.num_sats
        self.queues: dict[tuple[int, int], PortQueue] = {}
        for node in range(n):
            for port in constellation.ports[node]:
                self.queues[(node, port)] = PortQueue(node, port, q_max)
        self.occupancy = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._busy: dict[tuple[int, int], bool] = {k: False for k in self.queues}

        self.now_s = 0.0
        self.slot = 0
        self._heap: list = []
        self._seq = itertools.count()
        self.snapshot = constellation.snapshot(0.0, channel)

        self.sessions: dict[int, ActiveSession] = {}
        self._next_session_id = itertools.count()
        self._next_packet_id = itertools.count()
        self.outcomes: list[SessionOutcome] = []
        self.counters = EngineCounters()
        self.sessions_resolved = 0

        self.queue_log: list[QueueLawRow] = []
        self._slot_arrivals = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._slot_departures = np.zeros((n, NUM_PORTS), dtype=np.int64)
        self._q_at_slot_start = self.occupancy.copy()

        self._push(self.slot_length_s, _EV_SLOT, ("slot", 1))

    # ------------------------------------------------------------------
    # event plumbing

    def _push(self, time_s: float, prio: int, item) -> None:
        heapq.heappush(self._heap, (time_s, prio, next(self._seq), item))

    def _emit(self, kind: str, **fields) -> None:
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

    @property
    def all_resolved(self) -> bool:
        return self.sessions_resolved == len(self.sessions)

    def unresolved_sessions(self) -> list[ActiveSession]:
        return [s for s in self.sessions.values() if not s.resolved]

    def advance(self, until_s: float) -> int:
        """Process every event with timestamp <= until_s; returns the count."""
        processed = 0
        while self._heap and self._heap[0][0] <= until_s + 1e-12:
            time_s, _, _, item = heapq.heappop(self._heap)
            self.now_s = max(self.now_s, time_s)
            self._dispatch(item)
            processed += 1
        self.now_s = max(self.now_s, until_s)
        return processed

    def run(self, horizon_s: float) -> None:
        """Advance until the horizon, stopping early once every session ends."""
        while self._heap and self._heap[0][0] <= horizon_s + 1e-12:
            if self.sessions and self.all_resolved:
                break
            time_s, _, _, item = heapq.heappop(self._heap)
            self.now_s = max(self.now_s, time_s)
            self._dispatch(item)
        if not (self.sessions and self.all_resolved):
            self.now_s = max(self.now_s, horizon_s)
        if self.collect_queue_log:
            self._flush_slot_rows()

    def _dispatch(self, item) -> None:
        kind = item[0]
        if kind == "slot":
            self._on_slot(item[1])
        elif kind == "spawn":
            self._on_spawn(item[1])
        elif kind == "enqueue":
            self._do_enqueue(item[1], item[2])
        elif kind == "service_end":
            self._on_service_end(item[1], item[2])
        elif kind == "arrival":
            self._on_arrival(item[1])
        else:  # pragma: no cover
            raise RuntimeError(f"unknown event {kind}")

    # ------------------------------------------------------------------
    # slot boundary

    def _on_slot(self, slot: int) -> None:
        if self.collect_queue_log:
            self._flush_slot_rows()
        self.slot = slot
        self.channel.advance_to_slot(slot)
        self.snapshot = self.constellation.snapshot(slot * self.slot_length_s, self.channel)
        self._slot_arrivals[...] = 0
        self._slot_departures[...] = 0
        self._q_at_slot_start = self.occupancy.copy()
        self._emit("slot", slot=slot)
        for key, q in self.queues.items():
            if q.entries and not self._busy[key]:
                self._try_start(key)
        self._push((slot + 1) * self.slot_length_s, _EV_SLOT, ("slot", slot + 1))

    def _flush_slot_rows(self) -> None:
        arr = self._slot_arrivals
        dep = self._slot_departures
        q0 = self._q_at_slot_start
        active = np.argwhere((arr > 0) | (dep > 0) | (q0 > 0))
        for node, port in active:
            if (int(node), int(port)) not in self.queues:
                continue
            self.queue_log.append(QueueLawRow(
                slot=self.slot, node=int(node), port=int(port),
                q_start=int(q0[node, port]), arrivals=int(arr[node, port]),
                departures=int(dep[node, port]), q_end=int(self.occupancy[node, port]),
            ))

    # ------------------------------------------------------------------
    # session lifecycle

    def _on_spawn(self, sid: int) -> None:
        session = self.sessions[sid]
        self._emit("spawn", session=sid, src=session.src, dst=session.dst)
        session.initial_dist_km = self.snapshot.distance_km(session.src, session.dst)
        if session.src == session.dst:
            self._deliver(session, None)
            return
        self._decide(session)

    def _decide(self, session: ActiveSession) -> None:
        node = session.node
        mask = self.snapshot.port_mask(node)
        if not mask.any():
            self._fail(session, DROP_NO_LINK,
                       penalty_index=session.decision_count - 1 if session.decision_count else None,
                       measurements=None)
            return
        view = DecisionView(
            time_s=self.now_s, slot=self.slot, node=node, session=session,
            snapshot=self.snapshot, mask=mask, occupancy=self.occupancy,
            q_max=self.q_max, ttl_max=self.ttl_hops,
            constellation=self.constellation, is_source=session.decision_count == 0,
        )
        action: JointAction = self.controller.decide(view)
        if not mask[action.hop]:
            raise ValueError(f"controller picked masked port {action.hop} at node {node}")
        edge = self.snapshot.edge(node, action.hop)
        is_source = session.decision_count == 0
        decision_index = session.decision_count
        session.decision_count += 1

        proc_s = 0.0
        if is_source:
            session.sem = semantic.SemanticState(
                session_id=session.session_id, budget_c=action.budget_c)
            plan = semantic.packetize(
                session.latent_bytes, action.budget_c, self.chunk_bytes)
            session.chunks = [
                Packet(
                    packet_id=next(self._next_packet_id), session_id=session.session_id,
                    src=session.src, dst=session.dst, size_bytes=size,
                    ttl_hops=session.ttl_remaining, created_s=self.now_s,
                    hop_trace=session.hop_trace, sem_meta=session.sem,
                )
                for size in plan.chunk_sizes
            ]
            session.chunks_created = len(session.chunks)
            self.counters.chunks_created += len(session.chunks)
        elif action.relay == semantic.MODE_PROCESS:
            session.sem = semantic.relay_process(
                session.sem, semantic.MODE_PROCESS, action.budget_c, self.proxy_cfg)
            session.relay_count += 1
            proc_s = self.relay_proc_delay_s
            self._apply_prune(session)

        self._emit("decision", session=session.session_id, node=node, port=int(action.hop),
                   next=edge.dst, budget=action.budget_c, relay=int(action.relay),
                   source=is_source)

        session.pending = {
            "decision_index": decision_index,
            "port": int(action.hop),
            "next_node": edge.dst,
            "prev_dist_km": self.snapshot.distance_km(node, session.dst),
            "queue_frac": float(self.occupancy[node, action.hop]) / self.q_max,
            "revisited": edge.dst in session.hop_trace,
            "decision_s": self.now_s,
            "proc_s": proc_s,
        }
        if proc_s > 0:
            self._push(self.now_s + proc_s, _EV_OTHER,
                       ("enqueue", session.session_id, int(action.hop)))
        else:
            self._do_enqueue(session.session_id, int(action.hop))

    def _apply_prune(self, session: ActiveSession) -> None:
        """Re-pack the payload after a budget change; surplus chunks are shed."""
        plan = semantic.packetize(
            session.latent_bytes, session.sem.budget_c, self.chunk_bytes)
        keep = plan.num_chunks
        if keep >= len(session.chunks):
            return
        shed = len(session.chunks) - keep
        session.chunks = session.chunks[:keep]
        for packet, size in zip(session.chunks, plan.chunk_sizes):
            packet.size_bytes = size
            packet.sem_meta = session.sem
        self.counters.chunks_dropped += shed
        self.counters.drop_causes[DROP_PRUNED] += shed
        self._emit("prune", session=session.session_id, shed=shed, keep=keep,
                   budget=session.sem.budget_c)

    def _do_enqueue(self, sid: int, port: int) -> None:
        session = self.sessions[sid]
        node = session.node
        queue = self.queues[(node, port)]
        burst = _Burst(session=session, chunks=session.chunks,
                       enqueue_s=self.now_s, enqueue_slot=self.slot)
        if not queue.push(burst):
            p = session.pending
            m = HopMeasurements(
                decision_index=p["decision_index"], prev_dist_km=p["prev_dist_km"],
                new_dist_km=None, delay_s=0.0, queue_frac=p["queue_frac"],
                revisited=p["revisited"], hop_completed=False,
            )
            self._emit("enqueue_overflow", session=sid, node=node, port=port,
                       occupancy=int(self.occupancy[node, port]))
            self._fail(session, DROP_OVERFLOW, penalty_index=p["decision_index"],
                       measurements=m)
            return
        self.occupancy[node, port] += burst.num_chunks
        self._slot_arrivals[node, port] += burst.num_chunks
        self._emit("enqueue", session=sid, node=node, port=port, chunks=burst.num_chunks)
        key = (node, port)
        if not self._busy[key]:
            self._try_start(key)

    def _try_start(self, key: tuple[int, int]) -> None:
        node, port = key
        queue = self.queues[key]
        burst = queue.head()
        if burst is None or self._busy[key]:
            return
        if burst.enqueue_slot >= self.slot:
            return  # groups only serve from the slot after they joined
        edge = self.snapshot.edge(node, port)
        if edge is None or not edge.available:
            return  # stalled; re-checked at the next slot boundary
        queue.pop()
        self.occupancy[node, port] -= burst.num_chunks
        self._slot_departures[node, port] += burst.num_chunks
        burst.service_start_s = self.now_s
        burst.frozen_prop_s = propagation_delay(edge.distance_km)
        burst.frozen_snr_db = edge.snr_db
        tx_s = transmission_delay(burst.total_bytes, edge.rate_bps) if burst.total_bytes else 0.0
        self._busy[key] = True
        self._emit("service_start", session=burst.session.session_id if burst.session else None,
                   node=node, port=port, tx_s=round(tx_s, 9))
        self._push(self.now_s + tx_s, _EV_OTHER, ("service_end", key, burst))

    def _on_service_end(self, key: tuple[int, int], burst: _Burst) -> None:
        self._busy[key] = False
        self._push(self.now_s + burst.frozen_prop_s, _EV_OTHER, ("arrival", burst))
        self._try_start(key)

    def _on_arrival(self, burst: _Burst) -> None:
        session = burst.session
        if session is None or session.resolved:
            # Background traffic from the raw enqueue API just drains here.
            if burst.chunks:
                self.counters.chunks_delivered += len(burst.chunks)
            return
        p = session.pending
        session.pending = None
        node = p["next_node"]
        queue_s = burst.service_start_s - burst.enqueue_s
        tx_s = self.now_s - burst.frozen_prop_s - burst.service_start_s
        record = HopDelayRecord.build(
            prop_s=burst.frozen_prop_s, tx_s=max(tx_s, 0.0),
            queue_s=max(queue_s, 0.0), proc_s=p["proc_s"])
        session.hop_records.append(record)
        session.sem = semantic.record_hop(session.sem, burst.frozen_snr_db, self.proxy_cfg)
        session.ttl_remaining -= 1
        session.node = node
        session.hop_trace.append(node)
        for chunk in session.chunks:
            chunk.ttl_hops = session.ttl_remaining
            chunk.sem_meta = session.sem
        m = HopMeasurements(
            decision_index=p["decision_index"], prev_dist_km=p["prev_dist_km"],
            new_dist_km=self.snapshot.distance_km(node, session.dst),
            delay_s=record.total_s, queue_frac=p["queue_frac"],
            revisited=p["revisited"], hop_completed=True,
        )
        self._emit("arrival", session=session.session_id, node=node,
                   ttl=session.ttl_remaining)
        if node == session.dst:
            self._deliver(session, m)
        elif session.ttl_remaining <= 0:
            self._fail(session, DROP_TTL, penalty_index=p["decision_index"], measurements=m)
        else:
            for h in self.hooks:
                h.on_hop(session, m)
            self._decide(session)

    def _deliver(self, session: ActiveSession, m: HopMeasurements | None) -> None:
        session.resolved = True
        self.sessions_resolved += 1
        self.counters.chunks_delivered += len(session.chunks)
        delay = self.now_s - session.spawn_s
        outcome = SessionOutcome(
            session_id=session.session_id, delivered=True, end_to_end_delay_s=delay,
            path=list(session.hop_trace), drop_cause=None,
            quality=semantic.quality(session.sem, self.proxy_cfg),
            hop_records=list(session.hop_records),
            src=session.src, dst=session.dst, flow_id=session.flow_id,
            spawn_s=session.spawn_s, chunks_created=session.chunks_created,
            final_budget=session.sem.budget_c, requant_count=session.sem.quant_penalties,
            relay_count=session.relay_count, decision_count=session.decision_count,
        )
        self.outcomes.append(outcome)
        self._emit("deliver", session=session.session_id, delay_s=round(delay, 9),
                   quality=outcome.quality)
        for h in self.hooks:
            h.on_deliver(session, m, outcome)

    def _fail(self, session: ActiveSession, cause: str, penalty_index: int | None,
              measurements: HopMeasurements | None) -> None:
        session.resolved = True
        self.sessions_resolved += 1
        shed = len(session.chunks)
        session.chunks = []
        self.counters.chunks_dropped += shed
        self.counters.drop_causes[cause] += shed
        outcome = SessionOutcome(
            session_id=session.session_id, delivered=False, end_to_end_delay_s=None,
            path=list(session.hop_trace), drop_cause=cause,
            hop_records=list(session.hop_records),
            src=session.src, dst=session.dst, flow_id=session.flow_id,
            spawn_s=session.spawn_s, chunks_created=session.chunks_created,
            final_budget=session.sem.budget_c, requant_count=session.sem.quant_penalties,
            relay_count=session.relay_count, decision_count=session.decision_count,
        )
        self.outcomes.append(outcome)
        self._emit("drop", session=session.session_id, cause=cause)
        for h in self.hooks:
            h.on_drop(session, penalty_index, measurements, outcome)

    # ------------------------------------------------------------------
    # raw queue surface (background traffic / contract tests)

    def enqueue(self, node: int, port: int, packet: Packet) -> str:
        """Admit one standalone packet to a send queue.

        Returns "accepted" or "overflow"; overflowed packets count as
        dropped with the queue_overflow cause.
        """
        key = (node, port)
        if key not in self.queues:
            raise KeyError(f"no port {port} on node {node}")
        self.counters.chunks_created += 1
        burst = _Burst(session=None, chunks=[packet], enqueue_s=self.now_s,
                       enqueue_slot=self.slot)
        if not self.queues[key].push(burst):
            self.counters.chunks_dropped += 1
            self.counters.drop_causes[DROP_OVERFLOW] += 1
            return "overflow"
        self.occupancy[node, port] += 1
        self._slot_arrivals[node, port] += 1
        if not self._busy[key]:
            self._try_start(key)
        return "accepted"

    # ------------------------------------------------------------------
    # accounting

    def in_flight_chunks(self) -> int:
        return sum(len(s.chunks) for s in self.sessions.values() if not s.resolved) \
            + self._background_in_flight()

    def _background_in_flight(self) -> int:
        n = 0
        for q in self.queues.values():
            for burst in q.entries:
                if burst.session is None:
                    n += burst.num_chunks
        for _, _, _, item in self._heap:
            if item[0] in ("service_end", "arrival"):
                burst = item[2] if item[0] == "service_end" else item[1]
                if burst.session is None:
                    n += burst.num_chunks
        return n

    def conservation_ok(self) -> bool:
        c = self.counters
        return c.chunks_created == c.chunks_delivered + c.chunks_dropped + self.in_flight_chunks()
