"""Comparator controllers: shortest-path, greedy queue-aware, random,
and reduced variants of the learned policy (frozen source budget,
relay processing disabled)."""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .agent import PolicyController
from .constellation import NUM_PORTS, GraphSnapshot
from .policy import JOINT_ACTIONS, JointAction, PolicyParams
from .semantic import BUDGET_MAX, BUDGET_SET, MODE_FORWARD
from .simcore import DecisionView

BASELINE_KINDS = (
    "shortest_path",
    "greedy_queue",
    "random",
    "policy_no_source_c",
    "policy_no_relay",
)


@dataclass(frozen=True)
class BaselineSpec:
    kind: str
    fixed_budget: int | None = None

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"kind must be one of {BASELINE_KINDS}")
        if self.fixed_budget is not None and self.fixed_budget not in BUDGET_SET:
            raise ValueError(f"fixed_budget must be in {BUDGET_SET}")


def dijkstra_to(snapshot: GraphSnapshot, dst: int,
                targets: dict[int, float] | None = None) -> dict[int, float]:
    """Distance-to-destination (km) over the available directed edges.

    Without ``targets`` the search runs to the end and the result holds
    every reachable node, in the order each first got a label.

    ``targets`` maps each open neighbor of a deciding node to the length of
    the link into it.  The search then stops at the first pop, at distance
    ``d``, where every unsettled target ``q`` has ``(d + km_q, q)`` greater
    than the best settled ``(label + km, node)``: pops never decrease, so
    no unsettled target can still reach a lower total or win a tie.  The
    result holds only the settled targets, each with the label the full
    search gives it, bit for bit; an unreachable target is never settled.
    """
    in_ports = snapshot.in_ports
    link_km = snapshot.link_km()
    pop, push = heapq.heappop, heapq.heappush
    label = [math.inf] * len(in_ports)
    label[dst] = 0.0
    heap = [(0.0, dst)]
    if targets is None:
        # ``label`` is the working copy the loop reads; the dict is the
        # result, holding labelled nodes in the order they got one.
        dist = {dst: 0.0}
        while heap:
            d, node = pop(heap)
            if d > label[node]:
                continue
            for src, cell in in_ports[node]:
                nd = d + link_km[cell]
                if nd < label[src] - 1e-12:
                    label[src] = dist[src] = nd
                    push(heap, (nd, src))
        return dist
    left = dict(targets)
    settled: dict[int, float] = {}
    best: tuple[float, int] | None = None
    km_min = math.inf  # the shortest link into a target still in ``left``
    while heap:
        d, node = pop(heap)
        if d > label[node]:
            continue
        if node in left:
            km = left.pop(node)
            settled[node] = d
            if best is None or (d + km, node) < best:
                best = (d + km, node)
            km_min = min(left.values(), default=math.inf)
        if best is not None:
            # Float addition is monotone, so d + km_min bounds every unsettled
            # target's total; only an exact tie needs the per-target check.
            bound = d + km_min
            if bound > best[0] or (bound == best[0] and all(
                    (d + k, q) > best for q, k in left.items())):
                break
        for src, cell in in_ports[node]:
            nd = d + link_km[cell]
            if nd < label[src] - 1e-12:
                label[src] = nd
                push(heap, (nd, src))
    return settled


def shortest_path_next_hop(snapshot: GraphSnapshot, current: int, dst: int) -> int | None:
    """Port of the first hop of a minimum-propagation-delay path, or None.

    Recomputed on the given snapshot, by a search that stops once no open
    neighbor can beat the best one found.  Ties break toward the lowest
    neighbor node index.
    """
    if current == dst:
        raise ValueError("already at the destination")
    link_km, dst_cells = snapshot.link_km(), snapshot.dst_cells
    # On the +Grid each port of a node leads to a different neighbor, so the
    # neighbor names the port.
    targets: dict[int, float] = {}
    port_of: dict[int, int] = {}
    base = current * NUM_PORTS
    for p in range(NUM_PORTS):
        km = link_km[base + p]
        if km != math.inf:
            nxt = dst_cells[base + p]
            targets[nxt] = km
            port_of[nxt] = p
    best: tuple[float, int] | None = None
    for nxt, label in dijkstra_to(snapshot, dst, targets).items():
        cand = (targets[nxt] + label, nxt)
        if best is None or cand < best:
            best = cand
    return port_of[best[1]] if best else None


class _FixedSemantics:
    """Mixin providing the frozen budget/relay part of a baseline action:
    the spec's budget (128 by default), relays only forward."""

    def __init__(self, spec: BaselineSpec):
        self.spec = spec
        budget = spec.fixed_budget if spec.fixed_budget is not None else BUDGET_MAX
        self._budget_idx = BUDGET_SET.index(budget)

    def _joint(self, hop: int) -> JointAction:
        return JOINT_ACTIONS[hop][self._budget_idx][MODE_FORWARD]


class ShortestPathController(_FixedSemantics):
    def decide(self, view: DecisionView) -> JointAction:
        port = shortest_path_next_hop(view.snapshot, view.session.node, view.session.dst)
        if port is None:
            # Destination unreachable on this snapshot; fall back to any
            # open port rather than inventing a drop the engine cannot see.
            port = int(np.flatnonzero(view.mask)[0])
        return self._joint(port)


class GreedyQueueController(_FixedSemantics):
    """Pick the open port minimizing residual distance plus queue pressure.

    Already-visited neighbors are avoided while a fresh one exists;
    distance-greedy rules ping-pong on a torus otherwise.
    """

    def decide(self, view: DecisionView) -> JointAction:
        snap, node, dst = view.snapshot, view.session.node, view.session.dst
        here = snap.distance_km(node, dst)
        visited = set(view.session.hop_trace)
        best: tuple[float, int, int] | None = None
        best_fresh: tuple[float, int, int] | None = None
        cell = node * NUM_PORTS
        for p, (nxt, up) in enumerate(zip(snap.dst_cells[cell:cell + NUM_PORTS],
                                          view.mask.tolist())):
            if not up:
                continue
            progress = snap.distance_km(nxt, dst) / max(here, 1e-9)
            score = progress + float(view.occupancy[node, p]) / view.q_max
            cand = (score, nxt, p)
            if best is None or cand < best:
                best = cand
            if nxt not in visited and (best_fresh is None or cand < best_fresh):
                best_fresh = cand
        pick = best_fresh if best_fresh is not None else best
        return self._joint(pick[2])


class RandomController(_FixedSemantics):
    def __init__(self, spec: BaselineSpec, rng: np.random.Generator):
        super().__init__(spec)
        self.rng = rng

    def decide(self, view: DecisionView) -> JointAction:
        open_ports = np.flatnonzero(view.mask)
        port = int(open_ports[self.rng.integers(len(open_ports))])
        return self._joint(port)


_BUDGET_MAX_IDX = BUDGET_SET.index(BUDGET_MAX)


class NoSourceCPolicyController(PolicyController):
    """Learned policy with the source budget pinned to the maximum."""

    def adjust_action(self, view: DecisionView, action: JointAction) -> JointAction:
        if view.session.decision_count == 0:
            return JOINT_ACTIONS[action.hop][_BUDGET_MAX_IDX][action.relay]
        return action


class NoRelayPolicyController(PolicyController):
    """Learned policy with relay processing disabled everywhere.

    An optional pinned source budget supports the fixed-C variant.
    """

    def __init__(self, *args, fixed_budget: int | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._budget_idx = None if fixed_budget is None else BUDGET_SET.index(fixed_budget)

    def adjust_action(self, view: DecisionView, action: JointAction) -> JointAction:
        budget_idx = action.budget_idx
        if view.session.decision_count == 0 and self._budget_idx is not None:
            budget_idx = self._budget_idx
        return JOINT_ACTIONS[action.hop][budget_idx][MODE_FORWARD]


def make_baseline_controller(spec: BaselineSpec, rng: np.random.Generator | None = None,
                             params: PolicyParams | None = None):
    """Instantiate the controller for a baseline spec.

    Policy-derived variants act greedily and need checkpoint parameters;
    the heuristic kinds ignore them.  Only the random kind draws from
    ``rng``, and needs one; every other kind keeps no per-episode state.
    """
    if spec.kind == "shortest_path":
        return ShortestPathController(spec)
    if spec.kind == "greedy_queue":
        return GreedyQueueController(spec)
    if spec.kind == "random":
        if rng is None:
            raise ValueError("baseline random requires an rng")
        return RandomController(spec, rng)
    if params is None:
        raise ValueError(f"baseline {spec.kind} requires policy parameters")
    if spec.kind == "policy_no_source_c":
        return NoSourceCPolicyController(params)
    if spec.kind == "policy_no_relay":
        return NoRelayPolicyController(params, fixed_budget=spec.fixed_budget)
    raise ValueError(f"unhandled baseline kind {spec.kind}")
