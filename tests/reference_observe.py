"""Per-edge reference for the array snapshot, the observation and Dijkstra.

This is the object-per-edge implementation the array code replaced: one
``RefEdge`` per directed +Grid link with a Python ``np.linalg.norm`` each,
and an observation built one node and one port at a time with scalar
numpy calls.  Tests require the array code to reproduce it bit for bit.
"""
import heapq
import math
from dataclasses import dataclass

import numpy as np

from leosem.agent import NET_BLOCK_DIM, PKT_BLOCK_DIM, FEATURE_DIM, SNR_NORM_HI_DB, \
    SNR_NORM_LO_DB
from leosem.constellation import NUM_PORTS


@dataclass(frozen=True)
class RefEdge:
    src: int
    dst: int
    port: int
    distance_km: float
    available: bool
    snr_db: float = math.nan
    rate_bps: float = math.nan


@dataclass
class RefSnapshot:
    positions: np.ndarray
    edges: list[RefEdge]

    def __post_init__(self):
        self.by_src_port = {(e.src, e.port): e for e in self.edges}

    def edge(self, node, port):
        return self.by_src_port.get((node, port))


def snapshot(con, time_s, channel=None) -> RefSnapshot:
    """Every +Grid link at ``time_s``, one object per directed edge."""
    positions = con.positions_at(time_s)
    dists = np.array(
        [np.linalg.norm(positions[a] - positions[b]) for a, b, _ in con.edge_index]
    )
    if channel is not None:
        # The channel is built on ``con.edge_index``: its arrays follow that order.
        channel.advance_to_slot(channel.slot_of(time_s))
        avail = channel.available
        snrs = channel.snr_now(dists)
        rates = channel.rate_array(snrs)
    else:
        avail = np.ones(len(con.edge_index), dtype=bool)
        snrs = np.full(len(con.edge_index), math.nan)
        rates = np.full(len(con.edge_index), math.nan)
    edges = [
        RefEdge(src=a, dst=b, port=port, distance_km=float(dists[k]),
                available=bool(avail[k]), snr_db=float(snrs[k]), rate_bps=float(rates[k]))
        for k, (a, b, port) in enumerate(con.edge_index)
    ]
    return RefSnapshot(positions=positions, edges=edges)


def _snr_norm(snr_db):
    return float(np.clip((snr_db - SNR_NORM_LO_DB) / (SNR_NORM_HI_DB - SNR_NORM_LO_DB),
                         0.0, 1.0))


def _wrap_delta(raw, n):
    if n <= 1:
        return 0.0
    d = raw % n
    if d > n / 2:
        d -= n
    return d / max(n // 2, 1)


def node_features(view, snap: RefSnapshot, node):
    """The feature vector of one node, port by port."""
    session = view.session
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
    p_n, s_n = divmod(node, cfg.sats_per_plane)
    p_d, s_d = divmod(session.dst, cfg.sats_per_plane)
    out[14] = _wrap_delta(p_d - p_n, cfg.num_planes)
    out[15] = _wrap_delta(s_d - s_n, cfg.sats_per_plane)
    out[16] = session.ttl_remaining / view.ttl_max

    out[29] = session.sem.budget_c / 128.0
    out[30] = 1.0 - math.exp(-session.sem.accum_distortion)
    out[31] = min(1.0, session.sem.hops_since_process / view.ttl_max)
    return out


def observe(view, snap: RefSnapshot):
    """Center row, subgraph rows with member ids, and the hop mask."""
    node = view.session.node
    center = node_features(view, snap, node)
    rows, members = [center], [node]
    mask = np.zeros(NUM_PORTS, dtype=bool)
    for p in range(NUM_PORTS):
        edge = snap.edge(node, p)
        if edge is not None and edge.available:
            mask[p] = True
            rows.append(node_features(view, snap, edge.dst))
            members.append(edge.dst)
    return center, np.stack(rows), tuple(members), mask


def dijkstra_to(snap: RefSnapshot, dst):
    """Distance-to-destination (km) over the available directed edges."""
    in_edges = {}
    for e in snap.edges:
        if e.available:
            in_edges.setdefault(e.dst, []).append(e)
    dist = {dst: 0.0}
    heap = [(0.0, dst)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        for e in in_edges.get(node, []):
            nd = d + e.distance_km
            if nd < dist.get(e.src, math.inf) - 1e-12:
                dist[e.src] = nd
                heapq.heappush(heap, (nd, e.src))
    return dist
