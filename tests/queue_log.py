"""The per-slot queue log of one engine, read back from its event trace.

A trace fixes every send queue's occupancy at every event: a queue grows
only on ``enqueue``, by the event's ``chunks``, and shrinks only on
``service_start``, by the chunks that session enqueued (a session has at
most one group queued).  Binned by slot, the counts obey the engine's
queue law ``q_end == step_queue(q_start, departures, arrivals, q_max)``.
"""
from collections import Counter

import numpy as np


def queue_log(events) -> list[tuple[int, int, int, int, int, int, int]]:
    """``(slot, node, port, q_start, arrivals, departures, q_end)`` rows.

    ``events`` is one engine's trace from its start.  Each slot, the
    current one last, has a row for every queue that held chunks at the
    slot's start or took or sent chunks during it, in (node, port) order.
    """
    rows = []
    occ, q_start, arrivals, departures = Counter(), Counter(), Counter(), Counter()
    queued: dict[int, int] = {}  # session -> chunks of its queued group
    slot = 0

    def flush():
        for key in sorted(q_start.keys() | arrivals.keys() | departures.keys()):
            row = (q_start[key], arrivals[key], departures[key])
            if any(row):
                rows.append((slot, *key, *row, occ[key]))

    for ev in events:
        kind = ev["ev"]
        if kind == "slot":
            flush()
            slot = ev["slot"]
            q_start, arrivals, departures = Counter(occ), Counter(), Counter()
        elif kind == "enqueue":
            key = (ev["node"], ev["port"])
            chunks = queued[ev["session"]] = ev["chunks"]
            occ[key] += chunks
            arrivals[key] += chunks
        elif kind == "service_start":
            key = (ev["node"], ev["port"])
            chunks = queued.pop(ev["session"])
            occ[key] -= chunks
            departures[key] += chunks
    flush()
    return rows


def occupancy(rows, slot: int, shape) -> np.ndarray:
    """Chunks per queue at the end of ``slot``, the log's last slot."""
    occ = np.zeros(shape, dtype=np.int64)
    for row_slot, node, port, *_, q_end in rows:
        if row_slot == slot:
            occ[node, port] = q_end
    return occ
