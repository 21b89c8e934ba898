"""The bounded next-hop search checked against the full search.

``EarlyExitChecker`` routes like the shortest-path baseline and, at every
decision, runs the full ``dijkstra_to`` beside the bounded one: each label
the bounded search settles must have the full search's bytes, and the port
must be the one the full labels pick, the least ``(km + label, neighbor)``
over the open ports.
"""
import numpy as np

from leosem.baselines import (BaselineSpec, ShortestPathController, dijkstra_to,
                              shortest_path_next_hop)


class EarlyExitChecker(ShortestPathController):
    """Shortest-path routing that checks each decision against the full search."""

    def __init__(self):
        super().__init__(BaselineSpec(kind="shortest_path"))
        self.decisions = 0
        self.partial = 0  # decisions whose search left a reachable target unsettled

    def decide(self, view):
        snap, node, dst = view.snapshot, view.session.node, view.session.dst
        full = dijkstra_to(snap, dst)
        row = [(p, int(snap.dst[node, p]), float(snap.dist_km[node, p]))
               for p in range(len(view.mask)) if snap.avail[node, p]]
        targets = {nxt: km for _, nxt, km in row}
        bounded = dijkstra_to(snap, dst, targets)
        assert set(bounded) <= set(targets)
        for nxt, label in bounded.items():
            assert np.float64(label).tobytes() == np.float64(full[nxt]).tobytes()
        best = min(((km + full[nxt], nxt, p) for p, nxt, km in row if nxt in full),
                   default=None)
        assert shortest_path_next_hop(snap, node, dst) == (best[2] if best else None)
        self.decisions += 1
        self.partial += any(nxt in full and nxt not in bounded for nxt in targets)
        return super().decide(view)
