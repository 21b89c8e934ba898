import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leosem.channel import ChannelConfig, ChannelModel
from leosem.constellation import (ConstellationConfig, build_constellation,
                                  grid_hop_distance)


def test_build_counts_paper_scale():
    con = build_constellation(ConstellationConfig(num_planes=10, sats_per_plane=7))
    assert con.cfg.num_sats == 70
    dst = con.snapshot(0.0).dst
    assert dst.shape == (70, 4) and (dst >= 0).all()


def test_single_satellite_degenerate():
    con = build_constellation(ConstellationConfig(num_planes=1, sats_per_plane=1))
    assert con.cfg.num_sats == 1
    snap = con.snapshot(0.0)
    assert snap.dst.shape == (1, 4) and (snap.dst == -1).all()
    assert not snap.avail.any()


def test_two_by_two_adjacency_by_hand():
    # 2 planes x 2 sats: the +1/-1 directions coincide, so each node keeps
    # one intra-plane and one inter-plane neighbor.
    con = build_constellation(ConstellationConfig(num_planes=2, sats_per_plane=2))
    assert con.cfg.num_sats == 4
    dst = con.snapshot(0.0).dst
    for node in range(4):
        neighbors = set(dst[node].tolist()) - {-1}
        assert len(neighbors) <= 4
        assert len(neighbors) == 2
    # node 0 = (plane 0, slot 0): intra -> node 1, inter -> node 2
    assert dst[0].tolist() == [1, -1, 2, -1]


def test_constellations_of_one_shape_share_one_edge_index():
    # The link list is a per-shape constant; a copy per constellation cost
    # about 17.5 KiB on the 10x7 shell, and every episode builds one.
    a, b = (build_constellation(ConstellationConfig(num_planes=10, sats_per_plane=7, altitude_km=h))
            for h in (570.0, 800.0))
    assert a.edge_index is b.edge_index and isinstance(a.edge_index, tuple)
    assert len(a.edge_index) == 280
    dst = a.snapshot(0.0).dst
    assert list(a.edge_index) == [(src, int(dst[src, port]), port)
                                  for src in range(70) for port in range(4)]
    other = build_constellation(ConstellationConfig(num_planes=2, sats_per_plane=2))
    assert other.edge_index == ((0, 1, 0), (0, 2, 2), (1, 0, 0), (1, 3, 2),
                                (2, 3, 0), (2, 0, 2), (3, 2, 0), (3, 1, 2))


@pytest.mark.parametrize("kwargs", [
    dict(num_planes=0), dict(sats_per_plane=0),
    dict(altitude_km=0.0), dict(inclination_deg=200.0),
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        ConstellationConfig(**kwargs)


def test_position_radius_default_shell():
    con = build_constellation(ConstellationConfig())
    pos = con.positions_at(0.0)
    for sat in (0, 13, 69):
        assert np.linalg.norm(pos[sat]) == pytest.approx(6371.0 + 570.0, rel=1e-12)


def test_position_periodicity():
    cfg = ConstellationConfig()
    con = build_constellation(cfg)
    t0, t1 = 123.0, 123.0 + cfg.period_s
    for sat in (0, 35):
        a = con.positions_at(t0)[sat]
        b = con.positions_at(t1)[sat]
        assert np.linalg.norm(a - b) < 1e-6


def test_quarter_period_rotates_ninety_degrees():
    cfg = ConstellationConfig()
    con = build_constellation(cfg)
    a = con.positions_at(0.0)[3]
    b = con.positions_at(cfg.period_s / 4.0)[3]
    # Circular orbit: quarter period => orthogonal position vectors.
    assert abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b)) < 1e-9
    assert np.linalg.norm(b) == pytest.approx(cfg.orbit_radius_km, rel=1e-12)


def test_snapshot_four_ports_everywhere_no_failures():
    con = build_constellation(ConstellationConfig(num_planes=10, sats_per_plane=7))
    snap = con.snapshot(17.3)
    assert (snap.avail.sum(axis=1) == 4).all()
    assert (snap.dst[snap.avail] != np.nonzero(snap.avail)[0]).all()  # no self-links


def test_snapshot_distance_symmetry_exact():
    con = build_constellation(ConstellationConfig(num_planes=4, sats_per_plane=5))
    snap = con.snapshot(42.0)
    dist = {(int(a), int(snap.dst[a, p])): snap.dist_km[a, p]
            for a, p in np.argwhere(snap.avail)}
    assert len(dist) == 4 * 5 * 4
    for (a, b), d in dist.items():
        assert dist[(b, a)] == d  # exactly symmetric


def test_snapshot_all_links_failed_empty_edge_set():
    con = build_constellation(ConstellationConfig(num_planes=3, sats_per_plane=3))
    ch = ChannelModel(ChannelConfig(failure_rate=1.0), con.edge_index, seed=1)
    snap = con.snapshot(0.0, ch)
    assert (snap.dst >= 0).sum() == 9 * 4
    assert not snap.avail.any()


def test_snapshot_repeat_call_identical():
    con = build_constellation(ConstellationConfig(num_planes=3, sats_per_plane=3))
    ch = ChannelModel(ChannelConfig(failure_rate=0.05), con.edge_index, seed=7)
    s1 = con.snapshot(0.5, ch)
    s2 = con.snapshot(0.5, ch)
    for name in ("dst", "avail", "dist_km", "snr_db", "rate_bps"):
        assert getattr(s1, name).tobytes() == getattr(s2, name).tobytes()


def _strongly_connected(con) -> bool:
    snap = con.snapshot(0.0)
    fwd, rev = {}, {}
    for a, p in np.argwhere(snap.avail):
        b = int(snap.dst[a, p])
        fwd.setdefault(int(a), []).append(b)
        rev.setdefault(b, []).append(int(a))
    n = con.cfg.num_sats

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj.get(stack.pop(), []):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == n

    return reach(fwd) and reach(rev)


@pytest.mark.parametrize("p,s", [(3, 3), (3, 5), (4, 3), (5, 4)])
def test_grid_strongly_connected(p, s):
    assert _strongly_connected(build_constellation(
        ConstellationConfig(num_planes=p, sats_per_plane=s)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(p=st.integers(1, 8), s=st.integers(1, 8))
def test_node_count_property(p, s):
    con = build_constellation(ConstellationConfig(num_planes=p, sats_per_plane=s))
    assert con.cfg.num_sats == p * s
    assert len(con.plane) == p * s


def test_grid_hop_distance_wraps():
    cfg = ConstellationConfig(num_planes=3, sats_per_plane=3)
    assert grid_hop_distance(cfg, 0, 0) == 0
    assert grid_hop_distance(cfg, 0, 1) == 1       # same plane, next slot
    assert grid_hop_distance(cfg, 0, 8) == 2       # (0,0) -> (2,2) wraps to 1+1
