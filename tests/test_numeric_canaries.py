"""Canaries for the numpy facts the bit-exact slot state and acting rely on.

Each assertion names the assumption it pins, so a numpy upgrade that
breaks one fails here by name instead of as a byte mismatch elsewhere.
"""
import math

import numpy as np
import pytest

from leosem import policy
from leosem.constellation import NUM_PORTS, ConstellationConfig, build_constellation


def test_sqrt_of_1d_dot_rounds_like_norm_and_vecdot_rows():
    # GraphSnapshot.distance_km computes one pair as math.sqrt(d.dot(d)); the
    # snapshot's link lengths and the observation's unit vectors come from
    # np.sqrt(np.vecdot(D, D)) rows, and the reference uses np.linalg.norm.
    rng = np.random.default_rng(17)
    con = build_constellation(ConstellationConfig())
    pos = np.concatenate([con.positions_at(t) for t in rng.uniform(0, 6000, 40)])
    deltas = np.concatenate([pos - pos[rng.integers(len(pos), size=len(pos))],
                             rng.normal(size=(4000, 3)) * 10.0 ** rng.integers(-3, 5, (4000, 1))])
    rows = np.sqrt(np.vecdot(deltas, deltas))
    pair = np.array([math.sqrt(d.dot(d)) for d in deltas])
    matmul = np.array([math.sqrt(d @ d) for d in deltas])
    norm = np.array([np.linalg.norm(d) for d in deltas])
    assert pair.tobytes() == norm.tobytes(), "math.sqrt(d.dot(d)) differs from np.linalg.norm(d)"
    assert pair.tobytes() == rows.tobytes(), \
        "math.sqrt(d.dot(d)) differs from row i of np.sqrt(np.vecdot(D, D))"
    assert matmul.tobytes() == pair.tobytes(), "math.sqrt(d @ d) differs from math.sqrt(d.dot(d))"


def per_call_positions(cfg: ConstellationConfig, time_s: float) -> np.ndarray:
    """``positions_at`` with every factor computed per call, as first written."""
    p, s = cfg.num_planes, cfg.sats_per_plane
    plane = np.repeat(np.arange(p), s)
    slot = np.tile(np.arange(s), p)
    raan = 2.0 * math.pi * plane / p
    phase0 = 2.0 * math.pi * slot / s + 2.0 * math.pi * cfg.phasing_factor * plane / (p * s)
    inc = math.radians(cfg.inclination_deg)
    u = phase0 + cfg.mean_motion_rad_s * time_s
    r = cfg.orbit_radius_km
    cu, su = np.cos(u), np.sin(u)
    cr, sr = np.cos(raan), np.sin(raan)
    ci, si = math.cos(inc), math.sin(inc)
    x = r * (cr * cu - sr * ci * su)
    y = r * (sr * cu + cr * ci * su)
    z = r * (si * su)
    return np.stack([x, y, z], axis=1)


@pytest.mark.parametrize("cfg", [
    ConstellationConfig(),
    ConstellationConfig(num_planes=3, sats_per_plane=3, inclination_deg=87.9, phasing_factor=2),
], ids=["10x7", "3x3_polar"])
def test_hoisted_plane_factors_give_the_per_call_positions(cfg):
    # positions_at multiplies by (sin(raan) * cos(inc)) and (cos(raan) *
    # cos(inc)) computed once per constellation; the grouping is the one
    # the per-call formula evaluates left to right, so the bytes agree.
    con = build_constellation(cfg)
    times = np.concatenate([np.arange(0.0, 60.0, 0.1),
                            np.random.default_rng(5).uniform(0, 1e5, 400)])
    for t in times.tolist():
        assert con.positions_at(t).tobytes() == per_call_positions(cfg, t).tobytes(), \
            f"hoisted plane factors moved the positions at t={t}"


def spread_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Values over many magnitudes, some zero, so sums in different orders
    round differently on many rows."""
    x = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 9, (rows, cols))
    x[rng.random((rows, cols)) < 0.05] = 0.0
    return x


def test_np_sum_adds_a_short_1d_array_left_to_right():
    # policy.act sums a subgraph's (at most 1 + NUM_PORTS) attention weights
    # in a Python loop, left to right, where gat.forward calls
    # exp.sum(axis=1) on (B, M) rows; the two agree only if numpy adds a
    # short row left to right (it adds 8 or more values pairwise).
    rng = np.random.default_rng(23)
    for m in range(1, NUM_PORTS + 2):
        x = spread_rows(rng, 4000, m)
        left_to_right, reverse = [], []
        for row in x.tolist():
            total = 0.0
            for v in row:
                total += v
            left_to_right.append(total)
            total = 0.0
            for v in reversed(row):
                total += v
            reverse.append(total)
        ones = [float(np.sum(row)) for row in x]
        assert ones == left_to_right, f"np.sum no longer adds {m} values left to right"
        assert x.sum(axis=1).tolist() == left_to_right, \
            f"(B, {m}).sum(axis=1) no longer adds each row left to right"
        if m >= 3:
            assert left_to_right != reverse  # the data tells the orders apart


def test_add_reduceat_adds_first_value_to_the_sum_of_the_rest():
    # policy.act writes each head's log-sum-exp as e0 + ((e1 + e2) + e3),
    # the order np.add.reduceat gives in masked_log_softmax; a plain left to
    # right sum ((e0 + e1) + e2) + e3 rounds differently on many rows.
    starts, _ = policy._segments(policy.HEAD_SIZES)
    assert starts.tolist() == [0, 4, 7] and sum(policy.HEAD_SIZES) == 9
    e = spread_rows(np.random.default_rng(29), 20000, 9)
    got = np.add.reduceat(e, starts, axis=-1).tolist()
    first_plus_rest, left_to_right = [], []
    for r in e.tolist():
        first_plus_rest.append([r[0] + ((r[1] + r[2]) + r[3]), r[4] + (r[5] + r[6]),
                                r[7] + r[8]])
        left_to_right.append([((r[0] + r[1]) + r[2]) + r[3], (r[4] + r[5]) + r[6],
                              r[7] + r[8]])
    assert got == first_plus_rest, \
        "np.add.reduceat no longer adds a segment's first value to the left-to-right " \
        "sum of the rest"
    assert first_plus_rest != left_to_right  # the data tells the orders apart
