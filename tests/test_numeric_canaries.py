"""Canaries for the numpy facts the bit-exact slot state and acting rely on.

Each assertion names the assumption it pins, so a numpy upgrade that
breaks one fails here by name instead of as a byte mismatch elsewhere.
"""
import math

import numpy as np
import pytest

from leosem import policy
from leosem.agent import FEATURE_DIM
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


# Slot state is computed for a block of slots at once, one ufunc call per
# quantity over a leading slot axis; a snapshot reads one row.  The bits
# hold only if each elementwise call rounds a value the same whatever the
# array's shape and the value's place in it (SIMD body or tail).
ROW_UFUNCS = {
    "np.cos": (np.cos, (-10.0, 1e4)),
    "np.sin": (np.sin, (-10.0, 1e4)),
    "np.log10": (np.log10, (1e-3, 1e4)),
    "10.0 ** x": (lambda x: 10.0 ** x, (-30.0, 30.0)),
    "np.log2": (np.log2, (1.0, 1e7)),
    "np.sqrt": (np.sqrt, (0.0, 1e14)),
}


@pytest.mark.parametrize("name", sorted(ROW_UFUNCS))
def test_elementwise_call_gives_a_block_row_the_bits_of_the_row_alone(name):
    func, (lo, hi) = ROW_UFUNCS[name]
    rng = np.random.default_rng(31)
    for cols in (1, 3, 7, 9, 36, 70, 97, 280):
        block = rng.uniform(lo, hi, (16, cols))
        whole = func(block)
        for k in range(len(block)):
            alone, one_row = func(block[k].copy()), func(block[k:k + 1].copy())
            assert whole[k].tobytes() == alone.tobytes() == one_row[0].tobytes(), \
                f"{name} rounds row {k} of a (16, {cols}) array differently from the row alone"


@pytest.mark.parametrize("shape", [(16, 9), (128, 9), (16, 36), (5, 64), (128, 64)])
def test_exp_gives_a_batch_row_the_bits_of_the_row_alone(shape):
    # policy.act exponentiates one state's logits and scores as a list of
    # floats; the batched forward exponentiates the (B, K) array at once.
    rng = np.random.default_rng(41)
    for _ in range(200):
        batch = rng.uniform(-40.0, 10.0, shape) * 10.0 ** rng.integers(-3, 1, (shape[0], 1))
        whole = np.exp(batch)
        for k, row in enumerate(batch):
            alone, listed, one_row = np.exp(row.copy()), np.exp(row.tolist()), np.exp(batch[k:k + 1])
            assert whole[k].tobytes() == alone.tobytes() == listed.tobytes() \
                == one_row[0].tobytes(), \
                f"np.exp rounds row {k} of a {shape} array differently from the row alone"


def test_vecdot_gives_a_block_row_the_bits_of_the_row_alone():
    rng = np.random.default_rng(37)
    for links in (1, 4, 9, 36, 280):
        delta = rng.normal(size=(16, links, 3)) * 10.0 ** rng.integers(-3, 5, (16, links, 1))
        whole = np.vecdot(delta, delta)
        for k in range(len(delta)):
            alone = np.vecdot(delta[k].copy(), delta[k].copy())
            assert whole[k].tobytes() == alone.tobytes(), \
                f"np.vecdot rounds row {k} of a (16, {links}, 3) array differently from the row alone"


@pytest.mark.parametrize("slot_length_s", [0.1, 0.05, 0.25, 1.0 / 3.0, 0.001, 0.7])
def test_block_times_equal_the_engines_slot_times(slot_length_s):
    # The engine reads slot ``slot`` at ``slot * slot_length_s`` (Python int
    # times float); a block's times are np.arange(first, first + K) times
    # the same float, so each must be the same double.
    for first in list(range(0, 2000, 16)) + [16 * 62_500, 16 * 4_000_000]:
        times = (np.arange(first, first + 16) * slot_length_s).tolist()
        assert times == [slot * slot_length_s for slot in range(first, first + 16)], \
            f"np.arange({first}, {first + 16}) * {slot_length_s} differs from slot * slot_length_s"


@pytest.mark.parametrize("features, hidden", [(FEATURE_DIM, 64), (FEATURE_DIM, 8), (6, 4)])
def test_ndarray_dot_gives_the_bits_of_matmul_at_the_actors_shapes(features, hidden):
    # policy.act calls ndarray.dot for the attention products, where it
    # used @ (and gat.forward still does): (M, F) x (F, H), (M, H) x the
    # actor's (H, 2) transposed view of the attention vector, and
    # (M,) x (M, H), for the M = 1..5 members of a subgraph.  The trunk's
    # (1, S) x (S, D) and (1, D) x (D, D) rows and the (1, D) x (D, 10) head
    # row used np.dot, as policy.forward does.  act writes each product into
    # a buffer of the Actor's with out=, adds each bias with +=, applies
    # tanh in place and writes the ELU into the trunk row; each must give
    # the bits of the allocating form.
    rng = np.random.default_rng(43)
    # The default network: H = 64, trunk width 128, head row of 10.
    trunk, heads = 2 * hidden, sum(policy.HEAD_SIZES) + 1
    for _ in range(60):
        w = spread_rows(rng, features, hidden)
        attn2 = spread_rows(rng, 1, 2 * hidden).reshape(2, hidden).T
        for m in range(1, NUM_PORTS + 2):
            x = spread_rows(rng, m, features)
            z = x.dot(w)
            assert z.tobytes() == (x @ w).tobytes(), \
                f"({m}, {features}).dot(({features}, {hidden})) differs from @"
            assert x.dot(w, out=np.empty((m, hidden))).tobytes() == z.tobytes(), \
                f"({m}, {features}).dot(({features}, {hidden}), out=) differs from dot"
            scores = z.dot(attn2)
            assert scores.tobytes() == (z @ attn2).tobytes(), \
                f"({m}, {hidden}).dot(({hidden}, 2) transposed view) differs from @"
            assert z.dot(attn2, out=np.empty((m, 2))).tobytes() == scores.tobytes(), \
                f"({m}, {hidden}).dot(({hidden}, 2) transposed view, out=) differs from dot"
            weights = rng.random(m)
            assert weights.dot(z).tobytes() == (weights @ z).tobytes(), \
                f"({m},).dot(({m}, {hidden})) differs from @"
            assert weights.dot(z, out=np.empty(hidden)).tobytes() == (weights @ z).tobytes(), \
                f"({m},).dot(({m}, {hidden}), out=) differs from @"
        # The ELU's min(agg, 0) takes an array of zeros in place of 0.0;
        # signed zeros and NaNs must come out as they did.
        agg = spread_rows(rng, 1, hidden)[0]
        agg[rng.random(hidden) < 0.1] = -0.0
        agg[rng.random(hidden) < 0.1] = np.nan
        assert np.minimum(agg, np.zeros(hidden), out=np.empty(hidden)).tobytes() \
            == np.minimum(agg, 0.0).tobytes(), "np.minimum with zeros differs from with 0.0"
        row = spread_rows(rng, 1, features + hidden)
        for width in (trunk, trunk, heads):
            mat, bias = spread_rows(rng, row.shape[1], width), spread_rows(rng, 1, width)
            plain = row.dot(mat)
            assert plain.tobytes() == np.dot(row, mat).tobytes(), "ndarray.dot differs from np.dot"
            into = row.dot(mat, out=np.empty((1, width)))
            assert into.tobytes() == plain.tobytes(), \
                f"(1, {row.shape[1]}).dot(({row.shape[1]}, {width}), out=) differs from dot"
            # The parameters hold each bias as a vector; the Actor adds a
            # (1, n) view of it, which needs no broadcasting.
            biased = plain + bias[0]
            into += bias
            assert into.tobytes() == biased.tobytes(), \
                f"(1, {width}) += (1, {width}) bias differs from + ({width},) bias"
            if width == heads:
                break
            # Spread values mostly saturate tanh; a trunk's pre-activations
            # lie within a few units of zero.
            moderate = rng.normal(size=(1, width)) * 3.0
            for pre in (into, moderate):
                activated = np.tanh(pre)
                assert np.tanh(pre, out=pre).tobytes() == activated.tobytes(), \
                    f"np.tanh in place on (1, {width}) differs from np.tanh"
            row = into


def test_take_with_index_minus_one_reads_the_last_entry_as_fancy_indexing_does():
    # agent._feature_rows gathers each member's neighbours with take and
    # reads the revisit flag of an absent port (index -1) from the False
    # sentinel past the last node.
    con = build_constellation(ConstellationConfig(num_planes=3, sats_per_plane=4))
    dst = con.snapshot(0.0).dst.copy()
    dst[np.random.default_rng(47).random(dst.shape) < 0.3] = -1
    assert (dst == -1).any()
    visited = np.zeros(len(dst) + 1, dtype=bool)
    visited[[0, 5, 7]] = True
    for idx in ([0], [3, 1, 2], [11, 0, 4, 8, 9], [2, 2]):
        rows = dst.take(np.array(idx), axis=0)
        assert rows.tobytes() == dst[np.array(idx)].tobytes(), "take(axis=0) differs from dst[idx]"
        assert visited.take(rows).tobytes() == visited[rows].tobytes(), \
            "take with a -1 index differs from fancy indexing"
    assert not visited.take(np.array([-1]))[0]


@pytest.mark.parametrize("q_max", [1, 3, 12, 600, 7919])
def test_int_division_on_a_temporary_equals_division_into_a_strided_view(q_max):
    # agent._feature_rows divides the (M, 4) int64 occupancy by the int
    # q_max on a contiguous temporary and copies the result into its
    # columns; it used to divide straight into a strided column view.
    rng = np.random.default_rng(53)
    occupancy = rng.integers(0, q_max + 1, (70, NUM_PORTS), dtype=np.int64)
    for m in range(1, NUM_PORTS + 2):
        idx = rng.integers(0, len(occupancy), m)
        out = np.zeros((m, FEATURE_DIM))
        strided = np.divide(occupancy[idx], q_max, out=out[:, 0:NUM_PORTS])
        temporary = occupancy.take(idx, axis=0) / q_max
        assert temporary.flags.c_contiguous and np.shares_memory(strided, out)
        assert temporary.tobytes() == np.ascontiguousarray(strided).tobytes(), \
            f"int64 ({m}, 4) / {q_max} on a temporary differs from division into a strided view"
