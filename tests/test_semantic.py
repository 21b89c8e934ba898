import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leosem import semantic
from leosem.semantic import (BUDGET_SET, CalibrationTable, QualityProxyConfig,
                             SemanticState, noise_factor, packetize, quality,
                             record_hop, relay_process)

CFG = QualityProxyConfig()


def make_state(**kwargs) -> SemanticState:
    defaults = dict(session_id=0, budget_c=128, hops_since_process=0,
                    accum_distortion=0.0, quant_penalties=0,
                    min_link_snr_db=math.inf)
    defaults.update(kwargs)
    return SemanticState(**defaults)


# ---------------------------------------------------------------- packetize

def test_packetize_full_budget_anchor():
    plan = packetize(1_117_200, 128)
    assert plan.num_chunks == 931
    assert plan.payload_bytes == 1_117_200


def test_packetize_half_budget_anchor():
    plan = packetize(1_117_200, 64)
    assert plan.num_chunks == 466
    assert plan.payload_bytes == 558_600


def test_packetize_mid_budget():
    plan = packetize(1_117_200, 96)
    assert plan.payload_bytes == 837_900
    assert plan.num_chunks == 699  # ceil(837900 / 1200)


def test_packetize_zero_payload():
    assert packetize(0, 128).num_chunks == 0


def test_packetize_invalid_budget():
    with pytest.raises(ValueError):
        packetize(1000, 100)


@pytest.mark.parametrize("args", [(1000, 100), (-1, 128), (1000, 128, 0)])
def test_packetize_raises_on_every_bad_call_and_shares_good_plans(args):
    # packetize is memoised: a call that raised must raise again, and a
    # repeated good call hands back the same frozen plan.
    for _ in range(3):
        with pytest.raises(ValueError):
            packetize(*args)
    assert packetize(1000, 64) is packetize(1000, 64)
    # 128 and 128.0 are equal keys to a plain cache; each keeps its own result.
    assert type(packetize(1000, 128.0).payload_bytes) is float
    assert type(packetize(1000, 128).payload_bytes) is int


@settings(max_examples=200, derandomize=True, deadline=None)
@given(latent=st.integers(0, 3_000_000), c=st.sampled_from(BUDGET_SET))
def test_packetize_proportionality_property(latent, c):
    plan = packetize(latent, c)
    assert plan.payload_bytes == (latent * c) // 128
    assert plan.num_chunks == -(-plan.payload_bytes // 1200)
    # Every chunk but the last is full, and the last holds at least a byte.
    assert (plan.num_chunks - 1) * 1200 < plan.payload_bytes <= plan.num_chunks * 1200 \
        or plan.num_chunks == plan.payload_bytes == 0


# ---------------------------------------------------------------- relay

def test_forward_mode_is_identity():
    state = make_state(accum_distortion=0.4, quant_penalties=2, hops_since_process=3)
    assert relay_process(state, 0, 96, CFG) == state


def test_process_mode_updates():
    state = make_state(accum_distortion=0.4, quant_penalties=1, hops_since_process=3)
    out = relay_process(state, 1, 128, CFG)
    assert out.quant_penalties == 2
    assert out.accum_distortion == pytest.approx(0.2)
    assert out.hops_since_process == 0
    assert out.budget_c == 128


def test_process_prunes_budget():
    out = relay_process(make_state(budget_c=128), 1, 64, CFG)
    assert out.budget_c == 64


def test_pruned_budget_never_regrows():
    state = make_state(budget_c=64)
    out = relay_process(state, 1, 128, CFG)
    assert out.budget_c == 64


def test_relay_invalid_args():
    with pytest.raises(ValueError):
        relay_process(make_state(), 2, 128, CFG)
    with pytest.raises(ValueError):
        relay_process(make_state(), 1, 100, CFG)


# ---------------------------------------------------------------- record_hop

def test_noise_factor_saturates_at_floor():
    assert noise_factor(1e9, CFG) == pytest.approx(CFG.noise_floor, abs=1e-9)


def test_two_equal_hops_double_the_increment():
    one = record_hop(make_state(), 5.0, CFG)
    two = record_hop(one, 5.0, CFG)
    assert two.accum_distortion == pytest.approx(2.0 * one.accum_distortion)
    assert two.hops_since_process == 2


def test_low_snr_hop_hurts_more():
    low = record_hop(make_state(), -10.0, CFG)
    high = record_hop(make_state(), 10.0, CFG)
    assert low.accum_distortion > high.accum_distortion


def test_min_snr_tracked():
    s = record_hop(make_state(), 12.0, CFG)
    s = record_hop(s, 3.0, CFG)
    s = record_hop(s, 8.0, CFG)
    assert s.min_link_snr_db == 3.0


# ---------------------------------------------------------------- quality

def test_total_degradation_kills_quality():
    assert quality(make_state(accum_distortion=1000.0, min_link_snr_db=30.0), CFG) \
        == pytest.approx(0.0, abs=1e-12)


def test_bigger_budget_never_worse():
    for snr in (-5.0, 3.0, 15.0):
        q128 = quality(make_state(budget_c=128, min_link_snr_db=snr), CFG)
        q64 = quality(make_state(budget_c=64, min_link_snr_db=snr), CFG)
        assert q128 >= q64


def test_quality_nondecreasing_in_snr_sweep():
    qs = [quality(make_state(min_link_snr_db=s, accum_distortion=0.2), CFG)
          for s in np.linspace(-5, 15, 41)]
    assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    budget=st.sampled_from(BUDGET_SET),
    dist=st.floats(0.0, 5.0),
    penalties=st.integers(0, 10),
    snr=st.floats(-20.0, 40.0),
    hops=st.integers(0, 16),
)
def test_quality_bounded_and_monotone(budget, dist, penalties, snr, hops):
    state = make_state(budget_c=budget, accum_distortion=dist,
                       quant_penalties=penalties, min_link_snr_db=snr,
                       hops_since_process=hops)
    q = quality(state, CFG)
    assert 0.0 <= q <= 1.0
    # one-step monotone perturbations
    assert quality(make_state(budget_c=budget, accum_distortion=dist,
                              quant_penalties=penalties,
                              min_link_snr_db=snr + 1.0), CFG) >= q - 1e-12
    assert quality(make_state(budget_c=budget, accum_distortion=dist + 0.1,
                              quant_penalties=penalties,
                              min_link_snr_db=snr), CFG) <= q + 1e-12
    assert quality(make_state(budget_c=budget, accum_distortion=dist,
                              quant_penalties=penalties + 1,
                              min_link_snr_db=snr), CFG) <= q + 1e-12


# ---------------------------------------------------------------- calibration

CAL_CSV = """snr_db,channel_c,quality
-5,64,0.2
-5,128,0.3
15,64,0.7
15,128,0.9
"""


def test_calibration_table_lookup(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text(CAL_CSV)
    table = CalibrationTable.from_csv(path)
    assert table.lookup(-5, 64) == pytest.approx(0.2)
    assert table.lookup(15, 128) == pytest.approx(0.9)
    # bilinear midpoint
    assert table.lookup(5, 96) == pytest.approx((0.2 + 0.3 + 0.7 + 0.9) / 4)
    # clamped outside the hull
    assert table.lookup(100, 200) == pytest.approx(0.9)
    assert table.lookup(-100, 0) == pytest.approx(0.2)


def test_calibration_replaces_parametric_factors(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text(CAL_CSV)
    cfg = QualityProxyConfig(calibration_table=str(path))
    state = make_state(min_link_snr_db=15.0, budget_c=128, accum_distortion=0.0)
    assert quality(state, cfg) == pytest.approx(0.9)
    # distortion and requantization still apply on top
    state2 = make_state(min_link_snr_db=15.0, budget_c=128, accum_distortion=0.5,
                        quant_penalties=1)
    expected = 0.9 * math.exp(-0.5) * (1 - cfg.requant_penalty)
    assert quality(state2, cfg) == pytest.approx(expected)


def test_calibration_missing_point_rejected(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("snr_db,channel_c,quality\n-5,64,0.2\n-5,128,0.3\n15,64,0.7\n")
    with pytest.raises(ValueError):
        CalibrationTable.from_csv(path)


def test_calibration_bad_header_rejected(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("snr,c,q\n1,64,0.5\n")
    with pytest.raises(ValueError):
        CalibrationTable.from_csv(path)


def test_calibration_without_rows_rejected(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("snr_db,channel_c,quality\n")
    with pytest.raises(ValueError, match="no rows"):
        CalibrationTable.from_csv(path)


# ---------------------------------------------------------------- state invariants

def test_state_invariants_enforced():
    with pytest.raises(ValueError, match="budget_c must be one of"):
        make_state(budget_c=100)
    with pytest.raises(ValueError, match="accum_distortion must be >= 0"):
        make_state(accum_distortion=-0.1)
    with pytest.raises(ValueError, match="hops_since_process must be >= 0"):
        make_state(hops_since_process=-1)


def test_updates_build_a_new_state_and_leave_their_input_alone():
    # The state is not frozen; sessions share none because every update
    # builds a new one.
    state = make_state(budget_c=96, hops_since_process=2, accum_distortion=0.3,
                       quant_penalties=1, min_link_snr_db=7.0)
    before = dataclasses.astuple(state)
    hop = record_hop(state, 4.0, CFG)
    processed = relay_process(state, semantic.MODE_PROCESS, 64, CFG)
    assert hop is not state and processed is not state and hop is not processed
    assert dataclasses.astuple(state) == before
    assert (hop.hops_since_process, hop.min_link_snr_db) == (3, 4.0)
    assert (processed.budget_c, processed.quant_penalties) == (64, 2)
    assert relay_process(state, semantic.MODE_FORWARD, 64, CFG) is state
    assert dataclasses.astuple(state) == before
