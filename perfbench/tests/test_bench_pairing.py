"""Speed ratios of blocks paired with the frozen program's blocks."""
import pytest

import run


def test_twice_as_fast_reads_two():
    # The program does the same decisions in half the frozen program's time.
    speeds = run.paired_speeds([0.5, 0.5], 100, [1.0, 1.0, 1.0], 100)
    assert speeds == pytest.approx([2.0, 2.0])


def test_steady_drift_of_host_speed_cancels():
    # Host slows linearly; each program block sits between two frozen blocks.
    frozen = [1.0, 1.2, 1.4, 1.6]
    program = [1.1, 1.3, 1.5]
    assert run.paired_speeds(program, 10, frozen, 10) == pytest.approx([1.0, 1.0, 1.0])


def test_ratio_is_per_decision_and_skips_failed_blocks():
    speeds = run.paired_speeds([None, 2.0], 200, [1.0, 1.0, 1.0], 100)
    assert speeds == pytest.approx([1.0])


def test_trimmed_mean_drops_the_outer_fifths():
    assert run.trimmed_mean([0.1, 1.0, 2.0, 3.0, 9.0]) == pytest.approx(2.0)
    assert run.trimmed_mean([1.0, 3.0]) == pytest.approx(2.0)
