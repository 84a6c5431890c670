"""KernelLog: wall intervals to reference seconds on the serving worker's samples."""

import pytest

from workloads import HostScale, KernelLog

REF = HostScale.REFERENCE_S


@pytest.fixture
def log():
    log = KernelLog(HostScale())
    # samples at t = 0, 1, 2, 10: each took 0.01 s of wall time
    for start, kernel in [(0.0, REF), (1.0, 2 * REF), (2.0, 2 * REF), (10.0, REF / 2)]:
        log.starts.append(start)
        log.spent.append(0.01)
        log.kernel.append(kernel)
    return log


def test_the_kernels_own_time_is_removed_and_the_rest_rescaled(log):
    # [0.5, 2.5) holds the samples at 1 and 2; within PAD_S=1 of it lie 0, 1, 2:
    # their median kernel time is twice REF: the machine ran at half speed
    (seconds,) = log.rescale([0.5], [2.5])
    assert seconds == pytest.approx((2.0 - 0.02) * 0.5)


def test_an_interval_far_from_every_sample_keeps_its_raw_length(log):
    (seconds,) = log.rescale([5.0], [6.0])
    assert seconds == pytest.approx(1.0)


def test_intervals_are_rescaled_by_the_samples_near_each(log):
    near_fast, near_slow = log.rescale([9.5, 1.5], [9.8, 1.8])
    assert near_fast == pytest.approx(0.3 * 2.0)  # kernel at REF / 2: twice reference speed
    assert near_slow == pytest.approx(0.3 * 0.5)
