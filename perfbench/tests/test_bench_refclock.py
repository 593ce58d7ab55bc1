import pytest

from refclock import REF_S, RefClock


def clock_with(samples):
    clock = RefClock()
    clock.samples = list(samples)
    return clock


def test_constant_speed_scales_and_leaves_out_kernel_runs():
    # Kernel runs of 2 ms at 0, 1 and 2 s: the host runs at half the
    # reference speed, and the middle run falls inside the interval.
    clock = clock_with([(0.0, 0.002), (1.0, 1.002), (2.0, 2.002)])
    assert clock.scaled(0.5, 1.5) == pytest.approx((1.0 - 0.002) * REF_S / 0.002)


def test_each_stretch_uses_the_nearest_sample():
    # Fast, then slow: the stretch nearer the first sample counts at its speed.
    clock = clock_with([(0.0, REF_S), (1.0, 1.0 + REF_S), (2.0, 2.0 + 4 * REF_S), (3.0, 3.0 + 4 * REF_S)])
    speeds = [REF_S, REF_S, 4 * REF_S, 4 * REF_S]
    early = clock.scaled(0.1, 0.4, speeds)
    late = clock.scaled(2.6, 2.9, speeds)
    assert early == pytest.approx(0.3)
    assert late == pytest.approx(0.3 / 4)


def test_single_outlier_sample_is_smoothed_away():
    clock = clock_with([(0.0, 0.001), (1.0, 1.001), (2.0, 2.050), (3.0, 3.001), (4.0, 4.001)])
    assert clock.speeds() == pytest.approx([0.001] * 5)


def test_start_and_stop_sample_and_restore_the_handler():
    import signal

    clock = RefClock()
    clock.start()
    clock.stop()
    assert len(clock.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
