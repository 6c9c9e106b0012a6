"""Host speed calibration.

The shared host's speed drifts by up to ±25% over tens of seconds, and
CPU-bound Python code of every kind slows with it. Every reported time is
therefore scaled to a reference speed: a fixed pure-Python loop is timed
before and after each operation or set-up, and a time t taken while the
loop ran in c seconds is reported as t * CAL_REF_S / c. CAL_REF_S is about
what the loop takes on an idle 2-vCPU Xeon (Sapphire Rapids, KVM) with
Python 3.11, so reported times read as times on that host.

This module imports nothing but ``time``, so that a set-up's child
interpreter can use it before the timed import without pre-loading
modules that compatflow's import would otherwise pay for.
"""

from time import perf_counter

CAL_LOOP = 20000
CAL_REPS = 7
CAL_REF_S = 1.25e-3


def calibrate():
    """Median time of a fixed pure-Python loop: the host's speed now."""
    times = []
    for _ in range(CAL_REPS):
        t0 = perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i
        times.append(perf_counter() - t0)
    return sorted(times)[CAL_REPS // 2]


def scale(before, after):
    """Factor taking a time measured between two calibrations to the
    reference speed."""
    return CAL_REF_S / (0.5 * (before + after))


def to_reference(times, cals):
    """Times scaled to the reference speed: times[i] was taken between the
    calibrations cals[i] and cals[i + 1]."""
    return [t * scale(cals[i], cals[i + 1]) for i, t in enumerate(times)]
