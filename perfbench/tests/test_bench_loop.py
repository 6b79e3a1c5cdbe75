"""Percentiles, the closed loop and the speed probe."""

import gc
import signal
import statistics
import time

import pytest
from workloads import Op

import run


def test_p90_of_a_hundred_samples_has_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.nearest_rank(values, 0.9) == 90.0
    assert run.beyond_rank(100, 0.9) == 10
    assert sum(v > run.nearest_rank(values, 0.9) for v in values) == 10
    assert run.beyond_rank(99, 0.9) == 9


class Rounds:
    def __init__(self, size):
        self.size = size
        self.made = 0

    def round(self, number):
        self.made += 1
        return [
            Op(f"r{number}.{i}", "noop", lambda: True, lambda v: None) for i in range(self.size)
        ]


def test_loop_runs_whole_rounds_until_min_ops():
    stream = Rounds(7)
    loop = run.closed_loop(lambda probe: (0.5, stream, stream.round(0)), seconds=0.0)
    outcomes = [outcome for ops in loop.rounds for outcome in ops]
    assert all(len(ops) == 7 for ops in loop.rounds)
    assert len(outcomes) >= run.MIN_OPS
    assert len(outcomes) - 7 < run.MIN_OPS
    assert run.beyond_rank(len(outcomes), 0.9) >= 10
    assert len(loop.costs) == len(outcomes) and all(cost > 0 for cost in loop.costs)
    assert loop.setups == [0.5] * run.SETUPS_PER_ROUND * len(loop.rounds)


def test_the_probe_samples_during_work_and_its_time_is_kept_out():
    probe = run.SpeedProbe()
    probe.sample()
    mark = probe.mark()
    before = signal.getsignal(signal.SIGALRM)
    with probe.armed():
        busy(0.3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert gc.isenabled()
    during = len(probe.samples) - 1
    assert during >= 3
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert probe.reference_since(mark) == statistics.median(probe.samples)
    assert len(probe.samples) == 1 + during + run.PROBE_AFTER
    # a stubbed operation of 0.3 s wall is timed without the samples taken while it ran
    spent = probe.spent
    outcome = run.run_op(Op("slow", "busy", lambda: busy(0.3), lambda v: None), probe=probe)
    assert probe.spent > spent
    assert outcome.seconds == pytest.approx(0.3 - (probe.spent - spent), abs=0.01)


def busy(seconds):
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        pass
