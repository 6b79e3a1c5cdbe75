"""Span arithmetic and function wrapping."""

import sys

import pytest
from conftest import SRC

import run
from tracer import SpanLog, Tracer, covered_length


def test_self_time_of_a_hand_built_span_tree():
    spans = SpanLog()
    root = spans.add("root", -1, 0, 0.0, 10.0)
    a = spans.add("a", root, 0, 1.0, 4.0)
    spans.add("x", root, 0, 3.0, 6.0)  # overlaps a: the two cover 1..6 once
    spans.add("c", root, 0, 8.0, 12.0)  # runs past its parent: clipped to 8..10
    spans.add("x", a, 0, 2.0, 3.0)
    assert spans.self_times() == pytest.approx(
        {"root": 10 - 5 - 2, "a": 3 - 1, "x": 3 + 1, "c": 4}
    )


def test_covered_length_merges_and_clips():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered_length([(-1, 1), (9, 11)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrapped_calls_give_spans_counts_and_self_times():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner(steps):
        clock.now += steps
        return steps

    traced_inner = tracer.wrap("m.inner", inner)

    def outer(depth):
        clock.now += 1
        traced_inner(2)
        if depth:
            traced_outer(depth - 1)  # folds into the open span
        return depth

    traced_outer = tracer.wrap("m.outer", outer)
    traced_outer(1)
    assert tracer.counts == {"m.outer.calls": 1, "m.inner.calls": 2}
    assert tracer.spans.self_times() == {"m.outer": 2.0, "m.inner": 4.0}
    with tracer.pause():
        traced_inner(5)
    assert tracer.counts["m.inner.calls"] == 2


def test_install_wraps_every_holder_and_restore_puts_the_originals_back():
    mc = run.load_mcfgkit(SRC)
    original = mc.recognizer.recognize
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert mc.recognize is not original
        assert sys.modules["mcfgkit.pumping"].recognize is mc.recognize
        assert sys.modules["mcfgkit.cli"].recognize is mc.recognize
        grammar = mc.single_letter_pump_grammar()
        assert mc.recognize(grammar, ("a", "a"))
        report = mc.pump_experiment(grammar, mc.chain(1), ("a",) * 4)
    finally:
        restore()
    assert mc.recognize is original and sys.modules["mcfgkit.pumping"].recognize is original
    metrics = {name: value for name, (value, _) in tracer.metrics().items()}
    assert metrics["pumping.sites"] == report.site_count == 3
    assert metrics["recognizer.recognize.calls"] == 1 + 2 * 3
    assert metrics["pumping.recognize_per_site"] == 2
    # the experiment parses the word once, then recognizes both yields per site
    assert metrics["recognizer.parse.calls"] == 1
    assert metrics["recognizer.letters"] == 2 + 4 + sum(
        len(s.down_yield) + len(s.up_yield) for s in report.sites
    )
