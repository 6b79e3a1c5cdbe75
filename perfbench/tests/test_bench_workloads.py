"""The seeded generators and the per-operation oracles."""

import random
from collections import Counter
from dataclasses import replace

import pytest
from conftest import SRC

import run
from workloads import WORKLOADS, Oracle, Order, balanced_counts, near_miss, renamed


def _rounds(workload, seed, workdir, count=2):
    workdir.mkdir(exist_ok=True)
    stream = WORKLOADS[workload](run.load_mcfgkit(SRC), seed, workdir)
    return [stream.round(number) for number in range(count)]


def _shape(ops):
    """Kinds of operation and the grammar or order each one uses."""
    return Counter((op.name.split()[0][:2], op.kind) for op in ops), Counter(
        op.name.split()[2] for op in ops
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_inputs(workload, tmp_path):
    first = _rounds(workload, 7, tmp_path / "a")
    second = _rounds(workload, 7, tmp_path / "b")
    assert [[op.name for op in ops] for ops in first] == [[op.name for op in ops] for ops in second]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_another_seed_keeps_the_shape_of_the_mix(workload, tmp_path):
    first = _rounds(workload, 7, tmp_path / "a")
    other = _rounds(workload, 8, tmp_path / "b")
    assert [op.name for op in first[1]] != [op.name for op in other[1]]
    for mine, theirs in zip(first, other):
        assert _shape(mine) == _shape(theirs)


def test_membership_keeps_the_deep_parses_out_of_its_rounds(tmp_path):
    (tmp_path / "w").mkdir()
    stream = WORKLOADS["membership"](run.load_mcfgkit(SRC), 3, tmp_path / "w")
    assert not any("deep" in op.name for ops in map(stream.round, range(2)) for op in ops)
    probes = stream.probes()
    assert [op.kind for op in probes] == ["parse", "cli-parse"]
    assert all("500-500-2" in op.name for op in probes)


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


@pytest.mark.parametrize(
    "workload, kind", [("membership", "recognize"), ("oracle", "compare")]
)
def test_a_stubbed_wrong_verdict_fails_the_operation(workload, kind, tmp_path):
    op = _first(_rounds(workload, 5, tmp_path, count=1)[0], kind)
    right = run.run_op(op)
    assert right.failure is None, right.cause
    wrong = run.run_op(replace(op, run=lambda: not op.run()))
    assert wrong.failure == "wrong" and wrong.cause
    assert run.summary([right, wrong]) == (False, 2, 1)


def test_a_stubbed_exception_fails_the_operation(tmp_path):
    op = _first(_rounds("membership", 5, tmp_path, count=1)[0], "parse")

    def crash():
        raise RecursionError("too deep")

    outcome = run.run_op(replace(op, run=crash))
    assert outcome.failure == "raised"
    assert "RecursionError" in outcome.cause
    # a crash fails the operation but is not a wrong answer
    assert run.summary([outcome]) == (True, 1, 1)


def test_a_wrong_pump_report_fails_the_operation(tmp_path):
    ops = _rounds("pump", 5, tmp_path, count=1)[0]
    op = next(op for op in ops if "overgen" in op.name and not op.name.endswith("-0"))
    report = op.run()
    assert op.check(report) is None
    report.sites[0].delta.deltas["a3"] += 1
    assert "delta" in op.check(report)


def test_order_counts_match_a_listing_by_hand():
    vee = Order(3, [(1, 2), (3, 2)])
    assert vee.pairs == ((1, 2), (3, 2))
    # n1 <= n2 and n3 <= n2 with n1 + n2 + n3 <= 2: 000, 010, 020, 110, 011
    assert vee.language_size(2) == 5
    assert vee.accepts(("a1", "a2", "a2")) and not vee.accepts(("a2", "a1"))
    assert Order(3).extension_count() == 13
    # a chain on three indices still extends to each way of tying neighbours
    assert Order(3, [(2, 1), (3, 2)]).extension_count() == 4


def test_membership_words_are_balanced_and_near_misses_break_the_order():
    vee = Order(3, [(1, 2), (3, 2)])
    assert balanced_counts(vee, 14) == [5, 5, 4]
    assert balanced_counts(vee, 13) == [4, 5, 4]
    assert near_miss(vee, [6, 6, 6]) == [7, 6, 6]
    chain = Order(3, [(2, 1), (3, 2)])
    assert balanced_counts(chain, 13) == [5, 4, 4]
    # a letter more in the first or second block keeps n1 >= n2 >= n3; in the third it does not
    assert near_miss(chain, [5, 4, 4]) == [5, 4, 5] and not chain.admits([5, 4, 5])


@pytest.mark.parametrize(
    "size, totalisations, pairs, budget",
    [(size, *shape) for size, shapes in Oracle.SHAPES.items() for shape in shapes],
)
def test_renamed_oracle_orders_keep_their_sizes(size, totalisations, pairs, budget):
    shape = Order(size, pairs)
    assert shape.extension_count() == totalisations
    for seed in range(4):
        order = renamed(random.Random(seed), size, pairs)
        assert order.extension_count() == totalisations
        assert order.language_size(budget) == shape.language_size(budget)


def test_oracle_rounds_made_ahead_keep_their_own_order_files(tmp_path):
    # the traced run makes all its rounds before running the first one
    rounds = _rounds("oracle", 5, tmp_path)
    for number, ops in enumerate(rounds):
        through_cli = sum(op.kind == "cli-compare" for op in ops)
        assert len(list(tmp_path.glob(f"r{number}-*.ord"))) == through_cli == 4
