"""Benchmark for mcfgkit: one seeded workload, closed loop, checked answers.

Usage, from the root of a source checkout (mcfgkit is imported from ``src``)::

    python3 perfbench/run.py --workload membership --seed 1 --seconds 30 --trace 0

One client in one process and one thread sends each operation only after the
previous one finished.  With ``--trace 0`` the loop runs whole rounds until the
operations have taken ``--seconds`` and at least MIN_OPS ran, then reports the
end-to-end metrics.  Times are reported in refs: an operation's seconds
divided by the median time of a fixed piece of reference work, timed just
before, during (from a timer signal) and just after it.  The machine's speed
changes by up to twice within a second, and a ref changes with it, so a cost
in refs moves when mcfgkit does and hardly when the machine does.  With
``--trace 1`` it runs the first TRACE_ROUNDS rounds twice, plain and then
traced, and reports the per-layer metrics; a fixed set of operations makes
every count repeat exactly for a seed.  A workload's probes, operations known
to fail today, run after them, apart from the workload's operations, and
``recognizer.deep_parse_errors`` counts the ones that fail.

Every answer is checked against an independent oracle.  An operation fails
when it raises or its answer is wrong; ``correct`` is false only for wrong
answers.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator

from tracer import Tracer
from workloads import WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUPS_PER_ROUND = 5
MIN_OPS = 100
PROBE_INTERVAL_S = 0.02
PROBE_AFTER = 3
# seconds per ref in setup_s: set-up is measured in refs like every other time,
# and reported as the seconds it would take where the reference work takes 1 ms
SECONDS_PER_REF = 0.001
TRACE_ROUNDS = 2
# no new operation starts after this much wall time, so a run always ends
LOOP_WALL_LIMIT_S = 120.0


@dataclass
class Outcome:
    name: str
    seconds: float
    failure: str | None = None  # "raised" or "wrong"
    cause: str = ""


def load_mcfgkit(src: Path) -> ModuleType:
    """Import mcfgkit afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "mcfgkit" or n.startswith("mcfgkit.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    mc = importlib.import_module("mcfgkit")
    importlib.import_module("mcfgkit.cli")
    importlib.import_module("mcfgkit.formats")
    if Path(mc.__file__).resolve().parent != (src / "mcfgkit").resolve():
        raise ImportError(f"mcfgkit was imported from {mc.__file__}, not from {src}")
    return mc


def set_up(workload: str, src: Path, seed: int, workdir: Path, probe: SpeedProbe):
    """Import, generate the first round's inputs, build grammars, write files.

    Returns the seconds this took, the stream and its first round.
    """
    gc.collect()  # the garbage of an earlier set-up is not this one's cost
    spent = probe.spent
    start = time.perf_counter()
    with probe.armed():
        mc = load_mcfgkit(src)
        stream = WORKLOADS[workload](mc, seed, workdir)
        first = stream.round(0)
    return time.perf_counter() - start - (probe.spent - spent), stream, first


def run_op(op: Op, tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> Outcome:
    """Time one operation, then check its answer outside the timed region.

    With a probe, the operation runs with it armed, and the time its samples
    take is not counted.
    """
    raised = None
    spent = probe.spent if probe else 0.0
    span = tracer.span(f"op.{op.kind}") if tracer else nullcontext()
    start = time.perf_counter()
    try:
        with probe.armed() if probe else nullcontext(), span:
            value = op.run()
    except Exception as exc:  # a crash is a failed operation, and the loop goes on
        raised = exc
    seconds = time.perf_counter() - start - (probe.spent - spent if probe else 0.0)
    if raised is not None:
        return Outcome(op.name, seconds, "raised", f"raised {type(raised).__name__}: {raised}")
    try:
        if tracer is None:
            cause = op.check(value)
        else:
            with tracer.pause():
                cause = op.check(value)
    except Exception as exc:
        cause = f"check raised {type(exc).__name__}: {exc}"
    return Outcome(op.name, seconds, "wrong" if cause else None, cause or "")


def reference_work() -> int:
    """Fixed pure-Python work whose time measures the machine's speed.

    It fills a triangular chart of sets of small integers, so it uses
    tuples, dictionaries and sets as mcfgkit's layers do, for about a
    millisecond.  It does not touch mcfgkit, so no change to mcfgkit changes
    its time.
    """
    size = 20
    chart = {(i, i + 1): {i % 3} for i in range(size)}
    for width in range(2, size + 1):
        for i in range(size - width + 1):
            j = i + width
            cell = set()
            for k in range(i + 1, j):
                for a in chart[(i, k)]:
                    for b in chart[(k, j)]:
                        cell.add((a + b) % 3)
            chart[(i, j)] = cell
    return len(chart)


class SpeedProbe:
    """Times the reference work during and between measured pieces of work.

    While armed, a timer signal interrupts the measured code every
    PROBE_INTERVAL_S to time one run of the reference work; callers take
    ``spent`` out of their measured time.  The handler adds two frames to
    the interrupted stack and allocates small sets, nothing else.  A signal
    that arrives while a sample runs is dropped, so no time counts twice,
    and the garbage collector is off during a sample, so a collection of the
    measured code's garbage is never timed as reference work.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._sampling = False

    def sample(self, *_: object) -> None:
        if self._sampling:
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            took = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
            self._sampling = False
        self.samples.append(took)
        self.spent += took

    @contextmanager
    def armed(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Where the samples taken just before the next piece of work start."""
        return max(len(self.samples) - PROBE_AFTER, 0)

    def reference_since(self, mark: int) -> float:
        """Takes PROBE_AFTER samples, then gives the median of all since ``mark``:
        the speed just before, during and just after a piece of work."""
        for _ in range(PROBE_AFTER):
            self.sample()
        return statistics.median(self.samples[mark:])


@dataclass
class Loop:
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    rounds: list[list[Outcome]] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    # each set-up's and each operation's cost: its seconds divided by the
    # reference time around and during it
    setup_refs: list[float] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)
    # the process's peak RSS at the end of the round in which MIN_OPS operations
    # had run: the same operations for every seed, and a faster machine's
    # extra rounds do not raise it
    peak_rss_mb: float = 0.0


def closed_loop(set_up_stream: Callable[[SpeedProbe], tuple], seconds: float) -> Loop:
    """Whole rounds until the operations took ``seconds`` and MIN_OPS ran.

    ``set_up_stream`` returns the set-up time, the stream and its first
    round.  SETUPS_PER_ROUND set-ups precede each round, so that set-up is
    timed across the whole run, and the round comes from the last of them.
    """
    loop = Loop()
    probe = loop.probe
    measured = 0.0
    started = time.perf_counter()
    while measured < seconds or len(loop.costs) < MIN_OPS:
        if time.perf_counter() - started > LOOP_WALL_LIMIT_S:
            break
        for _ in range(SETUPS_PER_ROUND):
            mark = probe.mark()
            took, stream, first = set_up_stream(probe)
            loop.setups.append(took)
            loop.setup_refs.append(took / probe.reference_since(mark))
        ops = stream.round(len(loop.rounds)) if loop.rounds else first
        loop.rounds.append([])
        for op in ops:
            if time.perf_counter() - started > LOOP_WALL_LIMIT_S:
                break
            mark = probe.mark()
            outcome = run_op(op, probe=probe)
            loop.costs.append(outcome.seconds / probe.reference_since(mark))
            loop.rounds[-1].append(outcome)
            measured += outcome.seconds
        if not loop.peak_rss_mb and len(loop.costs) >= MIN_OPS:
            loop.peak_rss_mb = peak_rss_mb()
    loop.peak_rss_mb = loop.peak_rss_mb or peak_rss_mb()
    return loop


def nearest_rank(values: list[float], fraction: float) -> float:
    """The smallest value with at least ``fraction`` of all values at or below it."""
    ordered = sorted(values)
    return ordered[max(ceil(fraction * len(ordered)), 1) - 1]


def beyond_rank(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(ceil(fraction * count), 1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def summary(outcomes: list[Outcome]) -> tuple[bool, int, int]:
    failed = [o for o in outcomes if o.failure]
    return not any(o.failure == "wrong" for o in failed), len(outcomes), len(failed)


def timed_run(workload: str, src: Path, seed: int, seconds: float, workdir: Path):
    loop = closed_loop(lambda probe: set_up(workload, src, seed, workdir, probe), seconds)
    outcomes = [outcome for ops in loop.rounds for outcome in ops]
    latencies = [o.seconds for o in outcomes]
    attempted = len(outcomes)
    # the median round, so that the first round's one-off operations weigh
    # as one round among several
    per_round, start = [], 0
    for ops in loop.rounds:
        if ops:
            per_round.append(len(ops) / sum(loop.costs[start : start + len(ops)]))
            start += len(ops)
    metrics = {
        "setup_s": (SECONDS_PER_REF * statistics.median(loop.setup_refs), "s"),
        "ops_per_kref": (1000 * statistics.median(per_round), "1/kref"),
        "op_p50_ref": (statistics.median(loop.costs), "ref"),
        "op_p90_ref": (nearest_rank(loop.costs, 0.9), "ref"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    samples = loop.probe.samples
    notes = {
        "setup_s": f"median of {len(loop.setups)} set-ups spread over the run, in refs x 1 ms; "
        f"{statistics.median(loop.setups):.4g} s wall",
        "ops_per_kref": f"median of {len(per_round)} rounds; wall time: {attempted} ops in "
        f"{sum(latencies):.2f} s, {attempted / sum(latencies):.4g} ops/s",
        "op_p50_ref": f"{statistics.median(latencies):.4g} s wall",
        "op_p90_ref": f"{nearest_rank(latencies, 0.9):.4g} s wall; "
        f"{beyond_rank(attempted, 0.9)} samples beyond",
        "peak_rss_mb": f"at the end of the round that reached {MIN_OPS} ops; "
        f"{peak_rss_mb():.4g} MB at the end",
        "1 ref": f"median {statistics.median(samples) * 1000:.4f} ms of reference work, timed "
        f"{len(samples)} times in {min(samples) * 1000:.4f}-{max(samples) * 1000:.4f} ms",
    }
    return outcomes, metrics, notes


def traced_run(workload: str, src: Path, seed: int, workdir: Path):
    tracer = Tracer()
    mc = load_mcfgkit(src)
    restore = tracer.install()
    try:
        with tracer.span("setup"):
            stream = WORKLOADS[workload](mc, seed, workdir)
            first = stream.round(0)
    finally:
        restore()
    ops = [op for ops in [first] + [stream.round(n) for n in range(1, TRACE_ROUNDS)] for op in ops]
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    for op_id, op in enumerate(ops):
        # each operation runs plain and traced, alternating which goes first
        for with_tracer in (op_id % 2 == 1, op_id % 2 == 0):
            if not with_tracer:
                plain.append(run_op(op))
                continue
            tracer.op = op_id
            restore = tracer.install()
            try:
                traced.append(run_op(op, tracer))
            finally:
                restore()
    tracer.spans.write(OUT_DIR / f"spans-{workload}.tsv")
    _, attempted, failed = summary(traced)
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (
        sum(o.seconds for o in plain) / sum(o.seconds for o in traced),
        "ratio",
    )
    metrics["failed_share"] = (failed / attempted, "ratio")
    # untraced, so that the probes leave every per-layer figure alone
    probes = [run_op(op) for op in getattr(stream, "probes", list)()]
    metrics["recognizer.deep_parse_errors"] = (sum(1 for o in probes if o.failure), "count")
    notes = {
        "pumping.recognize_per_site": f"base: {tracer.counts['pumping.sites']} sites",
        "trace.overhead": "traced ops_per_s / plain ops_per_s, same operations, alternating",
        "failed_share": f"{failed} of {attempted} failed",
        "recognizer.deep_parse_errors": f"of {len(probes)} deep-derivation probes",
    }
    for o in probes:
        if o.failure:
            notes[f"probe {o.name}"] = f"failed: {o.cause}"
    return traced, metrics, notes


def report(header: str, outcomes: list[Outcome], metrics: dict, notes: dict) -> None:
    print(header)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<10} {note}".rstrip())
    for name, note in notes.items():
        if name not in metrics:
            print(f"  {name}: {note}")
    for o in outcomes:
        if o.failure:
            print(f"  failed {o.name}: {o.cause}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mcfgkit" / "__init__.py").is_file():
        print(f"error: no mcfgkit sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    header = (
        f"mcfgkit benchmark: workload {args.workload}, seed {args.seed}, "
        f"{'traced' if args.trace else 'plain'}; closed loop, 1 client, 1 process, 1 thread; "
        f"python {platform.python_version()}; {os.cpu_count()} cores, process not pinned"
    )
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workdir = Path(scratch)
        if args.trace:
            judged, metrics, notes = traced_run(args.workload, src, args.seed, workdir)
        else:
            judged, metrics, notes = timed_run(args.workload, src, args.seed, args.seconds, workdir)
    correct, attempted, failed = summary(judged)
    report(header, judged, metrics, notes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
