"""Spans and counts around the calls into each mcfgkit layer, from outside.

The tracer wraps the public functions listed in :data:`TRACED` wherever a
module of mcfgkit holds them, so a call is seen whether it comes from the
benchmark, from another layer (``pumping.recognize``) or from the CLI.  A
span records name, start, end, parent and operation; spans stay in memory
until the run ends.  Counts come only from arguments and public results.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

# layer (module of mcfgkit) -> traced public functions
TRACED = {
    "recognizer": ("recognize", "parse"),
    "construction": ("build_grammar",),
    "preorders": ("totalisations", "member"),
    "enumeration": ("enumerate_terms", "direct_language", "compare_languages"),
    "grammar": ("apply_rule", "is_non_deleting", "validate_grammar"),
    "derivation": ("yield_of", "letter_counts", "substitute_subtree", "validate_tree"),
    "pumping": ("pump_experiment", "find_pump_sites", "delta_report", "pump_down", "pump_up"),
    "formats": ("parse_grammar", "format_grammar", "tree_as_dict"),
    "cli": ("main",),
}

# counts taken from arguments and results, besides the calls of each function
EXTRA_COUNTS = (
    "recognizer.letters",
    "recognizer.errors",
    "construction.rules",
    "preorders.extensions",
    "enumeration.terms",
    "enumeration.direct_words",
    "derivation.tree_nodes",
    "pumping.sites",
    "pumping.recognize_per_site",
    "formats.rules_parsed",
    "cli.errors",
)

# time the tracer spends counting, kept out of every layer's self time
BOOKKEEPING = "trace.bookkeeping"


def traced_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]


class SpanLog:
    """Spans in parallel arrays; a span's id is its index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str, parent: int, op: int, start: float) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        self.name.append(index)
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(start)
        return len(self.start) - 1

    def close(self, span: int, end: float) -> None:
        self.end[span] = end

    def add(self, name: str, parent: int, op: int, start: float, end: float) -> int:
        span = self.open(name, parent, op, start)
        self.close(span, end)
        return span

    def self_times(self) -> dict[str, float]:
        """Per name, the summed duration of its spans minus the time their children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                children[parent].append((self.start[span], self.end[span]))
        totals: dict[str, float] = defaultdict(float)
        for span in range(len(self)):
            start, end = self.start[span], self.end[span]
            covered = covered_length(children.get(span, ()), start, end)
            totals[self.names[self.name[span]]] += (end - start) - covered
        return dict(totals)

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            out.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for span in range(len(self)):
                out.write(
                    f"{span}\t{self.parent[span]}\t{self.op[span]}\t"
                    f"{self.names[self.name[span]]}\t{self.start[span]!r}\t{self.end[span]!r}\n"
                )


def covered_length(intervals: Iterable[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of the intervals, clipped to [low, high]."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def count_nodes(tree: Any) -> int:
    """Nodes of a derivation tree, counted without recursion."""
    total = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        total += 1
        stack.extend(node.children)
    return total


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _tree_nodes(tracer: "Tracer", args, kwargs, result, raised) -> None:
    tracer.counts["derivation.tree_nodes"] += count_nodes(_arg(args, kwargs, 0, "tree"))


def _recognizer(tracer: "Tracer", args, kwargs, result, raised) -> None:
    tracer.counts["recognizer.letters"] += len(_arg(args, kwargs, 1, "word"))
    tracer.counts["recognizer.errors"] += raised


def _recognize(tracer: "Tracer", args, kwargs, result, raised) -> None:
    _recognizer(tracer, args, kwargs, result, raised)
    if tracer.is_open("pumping.pump_experiment"):
        tracer.counts["pumping.recognize_in_experiment"] += 1


def _sized(counter: str, attribute: str | None = None) -> Callable:
    def extra(tracer: "Tracer", args, kwargs, result, raised) -> None:
        if not raised:
            tracer.counts[counter] += len(getattr(result, attribute) if attribute else result)

    return extra


def _cli(tracer: "Tracer", args, kwargs, result, raised) -> None:
    tracer.counts["cli.errors"] += raised or result == 2


EXTRAS: dict[str, Callable] = {
    "recognizer.recognize": _recognize,
    "recognizer.parse": _recognizer,
    "construction.build_grammar": _sized("construction.rules", "rules"),
    "preorders.totalisations": _sized("preorders.extensions"),
    "enumeration.enumerate_terms": _sized("enumeration.terms"),
    "enumeration.direct_language": _sized("enumeration.direct_words"),
    "derivation.yield_of": _tree_nodes,
    "derivation.letter_counts": _tree_nodes,
    "derivation.substitute_subtree": _tree_nodes,
    "derivation.validate_tree": _tree_nodes,
    "pumping.find_pump_sites": _sized("pumping.sites"),
    "formats.parse_grammar": _sized("formats.rules_parsed", "rules"),
    "cli.main": _cli,
}


class Tracer:
    """Records a span for each call of a wrapped function, and counts.

    A recursive call of a function already open (``tree_as_dict``) folds
    into the outer span.  While ``paused``, the wrappers call straight
    through; the benchmark pauses the tracer while it checks answers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans = SpanLog()
        self.counts: Counter[str] = Counter()
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def wrap(self, name: str, function: Callable, extra: Callable | None = None) -> Callable:
        tracer = self

        @wraps(function)
        def traced(*args, **kwargs):
            if tracer.paused or tracer._open[name]:
                return function(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = tracer.spans.open(name, parent, tracer.op, tracer.clock())
            stack.append(span)
            tracer._open[name] += 1
            tracer.counts[name + ".calls"] += 1
            raised = True
            result = None
            try:
                result = function(*args, **kwargs)
                raised = False
                return result
            finally:
                end = tracer.clock()
                tracer.spans.close(span, end)
                stack.pop()
                tracer._open[name] -= 1
                if extra is not None:
                    extra(tracer, args, kwargs, result, raised)
                    tracer.spans.add(BOOKKEEPING, parent, tracer.op, end, tracer.clock())

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark code, such as one whole operation."""
        parent = self._stack[-1] if self._stack else -1
        span = self.spans.open(name, parent, self.op, self.clock())
        self._stack.append(span)
        try:
            yield
        finally:
            self.spans.close(span, self.clock())
            self._stack.pop()

    @contextmanager
    def pause(self) -> Iterator[None]:
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def install(self) -> Callable[[], None]:
        """Wrap every traced function in each loaded module of mcfgkit.

        Returns a function that puts the original functions back.
        """
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer, names in TRACED.items():
            home = sys.modules[f"mcfgkit.{layer}"]
            for name in names:
                function = getattr(home, name)
                traced = f"{layer}.{name}"
                wrappers[id(function)] = (function, self.wrap(traced, function, EXTRAS.get(traced)))
        patched: list[tuple[Any, str, Callable]] = []
        modules = [
            module
            for module_name, module in list(sys.modules.items())
            if module_name == "mcfgkit" or module_name.startswith("mcfgkit.")
        ]
        for module in modules:
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
                    patched.append((module, attribute, value))

        def restore() -> None:
            for module, attribute, value in patched:
                setattr(module, attribute, value)

        return restore

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer count and self time with its unit, zero where nothing ran."""
        self_times = self.spans.self_times()
        out: dict[str, tuple[float, str]] = {}
        for name in traced_names():
            out[f"{name}.calls"] = (self.counts[f"{name}.calls"], "count")
            out[f"{name}.self_s"] = (self_times.get(name, 0.0), "s")
        for name in EXTRA_COUNTS:
            out[name] = (self.counts[name], "count")
        sites = self.counts["pumping.sites"]
        per_site = self.counts["pumping.recognize_in_experiment"] / sites if sites else 0.0
        out["pumping.recognize_per_site"] = (per_site, "calls/site")
        return out
