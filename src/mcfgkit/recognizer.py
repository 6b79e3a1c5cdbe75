"""Bottom-up chart recognition over span tuples, for non-deleting grammars.

A chart item asserts that a non-terminal derives the tuple of input slices
under its spans.  Items are plain ints: a head number and the flat tuple
``(s1, e1, s2, e2, ...)`` of half-open bounds, one pair per component.
Terminating rules seed the chart at every place their constant components
occur (the empty component occurs at every position).  Each item taken off
the agenda then triggers every rule with its non-terminal on the right-hand
side, in that slot, and the rule fires for every way to fill the other slots
with items such that the patterns read off contiguous input.

Rules are compiled once per call: each pattern becomes its leading letters,
an anchor (the child component of its first variable) and a flat list of
steps, a child component that must start where the previous step ended or a
run of letters that must follow it.  A pattern without variables becomes the
list of places where its letters occur.

Joins are indexed.  For every rule and trigger slot a plan binds the other
slots in slot order.  When some pattern puts a component of a slot next to a
component of an already-bound slot (possibly with letters between them), the
slot's candidates are the items of its non-terminal whose component starts,
or ends, at the one position that adjacency allows.  A slot with no such
adjacency takes every item of its non-terminal.  Only the indexes some plan
reads are kept, so grammars whose rules have at most one right-hand side
entry keep none.  The compiled match still checks every joined tuple; the
index only skips tuples it would reject.

Every candidate list is in insertion order and stays fixed while one rule
fires for one trigger: the items that firing derives are added after it.  So
the rule fires on the same children, in the same order, as it would over all
items of each slot's non-terminal.  Chart insertion order and each item's
first justification, and with them every parse tree, do not depend on the
indexes.

Every derived item is justified by a rule and child items, so a derivation
tree for the whole input can be read back from the chart.  For deleting
grammars span reasoning is unsound — deleted components would have to lie
somewhere in the input — so those are rejected up front in favour of the
term-enumeration oracle.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterator

from .derivation import DerivationTree
from .errors import ForeignLetterError, UnsupportedGrammarError
from .grammar import MCFG, NonTerminal, Pattern, ProductionRule, Variable, Word, is_non_deleting

_Flat = tuple[int, ...]
# one chart per head number: an item's flat spans -> (rule, children's flat spans)
_Charts = list[dict[_Flat, tuple["_Rule", tuple[_Flat, ...]]]]


def _check_inputs(grammar: MCFG, word: Word) -> None:
    if not is_non_deleting(grammar):
        raise UnsupportedGrammarError(
            "span-based recognition needs a non-deleting grammar; "
            "use the term-enumeration oracle for deleting grammars"
        )
    letters = set(grammar.alphabet)
    for position, letter in enumerate(word):
        if letter not in letters:
            raise ForeignLetterError(
                f"letter {letter!r} at position {position} is not in the grammar's alphabet"
            )


def _places(word: Word, component: Word) -> list[tuple[int, int]]:
    """Every ``(start, end)`` where the constant component occurs in the word."""
    k = len(component)
    return [
        (start, start + k)
        for start in range(len(word) - k + 1)
        if word[start : start + k] == component
    ]


def _compile_pattern(pattern: Pattern, word: Word) -> tuple:
    """``(prefix, anchor, steps, None)``, or ``(None, None, None, places)`` without variables.

    Flat positions: component ``j`` of a child starts at ``2 * (j - 1)`` in
    its flat spans and ends one further.  A step is ``(child, position)`` for
    a variable, 0-based, or ``(None, letters)`` for a run of letters.
    """
    first = next((i for i, item in enumerate(pattern) if isinstance(item, Variable)), None)
    if first is None:
        return (None, None, None, _places(word, tuple(pattern)))
    anchor = pattern[first]
    steps: list[tuple] = []
    for item in pattern[first + 1 :]:
        if isinstance(item, Variable):
            steps.append((item.child - 1, 2 * item.component - 2))
        elif steps and steps[-1][0] is None:
            steps[-1] = (None, steps[-1][1] + (item,))
        else:
            steps.append((None, (item,)))
    prefix = tuple(pattern[:first])
    return (prefix, (anchor.child - 1, 2 * anchor.component - 2), tuple(steps), None)


class _Rule:
    """A production rule compiled against one word, with numbered heads."""

    __slots__ = ("rule", "lhs", "rhs", "patterns", "free")

    def __init__(self, rule: ProductionRule, heads: dict[NonTerminal, int], word: Word) -> None:
        self.rule = rule
        self.lhs = heads[rule.lhs]
        self.rhs = tuple(heads[nt] for nt in rule.rhs)
        self.patterns = tuple(_compile_pattern(p, word) for p in rule.patterns)
        # indexes of the patterns without variables, which may sit at several places
        self.free = tuple(i for i, p in enumerate(self.patterns) if p[3] is not None)

    def instances(self, children: tuple[_Flat, ...], word: Word) -> list[_Flat]:
        """Every flat span tuple the head gets from these children, in product order."""
        flat: list[int] = []
        for prefix, anchor, steps, places in self.patterns:
            if places is not None:
                flat += (0, 0)
                continue
            spans = children[anchor[0]]
            position = anchor[1]
            start = spans[position] - len(prefix)
            if start < 0 or (prefix and word[start : spans[position]] != prefix):
                return []
            end = spans[position + 1]
            for child, item in steps:
                if child is None:
                    if word[end : end + len(item)] != item:
                        return []
                    end += len(item)
                else:
                    spans = children[child]
                    if spans[item] != end:
                        return []
                    end = spans[item + 1]
            flat += (start, end)
        if not self.free:
            return [tuple(flat)]
        out = []
        for choice in product(*[self.patterns[i][3] for i in self.free]):
            for i, (start, end) in zip(self.free, choice):
                flat[2 * i : 2 * i + 2] = (start, end)
            out.append(tuple(flat))
        return out


def _adjacency(
    rule: ProductionRule, slot: int, bound: set[int]
) -> tuple[int, int, int, int] | None:
    """``(position, other, other_position, offset)`` tying ``slot`` to a bound slot.

    Found where some pattern puts a variable of ``slot`` next to one of a
    bound slot with only letters between them: the slot's flat spans must
    hold ``other``'s value at ``other_position`` plus ``offset`` at
    ``position``.  None when no pattern does.
    """
    for pattern in rule.patterns:
        previous, gap = None, 0
        for item in pattern:
            if not isinstance(item, Variable):
                gap += 1
                continue
            if previous is not None:
                left, right = previous.child - 1, item.child - 1
                if right == slot and left in bound:
                    return (2 * item.component - 2, left, 2 * previous.component - 1, gap)
                if left == slot and right in bound:
                    return (2 * previous.component - 1, right, 2 * item.component - 2, -gap)
            previous, gap = item, 0
    return None


def _joins(children: list, plan: tuple) -> Iterator[tuple[_Flat, ...]]:
    """Every children tuple the plan admits, lexicographic in its candidate lists.

    ``children`` holds the trigger in its slot; each plan step fills one more
    slot, from a fixed list or from an index keyed by a bound slot's spans.
    """
    last = len(plan) - 1
    pools: list = [None] * len(plan)
    depth = 0
    pools[0] = iter(_candidates(plan[0], children))
    while depth >= 0:
        slot = plan[depth][0]
        for flat in pools[depth]:
            children[slot] = flat
            if depth == last:
                yield tuple(children)
            else:
                depth += 1
                pools[depth] = iter(_candidates(plan[depth], children))
                break
        else:
            depth -= 1


def _candidates(step: tuple, children: list):
    """The items a plan step may put in its slot, given the slots bound so far."""
    _, table, other, other_position, offset = step
    if other is None:
        return table
    return table.get(children[other][other_position] + offset, ())


def _saturate(grammar: MCFG, word: Word) -> tuple[_Charts, dict[NonTerminal, int]]:
    """Close the chart under all rules; each item keeps its first justification."""
    _check_inputs(grammar, word)
    heads: dict[NonTerminal, int] = {}
    for nt in grammar.nonterminals:
        heads.setdefault(nt, len(heads))
    for rule in grammar.rules:
        for nt in (rule.lhs, *rule.rhs):
            heads.setdefault(nt, len(heads))
    heads.setdefault(grammar.start, len(heads))
    rules = [_Rule(rule, heads, word) for rule in grammar.rules]

    charts: _Charts = [{} for _ in heads]
    # per head: flat position -> (value there -> items), for the positions plans read
    indexes: list[dict[int, dict[int, list[_Flat]]]] = [{} for _ in heads]
    incidence: list[list[tuple[_Rule, int, tuple]]] = [[] for _ in heads]
    for compiled in rules:
        for trigger, head in enumerate(compiled.rhs):
            bound = {trigger}
            plan = []
            for slot, other_head in enumerate(compiled.rhs):
                if slot == trigger:
                    continue
                tie = _adjacency(compiled.rule, slot, bound)
                if tie is None:
                    plan.append((slot, charts[other_head], None, None, None))
                else:
                    position, other, other_position, offset = tie
                    table = indexes[other_head].setdefault(position, {})
                    plan.append((slot, table, other, other_position, offset))
                bound.add(slot)
            incidence[head].append((compiled, trigger, tuple(plan)))
    indexed = [tuple(by_position.items()) for by_position in indexes]
    agenda: deque[tuple[int, _Flat]] = deque()

    def add(head: int, flat: _Flat, justification: tuple) -> None:
        charts[head][flat] = justification
        for position, table in indexed[head]:
            table.setdefault(flat[position], []).append(flat)
        agenda.append((head, flat))

    for compiled in rules:
        if not compiled.rhs:
            chart = charts[compiled.lhs]
            for flat in compiled.instances((), word):
                if flat not in chart:
                    add(compiled.lhs, flat, (compiled, ()))

    while agenda:
        head, trigger = agenda.popleft()
        for compiled, slot, plan in incidence[head]:
            chart = charts[compiled.lhs]
            if not plan:
                for flat in compiled.instances((trigger,), word):
                    if flat not in chart:
                        add(compiled.lhs, flat, (compiled, (trigger,)))
                continue
            children = [None] * len(compiled.rhs)
            children[slot] = trigger
            fresh: dict[_Flat, tuple] = {}
            for joined in _joins(children, plan):
                for flat in compiled.instances(joined, word):
                    if flat not in chart and flat not in fresh:
                        fresh[flat] = (compiled, joined)
            for flat, justification in fresh.items():
                add(compiled.lhs, flat, justification)
    return charts, heads


def _tree(charts: _Charts, goal: tuple[int, _Flat]) -> DerivationTree:
    """The goal's tree from first justifications, built post-order without recursion.

    An item that occurs more than once shares one subtree.
    """
    built: dict[tuple[int, _Flat], DerivationTree] = {}
    stack = [goal]
    while stack:
        item = stack[-1]
        if item in built:
            stack.pop()
            continue
        compiled, children = charts[item[0]][item[1]]
        keys = tuple(zip(compiled.rhs, children))
        pending = [key for key in keys if key not in built]
        if pending:
            stack += pending
            continue
        stack.pop()
        built[item] = DerivationTree(compiled.rule, tuple(built[key] for key in keys))
    return built[goal]


def recognize(grammar: MCFG, word: Word) -> bool:
    """Whether the grammar derives the given word from its start symbol."""
    word = tuple(word)
    charts, heads = _saturate(grammar, word)
    return (0, len(word)) in charts[heads[grammar.start]]


def parse(grammar: MCFG, word: Word) -> DerivationTree | None:
    """One derivation tree for the word, or None when it is not derivable.

    Deterministic for fixed inputs: the tree is assembled from each chart
    item's first recorded justification.
    """
    word = tuple(word)
    charts, heads = _saturate(grammar, word)
    goal = (heads[grammar.start], (0, len(word)))
    if goal[1] not in charts[goal[0]]:
        return None
    return _tree(charts, goal)
