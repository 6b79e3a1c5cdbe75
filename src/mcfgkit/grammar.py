"""Core data model for multiple context-free grammars.

Every non-terminal carries a fixed rank and derives terms ``A(w_1, ..., w_r)``:
tuples of words rather than single strings.  A production rule

    A(alpha_1, ..., alpha_r) <- B_1(...), ..., B_n(...)

rewrites one derived term per right-hand side non-terminal into a term for
``A`` by splicing the children's components into the patterns ``alpha_i``,
which mix terminal letters with positional variables ``$i.j`` (component ``j``
of child ``i``).  A rule with an empty right-hand side is *terminating* and
derives a constant term.

This module holds the immutable types (:class:`Variable`,
:class:`NonTerminal`, :class:`ProductionRule`, :class:`MCFG`, :class:`Term`)
and the basic operations on them: rule application, validity checking, the
normal-form and non-deletion predicates, and the grammar's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import RuleApplicationError

Letter = str
Word = tuple[Letter, ...]
Alphabet = tuple[Letter, ...]

EPSILON: Word = ()


@dataclass(frozen=True, slots=True)
class Variable:
    """Positional reference into a rule's right-hand side, 1-based on both axes."""

    child: int
    component: int

    def __post_init__(self) -> None:
        if self.child < 1 or self.component < 1:
            raise ValueError(
                f"variable indices are 1-based, got ({self.child}, {self.component})"
            )

    def __repr__(self) -> str:
        return f"${self.child}.{self.component}"


PatternItem = Letter | Variable
Pattern = tuple[PatternItem, ...]


@dataclass(frozen=True, slots=True)
class NonTerminal:
    """A ranked non-terminal; the rank is the number of components it derives."""

    name: str
    rank: int = 1

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be at least 1, got {self.rank} for {self.name!r}")

    def __str__(self) -> str:
        return self.name


def _pattern_to_str(pattern: Pattern) -> str:
    if not pattern:
        return "_"
    return " ".join(repr(item) if isinstance(item, Variable) else item for item in pattern)


@dataclass(frozen=True, slots=True)
class ProductionRule:
    """``lhs(patterns) <- rhs[0](...), ..., rhs[n-1](...)``.

    The pattern count always equals the left-hand side's rank; everything
    else (variable ranges, single use, alphabet membership) is checked
    grammar-wide by :func:`validate_grammar`.
    """

    lhs: NonTerminal
    patterns: tuple[Pattern, ...]
    rhs: tuple[NonTerminal, ...] = ()

    def __post_init__(self) -> None:
        if len(self.patterns) != self.lhs.rank:
            raise ValueError(
                f"rule for {self.lhs.name} needs {self.lhs.rank} pattern(s), "
                f"got {len(self.patterns)}"
            )

    @property
    def terminating(self) -> bool:
        return not self.rhs

    def variables(self) -> Iterator[Variable]:
        """Every variable occurrence across all patterns, left to right."""
        for pattern in self.patterns:
            for item in pattern:
                if isinstance(item, Variable):
                    yield item

    def terminals(self) -> Iterator[Letter]:
        """Every letter occurrence across all patterns, left to right."""
        for pattern in self.patterns:
            for item in pattern:
                if not isinstance(item, Variable):
                    yield item

    def available_variables(self) -> set[Variable]:
        """All references the right-hand side offers, whether used or not."""
        return {
            Variable(child, component)
            for child, nt in enumerate(self.rhs, start=1)
            for component in range(1, nt.rank + 1)
        }

    def __str__(self) -> str:
        head = f"{self.lhs.name}({', '.join(_pattern_to_str(p) for p in self.patterns)})"
        if self.terminating:
            return f"{head} <-"
        args = ", ".join(
            f"{nt.name}({', '.join(f'${i}.{j}' for j in range(1, nt.rank + 1))})"
            for i, nt in enumerate(self.rhs, start=1)
        )
        return f"{head} <- {args}"


@dataclass(frozen=True, slots=True)
class Term:
    """A non-terminal applied to concrete words, one per component."""

    head: NonTerminal
    components: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.components) != self.head.rank:
            raise ValueError(
                f"term for {self.head.name} needs {self.head.rank} component(s), "
                f"got {len(self.components)}"
            )

    def total_length(self) -> int:
        return sum(len(component) for component in self.components)

    def letters(self) -> Iterator[Letter]:
        for component in self.components:
            yield from component

    def __str__(self) -> str:
        body = ", ".join(" ".join(c) if c else "_" for c in self.components)
        return f"{self.head.name}({body})"


@dataclass(frozen=True, slots=True)
class MCFG:
    """An immutable grammar: non-terminals, alphabet, rules, start symbol."""

    nonterminals: tuple[NonTerminal, ...]
    alphabet: Alphabet
    rules: tuple[ProductionRule, ...]
    start: NonTerminal

    @classmethod
    def from_rules(
        cls,
        rules: Iterable[ProductionRule],
        start: NonTerminal | None = None,
        alphabet: Alphabet | None = None,
    ) -> "MCFG":
        """Build a grammar from its rules.

        Non-terminals (and, unless given explicitly, the alphabet) are
        collected in order of first occurrence; the start symbol defaults to
        the first rule's left-hand side.
        """
        rules = tuple(rules)
        nts: dict[NonTerminal, None] = {}
        letters: dict[Letter, None] = {}
        for rule in rules:
            nts.setdefault(rule.lhs)
            for nt in rule.rhs:
                nts.setdefault(nt)
            for letter in rule.terminals():
                letters.setdefault(letter)
        if start is None:
            if not rules:
                raise ValueError("cannot infer a start symbol from an empty rule list")
            start = rules[0].lhs
        nts.setdefault(start)
        if alphabet is None:
            alphabet = tuple(letters)
        return cls(tuple(nts), tuple(alphabet), rules, start)


@dataclass(frozen=True)
class Violation:
    """One broken well-formedness condition, attributed to a rule when possible."""

    message: str
    rule_index: int | None = None
    severity: str = "error"

    def __str__(self) -> str:
        where = "grammar" if self.rule_index is None else f"rule {self.rule_index}"
        return f"{self.severity} at {where}: {self.message}"


def validate_grammar(grammar: MCFG) -> list[Violation]:
    """Report every violated well-formedness condition; empty means valid.

    Checks, in order: consistent ranks per non-terminal name, duplicate-free
    alphabet, a rank-1 start symbol listed among the non-terminals, and per
    rule: declared left- and right-hand side symbols, variable indices within
    range, each variable used at most once, and all pattern letters drawn from
    the alphabet.  Duplicate rules are reported as warnings, everything else
    as errors.
    """
    out: list[Violation] = []
    ranks: dict[str, int] = {}
    for nt in grammar.nonterminals:
        if nt.name in ranks and ranks[nt.name] != nt.rank:
            out.append(
                Violation(
                    f"non-terminal {nt.name!r} declared with ranks "
                    f"{ranks[nt.name]} and {nt.rank}"
                )
            )
        ranks.setdefault(nt.name, nt.rank)
    if len(set(grammar.alphabet)) != len(grammar.alphabet):
        out.append(Violation("alphabet contains duplicate letters"))
    if grammar.start not in grammar.nonterminals:
        out.append(Violation(f"start symbol {grammar.start.name!r} is not among the non-terminals"))
    if grammar.start.rank != 1:
        out.append(Violation(f"start symbol must have rank 1, got rank {grammar.start.rank}"))

    declared = set(grammar.nonterminals)
    letters = set(grammar.alphabet)
    seen_rules: dict[ProductionRule, int] = {}
    for index, rule in enumerate(grammar.rules):
        if rule.lhs not in declared:
            out.append(
                Violation(
                    f"left-hand side {rule.lhs.name!r} (rank {rule.lhs.rank}) "
                    "is not among the non-terminals",
                    index,
                )
            )
        for position, nt in enumerate(rule.rhs, start=1):
            if nt not in declared:
                out.append(
                    Violation(
                        f"right-hand side entry {position} ({nt.name!r}, rank {nt.rank}) "
                        "is not among the non-terminals",
                        index,
                    )
                )
        used: set[Variable] = set()
        for item in (x for pattern in rule.patterns for x in pattern):
            if isinstance(item, Variable):
                if item.child > len(rule.rhs):
                    out.append(
                        Violation(
                            f"variable {item!r} refers to child {item.child} but the rule "
                            f"has {len(rule.rhs)} right-hand side entr(y/ies)",
                            index,
                        )
                    )
                elif item.component > rule.rhs[item.child - 1].rank:
                    out.append(
                        Violation(
                            f"variable {item!r} refers to component {item.component} but "
                            f"{rule.rhs[item.child - 1].name} has rank "
                            f"{rule.rhs[item.child - 1].rank}",
                            index,
                        )
                    )
                if item in used:
                    out.append(Violation(f"variable {item!r} is used more than once", index))
                used.add(item)
            else:
                if item not in letters:
                    out.append(Violation(f"letter {item!r} is not in the alphabet", index))
        if rule in seen_rules:
            out.append(
                Violation(f"duplicate of rule {seen_rules[rule]}", index, severity="warning")
            )
        else:
            seen_rules[rule] = index
    return out


def is_valid(grammar: MCFG) -> bool:
    """True when :func:`validate_grammar` reports no errors (warnings allowed)."""
    return not any(v.severity == "error" for v in validate_grammar(grammar))


def apply_rule(rule: ProductionRule, children: Sequence[Term]) -> Term:
    """Instantiate a rule on child terms, one per right-hand side entry.

    Splices each child component into the patterns at its variable's position
    and returns the resulting term for the left-hand side.
    """
    if len(children) != len(rule.rhs):
        raise RuleApplicationError(
            f"rule for {rule.lhs.name} expects {len(rule.rhs)} child term(s), "
            f"got {len(children)}"
        )
    for position, (child, nt) in enumerate(zip(children, rule.rhs), start=1):
        if child.head != nt:
            raise RuleApplicationError(
                f"child {position} derives {child.head.name} (rank {child.head.rank}) "
                f"where the rule expects {nt.name} (rank {nt.rank})"
            )
    components: list[Word] = []
    for pattern in rule.patterns:
        word: list[Letter] = []
        for item in pattern:
            if isinstance(item, Variable):
                try:
                    word.extend(children[item.child - 1].components[item.component - 1])
                except IndexError:
                    raise RuleApplicationError(
                        f"variable {item!r} is out of range for this rule"
                    ) from None
            else:
                word.append(item)
        components.append(tuple(word))
    return Term(rule.lhs, tuple(components))


def dimension(grammar: MCFG) -> int:
    """The largest rank among the grammar's non-terminals."""
    return max(nt.rank for nt in grammar.nonterminals)


def is_non_deleting(grammar: MCFG) -> bool:
    """True when every rule uses every variable its right-hand side offers."""
    return all(set(rule.variables()) == rule.available_variables() for rule in grammar.rules)


def is_normal_form(grammar: MCFG) -> tuple[bool, list[Violation]]:
    """Check the normal-form shape and report each deviation.

    In normal form a non-terminating rule carries no letters and uses every
    available variable exactly once, while a terminating rule carries exactly
    one letter across its components.  The reported violations use the
    severity ``"shape"``: not being in normal form does not make a grammar
    invalid.
    """
    out: list[Violation] = []
    for index, rule in enumerate(grammar.rules):
        if rule.terminating:
            count = sum(1 for _ in rule.terminals())
            if count != 1:
                out.append(
                    Violation(
                        f"terminating rule carries {count} letters; normal form "
                        "requires exactly one",
                        index,
                        severity="shape",
                    )
                )
        else:
            if any(True for _ in rule.terminals()):
                out.append(
                    Violation(
                        "non-terminating rule mixes letters into its patterns",
                        index,
                        severity="shape",
                    )
                )
            missing = rule.available_variables() - set(rule.variables())
            if missing:
                listed = ", ".join(
                    repr(v) for v in sorted(missing, key=lambda v: (v.child, v.component))
                )
                out.append(
                    Violation(
                        f"non-terminating rule never uses variable(s) {listed}",
                        index,
                        severity="shape",
                    )
                )
    return (not out, out)


def equivalent_grammars(first: MCFG, second: MCFG) -> bool:
    """Structural equality up to the listing order of non-terminals and letters."""
    return (
        first.rules == second.rules
        and first.start == second.start
        and set(first.nonterminals) == set(second.nonterminals)
        and set(first.alphabet) == set(second.alphabet)
    )
