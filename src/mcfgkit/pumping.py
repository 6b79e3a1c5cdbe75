"""Subtree-swap experiments on derivation trees.

A *combining* rule has at least two non-terminals on its right-hand side; a
*pump site* is a pair of nodes on a common root-to-leaf path that carry the
same combining rule.  Because the labels agree, the two subtrees can be
swapped for one another: replacing the outer subtree by the inner one shrinks
the tree, replacing the inner by the outer grows it, and both results are
valid derivation trees of the same grammar.

For non-deleting grammars the letter counts move by exactly the difference
between the outer and the inner subtree's counts — one swap down subtracts
it, one swap up adds it.  :func:`delta_report` computes that difference and
cross-checks it against the actual swapped trees; :func:`pump_experiment`
runs the whole cycle for a word: parse, enumerate sites, swap both ways, and
test the swapped yields against the grammar and against an order-constrained
block language.  The grammar verdict comes from the swapped tree itself: a
valid derivation tree rooted at the start symbol derives its yield, so no
yield is parsed again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .derivation import (
    DerivationTree,
    Path,
    letter_counts,
    nodes,
    subtree_at,
    substitute_subtree,
    validate_tree,
    yield_of,
)
from .errors import WordRejectedError
from .grammar import MCFG, ProductionRule, Word
from .preorders import Preorder, canonical_alphabet, member
from .recognizer import parse


def combiners(grammar: MCFG) -> list[ProductionRule]:
    """The rules with at least two right-hand side non-terminals."""
    return [rule for rule in grammar.rules if len(rule.rhs) >= 2]


def combiner_count(grammar: MCFG) -> int:
    """How many combining rules the grammar has."""
    return len(combiners(grammar))


def branching_bound(grammar: MCFG) -> int:
    """The largest right-hand side length over all rules (0 for no rules)."""
    return max((len(rule.rhs) for rule in grammar.rules), default=0)


def site_forcing_size(grammar: MCFG) -> int:
    """A yield-length threshold above which a tree must contain a pump site.

    Returns ``K ** (2 * C)`` for the branching bound ``K`` and combining-rule
    count ``C``.  In a normal-form grammar every letter sits at its own leaf
    and only combining nodes branch, so a site-free tree — one where no
    root-to-leaf path repeats a combining rule — yields at most ``K ** C``
    letters.  Any tree whose yield is longer than the returned threshold
    therefore contains a pump site.
    """
    return branching_bound(grammar) ** (2 * combiner_count(grammar))


@dataclass(frozen=True)
class PumpSite:
    """A nested pair of tree nodes carrying the same combining rule."""

    outer: Path
    inner: Path
    rule: ProductionRule


def find_pump_sites(tree: DerivationTree) -> list[PumpSite]:
    """Every pump site of the tree, outer node first in document order."""
    out: list[PumpSite] = []
    for outer_path, outer_node in nodes(tree):
        if len(outer_node.rule.rhs) < 2:
            continue
        for relative_path, descendant in nodes(outer_node):
            if relative_path and descendant.rule == outer_node.rule:
                out.append(
                    PumpSite(outer_path, outer_path + relative_path, outer_node.rule)
                )
    return out


def _check_site(tree: DerivationTree, site: PumpSite) -> None:
    if len(site.inner) <= len(site.outer) or site.inner[: len(site.outer)] != site.outer:
        raise ValueError(
            f"not a pump site: {site.inner} does not lie strictly below {site.outer}"
        )
    outer = subtree_at(tree, site.outer)
    inner = subtree_at(tree, site.inner)
    if outer.rule != site.rule or inner.rule != site.rule:
        raise ValueError("not a pump site of this tree: the node labels do not match it")
    if len(site.rule.rhs) < 2:
        raise ValueError("not a pump site: its rule is not a combining rule")


def pump_down(tree: DerivationTree, site: PumpSite) -> DerivationTree:
    """Swap the shrinking way: the inner subtree replaces the whole outer one."""
    _check_site(tree, site)
    return substitute_subtree(tree, site.outer, subtree_at(tree, site.inner))


def pump_up(tree: DerivationTree, site: PumpSite) -> DerivationTree:
    """Swap the growing way: the outer subtree replaces the inner one.

    The replacement still contains the inner position as a descendant; trees
    are immutable values here, so the copy is shared, not cyclic.
    """
    _check_site(tree, site)
    return substitute_subtree(tree, site.inner, subtree_at(tree, site.outer))


@dataclass
class DeltaReport:
    """Letter-count bookkeeping for one pump site.

    ``deltas`` maps each letter to the outer subtree's count minus the inner
    subtree's count.  The two flags confirm the swap arithmetic on the actual
    trees: swapping down subtracts the delta from the whole tree's counts,
    swapping up adds it.  When an order is supplied, ``comparable_pairs``
    records for each related index pair whether the two deltas are equal.
    """

    deltas: dict[str, int]
    down_arithmetic_ok: bool
    up_arithmetic_ok: bool
    comparable_pairs: tuple[tuple[int, int, bool], ...] = ()


def delta_report(
    tree: DerivationTree,
    site: PumpSite,
    preorder: Preorder | None = None,
    alphabet: Iterable[str] | None = None,
) -> DeltaReport:
    """Count difference between a site's outer and inner subtrees, cross-checked.

    The letters reported are the given alphabet's (defaulting to ``a1 .. am``
    when an order is supplied, and to the letters occurring in the two
    subtrees otherwise), extended by any further letters seen.
    """
    _check_site(tree, site)
    outer_counts = letter_counts(subtree_at(tree, site.outer))
    inner_counts = letter_counts(subtree_at(tree, site.inner))
    if alphabet is None:
        if preorder is not None:
            letters = list(canonical_alphabet(preorder.size))
        else:
            letters = sorted(set(outer_counts) | set(inner_counts))
    else:
        letters = list(alphabet)
    for letter in sorted(set(outer_counts) | set(inner_counts)):
        if letter not in letters:
            letters.append(letter)
    deltas = {letter: outer_counts[letter] - inner_counts[letter] for letter in letters}

    whole = letter_counts(tree)
    down = letter_counts(pump_down(tree, site))
    up = letter_counts(pump_up(tree, site))
    seen = set(letters) | set(whole) | set(down) | set(up)
    down_ok = all(down[l] == whole[l] - deltas.get(l, 0) for l in seen)
    up_ok = all(up[l] == whole[l] + deltas.get(l, 0) for l in seen)

    pairs: tuple[tuple[int, int, bool], ...] = ()
    if preorder is not None:
        if len(letters) < preorder.size:
            raise ValueError(
                f"cannot align {len(letters)} letters with an order on "
                f"{preorder.size} indices"
            )
        pairs = tuple(
            (i, j, deltas[letters[i - 1]] == deltas[letters[j - 1]])
            for i, j in preorder.pairs()
        )
    return DeltaReport(deltas, down_ok, up_ok, pairs)


@dataclass
class SiteResult:
    """Everything measured at one pump site of one derivation tree.

    ``down_in_grammar`` and ``up_in_grammar`` say whether the swapped tree is
    a valid derivation tree of the grammar rooted at its start symbol, which
    makes its yield a word of the grammar's language.
    """

    site: PumpSite
    delta: DeltaReport
    down_yield: Word
    up_yield: Word
    down_in_grammar: bool
    up_in_grammar: bool
    down_in_order_language: bool
    up_in_order_language: bool


@dataclass
class ExperimentReport:
    """Result of pumping one word at every site of its derivation tree."""

    word: Word
    sites: list[SiteResult]

    @property
    def site_count(self) -> int:
        return len(self.sites)

    def order_counterexamples(self) -> list[SiteResult]:
        """The sites where some swapped yield left the order-constrained language."""
        return [
            result
            for result in self.sites
            if not (result.down_in_order_language and result.up_in_order_language)
        ]


def _derives_from_start(grammar: MCFG, tree: DerivationTree) -> bool:
    """Whether the tree is a valid derivation tree of the grammar for its start symbol."""
    return validate_tree(tree, grammar)[0] and tree.rule.lhs == grammar.start


def pump_experiment(grammar: MCFG, preorder: Preorder, word: Word) -> ExperimentReport:
    """Parse, swap at every site both ways, and test the swapped yields.

    A swapped yield is in the grammar's language when its swapped tree is a
    valid derivation tree rooted at the start symbol; the tree is checked
    with :func:`validate_tree`, and the yield is not parsed again.  The
    grammar's alphabet is aligned positionally with the order's indices, so
    it must have exactly ``preorder.size`` letters.  Raises
    :class:`WordRejectedError` when the grammar does not derive the word.
    """
    word = tuple(word)
    if len(grammar.alphabet) != preorder.size:
        raise ValueError(
            f"the grammar's alphabet has {len(grammar.alphabet)} letters but the "
            f"order constrains {preorder.size} indices"
        )
    tree = parse(grammar, word)
    if tree is None:
        raise WordRejectedError(
            f"the grammar does not derive {' '.join(word) if word else 'the empty word'}"
        )
    results: list[SiteResult] = []
    for site in find_pump_sites(tree):
        delta = delta_report(tree, site, preorder, alphabet=grammar.alphabet)
        down = pump_down(tree, site)
        up = pump_up(tree, site)
        down_yield = yield_of(down)
        up_yield = yield_of(up)
        results.append(
            SiteResult(
                site,
                delta,
                down_yield,
                up_yield,
                _derives_from_start(grammar, down),
                _derives_from_start(grammar, up),
                member(preorder, down_yield, grammar.alphabet),
                member(preorder, up_yield, grammar.alphabet),
            )
        )
    return ExperimentReport(word, results)
