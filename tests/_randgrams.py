"""Seeded random grammars and derivation trees for the test bench.

Everything is deterministic in the supplied ``random.Random``, so failures
reproduce from a seed.  ``random_grammar`` draws small valid non-deleting
grammars (about half of them in normal form); ``random_productive_grammar``
additionally guarantees a terminating rule for every non-terminal, which
makes bounded random tree growth possible via ``grow_tree``.
"""

from __future__ import annotations

import random

from mcfgkit import MCFG, DerivationTree, NonTerminal, ProductionRule, Variable

LETTERS = ("a", "b", "c")


def _random_terminating(
    rng: random.Random, lhs: NonTerminal, alphabet: tuple[str, ...], normal: bool
) -> ProductionRule:
    components: list[list[str]] = [[] for _ in range(lhs.rank)]
    if normal:
        components[rng.randrange(lhs.rank)].append(rng.choice(alphabet))
    else:
        for _ in range(rng.randint(0, 2)):
            components[rng.randrange(lhs.rank)].append(rng.choice(alphabet))
    return ProductionRule(lhs, tuple(tuple(c) for c in components))


def _random_nonterminating(
    rng: random.Random,
    lhs: NonTerminal,
    rhs: tuple[NonTerminal, ...],
    alphabet: tuple[str, ...],
    normal: bool,
) -> ProductionRule:
    variables = [
        Variable(child, component)
        for child, nt in enumerate(rhs, start=1)
        for component in range(1, nt.rank + 1)
    ]
    rng.shuffle(variables)
    cuts = sorted(rng.randint(0, len(variables)) for _ in range(lhs.rank - 1))
    bounds = [0, *cuts, len(variables)]
    patterns = [
        list(variables[bounds[i] : bounds[i + 1]]) for i in range(lhs.rank)
    ]
    if not normal:
        for _ in range(rng.randint(0, 2)):
            pattern = patterns[rng.randrange(lhs.rank)]
            pattern.insert(rng.randint(0, len(pattern)), rng.choice(alphabet))
    return ProductionRule(lhs, tuple(tuple(p) for p in patterns), rhs)


def _pool(rng: random.Random, extra_chance: float) -> list[NonTerminal]:
    pool = [NonTerminal("S", 1)]
    for name in ("B", "C"):
        if rng.random() < extra_chance:
            pool.append(NonTerminal(name, rng.randint(1, 2)))
    return pool


def random_grammar(rng: random.Random, max_rules: int = 4, max_children: int = 2) -> MCFG:
    """A valid non-deleting grammar with at most ``max_rules`` rules.

    Non-terminating rules get between one and ``max_children`` right-hand
    side entries.
    """
    normal = rng.random() < 0.5
    alphabet = LETTERS[: rng.randint(1, 3)]
    pool = _pool(rng, extra_chance=0.5)
    start = pool[0]
    target = rng.randint(1, max_rules)
    rules = [_random_terminating(rng, start, alphabet, normal)]
    while len(rules) < target:
        lhs = rng.choice(pool)
        if rng.random() < 0.4:
            rules.append(_random_terminating(rng, lhs, alphabet, normal))
        else:
            rhs = tuple(rng.choice(pool) for _ in range(rng.randint(1, max_children)))
            rules.append(_random_nonterminating(rng, lhs, rhs, alphabet, normal))
    return MCFG.from_rules(tuple(rules), start=start, alphabet=alphabet)


def random_productive_grammar(rng: random.Random, max_children: int = 2) -> MCFG:
    """A valid non-deleting grammar where every non-terminal can terminate.

    Non-terminating rules get between one and ``max_children`` right-hand
    side entries.
    """
    normal = rng.random() < 0.5
    alphabet = LETTERS[: rng.randint(1, 3)]
    pool = _pool(rng, extra_chance=0.7)
    rules = [_random_terminating(rng, nt, alphabet, normal) for nt in pool]
    for _ in range(rng.randint(2, 4)):
        lhs = rng.choice(pool)
        rhs = tuple(rng.choice(pool) for _ in range(rng.randint(1, max_children)))
        rules.append(_random_nonterminating(rng, lhs, rhs, alphabet, normal))
    return MCFG.from_rules(tuple(rules), start=pool[0], alphabet=alphabet)


def grow_tree(
    grammar: MCFG, nt: NonTerminal, rng: random.Random, depth: int = 4
) -> DerivationTree:
    """A random derivation tree for ``nt``, terminating once ``depth`` runs out."""
    candidates = [rule for rule in grammar.rules if rule.lhs == nt]
    terminating = [rule for rule in candidates if rule.terminating]
    if depth <= 0 and terminating:
        rule = rng.choice(terminating)
    else:
        rule = rng.choice(candidates)
    return DerivationTree(
        rule, tuple(grow_tree(grammar, child, rng, depth - 1) for child in rule.rhs)
    )
