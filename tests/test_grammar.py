import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import mcfgkit
from mcfgkit import (
    MCFG,
    NonTerminal,
    ProductionRule,
    RuleApplicationError,
    Term,
    Variable,
    apply_rule,
    dimension,
    equivalent_grammars,
    is_non_deleting,
    is_normal_form,
    is_valid,
    validate_grammar,
)
from mcfgkit import build_grammar, chain

from _randgrams import random_grammar

A1 = NonTerminal("A", 1)
B1 = NonTerminal("B", 1)
B2 = NonTerminal("B", 2)
C1 = NonTerminal("C", 1)
S = NonTerminal("S", 1)


def test_rank_must_be_positive():
    with pytest.raises(ValueError):
        NonTerminal("Z", 0)


def test_variable_indices_are_one_based():
    with pytest.raises(ValueError):
        Variable(0, 1)
    with pytest.raises(ValueError):
        Variable(1, 0)


def test_term_component_count_must_match_rank():
    with pytest.raises(ValueError):
        Term(B2, (("a",),))


def test_rule_pattern_count_must_match_rank():
    with pytest.raises(ValueError):
        ProductionRule(B2, ((Variable(1, 1),),), (A1,))


def test_two_block_grammar_is_valid(two_block):
    grammar, *_ = two_block
    assert validate_grammar(grammar) == []
    assert is_valid(grammar)


def test_variable_used_twice_is_flagged():
    rule = ProductionRule(B2, ((Variable(1, 1),), (Variable(1, 1),)), (A1,))
    g = MCFG.from_rules((rule, ProductionRule(A1, (("a",),))), start=B2)
    messages = [v.message for v in validate_grammar(g) if v.severity == "error"]
    assert any("more than once" in m for m in messages)


def test_variable_child_out_of_range_is_flagged():
    rule = ProductionRule(A1, ((Variable(2, 1),),), (B1,))
    g = MCFG.from_rules((rule, ProductionRule(B1, (("a",),))), start=A1)
    messages = [v.message for v in validate_grammar(g)]
    assert any("child 2" in m for m in messages)


def test_variable_component_out_of_range_is_flagged():
    rule = ProductionRule(A1, ((Variable(1, 2),),), (B1,))
    g = MCFG.from_rules((rule, ProductionRule(B1, (("a",),))), start=A1)
    messages = [v.message for v in validate_grammar(g)]
    assert any("component 2" in m for m in messages)


def test_letter_outside_alphabet_is_flagged():
    g = MCFG((S,), ("a",), (ProductionRule(S, (("b",),)),), S)
    messages = [v.message for v in validate_grammar(g)]
    assert any("'b'" in m and "alphabet" in m for m in messages)


def test_start_symbol_must_have_rank_one():
    g = MCFG((B2, A1), ("a",), (ProductionRule(A1, (("a",),)),), B2)
    messages = [v.message for v in validate_grammar(g)]
    assert any("rank 1" in m for m in messages)


def test_conflicting_ranks_for_one_name_are_flagged():
    g = MCFG((B1, B2, S), ("a",), (ProductionRule(S, (("a",),)),), S)
    messages = [v.message for v in validate_grammar(g)]
    assert any("ranks 1 and 2" in m for m in messages)


def test_duplicate_rules_warn_but_stay_valid():
    rule = ProductionRule(S, (("a",),))
    g = MCFG.from_rules((rule, rule), start=S)
    report = validate_grammar(g)
    assert [v.severity for v in report] == ["warning"]
    assert is_valid(g)


def test_validate_is_idempotent(two_block):
    grammar, *_ = two_block
    assert validate_grammar(grammar) == validate_grammar(grammar)


# --- apply_rule -------------------------------------------------------------


def test_apply_increment_rule(two_block):
    _, _, empty, _, rho2 = two_block
    base = apply_rule(empty, ())
    assert apply_rule(rho2, (base,)) == Term(empty.lhs, (("a1", "a2"),))


def test_apply_collect_rule():
    a2 = NonTerminal("A", 2)
    collect = ProductionRule(S, ((Variable(1, 1), Variable(1, 2)),), (a2,))
    out = apply_rule(collect, (Term(a2, (("a1",), ("a3",))),))
    assert out == Term(S, (("a1", "a3"),))


def test_apply_two_child_concatenation():
    rule = ProductionRule(A1, ((Variable(1, 1), Variable(2, 1)),), (B1, C1))
    out = apply_rule(rule, (Term(B1, (("a", "b"),)), Term(C1, (("c",),))))
    assert out == Term(A1, (("a", "b", "c"),))


def test_apply_rejects_wrong_arity(two_block):
    _, _, _, rho1, _ = two_block
    with pytest.raises(RuleApplicationError):
        apply_rule(rho1, ())


def test_apply_rejects_wrong_head(two_block):
    _, collect, _, _, _ = two_block
    with pytest.raises(RuleApplicationError):
        apply_rule(collect, (Term(S, (("a1",),)),))


# --- shape predicates -------------------------------------------------------


@pytest.mark.parametrize("k,expected", [(2, 1), (4, 2), (5, 3)])
def test_dimension_of_built_grammars(k, expected):
    assert dimension(build_grammar(chain(k))) == expected


def test_built_grammars_are_not_normal_form(two_block):
    grammar, *_ = two_block
    normal, violations = is_normal_form(grammar)
    assert not normal
    assert violations


def test_single_letter_rule_is_normal_form():
    g = MCFG.from_rules((ProductionRule(S, (("a",),)),), start=S)
    assert is_normal_form(g) == (True, [])


def test_letterless_terminating_rule_breaks_normal_form():
    a2 = NonTerminal("A", 2)
    g = MCFG.from_rules(
        (
            ProductionRule(S, ((Variable(1, 1), Variable(1, 2)),), (a2,)),
            ProductionRule(a2, ((), ())),
        ),
        start=S,
    )
    normal, violations = is_normal_form(g)
    assert not normal
    assert any("exactly one" in v.message for v in violations)


def test_built_grammars_are_non_deleting(two_block):
    grammar, *_ = two_block
    assert is_non_deleting(grammar)


def test_unused_component_is_deleting():
    g = MCFG.from_rules(
        (
            ProductionRule(A1, ((Variable(1, 1),),), (B2,)),
            ProductionRule(B2, (("a",), ("b",))),
        ),
        start=A1,
    )
    assert not is_non_deleting(g)


def test_terminating_only_grammar_is_non_deleting():
    g = MCFG.from_rules((ProductionRule(S, (("a",),)),), start=S)
    assert is_non_deleting(g)


def test_equivalent_grammars_ignore_listing_order(two_block):
    grammar, *_ = two_block
    reordered = MCFG(
        tuple(reversed(grammar.nonterminals)),
        tuple(reversed(grammar.alphabet)),
        grammar.rules,
        grammar.start,
    )
    assert equivalent_grammars(grammar, reordered)
    assert not equivalent_grammars(grammar, build_grammar(chain(3)))


# --- properties over random grammars ---------------------------------------


@given(st.integers(0, 10**6))
def test_random_grammars_are_valid_and_non_deleting(seed):
    g = random_grammar(random.Random(seed))
    assert is_valid(g)
    assert is_non_deleting(g)


@given(st.integers(0, 10**6))
def test_normal_form_implies_non_deleting(seed):
    g = random_grammar(random.Random(seed))
    if is_normal_form(g)[0]:
        assert is_non_deleting(g)


@given(st.integers(0, 10**6))
def test_apply_rule_letter_accounting(seed):
    rng = random.Random(seed)
    g = random_grammar(rng)
    terminating = [r for r in g.rules if r.terminating]
    others = [r for r in g.rules if not r.terminating]
    if not others:
        return
    base = {}
    for rule in terminating:
        base.setdefault(rule.lhs, apply_rule(rule, ()))
    rule = rng.choice(others)
    if any(nt not in base for nt in rule.rhs):
        return
    children = [base[nt] for nt in rule.rhs]
    out = apply_rule(rule, children)
    in_patterns = sum(1 for _ in rule.terminals())
    used = sum(
        len(children[v.child - 1].components[v.component - 1]) for v in rule.variables()
    )
    assert out.total_length() == in_patterns + used
    assert len(out.components) == rule.lhs.rank
    # non-deleting grammars never shrink their children away
    assert out.total_length() >= sum(c.total_length() for c in children)


# Imports mcfgkit afresh five times and prints how many of the first import's
# classes are still alive.  A fresh process keeps this test's classes alone.
REIMPORT_PROBE = """
import gc, importlib, sys, weakref

sys.path.insert(0, sys.argv[1])

def fresh():
    for name in [n for n in sys.modules if n == "mcfgkit" or n.startswith("mcfgkit.")]:
        del sys.modules[name]
    return importlib.import_module("mcfgkit")

first = fresh()
refs = [weakref.ref(first.MCFG), weakref.ref(first.Variable)]
del first
for _ in range(5):
    fresh()
gc.collect()
print(sum(ref() is not None for ref in refs))
"""


def test_reimported_modules_are_freed():
    source = str(Path(mcfgkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", REIMPORT_PROBE, source], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
