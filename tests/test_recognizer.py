"""Recogniser tests, cross-checked against bounded enumeration."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from mcfgkit import (
    ForeignLetterError,
    UnsupportedGrammarError,
    build_grammar,
    chain,
    closure,
    deleting_grammar,
    discrete,
    enumerate_language,
    balanced_pair_grammar,
    DerivationTree,
    parse,
    recognize,
    term_of,
    validate_tree,
    yield_of,
)

from _randgrams import random_grammar


@pytest.fixture(scope="module")
def two_block_grammar():
    return build_grammar(chain(2))


def test_accepts_a_word_with_more_a1_than_a2(two_block_grammar):
    assert recognize(two_block_grammar, ("a1", "a1", "a2"))


def test_rejects_a_word_with_more_a2_than_a1(two_block_grammar):
    assert not recognize(two_block_grammar, ("a1", "a2", "a2"))


def test_rejects_interleavings(two_block_grammar):
    assert not recognize(two_block_grammar, ("a2", "a1"))


def test_accepts_the_empty_word():
    for p in (chain(2), chain(3), discrete(2)):
        assert recognize(build_grammar(p), ())


def test_parse_returns_the_shortest_derivation(two_block_grammar):
    collect, empty, rho1, rho2 = two_block_grammar.rules
    tree = parse(two_block_grammar, ("a1", "a2"))
    assert tree is not None
    assert tree.rule == collect
    assert tree.children[0].rule == rho2
    assert tree.children[0].children[0].rule == empty


def test_parse_returns_none_on_rejection(two_block_grammar):
    assert parse(two_block_grammar, ("a2",)) is None


def test_parse_is_deterministic(two_block_grammar):
    word = ("a1",) * 3 + ("a2",) * 2
    trees = {parse(two_block_grammar, word) for _ in range(5)}
    assert len(trees) == 1


def test_balanced_pairs_need_rank_two():
    grammar = balanced_pair_grammar()
    assert recognize(grammar, ("a", "b"))
    assert recognize(grammar, ("a", "a", "b", "b"))
    assert not recognize(grammar, ())
    assert not recognize(grammar, ("a", "a", "b"))
    assert not recognize(grammar, ("b", "a"))


def test_balanced_pairs_parse_to_the_nested_tree():
    grammar = balanced_pair_grammar()
    collect, grow, pair, left, right = grammar.rules
    inner = DerivationTree(
        grow, (DerivationTree(pair), DerivationTree(left), DerivationTree(right))
    )
    outer = DerivationTree(grow, (inner, DerivationTree(left), DerivationTree(right)))
    assert parse(grammar, ("a", "a", "a", "b", "b", "b")) == DerivationTree(collect, (outer,))


def test_recognize_and_parse_leave_no_cyclic_garbage(two_block_grammar):
    word = ("a1",) * 20 + ("a2",) * 15
    gc.collect()
    gc.disable()
    try:
        assert recognize(two_block_grammar, word)
        assert gc.collect() == 0
        assert parse(two_block_grammar, word) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_foreign_letters_are_an_error(two_block_grammar):
    with pytest.raises(ForeignLetterError):
        recognize(two_block_grammar, ("a1", "z"))


def test_deleting_grammars_are_not_supported():
    with pytest.raises(UnsupportedGrammarError):
        recognize(deleting_grammar(), ("a",))
    with pytest.raises(UnsupportedGrammarError):
        parse(deleting_grammar(), ("a",))


def test_agrees_with_enumeration_on_a_vee_order():
    p = closure(3, [(2, 1), (2, 3)])
    grammar = build_grammar(p)
    language = enumerate_language(grammar, 4)
    alphabet = grammar.alphabet
    for n1 in range(3):
        for n2 in range(3):
            for n3 in range(3):
                word = (alphabet[0],) * n1 + (alphabet[1],) * n2 + (alphabet[2],) * n3
                if len(word) <= 4:
                    assert recognize(grammar, word) == (word in language)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=60)
def test_agrees_with_enumeration_on_random_grammars(seed):
    _agrees_with_enumeration(random_grammar(random.Random(seed)))


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=60)
def test_agrees_with_enumeration_on_random_grammars_with_three_children(seed):
    # with three children, a slot can be looked up from another non-trigger slot
    _agrees_with_enumeration(random_grammar(random.Random(seed), max_children=3))


def _agrees_with_enumeration(grammar):
    language = enumerate_language(grammar, 3)
    for length in range(4):
        for word in _words(grammar.alphabet, length):
            assert recognize(grammar, word) == (word in language)


def _words(alphabet, length):
    if length == 0:
        yield ()
        return
    for prefix in _words(alphabet, length - 1):
        for letter in alphabet:
            yield prefix + (letter,)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=60)
def test_parses_are_valid_and_yield_the_word(seed):
    rng = random.Random(seed)
    grammar = random_grammar(rng)
    for word in sorted(enumerate_language(grammar, 3)):
        tree = parse(grammar, word)
        assert tree is not None
        ok, problems = validate_tree(tree, grammar)
        assert ok, problems
        term = term_of(tree)
        assert term.head == grammar.start
        assert yield_of(tree) == word
