import random

import pytest
from hypothesis import given, settings, strategies as st

from mcfgkit import (
    DerivationTree,
    MCFG,
    NonTerminal,
    ProductionRule,
    PumpSite,
    Variable,
    WordRejectedError,
    branching_bound,
    build_grammar,
    chain,
    combiner_count,
    combiners,
    delta_report,
    find_pump_sites,
    is_non_deleting,
    is_normal_form,
    overgenerating_block_grammar,
    parse,
    pump_down,
    pump_experiment,
    pump_up,
    recognize,
    single_letter_pump_grammar,
    site_forcing_size,
    term_of,
    validate_tree,
    yield_of,
)

from _randgrams import grow_tree, random_productive_grammar


@pytest.fixture(scope="module")
def g_pump():
    return single_letter_pump_grammar()


# --- structural measures ----------------------------------------------------


def test_combiner_inventory(g_pump):
    assert combiners(g_pump) == [g_pump.rules[0]]
    assert combiner_count(g_pump) == 1
    assert branching_bound(g_pump) == 2
    assert site_forcing_size(g_pump) == 4


def test_built_chain_grammars_have_no_combiners():
    grammar = build_grammar(chain(4))
    assert combiners(grammar) == []
    assert branching_bound(grammar) == 1
    assert site_forcing_size(grammar) == 1


def test_terminating_only_grammar_measures():
    s = NonTerminal("S", 1)
    grammar = MCFG.from_rules((ProductionRule(s, (("a",),)),))
    assert branching_bound(grammar) == 0
    assert combiner_count(grammar) == 0


# --- locating sites ---------------------------------------------------------


def test_three_letter_tree_has_one_site(g_pump):
    tree = parse(g_pump, ("a",) * 3)
    assert find_pump_sites(tree) == [PumpSite((), (0,), g_pump.rules[0])]


def test_four_letter_tree_has_three_sites(g_pump):
    tree = parse(g_pump, ("a",) * 4)
    assert [(s.outer, s.inner) for s in find_pump_sites(tree)] == [
        ((), (0,)),
        ((), (0, 0)),
        ((0,), (0, 0)),
    ]


def test_single_letter_tree_has_no_sites(g_pump):
    assert find_pump_sites(parse(g_pump, ("a",))) == []


# --- the two swaps ----------------------------------------------------------


def test_pump_down_shrinks_by_the_delta(g_pump):
    tree = parse(g_pump, ("a",) * 3)
    [site] = find_pump_sites(tree)
    assert yield_of(pump_down(tree, site)) == ("a", "a")


def test_pump_up_grows_by_the_delta(g_pump):
    tree = parse(g_pump, ("a",) * 3)
    [site] = find_pump_sites(tree)
    assert yield_of(pump_up(tree, site)) == ("a",) * 4


def test_swapping_back_restores_the_tree(g_pump):
    tree = parse(g_pump, ("a",) * 4)
    for site in find_pump_sites(tree):
        relative = site.inner[len(site.outer):]
        grown = pump_up(tree, site)
        back = PumpSite(site.inner, site.inner + relative, site.rule)
        assert pump_down(grown, back) == tree


def test_sites_must_be_nested(g_pump):
    tree = parse(g_pump, ("a",) * 3)
    rule = g_pump.rules[0]
    with pytest.raises(ValueError):
        pump_down(tree, PumpSite((0,), (), rule))
    with pytest.raises(ValueError):
        pump_down(tree, PumpSite((), (), rule))
    with pytest.raises(ValueError):
        pump_down(tree, PumpSite((), (1,), rule))  # label at (1,) is a leaf


def test_sites_must_carry_a_combining_rule(two_block):
    _, _, empty, rho1, _ = two_block
    tree = DerivationTree(rho1, (DerivationTree(rho1, (DerivationTree(empty),)),))
    with pytest.raises(ValueError):
        pump_down(tree, PumpSite((), (0,), rho1))


# --- count bookkeeping ------------------------------------------------------


def test_delta_for_the_single_letter_example(g_pump):
    tree = parse(g_pump, ("a",) * 3)
    [site] = find_pump_sites(tree)
    report = delta_report(tree, site)
    assert report.deltas == {"a": 1}
    assert report.down_arithmetic_ok and report.up_arithmetic_ok
    assert report.comparable_pairs == ()


def test_delta_can_be_zero_even_for_a_proper_swap():
    # letterless T leaves make the outer and the inner subtree weigh the same
    s = NonTerminal("S", 1)
    t = NonTerminal("T", 1)
    combine = ProductionRule(s, ((Variable(1, 1), Variable(2, 1)),), (s, t))
    t_empty = ProductionRule(t, ((),))
    s_leaf = ProductionRule(s, (("a",),))
    inner = DerivationTree(combine, (DerivationTree(s_leaf), DerivationTree(t_empty)))
    tree = DerivationTree(combine, (inner, DerivationTree(t_empty)))
    [site] = [x for x in find_pump_sites(tree) if x.outer == ()]
    report = delta_report(tree, site)
    assert report.deltas == {"a": 0}
    assert report.down_arithmetic_ok and report.up_arithmetic_ok
    assert yield_of(pump_down(tree, site)) == ("a",)
    assert yield_of(pump_up(tree, site)) == ("a",)


def test_delta_pairs_flag_unequal_growth():
    grammar = overgenerating_block_grammar()
    word = ("a1", "a1", "a2", "a2", "a3", "a3")
    tree = parse(grammar, word)
    [site] = find_pump_sites(tree)
    report = delta_report(tree, site, chain(3), alphabet=grammar.alphabet)
    assert report.deltas == {"a1": 0, "a2": 0, "a3": 1}
    assert set(report.comparable_pairs) == {(2, 1, True), (3, 2, False), (3, 1, False)}


def test_delta_report_needs_enough_letters_for_the_order(g_pump):
    tree = parse(g_pump, ("a",) * 3)
    [site] = find_pump_sites(tree)
    with pytest.raises(ValueError):
        delta_report(tree, site, chain(2), alphabet=("a",))


# --- the full experiment ----------------------------------------------------


def test_experiment_on_a_site_free_grammar():
    grammar = build_grammar(chain(2))
    report = pump_experiment(grammar, chain(2), ("a1", "a1", "a2"))
    assert report.site_count == 0
    assert report.order_counterexamples() == []


def test_experiment_flags_the_overgeneration():
    grammar = overgenerating_block_grammar()
    report = pump_experiment(grammar, chain(3), ("a1", "a1", "a2", "a2", "a3", "a3"))
    assert report.site_count == 1
    [result] = report.sites
    assert result.down_yield == ("a1", "a1", "a2", "a2", "a3")
    assert result.up_yield == ("a1", "a1", "a2", "a2", "a3", "a3", "a3")
    assert result.down_in_grammar and result.up_in_grammar
    assert result.down_in_order_language
    assert not result.up_in_order_language
    assert report.order_counterexamples() == [result]


def test_experiment_rejects_underivable_words():
    with pytest.raises(WordRejectedError):
        pump_experiment(overgenerating_block_grammar(), chain(3), ("a3", "a1"))


def test_experiment_rejects_mismatched_alphabet_sizes():
    with pytest.raises(ValueError):
        pump_experiment(build_grammar(chain(2)), chain(3), ())


# --- properties over random trees -------------------------------------------


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=80)
def test_swapped_trees_stay_valid_and_obey_the_arithmetic(seed):
    rng = random.Random(seed)
    grammar = random_productive_grammar(rng)
    tree = grow_tree(grammar, grammar.start, rng, depth=5)
    for site in find_pump_sites(tree):
        down = pump_down(tree, site)
        up = pump_up(tree, site)
        for swapped in (down, up):
            ok, problems = validate_tree(swapped, grammar)
            assert ok, problems
            assert term_of(swapped).head == term_of(tree).head
        assert down.size() < tree.size() < up.size()
        report = delta_report(tree, site)
        assert report.down_arithmetic_ok and report.up_arithmetic_ok
        if is_non_deleting(grammar):
            assert all(count >= 0 for count in report.deltas.values())


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=80)
def test_long_yields_force_a_site_in_normal_form(seed):
    rng = random.Random(seed)
    grammar = random_productive_grammar(rng)
    if not is_normal_form(grammar)[0]:
        return
    tree = grow_tree(grammar, grammar.start, rng, depth=6)
    if len(yield_of(tree)) > site_forcing_size(grammar):
        assert find_pump_sites(tree)


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=20)
def test_swapped_tree_validity_agrees_with_the_recognizer(seed):
    rng = random.Random(seed)
    # on some random grammars with rank-2 non-terminals the recognizer's time
    # grows about 3x per letter (2.4 s at 7 letters), so no yield exceeds 5
    while True:
        grammar = random_productive_grammar(rng)
        word = yield_of(grow_tree(grammar, grammar.start, rng, depth=3))
        if len(word) <= 4:
            report = pump_experiment(grammar, chain(len(grammar.alphabet)), word)
            if report.sites and all(len(result.up_yield) <= 5 for result in report.sites):
                break
    for result in report.sites:
        assert result.down_in_grammar == recognize(grammar, result.down_yield)
        assert result.up_in_grammar == recognize(grammar, result.up_yield)
