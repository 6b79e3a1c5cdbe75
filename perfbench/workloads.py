"""Seeded workloads for the mcfgkit benchmark.

Each workload is an endless stream of rounds.  Every round but the first costs
the same: the same operations of each kind on the same grammars, orders and
words, with the same sizes of grammar and language.  So a run's medians do
not depend on how many rounds a fast or slow machine gets through, nor on the
seed.  The seed draws the order in which a round's operations run and, in
``oracle``, how the indices of each order are named; it draws nothing that
changes an operation's cost.  In ``oracle`` the first round also carries a
one-off heavy operation.

mcfgkit only ever sees the generated grammars, orders and words.  Expected
answers come from the benchmark's own arithmetic on block lengths
(:class:`Order`) and are cross-checked against mcfgkit's direct oracles.  Every
operation calls mcfgkit through module attributes looked up at call time, so
the wrappers that ``tracer.py`` installs see the calls.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from io import StringIO
from math import comb
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterable, Sequence


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``run`` does the work, ``check`` judges it.

    ``check`` returns None for a right answer and the cause otherwise.
    """

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def chain_pairs(size: int) -> tuple[tuple[int, int], ...]:
    """Pairs of the chain order ``n_1 >= n_2 >= ... >= n_size``."""
    return tuple((i + 1, i) for i in range(1, size))


class Order:
    """The benchmark's own preorder on 1..size: a pair (i, j) means n_i <= n_j."""

    def __init__(self, size: int, pairs: Iterable[tuple[int, int]] = ()) -> None:
        leq = [[i == j for j in range(size)] for i in range(size)]
        for i, j in pairs:
            leq[i - 1][j - 1] = True
        for k in range(size):
            for i in range(size):
                if leq[i][k]:
                    leq[i] = [a or b for a, b in zip(leq[i], leq[k])]
        self.size = size
        self.pairs = tuple(
            (i + 1, j + 1)
            for i in range(size)
            for j in range(size)
            if i != j and leq[i][j]
        )

    def letters(self) -> tuple[str, ...]:
        return tuple(f"a{i}" for i in range(1, self.size + 1))

    def admits(self, counts: Sequence[int]) -> bool:
        return all(counts[i - 1] <= counts[j - 1] for i, j in self.pairs)

    def accepts(self, word: Sequence[str], alphabet: Sequence[str] | None = None) -> bool:
        """Whether the word is blocks in alphabet order whose lengths the order admits."""
        index = {letter: i for i, letter in enumerate(alphabet or self.letters())}
        counts = [0] * self.size
        previous = 0
        for letter in word:
            i = index[letter]
            if i < previous:
                return False
            counts[i] += 1
            previous = i
        return self.admits(counts)

    def extension_count(self) -> int:
        """How many total preorders extend this one.

        A total preorder is a sequence of tied levels; a level may hold an
        index once everything that must not exceed it is placed or tied with it.
        """
        below = [1 << (j - 1) for j in range(1, self.size + 1)]
        for i, j in self.pairs:
            below[j - 1] |= 1 << (i - 1)
        everything = (1 << self.size) - 1

        @cache
        def ways(placed: int) -> int:
            if placed == everything:
                return 1
            rest = everything & ~placed
            total = 0
            level = rest
            while level:
                reach = placed | level
                if all(below[j] & ~reach == 0 for j in range(self.size) if level >> j & 1):
                    total += ways(reach)
                level = (level - 1) & rest
            return total

        return ways(0)

    def language_size(self, budget: int) -> int:
        """How many words of length <= budget the block language has."""

        def count(prefix: list[int], remaining: int) -> int:
            if len(prefix) == self.size:
                return int(self.admits(prefix))
            total = 0
            for n in range(remaining + 1):
                prefix.append(n)
                total += count(prefix, remaining - n)
                prefix.pop()
            return total

        return count([], budget)


def block_word(counts: Sequence[int], alphabet: Sequence[str]) -> tuple[str, ...]:
    return tuple(letter for letter, n in zip(alphabet, counts) for _ in range(n))


def word_text(word: Sequence[str]) -> str:
    return " ".join(word) if word else "_"


def run_cli(mc: ModuleType, argv: list[str]) -> tuple[int, str]:
    """``mcfg <argv>`` in process; returns the exit code and captured stdout."""
    out = StringIO()
    with redirect_stdout(out), redirect_stderr(StringIO()):
        code = mc.cli.main(argv)
    return code, out.getvalue()


def _verdict_problem(accepted: bool, expected: bool) -> str | None:
    if accepted == expected:
        return None
    verdicts = {True: "accept", False: "reject"}
    return f"verdict {verdicts[accepted]}, expected {verdicts[expected]}"


@dataclass
class _Target:
    """A grammar under test in the membership workload."""

    label: str
    order: Order
    preorder: Any  # the mcfgkit Preorder, or None for the a^n grammar
    grammar: Any
    path: Path
    lengths: tuple[int, ...]


class Membership:
    """Recognizer-heavy: ``recognize`` and ``parse`` queries, a fifth through the CLI.

    Chart saturation, joins and tree extraction do almost all the work; the
    grammars are built once, in set-up.  Two parses with derivations about 500
    deep, one through the API and one through the CLI, are kept apart as
    :meth:`probes`.

    Query cost follows word length, the kind of query and the verdict, and
    also where in the word a near miss or an out-of-order pair sits.  So the
    words are fixed: blocks as equal as the order allows, a near miss that
    adds a letter to the first block where one breaks the order, and an
    out-of-order word that swaps the two letters at its middle block
    boundary.  The seed draws the order the queries run in.
    """

    # label, order size, order pairs, lengths of the in-language word, the
    # near miss and the out-of-order word
    BLOCK_TARGETS = (
        ("chain2", 2, chain_pairs(2), (90, 130, 50)),
        ("chain3", 3, chain_pairs(3), (12, 18, 24)),
        ("chain4", 4, chain_pairs(4), (26, 14, 20)),
        ("chain5", 5, chain_pairs(5), (9, 11, 7)),
        ("chain6", 6, chain_pairs(6), (12, 8, 10)),
        ("vee3", 3, ((1, 2), (3, 2)), (14, 18, 10)),
    )
    SINGLE_LENGTHS = (20, 35, 50)
    # the kind of each of the 21 queries a round, in the order they are made:
    # 4 through the CLI (two in-language words, one near miss, one swap), the
    # rest split between the API calls
    KINDS = (
        ("cli-recognize",) + ("recognize", "parse") * 2 + ("cli-parse",) + ("recognize", "parse") * 2
    ) * 2 + ("recognize",)
    DEEP_COUNTS = (500, 500, 2)

    def __init__(self, mc: ModuleType, seed: int, workdir: Path) -> None:
        self.mc = mc
        self.seed = seed
        self.targets: list[_Target] = []
        for label, size, pairs, lengths in self.BLOCK_TARGETS:
            order = Order(size, pairs)
            preorder = mc.closure(size, order.pairs)
            grammar = mc.build_grammar(preorder)
            path = self._write(workdir / f"{label}.mcfg", grammar)
            self.targets.append(_Target(label, order, preorder, grammar, path, lengths))
        single = mc.single_letter_pump_grammar()
        path = self._write(workdir / "single.mcfg", single)
        self.single = _Target("a^n", Order(1), None, single, path, self.SINGLE_LENGTHS)
        deep = mc.overgenerating_block_grammar()
        path = self._write(workdir / "overgen.mcfg", deep)
        self.deep = _Target("overgen", Order(3, chain_pairs(3)), mc.chain(3), deep, path, ())

    def _write(self, path: Path, grammar: Any) -> Path:
        path.write_text(self.mc.formats.format_grammar(grammar))
        return path

    def round(self, number: int) -> list[Op]:
        rng = random.Random(f"membership:{self.seed}:{number}")
        queries: list[tuple[_Target, str, tuple[str, ...]]] = []
        for target in self.targets:
            letters = target.order.letters()
            in_length, near_length, swap_length = target.lengths
            counts = balanced_counts(target.order, in_length)
            queries.append((target, f"in {_dashed(counts)}", block_word(counts, letters)))
            near = near_miss(target.order, balanced_counts(target.order, near_length))
            queries.append((target, f"near {_dashed(near)}", block_word(near, letters)))
            counts = balanced_counts(target.order, swap_length)
            word = list(block_word(counts, letters))
            boundary = sum(counts[: target.order.size // 2])
            word[boundary - 1], word[boundary] = word[boundary], word[boundary - 1]
            queries.append((target, f"swap@{boundary} {_dashed(counts)}", tuple(word)))
        for n in self.single.lengths:
            queries.append((self.single, f"in {n}", ("a",) * n))
        planned = list(zip(queries, self.KINDS, strict=True))
        rng.shuffle(planned)
        ops = [
            self._op(f"r{number}.{index:02d} {kind} {target.label} {variant}", kind, target, word)
            for index, ((target, variant, word), kind) in enumerate(planned)
        ]
        return ops

    def probes(self) -> list[Op]:
        """Two parses with derivations about 500 deep, via the API and the CLI.

        They are not operations of the workload: they run once, after the
        traced run, and their errors are reported as a count.
        """
        word = block_word(self.DEEP_COUNTS, self.deep.order.letters())
        return [
            self._op(f"deep {kind} overgen in {_dashed(self.DEEP_COUNTS)}", kind, self.deep, word)
            for kind in ("parse", "cli-parse")
        ]

    def _op(self, name: str, kind: str, target: _Target, word: tuple[str, ...]) -> Op:
        mc = self.mc
        grammar = target.grammar
        if target.preorder is None:
            expected = len(word) >= 1
        else:
            expected = target.order.accepts(word)

        def cross_check() -> str | None:
            if target.preorder is not None and mc.member(target.preorder, word) != expected:
                return "the benchmark's verdict and preorders.member disagree"
            return None

        def check_tree(tree: Any) -> str | None:
            if (tree is not None) != expected:
                return _verdict_problem(tree is not None, expected)
            if tree is not None:
                valid, problems = mc.validate_tree(tree, grammar)
                if not valid:
                    return f"invalid tree: {problems[0]}"
                if mc.yield_of(tree) != word:
                    return "the tree's yield is not the word"
            return cross_check()

        if kind == "recognize":
            return Op(
                name, kind,
                lambda: mc.recognize(grammar, word),
                lambda accepted: _verdict_problem(accepted, expected) or cross_check(),
            )
        if kind == "parse":
            return Op(name, kind, lambda: mc.parse(grammar, word), check_tree)

        argv = ["recognize", str(target.path), word_text(word), "--json"]
        with_tree = kind == "cli-parse"
        if with_tree:
            argv.append("--parse")

        def check_cli(outcome: tuple[int, str]) -> str | None:
            code, out = outcome
            if code != (0 if expected else 1):
                return f"exit code {code}, expected {0 if expected else 1}"
            result = json.loads(out)["result"]
            problem = _verdict_problem(result["accepted"], expected)
            if problem:
                return problem
            if with_tree and (result["tree"] is not None) != expected:
                return "the JSON tree does not match the verdict"
            return cross_check()

        return Op(name, kind, lambda: run_cli(mc, argv), check_cli)


def _dashed(counts: Sequence[int]) -> str:
    return "-".join(map(str, counts))


def balanced_counts(order: Order, length: int) -> list[int]:
    """Blocks of the given total length, as equal as possible, that the order admits.

    The blocks that get the spare letters are the first such choice, in
    lexicographic order, that the order admits.
    """
    base, spare = divmod(length, order.size)
    for extra in combinations(range(order.size), spare):
        counts = [base + (i in extra) for i in range(order.size)]
        if order.admits(counts):
            return counts
    raise ValueError(f"no balanced blocks of length {length} fit the order {order.pairs}")


def near_miss(order: Order, counts: Sequence[int]) -> list[int]:
    """The blocks with one letter added to the first block where that breaks the
    order, or to the last block if no such block exists."""
    for i in range(order.size):
        near = [n + (i == j) for j, n in enumerate(counts)]
        if not order.admits(near):
            return near
    return [n + (j == order.size - 1) for j, n in enumerate(counts)]


def renamed(rng: random.Random, size: int, pairs: Iterable[tuple[int, int]]) -> Order:
    """The order with its indices renamed at random.

    Renaming keeps the number of totalisations, hence the grammar's size, and
    the number of words within a length budget.
    """
    names = rng.sample(range(1, size + 1), size)
    return Order(size, [(names[i - 1], names[j - 1]) for i, j in pairs])


class Oracle:
    """Enumeration- and construction-heavy: build a grammar, diff it with the direct listing.

    No recognizer calls.  The totalisation union, term saturation, the direct
    listing and, for the CLI quarter, grammar-file formatting and parsing do
    the work.  The construction emits one copy per totalisation, so each
    round takes the same order shapes and the seed renames their indices; the
    length budget for each keeps an operation within about a second.
    """

    # per order size: (totalisations, pairs, length budget) of each renamed order a round
    SHAPES = {
        3: (
            (2, ((1, 2), (2, 1), (2, 3)), 14),
            (4, ((1, 2), (2, 3)), 14),
            (6, ((1, 2), (1, 3)), 14),
            (8, ((1, 2),), 14),
        ),
        4: (
            (16, ((1, 2), (2, 3), (1, 4)), 10),
            (20, ((1, 2), (2, 3)), 10),
            (32, ((1, 2), (1, 3)), 10),
            (44, ((1, 2),), 10),
        ),
        5: (
            (104, ((1, 2), (2, 3), (1, 4)), 8),
            (132, ((1, 2), (2, 3)), 8),
            (176, ((1, 2), (3, 4)), 6),
            (220, ((1, 2), (1, 3)), 6),
        ),
    }
    # label, order size, order pairs, length budget: each once a round
    FIXED = (
        ("discrete4", 4, (), 10),
        ("discrete5", 5, (), 6),
        ("chain6", 6, chain_pairs(6), 12),
    )
    ONCE = ("discrete6", 6, (), 3)

    def __init__(self, mc: ModuleType, seed: int, workdir: Path) -> None:
        self.mc = mc
        self.seed = seed
        self.workdir = workdir
        self.fixed = [
            (label, Order(size, pairs), budget) for label, size, pairs, budget in self.FIXED
        ]
        self._sizes: dict[tuple, int] = {}

    def round(self, number: int) -> list[Op]:
        rng = random.Random(f"oracle:{self.seed}:{number}")
        groups = [
            [(f"closure{size}", renamed(rng, size, pairs), budget) for _, pairs, budget in shapes]
            for size, shapes in self.SHAPES.items()
        ] + [self.fixed]
        # about a quarter go through the CLI, as (group, index): the renamed
        # orders on 3, 4 and 5 indices with 2, 20 and 176 totalisations, and
        # discrete(5), the largest grammar file
        through_cli = {(0, 0), (1, 1), (2, 2), (3, 1)}
        planned = [
            (group, k, item) for group, items in enumerate(groups) for k, item in enumerate(items)
        ]
        rng.shuffle(planned)
        ops = []
        for index, (group, k, (label, order, budget)) in enumerate(planned):
            kind = "cli-compare" if (group, k) in through_cli else "compare"
            ops.append(self._op(index, number, kind, label, order, budget))
        if number == 0:
            label, size, pairs, budget = self.ONCE
            ops.insert(
                rng.randrange(len(ops) + 1),
                self._op(len(ops), 0, "compare", label, Order(size, pairs), budget),
            )
        return ops

    def _language_size(self, order: Order, budget: int) -> int:
        key = (order.size, budget) + order.pairs
        if key not in self._sizes:
            self._sizes[key] = order.language_size(budget)
        return self._sizes[key]

    def _op(self, index: int, number: int, kind: str, label: str, order: Order, budget: int) -> Op:
        mc = self.mc
        preorder = mc.closure(order.size, order.pairs)
        name = f"r{number}.{index:02d} {kind} {label} {list(order.pairs)} budget {budget}"

        def check_counts(agree: bool) -> str | None:
            if not agree:
                return "the grammar's language and the direct listing differ"
            listed = len(mc.direct_language(preorder, budget))
            expected = self._language_size(order, budget)
            if listed != expected:
                return f"direct_language lists {listed} words, the block language has {expected}"
            return None

        if kind == "compare":

            def run() -> bool:
                grammar = mc.build_grammar(preorder)
                return mc.compare_languages(grammar, preorder, budget).agree

            return Op(name, kind, run, check_counts)

        # rounds may be generated before earlier ones run, so files name their round
        order_path = self.workdir / f"r{number}-{index:02d}.ord"
        grammar_path = self.workdir / f"r{number}-{index:02d}.mcfg"
        order_path.write_text(
            "".join([f"m: {order.size}\n"] + [f"{i} <= {j}\n" for i, j in order.pairs])
        )

        def run_through_cli() -> tuple[int, int, str]:
            built, text = run_cli(mc, ["build-grammar", str(order_path)])
            grammar_path.write_text(text)
            compared, out = run_cli(
                mc,
                ["compare", str(grammar_path), str(order_path), "--max-len", str(budget), "--json"],
            )
            return built, compared, out

        def check_cli(outcome: tuple[int, int, str]) -> str | None:
            built, compared, out = outcome
            if built != 0:
                return f"build-grammar exit code {built}"
            result = json.loads(out)["result"]
            if compared != (0 if result["agree"] else 1):
                return f"compare exit code {compared} does not match agree={result['agree']}"
            if result["agree"] != (not result["only_in_grammar"] and not result["only_in_direct"]):
                return "agree does not match the listed differences"
            return check_counts(result["agree"])

        return Op(name, kind, run_through_cli, check_cli)


class Pump:
    """Derivation- and pumping-heavy: one ``pump_experiment`` per operation.

    Site search, subtree swaps, letter counting and two re-recognitions per
    site do the work, so the recognizer sees many short calls here rather
    than a few long ones.
    """

    # (n, m) of a1^n a2^n a3^m, n of a^n, and n of a^n b^n: 31 experiments.
    # A run's percentiles fall in the middle of one experiment's samples, not
    # between two sizes of different cost: as a^4 comes twice and a^13 three
    # times, the median (rank 16 of 31) on a1^3 a2^3 a3^5 and the 90th
    # percentile (rank 27.9) on a^13
    OVER = (
        (6, 0), (3, 1), (9, 2), (4, 2), (11, 3), (2, 3), (7, 4), (5, 4),
        (10, 5), (3, 5), (8, 6), (4, 6), (6, 7), (9, 8), (6, 10),
    )
    SINGLE = (4, 4, 5, 6, 7, 8, 9, 10, 11, 13, 13, 13)
    BALANCED = (3, 4, 5, 6)

    def __init__(self, mc: ModuleType, seed: int, workdir: Path) -> None:
        self.mc = mc
        self.seed = seed
        # grammar, the benchmark's order, mcfgkit's order
        self.over = (mc.overgenerating_block_grammar(), Order(3, chain_pairs(3)), mc.chain(3))
        self.single = (mc.single_letter_pump_grammar(), Order(1), mc.chain(1))
        self.balanced = (mc.balanced_pair_grammar(), Order(2, chain_pairs(2)), mc.chain(2))

    def round(self, number: int) -> list[Op]:
        """Every round pumps the same words, in an order the seed draws: the
        number of sites, hence the work, grows fast with a word's size, and
        these grammars derive each word in one way only."""
        rng = random.Random(f"pump:{self.seed}:{number}")
        planned = []
        for n, m in self.OVER:
            planned.append(("overgen", self.over, (n, n, m), comb(m, 2)))
        for n in self.SINGLE:
            planned.append(("a^n", self.single, (n,), comb(n - 1, 2)))
        for n in self.BALANCED:
            planned.append(("a^n-b^n", self.balanced, (n, n), comb(n - 1, 2)))
        rng.shuffle(planned)
        return [
            self._op(
                f"r{number}.{index:02d} pump {label} {_dashed(counts)}", setting, counts, sites
            )
            for index, (label, setting, counts, sites) in enumerate(planned)
        ]

    def _op(self, name: str, setting: tuple, counts: tuple[int, ...], sites: int) -> Op:
        mc = self.mc
        grammar, order, preorder = setting
        alphabet = tuple(grammar.alphabet)
        word = block_word(counts, alphabet)
        whole = Counter(word)

        def check(report: Any) -> str | None:
            # every tree here is the word's only derivation, whose one repeatable
            # combining rule sits on a single spine, so the sites are its pairs
            if report.site_count != sites:
                return f"{report.site_count} pump sites, expected {sites}"
            for result in report.sites:
                delta = result.delta
                if not (delta.down_arithmetic_ok and delta.up_arithmetic_ok):
                    return f"swap arithmetic flagged wrong at site {result.site}"
                down, up = Counter(result.down_yield), Counter(result.up_yield)
                for letter in set(whole) | set(down) | set(up) | set(delta.deltas):
                    moved = delta.deltas.get(letter, 0)
                    if down[letter] != whole[letter] - moved or up[letter] != whole[letter] + moved:
                        return f"swapped yields do not move {letter} by its delta {moved}"
                if not (result.down_in_grammar and result.up_in_grammar):
                    return "a swapped yield of a valid tree was rejected by the grammar"
                if (
                    result.down_in_order_language != order.accepts(result.down_yield, alphabet)
                    or result.up_in_order_language != order.accepts(result.up_yield, alphabet)
                ):
                    return "order-language verdict of a swapped yield is wrong"
            return None

        return Op(name, "pump", lambda: mc.pump_experiment(grammar, preorder, word), check)


WORKLOADS = {"membership": Membership, "oracle": Oracle, "pump": Pump}
