"""Command-line interface.

Subcommands::

    mcfg validate <grammar>                      check well-formedness, shape, deletion
    mcfg recognize <grammar> <word> [--parse]    membership, optionally with a tree
    mcfg enumerate <grammar> --max-len N [--terms]
    mcfg build-grammar <preorder>                grammar for the constrained block language
    mcfg totalisations <preorder> [--count]
    mcfg compare <grammar> <preorder> --max-len N
    mcfg pump <grammar> <preorder> <word>

Every subcommand accepts ``--json`` for a machine-readable envelope with the
fixed keys ``command``, ``inputs``, ``result``, and ``violations``; the
output is byte-stable for identical inputs.  Exit codes: 0 for success (and
for "accepted" / "valid" / "languages agree"), 1 for a clean negative answer,
2 for any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formats
from .construction import build_grammar
from .enumeration import compare_languages, enumerate_terms
from .errors import McfgError
from .grammar import MCFG, dimension, is_non_deleting, is_normal_form, validate_grammar
from .preorders import Preorder, totalisations
from .pumping import pump_experiment
from .recognizer import parse as parse_word_with_tree
from .recognizer import recognize

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _load_grammar(path: str) -> MCFG:
    return formats.parse_grammar(Path(path).read_text(), filename=path)


def _load_preorder(path: str) -> Preorder:
    return formats.parse_preorder(Path(path).read_text(), filename=path)


def _emit_json(command: str, inputs: dict, result: dict, violations: list[str]) -> None:
    envelope = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "violations": violations,
    }
    print(json.dumps(envelope, indent=2, sort_keys=True))


def _cmd_validate(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    violations = validate_grammar(grammar)
    errors = [str(v) for v in violations if v.severity == "error"]
    warnings = [str(v) for v in violations if v.severity != "error"]
    normal, normal_violations = is_normal_form(grammar)
    non_deleting = is_non_deleting(grammar)
    valid = not errors
    if args.json:
        _emit_json(
            "validate",
            {"grammar": args.grammar},
            {
                "valid": valid,
                "warnings": warnings,
                "normal_form": normal,
                "normal_form_violations": [str(v) for v in normal_violations],
                "non_deleting": non_deleting,
                "dimension": dimension(grammar),
            },
            errors,
        )
    else:
        print(f"valid: {'yes' if valid else 'no'}")
        for message in errors + warnings:
            print(f"  {message}")
        print(f"normal form: {'yes' if normal else 'no'}")
        for violation in normal_violations:
            print(f"  {violation}")
        print(f"non-deleting: {'yes' if non_deleting else 'no'}")
        print(f"dimension: {dimension(grammar)}")
    return EXIT_OK if valid else EXIT_NEGATIVE


def _cmd_recognize(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    word = formats.parse_word(args.word)
    tree = None
    if args.parse:
        tree = parse_word_with_tree(grammar, word)
        accepted = tree is not None
    else:
        accepted = recognize(grammar, word)
    if args.json:
        result = {"accepted": accepted, "word": formats.format_word(word)}
        if args.parse:
            result["tree"] = formats.tree_as_dict(tree) if tree is not None else None
        _emit_json("recognize", {"grammar": args.grammar, "word": args.word}, result, [])
    else:
        print("accept" if accepted else "reject")
        if tree is not None:
            print(formats.format_tree(tree))
    return EXIT_OK if accepted else EXIT_NEGATIVE


def _cmd_enumerate(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    found = enumerate_terms(grammar, args.max_len)
    if args.terms:
        rows = sorted(
            (str(term) for term in found),
        )
        payload_key = "terms"
    else:
        words = sorted(
            term.components[0] for term in found if term.head == grammar.start
        )
        rows = [formats.format_word(word) for word in words]
        payload_key = "words"
    if args.json:
        _emit_json(
            "enumerate",
            {"grammar": args.grammar, "max_len": args.max_len, "terms": args.terms},
            {"complete": found.complete, payload_key: rows},
            [],
        )
    else:
        if not found.complete:
            print(
                "note: deleting grammar, the listing is only a lower bound",
                file=sys.stderr,
            )
        for row in rows:
            print(row)
    return EXIT_OK


def _cmd_build_grammar(args: argparse.Namespace) -> int:
    preorder = _load_preorder(args.preorder)
    grammar = build_grammar(preorder)
    rendered = formats.format_grammar(grammar)
    if args.json:
        _emit_json(
            "build-grammar",
            {"preorder": args.preorder},
            {
                "start": grammar.start.name,
                "alphabet": list(grammar.alphabet),
                "dimension": dimension(grammar),
                "rules": [str(rule) for rule in grammar.rules],
            },
            [],
        )
    else:
        print(rendered, end="")
    return EXIT_OK


def _cmd_totalisations(args: argparse.Namespace) -> int:
    preorder = _load_preorder(args.preorder)
    extensions = totalisations(preorder)
    if args.json:
        _emit_json(
            "totalisations",
            {"preorder": args.preorder},
            {
                "count": len(extensions),
                "totalisations": [
                    {"m": p.size, "pairs": [list(pair) for pair in p.pairs()]}
                    for p in extensions
                ],
            },
            [],
        )
    elif args.count:
        print(len(extensions))
    else:
        for number, extension in enumerate(extensions, start=1):
            print(f"# totalisation {number}")
            print(formats.format_preorder(extension), end="")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    preorder = _load_preorder(args.preorder)
    report = compare_languages(grammar, preorder, args.max_len)
    if args.json:
        _emit_json(
            "compare",
            {"grammar": args.grammar, "preorder": args.preorder, "max_len": args.max_len},
            {
                "agree": report.agree,
                "only_in_grammar": [formats.format_word(w) for w in report.only_in_grammar],
                "only_in_direct": [formats.format_word(w) for w in report.only_in_direct],
            },
            [],
        )
    else:
        print(f"agree: {'yes' if report.agree else 'no'}")
        print(f"only in grammar ({len(report.only_in_grammar)}):")
        for word in report.only_in_grammar:
            print(f"  {formats.format_word(word)}")
        print(f"only in direct listing ({len(report.only_in_direct)}):")
        for word in report.only_in_direct:
            print(f"  {formats.format_word(word)}")
    return EXIT_OK if report.agree else EXIT_NEGATIVE


def _site_as_dict(result) -> dict:
    return {
        "rule": str(result.site.rule),
        "outer": list(result.site.outer),
        "inner": list(result.site.inner),
        "deltas": dict(sorted(result.delta.deltas.items())),
        "arithmetic_ok": result.delta.down_arithmetic_ok and result.delta.up_arithmetic_ok,
        "comparable_pairs": [
            {"i": i, "j": j, "equal_delta": equal}
            for i, j, equal in result.delta.comparable_pairs
        ],
        "down": {
            "yield": " ".join(result.down_yield) if result.down_yield else "_",
            "in_grammar": result.down_in_grammar,
            "in_order_language": result.down_in_order_language,
        },
        "up": {
            "yield": " ".join(result.up_yield) if result.up_yield else "_",
            "in_grammar": result.up_in_grammar,
            "in_order_language": result.up_in_order_language,
        },
    }


def _cmd_pump(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    preorder = _load_preorder(args.preorder)
    word = formats.parse_word(args.word)
    report = pump_experiment(grammar, preorder, word)
    if args.json:
        _emit_json(
            "pump",
            {"grammar": args.grammar, "preorder": args.preorder, "word": args.word},
            {
                "word": formats.format_word(report.word),
                "site_count": report.site_count,
                "sites": [_site_as_dict(result) for result in report.sites],
            },
            [],
        )
        return EXIT_OK
    print(f"word: {formats.format_word(report.word)}")
    if not report.sites:
        print("sites: 0 (no combiner sites in the derivation tree)")
        return EXIT_OK
    print(f"sites: {report.site_count}")
    for number, result in enumerate(report.sites, start=1):
        delta_text = ", ".join(
            f"{letter}{value:+d}" for letter, value in sorted(result.delta.deltas.items())
        )
        arithmetic = (
            "ok"
            if result.delta.down_arithmetic_ok and result.delta.up_arithmetic_ok
            else "MISMATCH"
        )
        print(f"site {number}: rule {result.site.rule}")
        print(f"  outer {list(result.site.outer)}  inner {list(result.site.inner)}")
        print(f"  delta: {delta_text}  (arithmetic {arithmetic})")
        print(
            f"  down yield: {formats.format_word(result.down_yield)}  "
            f"in grammar: {'yes' if result.down_in_grammar else 'no'}  "
            f"in order language: {'yes' if result.down_in_order_language else 'no'}"
        )
        print(
            f"  up yield:   {formats.format_word(result.up_yield)}  "
            f"in grammar: {'yes' if result.up_in_grammar else 'no'}  "
            f"in order language: {'yes' if result.up_in_order_language else 'no'}"
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcfg",
        description="Work with tuple grammars and order-constrained block languages.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON envelope")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser(
        "validate", parents=[common], help="check a grammar file"
    )
    sub.add_argument("grammar", help="path to a grammar file")
    sub.set_defaults(handler=_cmd_validate)

    sub = subparsers.add_parser(
        "recognize", parents=[common], help="test whether a grammar derives a word"
    )
    sub.add_argument("grammar", help="path to a grammar file")
    sub.add_argument("word", help="space-separated letters, or _ for the empty word")
    sub.add_argument("--parse", action="store_true", help="also print a derivation tree")
    sub.set_defaults(handler=_cmd_recognize)

    sub = subparsers.add_parser(
        "enumerate", parents=[common], help="list the bounded language or term set"
    )
    sub.add_argument("grammar", help="path to a grammar file")
    sub.add_argument("--max-len", type=int, required=True, help="length budget")
    sub.add_argument("--terms", action="store_true", help="list terms instead of words")
    sub.set_defaults(handler=_cmd_enumerate)

    sub = subparsers.add_parser(
        "build-grammar",
        parents=[common],
        help="grammar for the block language of a preorder",
    )
    sub.add_argument("preorder", help="path to a preorder file")
    sub.set_defaults(handler=_cmd_build_grammar)

    sub = subparsers.add_parser(
        "totalisations", parents=[common], help="list all total extensions"
    )
    sub.add_argument("preorder", help="path to a preorder file")
    sub.add_argument("--count", action="store_true", help="print only how many")
    sub.set_defaults(handler=_cmd_totalisations)

    sub = subparsers.add_parser(
        "compare",
        parents=[common],
        help="diff a grammar's language against the direct block listing",
    )
    sub.add_argument("grammar", help="path to a grammar file")
    sub.add_argument("preorder", help="path to a preorder file")
    sub.add_argument("--max-len", type=int, required=True, help="length bound")
    sub.set_defaults(handler=_cmd_compare)

    sub = subparsers.add_parser(
        "pump", parents=[common], help="run the subtree-swap experiment on one word"
    )
    sub.add_argument("grammar", help="path to a grammar file")
    sub.add_argument("preorder", help="path to a preorder file")
    sub.add_argument("word", help="space-separated letters, or _ for the empty word")
    sub.set_defaults(handler=_cmd_pump)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (McfgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # exit 1 means a clean negative answer, so a crash must not end with it;
        # traceback is imported here to keep it out of every normal run's memory
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
