"""Command-line driver.

    fence parse --grammar <file> (--input <file> | --text <string>)
                [--count] [--enumerate N] [--format json|dot]
                [--dump-la] [--dump-ela] [--dump-ig]

Exit status: 0 when at least one interpretation survives, 1 when the input is
rejected (a diagnostic goes to stderr), 2 for usage or grammar errors. The
dump flags emit the intermediate documents, in pipeline order, before the
final output; all structured output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .chart import igraph_document
from .elagraph import ela_document
from .enforce import (
    COUNT_CAP,
    egraph_document,
    egraph_to_dot,
    enumerate_trees,
    tree_counts,
    tree_to_jsonable,
)
from .errors import FenceError
from .grammar import GrammarError, parse_grammar_text
from .lexgraph import serialize_la_graph
from .pipeline import explain_rejection, parse_text

__all__ = ["run_pipeline", "main"]


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2)``, written from an explicit stack.

    The standard encoder recurses once per nesting level, which a deep
    parse tree exceeds; this one is limited by memory alone.
    """
    parts: list[str] = []
    # (text, None) is written as is; (value, depth) is encoded at that depth
    stack: list[tuple] = [(doc, 0)]
    while stack:
        item, depth = stack.pop()
        if depth is None:
            parts.append(item)
            continue
        if isinstance(item, dict):
            entries = [
                (json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": ", v)
                for k, v in item.items()
            ]
            brackets = "{}"
        elif isinstance(item, (list, tuple)):
            entries = [("", v) for v in item]
            brackets = "[]"
        else:
            parts.append(json.dumps(item))
            continue
        if not entries:
            parts.append(brackets)
            continue
        parts.append(brackets[0])
        stack.append(("\n" + "  " * depth + brackets[1], None))
        indent = "\n" + "  " * (depth + 1)
        for i in range(len(entries) - 1, -1, -1):
            prefix, value = entries[i]
            stack.append((value, depth + 1))
            stack.append(((indent if i == 0 else "," + indent) + prefix, None))
    return "".join(parts)


def _emit(doc) -> None:
    print(_dumps(doc))


def run_pipeline(args: argparse.Namespace) -> int:
    """Run the ``parse`` command from its parsed arguments; returns the exit status.

    The parser has already required exactly one of ``--input`` and
    ``--text`` and a known ``--format``.
    """
    try:
        if args.enumerate is not None and args.enumerate < 1:
            raise ValueError("--enumerate requires a limit >= 1")
        grammar = parse_grammar_text(Path(args.grammar).read_text(encoding="utf-8"))
        text = args.text if args.input is None else Path(args.input).read_text(encoding="utf-8")
    except (OSError, ValueError, GrammarError) as exc:
        print(f"fence: error: {exc}", file=sys.stderr)
        return 2

    try:
        outcome = parse_text(grammar, text)
    except FenceError as exc:
        print(f"fence: error: {exc}", file=sys.stderr)
        return 2

    if args.dump_la and outcome.la is not None:
        _emit(serialize_la_graph(outcome.la, grammar))
    if args.dump_ela and outcome.chart is not None:
        _emit(ela_document(outcome.chart, grammar))
    if args.dump_ig and outcome.chart is not None:
        _emit(igraph_document(outcome.chart, grammar))

    if not outcome.accepted:
        if args.count:
            print(0)
        print(explain_rejection(outcome), file=sys.stderr)
        return 1

    egraph = outcome.egraph
    if args.count:
        counts = tree_counts(egraph)
        print(counts.total)
        if counts.saturated:
            print(f"fence: note: the count is saturated at {COUNT_CAP}; there are at least that many trees",
                  file=sys.stderr)
    elif args.enumerate is not None:
        trees = enumerate_trees(egraph, grammar, args.enumerate)
        _emit([tree_to_jsonable(t) for t in trees])
    elif args.format == "dot":
        print(egraph_to_dot(egraph, grammar), end="")
    else:
        _emit(egraph_document(egraph, grammar))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fence",
        description="Chart parser for ambiguous context-free grammars over token lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("parse", help="parse one input against a grammar")
    p.add_argument("--grammar", required=True, help="grammar file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="file containing the input text")
    src.add_argument("--text", help="input text given inline")
    p.add_argument("--count", action="store_true", help="print only the number of parse trees")
    p.add_argument("--enumerate", type=int, metavar="N", help="print up to N parse trees")
    p.add_argument("--format", choices=("json", "dot"), default="json", help="final output format")
    p.add_argument("--dump-la", action="store_true", help="dump the lexical analysis graph")
    p.add_argument("--dump-ela", action="store_true", help="dump the extended graph (with cores)")
    p.add_argument("--dump-ig", action="store_true", help="dump the implicit parse graph")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return run_pipeline(args)


if __name__ == "__main__":
    sys.exit(main())
