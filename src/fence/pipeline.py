"""End-to-end parse sessions: tokenize, extend, chart, expand.

A session runs the phases in order over one input and keeps every
intermediate result for inspection. Rejections are outcomes, not exceptions:
a failed tokenization or an empty set of accepted roots leaves diagnostics on
the outcome instead of raising.
"""

from __future__ import annotations

from .chart import run_chart
from .elagraph import ELAGraph, build_ela_graph
from .enforce import EGraph, epsilon_forest, expand_forest
from .grammar import Grammar
from .lexgraph import LAGraph, TokenizationError, tokenize

__all__ = ["ParseOutcome", "parse_text", "explain_rejection"]


class ParseOutcome:
    """The intermediate results and the verdict of one parse session.

    ``chart`` is the extended graph that the chart filled, and ``ela`` and
    ``igraph`` are read-only names for it: all three are one graph, the one
    that ran. Under enforcement that chart leaves out the derivations that
    associativity or composition precedence forbid (``ELAGraph.filtered``);
    :func:`explain_rejection` runs the unfiltered chart itself when it needs
    to know whether a rejected input derives the start symbol at all.
    """

    __slots__ = ("grammar", "text", "la", "egraph", "failure", "furthest", "chart")

    def __init__(self, grammar: Grammar, text: str, la: LAGraph | None = None, egraph: EGraph | None = None,
                 failure: str | None = None, furthest: int | None = None, chart: ELAGraph | None = None):
        self.grammar = grammar
        self.text = text
        self.la = la
        self.egraph = egraph
        self.failure = failure  # None, "lexical", or "parse"
        self.furthest = furthest
        self.chart = chart

    @property
    def accepted(self) -> bool:
        return self.failure is None

    @property
    def ela(self) -> ELAGraph | None:
        return self.chart

    igraph = ela


def parse_text(
    grammar: Grammar,
    text: str,
    *,
    enforce_constraints: bool = True,
) -> ParseOutcome:
    """Run the full pipeline over ``text``.

    An input with no tokens at all is accepted exactly when the start symbol
    can derive the empty string; the forest is then the canonical zero-width
    derivation, produced without running the chart.

    ``enforce_constraints`` reaches the chart too, which then leaves out what
    associativity and composition precedence forbid. ``chart`` holds the
    extended graph that the chart filled.
    """
    outcome = ParseOutcome(grammar, text)
    try:
        outcome.la = tokenize(grammar, text)
    except TokenizationError as exc:
        outcome.failure = "lexical"
        outcome.furthest = exc.furthest
        return outcome
    if not outcome.la.node_start:
        if grammar.start.id in grammar.epsilon_ids:
            outcome.egraph = epsilon_forest(grammar, outcome.la.content_start, text)
        else:
            outcome.failure = "parse"
            outcome.furthest = outcome.la.content_start
        return outcome
    outcome.chart = run_chart(grammar, build_ela_graph(outcome.la), enforce_constraints)
    outcome.egraph = expand_forest(grammar, outcome.chart, enforce_constraints)
    if not outcome.egraph.roots:
        outcome.failure = "parse"
        outcome.furthest = max(outcome.la.node_end)
    return outcome


_SHOWN = 5  # spans a diagnostic lists


def explain_rejection(outcome: ParseOutcome) -> str:
    """Human-readable diagnostic for a rejected input.

    Tells the three kinds of rejection apart: the input does not tokenize,
    no derivation spans it, or the chart derived it and the constraints
    removed every derivation. A no-derivation diagnostic also names the
    terminals expected at the furthest core where a handle waits for one;
    under prediction every handle continues a derivation from the start
    symbol, so these are the terminals the grammar allows there.

    When the chart that ran was ``filtered``, it may have pruned the only
    derivations, so the diagnostic is read from a fresh unfiltered chart
    over the outcome's lattice. That run costs what the unfiltered chart
    costs, up to cubic in the input, and the outcome keeps its own chart.
    """
    if outcome.accepted:
        return "input accepted"
    if outcome.failure == "lexical":
        return f"lexical error: cannot tokenize the input beyond offset {outcome.furthest}"
    grammar = outcome.grammar
    ig = outcome.chart
    if ig is not None and ig.filtered:
        ig = run_chart(grammar, build_ela_graph(outcome.la))
    if ig is not None and ig.starting:
        lines = [
            "derived but pruned: the input derives the start symbol, "
            "but the constraints removed every derivation",
            "derived roots:",
        ]
        shown = [ig.nodes[i] for i in ig.starting[:_SHOWN]]
    else:
        lines = [f"no parse: input tokenizes up to offset {outcome.furthest}"]
        shown = []
        if ig is not None:
            terminals = grammar.terminal_ids
            symbol, stride = grammar.items.symbol, ig.stride
            # A stored handle is (item * stride + origin) * stride + offset: each offset and the symbol it waits for
            waits = {(code % stride, symbol[code // stride // stride]) for code in ig.handles}
            furthest = max([at for at, s in waits if s in terminals], default=None)
            if furthest is not None:
                names = sorted({grammar.symbol_by_id[s].name for at, s in waits if at == furthest and s in terminals})
                lines.append(f"expected one of {{{', '.join(names)}}} at offset {furthest}")
            nodes = sorted(
                ig.nodes, key=lambda n: (n.end - n.start, n.symbol_id not in terminals), reverse=True
            )
            nonterminals = [n for n in nodes if n.symbol_id not in terminals]
            shown = (nonterminals or nodes)[:_SHOWN]
            what = "longest nonterminal spans" if nonterminals else "longest token spans"
            lines.append(f"{what}:")
    for n in shown:
        name = grammar.symbol_by_id[n.symbol_id].name
        lines.append(f"  {name} [{n.start},{n.end})")
    return "\n".join(lines)

