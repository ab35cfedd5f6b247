"""Chart parsing for ambiguous context-free grammars over token lattices.

The pipeline runs in three phases: an all-matches lexer builds a lexical
analysis graph of every candidate tokenization, the graph is extended with
cores and parsed with top-down prediction into an implicit graph of (start,
end, symbol) nodes, and constraint enforcement expands the accepted roots into a
packed parse forest. Epsilon productions and cyclic production sets are
supported throughout; associativity, selection precedence, composition
precedence, and custom predicate constraints prune interpretations as early
as possible.
"""

from .chart import ChartParser, igraph_document, run_chart
from .elagraph import ELAGraph, build_ela_graph, ela_document
from .enforce import (
    EGraph,
    canonical_tree,
    egraph_document,
    egraph_to_dot,
    enumerate_trees,
    epsilon_forest,
    expand_forest,
    tree_counts,
)
from .errors import EvaluatorError, FenceError
from .grammar import (
    Grammar,
    GrammarError,
    NodeView,
    compute_epsilon_symbols,
    grammar_to_text,
    make_grammar,
    parse_grammar_text,
)
from .lexgraph import (
    LAGraph,
    LatticeFormatError,
    TokenizationError,
    enumerate_token_paths,
    load_la_graph,
    prune_la_graph,
    serialize_la_graph,
    tokenize,
)
from .oracle import OracleBounds, OracleLimitError, oracle_filter, oracle_parse_all
from .pipeline import ParseOutcome, explain_rejection, parse_text

__version__ = "0.1.0"

__all__ = [
    "ChartParser",
    "EGraph",
    "ELAGraph",
    "EvaluatorError",
    "FenceError",
    "Grammar",
    "GrammarError",
    "LAGraph",
    "LatticeFormatError",
    "NodeView",
    "OracleBounds",
    "OracleLimitError",
    "ParseOutcome",
    "TokenizationError",
    "build_ela_graph",
    "canonical_tree",
    "compute_epsilon_symbols",
    "egraph_document",
    "egraph_to_dot",
    "ela_document",
    "enumerate_token_paths",
    "enumerate_trees",
    "epsilon_forest",
    "expand_forest",
    "explain_rejection",
    "grammar_to_text",
    "igraph_document",
    "load_la_graph",
    "make_grammar",
    "oracle_filter",
    "oracle_parse_all",
    "parse_grammar_text",
    "parse_text",
    "prune_la_graph",
    "run_chart",
    "serialize_la_graph",
    "tokenize",
    "tree_counts",
]
