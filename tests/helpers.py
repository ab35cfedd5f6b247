"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from fence import (
    build_ela_graph,
    enumerate_trees,
    expand_forest,
    parse_grammar_text,
    run_chart,
    tokenize,
    tree_counts,
)
from fence.enforce import COUNT_CAP

# The lexically ambiguous running example: digits around points read either as
# Real tokens or as Integer Point Integer, disambiguated by the productions.
AMBIG_NUMBERS = """
%token Integer /(-|\\+)?[0-9]+/
%token Real /(-|\\+)?[0-9]+\\.[0-9]+/
%token Point /\\./
%token Slash /\\//
%token Ampersand /\\&/
%start E
E ::= A B ;
A ::= Ampersand Real Ampersand ;
B ::= Slash Integer Point Integer Slash ;
"""

AMBIG_INPUT = "&5.2& /25.20/"

ARITH = """
%token plus /\\+/
%token int /[0-9]+/
%start E
[add] E ::= E plus E ;
[lit] E ::= int ;
"""

ARITH_LEFT = ARITH.replace("[add] E", "%assoc left [add] E")

# the unambiguous left-recursive chain of acceptance criterion 8
UNAMBIGUOUS_CHAIN = """
%token plus /\\+/
%token int /1/
%token semi /;/
%start S
S ::= E semi ;
E ::= E plus T ;
E ::= T ;
T ::= int ;
"""

# the running example's units as a list: every slashed number reads as a
# Real or as Integer Point Integer, and selection precedence keeps the Real
UNIT_LIST = """
%token Integer /(-|\\+)?[0-9]+/
%token Real /(-|\\+)?[0-9]+\\.[0-9]+/
%token Point /\\./
%token Slash /\\//
%token Ampersand /\\&/
%start L
L ::= L U ;
L ::= U ;
U ::= A B ;
A ::= Ampersand Real Ampersand ;
B ::= Slash Num Slash ;
[real] Num ::= Real ;
[split] Num ::= Integer Point Integer ;
%prefer select real over split ;
"""

DANGLING_ELSE = """
%token if /if/
%token else /else/
%token expr /expr[0-9]*/
%token sent /sent[0-9]*/
%start S
[ifshort] S ::= if E S ;
[iflong] S ::= if E S else S ;
S ::= sent ;
E ::= expr ;
%prefer compose iflong over ifshort ;
"""

OUTPUT_CALL = """
%token output /output/
%token name /[a-z][a-z0-9]*/
%token lp /\\(/
%token rp /\\)/
%token semi /;/
%start Statement
[stmt_out] Statement ::= OutputStatement ;
[stmt_call] Statement ::= FunctionCall ;
OutputStatement ::= output lp name rp semi ;
FunctionCall ::= name lp name rp semi ;
%prefer select stmt_out over stmt_call ;
"""


def chain(k: int) -> str:
    """An operand chain with k operands: 1+1+...+1."""
    return "+".join(["1"] * k)


def catalan(m: int) -> int:
    import math

    return math.comb(2 * m, m) // (m + 1)


def pipeline(grammar, text, enforce=True):
    """Tokenize, extend, chart, expand; returns (la, ig, eg).

    The chart is the unfiltered one that ``run_chart`` builds by default, so
    ``enforce`` reaches expansion alone and expansion's own checks are what
    is tested.
    """
    la = tokenize(grammar, text)
    ela = build_ela_graph(la)
    ig = run_chart(grammar, ela)
    eg = expand_forest(grammar, ig, enforce_constraints=enforce)
    return la, ig, eg


def reference_counts(eg) -> list[int]:
    """Trees held by every forest node, capped at ``COUNT_CAP``, by a walk of the finished forest.

    A node's count is the sum, over its alternatives, of the product of its
    children's counts, and a leaf's is 1. The counts expansion keeps as it
    builds the forest (``EGraph.counts``) must equal these.
    """
    counts: dict[int, int] = {}
    for top in range(len(eg.nodes)):
        stack = [(top, False)]
        while stack:
            eid, ready = stack.pop()
            if eid in counts:
                continue
            alternatives = eg.nodes[eid].children
            if alternatives is None:
                counts[eid] = 1
            elif ready:
                total = 0
                for alt in alternatives:
                    trees = 1
                    for c in alt:
                        trees *= counts[c]
                    total += trees
                counts[eid] = min(total, COUNT_CAP)
            else:
                stack.append((eid, True))
                for alt in alternatives:
                    stack.extend((c, False) for c in alt if c not in counts)
    return [counts[eid] for eid in range(len(eg.nodes))]


def assert_forest_shape(eg):
    """Node ids are list indices, every child precedes its parent, and every node is reachable from a root."""
    nodes = eg.nodes
    assert len(eg.counts) == len(nodes)
    for i, node in enumerate(nodes):
        assert node.id == i
        for alt in node.children or ():
            assert all(c < i for c in alt), (i, alt)
    reachable = set()
    stack = list(eg.roots)
    while stack:
        i = stack.pop()
        if i not in reachable:
            reachable.add(i)
            for alt in nodes[i].children or ():
                stack.extend(alt)
    assert reachable == set(range(len(nodes)))


def assert_counts(grammar, eg, limit=10**6):
    """The forest's shape holds, the stored counts equal the reference walk, and the roots' total equals the trees listed."""
    assert_forest_shape(eg)
    assert eg.counts == reference_counts(eg)
    trees = enumerate_trees(eg, grammar, limit)
    assert len(trees) == min(tree_counts(eg).total, limit)
    return trees


def forest_trees(grammar, eg):
    return frozenset(assert_counts(grammar, eg)) if eg.roots else frozenset()


def pipeline_trees(grammar, text, enforce=True):
    """Canonical tree set produced by the full pipeline.

    With ``enforce`` on, the chart that enforces the blocked positions, as in
    ``parse_text``, must give the same trees as the unfiltered one.
    """
    la, _ig, eg = pipeline(grammar, text, enforce)
    trees = forest_trees(grammar, eg)
    if enforce:
        filtered = expand_forest(grammar, run_chart(grammar, build_ela_graph(la), enforce_constraints=True))
        assert forest_trees(grammar, filtered) == trees, text
    return trees


def grammar(text, **kw):
    return parse_grammar_text(text, **kw)


def handle_parts(grammar, ela, handle):
    """A chart handle, stored as the int ``item * ela.stride + origin``, as (production, dot, origin)."""
    item, origin = divmod(handle, ela.stride)
    production = grammar.item_production[item]
    return production, item - grammar.item_base[production], origin


def entry_parts(grammar, ela, entry):
    """An agenda entry, the int ``node_id * space + handle``, as (production, dot, origin, node id)."""
    node_id, handle = divmod(entry, len(grammar.item_production) * ela.stride)
    return handle_parts(grammar, ela, handle) + (node_id,)
