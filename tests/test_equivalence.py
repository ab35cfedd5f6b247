"""Cross-checks between the pipeline and the reference parser.

The full-size randomized suite lives in the acceptance module; this file runs
a faster slice plus the structural properties that the randomized instances
exercise.
"""

import itertools

from hypothesis import assume, given, settings, target
from hypothesis import strategies as st

import randsuite
from fence import build_ela_graph, enumerate_trees, oracle_filter, oracle_parse_all, parse_text, run_chart, tokenize
from fence.grammar import ConstraintSet, Grammar, GrammarError
from fence.lexgraph import TokenizationError
from helpers import ARITH, grammar, pipeline_trees


def test_random_instances_agree_with_the_oracle():
    done, checks, _skips = randsuite.run_suite(40, start_seed=10_000)
    assert done == 40 and checks > 0


def test_acceptance_matches_oracle_exhaustively():
    grammars = [
        grammar("%token a /a/\n%token b /b/\n%start S\nS ::= a S b ;\nS ::= ;\n"),
        grammar("%token a /a/\n%token b /b/\n%start S\nS ::= S S ;\nS ::= a ;\nS ::= A b ;\nA ::= ;\n"),
        grammar("%token a /a/\n%token b /b/\n%start S\nS ::= A ;\nA ::= B ;\nB ::= A ;\nB ::= a B ;\nB ::= b ;\n"),
    ]
    for g in grammars:
        for length in range(0, 6):
            for combo in itertools.product("ab", repeat=length):
                text = "".join(combo)
                try:
                    la = tokenize(g, text)
                except TokenizationError:
                    continue
                expected = bool(oracle_parse_all(g, la))
                assert parse_text(g, text).accepted == expected, (str(g.productions), text)


def test_constraints_never_enlarge_the_tree_set():
    # any constrained result is a subset of the unconstrained forest
    done = 0
    seed = 20_000
    while done < 15:
        inst = randsuite.make_instance(seed)
        seed += 1
        if inst is None:
            continue
        for text in inst.inputs:
            try:
                unconstrained = pipeline_trees(inst.grammar, text)
                constrained = pipeline_trees(inst.constrained, text)
            except TokenizationError:
                continue
            assert constrained <= unconstrained
        done += 1


def test_every_single_constraint_only_removes_trees():
    base = grammar(ARITH)
    variants = [
        ARITH.replace("[add] E", "%assoc left [add] E"),
        ARITH.replace("[add] E", "%assoc right [add] E"),
        ARITH.replace("[add] E", "%assoc none [add] E"),
        ARITH + "%prefer compose add over lit ;\n",
    ]
    for text in ("1+1", "1+1+1", "1+1+1+1"):
        full = pipeline_trees(base, text)
        for variant in variants:
            assert pipeline_trees(grammar(variant), text) <= full


# Evaluators for drawn grammars. Each reads only the node and its direct
# children, the part of a candidate that one packed alternative fixes.
def _first_no_wider_than_last(view):
    first, last = view.children[0], view.children[-1]
    return first.end - first.start <= last.end - last.start


def _no_ab_token(view):
    return all(c.lexeme != "ab" for c in view.children)


def _no_empty_child(view):
    return all(c.start < c.end for c in view.children)


def _no_child_by_its_own_production(view):
    return all(c.production != view.production for c in view.children)


def _no_child_labelled_p0(view):
    return all(c.label != "p0" for c in view.children)


def _last_child_is_a_token(view):
    return view.children[-1].production is None


EVALUATORS = (
    _first_no_wider_than_last,
    _no_ab_token,
    _no_empty_child,
    _no_child_by_its_own_production,
    _no_child_labelled_p0,
    _last_child_is_a_token,
)


@st.composite
def small_grammars(draw, ambiguous=False):
    """2-3 nonterminals with 1-3 labelled productions each, right-hand sides
    of 0-3 symbols over overlapping tokens: nullable left corners, unit
    cycles and lattice forks come up often. Up to two %assoc lines go on
    productions of two or more symbols, and up to two each of %prefer select
    and %prefer compose are drawn over all labels, selection across symbols
    included; a grammar with cyclic precedence is discarded.

    ``ambiguous`` adds ``S ::= S S`` with a drawn associativity and a second
    copy of a drawn production, so that most inputs have trees for the
    constraints to remove, and attaches up to two of ``EVALUATORS`` to drawn
    labels."""
    names = ("S", "A", "B")[: draw(st.integers(2, 3))]
    symbol = st.sampled_from(("a", "b", "ab") + names)
    rules = [
        (lhs, rhs)
        for lhs in names
        for rhs in draw(st.lists(st.lists(symbol, max_size=3), min_size=1, max_size=3))
    ]
    labels = [f"p{i}" for i in range(len(rules))]
    direction = st.sampled_from(("left", "right", "none"))
    # associativity can only apply to a production with two or more symbols
    binary = [name for name, (_lhs, rhs) in zip(labels, rules) if len(rhs) >= 2]
    assoc = dict(draw(st.lists(st.tuples(st.sampled_from(binary), direction), max_size=2))) if binary else {}
    if ambiguous:
        rules.append(draw(st.sampled_from(rules)))
        rules.append(("S", ["S", "S"]))
        labels.extend(f"p{len(labels) + i}" for i in range(2))
        assoc[labels[-1]] = draw(direction)
    label = st.sampled_from(labels)
    lines = [
        ("%assoc " + assoc[name] + " " if name in assoc else "") + f"[{name}] {lhs} ::= {' '.join(rhs)} ;"
        for name, (lhs, rhs) in zip(labels, rules)
    ]
    pair = st.lists(label, min_size=2, max_size=2, unique=True)
    for kind in ("select", "compose"):
        lines.extend(f"%prefer {kind} {a} over {b} ;" for a, b in draw(st.lists(pair, max_size=2)))
    evaluators = None
    if ambiguous:  # a production with no symbols derives only placeholders, which are never judged
        judged = st.sampled_from([name for name, (_lhs, rhs) in zip(labels, rules) if rhs])
        evaluators = draw(st.dictionaries(judged, st.sampled_from(EVALUATORS), max_size=2))
    try:
        return grammar(
            "%token a /a/\n%token b /b/\n%token ab /ab/\n%start S\n" + "\n".join(lines) + "\n",
            evaluators=evaluators,
        )
    except GrammarError:
        assume(False)


@st.composite
def sentences(draw, g, limit=6):
    """The text of a drawn derivation of the start symbol, at most ``limit`` characters."""
    out = []
    stack = [g.start]
    steps = 0
    while stack:
        sym = stack.pop()
        if sym.is_terminal:
            out.append(sym.name)  # each token's name is its lexeme
            continue
        steps += 1
        assume(steps <= 16 and len("".join(out)) <= limit)
        stack.extend(reversed(draw(st.sampled_from(g.productions_by_lhs[sym.id])).rhs))
    text = "".join(out)
    assume(len(text) <= limit)
    return text


@settings(max_examples=300, deadline=None)
@given(small_grammars(), st.text(alphabet="ab", max_size=5))
def test_pipeline_equals_oracle_on_small_grammars(g, text):
    ground = randsuite.oracle_trees(g, text)
    if ground is None:  # past the oracle's bounds, as in the random suite
        return
    outcome = parse_text(g, text, enforce_constraints=False)
    trees = frozenset(enumerate_trees(outcome.egraph, g, 10**6)) if outcome.accepted else frozenset()
    assert trees == ground[1]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_constrained_pipeline_equals_filtered_oracle(data):
    g = data.draw(small_grammars(ambiguous=True))
    text = data.draw(st.one_of(sentences(g), st.text(alphabet="ab", max_size=5)))
    ground = randsuite.oracle_trees(g, text)
    if ground is None:
        return
    la, base = ground
    expected = oracle_filter(base, g, la)
    # steer the search, kind by kind, toward inputs whose constraints remove trees
    cs = g.constraints
    for kind, only in (
        ("assoc", ConstraintSet(associativity=cs.associativity)),
        ("select", ConstraintSet(selection=cs.selection)),
        ("compose", ConstraintSet(composition=cs.composition)),
        ("custom", ConstraintSet(custom=cs.custom)),
    ):
        part = Grammar(g.token_defs, g.productions, g.start, only, g.skip_pattern)
        target(float(len(base) - len(oracle_filter(base, part, la))), label=kind)
    outcome = parse_text(g, text)
    trees = frozenset(enumerate_trees(outcome.egraph, g, 10**6)) if outcome.accepted else frozenset()
    assert trees == expected
    if la.nodes:  # expanding the unfiltered chart with enforcement agrees too
        assert pipeline_trees(g, text) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_enforcing_chart_builds_a_subset_of_the_nodes(data):
    g = data.draw(small_grammars(ambiguous=True))
    text = data.draw(st.one_of(sentences(g), st.text(alphabet="ab", max_size=5)))
    try:
        la = tokenize(g, text)
    except TokenizationError:
        return
    if not la.nodes:
        return
    full = run_chart(g, build_ela_graph(la))
    kept = run_chart(g, build_ela_graph(la), enforce_constraints=True)

    def triples(ig, ids):
        return {ig.nodes[i].key for i in ids}

    assert triples(kept, range(len(kept.nodes))) <= triples(full, range(len(full.nodes)))
    assert triples(kept, kept.starting) <= triples(full, full.starting)
