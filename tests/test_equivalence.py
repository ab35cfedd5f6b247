"""Cross-checks between the pipeline and the reference parser.

The full-size randomized suite lives in the acceptance module; this file runs
a faster slice plus the structural properties that the randomized instances
exercise.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import randsuite
from fence import enumerate_trees, oracle_parse_all, parse_text, tokenize
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


@st.composite
def small_grammars(draw):
    """2-3 nonterminals with 1-3 productions each, right-hand sides of 0-3
    symbols over overlapping tokens: nullable left corners, unit cycles and
    lattice forks come up often."""
    names = ("S", "A", "B")[: draw(st.integers(2, 3))]
    symbol = st.sampled_from(("a", "b", "ab") + names)
    rules = [
        f"{lhs} ::= {' '.join(rhs)} ;"
        for lhs in names
        for rhs in draw(st.lists(st.lists(symbol, max_size=3), min_size=1, max_size=3))
    ]
    return grammar("%token a /a/\n%token b /b/\n%token ab /ab/\n%start S\n" + "\n".join(rules) + "\n")


@settings(max_examples=300, deadline=None)
@given(small_grammars(), st.text(alphabet="ab", max_size=5))
def test_pipeline_equals_oracle_on_small_grammars(g, text):
    ground = randsuite.oracle_trees(g, text)
    if ground is None:  # past the oracle's bounds, as in the random suite
        return
    outcome = parse_text(g, text, enforce_constraints=False)
    trees = frozenset(enumerate_trees(outcome.egraph, g, 10**6)) if outcome.accepted else frozenset()
    assert trees == ground[1]
