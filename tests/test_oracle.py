"""Reference parser self-checks and constraint post-filtering."""

import pytest

from fence.enforce import enumerate_trees
from fence.lexgraph import tokenize
from fence.oracle import OracleBounds, OracleLimitError, oracle_filter, oracle_parse_all
from fence.pipeline import parse_text
from helpers import (
    AMBIG_INPUT,
    AMBIG_NUMBERS,
    ARITH,
    ARITH_LEFT,
    DANGLING_ELSE,
    catalan,
    chain,
    grammar,
)


def test_running_example_has_one_tree():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    trees = oracle_parse_all(g, la)
    assert len(trees) == 1


def test_single_production_single_tree():
    g = grammar("%token a /a/\n%start S\nS ::= a ;\n")
    trees = oracle_parse_all(g, tokenize(g, "a"))
    assert trees == {("n", "S", 0, 1, 0, (("t", "a", 0, 1, "a"),))}


def test_operand_chains_match_the_catalan_recurrence():
    g = grammar(ARITH)
    # independent cross-check: the recurrence C(0)=1, C(m)=sum C(i)C(m-1-i)
    c = [1]
    for m in range(1, 6):
        c.append(sum(c[i] * c[m - 1 - i] for i in range(m)))
    for k in range(2, 7):
        trees = oracle_parse_all(g, tokenize(g, chain(k)))
        assert len(trees) == c[k - 1] == catalan(k - 1)


def test_left_assoc_filter_keeps_the_left_heavy_tree():
    g = grammar(ARITH_LEFT)
    la = tokenize(g, chain(3))
    trees = oracle_parse_all(g, la)
    assert len(trees) == 2
    kept = oracle_filter(trees, g, la)
    assert len(kept) == 1
    (tree,) = kept
    left, _op, right = tree[5]
    assert left[0] == "n" and left[4] == 0  # left child built by the chain production
    assert right[0] == "t" or right[4] != 0


def test_empty_constraints_filter_is_identity():
    g = grammar(ARITH)
    la = tokenize(g, chain(3))
    trees = oracle_parse_all(g, la)
    assert oracle_filter(trees, g, la) == trees


def test_dangling_else_filter():
    g = grammar(DANGLING_ELSE)
    la = tokenize(g, "if expr1 if expr2 sent1 else sent2")
    trees = oracle_parse_all(g, la)
    assert len(trees) == 2
    kept = oracle_filter(trees, g, la)
    assert len(kept) == 1
    (tree,) = kept
    assert g.productions[tree[4]].label == "ifshort"


def test_cyclic_grammar_cut():
    g = grammar("%token c /c/\n%start A\nA ::= c ;\nA ::= B ;\nB ::= A ;\n")
    trees = oracle_parse_all(g, tokenize(g, "c"))
    assert trees == {("n", "A", 0, 1, 0, (("t", "c", 0, 1, "c"),))}


def _preorder(tree):
    """A tree as its nodes in preorder, each with its child count; built
    without recursion, so deep trees compare without deep comparisons."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node[0] == "t":
            out.append(node)
        else:
            out.append(node[:5] + (len(node[5]),))
            stack.extend(reversed(node[5]))
    return out


def test_a_deep_nullable_chain_gives_the_pipelines_tree():
    rules = "".join(f"A{i} ::= A{i + 1} ;\n" for i in range(1000))
    g = grammar(f"%token a /a/\n%start S\nS ::= A0 a ;\n{rules}A1000 ::= ;\n")
    [ours] = oracle_parse_all(g, tokenize(g, "a"))
    [theirs] = enumerate_trees(parse_text(g, "a").egraph, g, 2)
    assert _preorder(ours) == _preorder(theirs)
    assert len(_preorder(ours)) == 1003  # S, the chain A0..A1000 and the token


def test_empty_input_nullable_start():
    g = grammar("%token a /a/\n%start S\nS ::= ;\nS ::= a ;\n")
    trees = oracle_parse_all(g, tokenize(g, ""))
    assert trees == {("n", "S", 0, 0, 0, ())}
    g2 = grammar("%token a /a/\n%start S\nS ::= a ;\n")
    assert oracle_parse_all(g2, tokenize(g2, "")) == frozenset()


def test_bounds_exceeded_is_distinct_from_rejection():
    g = grammar(ARITH)
    la = tokenize(g, chain(6))
    with pytest.raises(OracleLimitError):
        oracle_parse_all(g, la, OracleBounds(max_work=10))
    with pytest.raises(OracleLimitError):
        oracle_parse_all(g, la, OracleBounds(max_depth=1))
    # a genuine rejection is an empty set, not an exception
    assert oracle_parse_all(g, tokenize(g, "1+")) == frozenset()


def test_selection_filter_requires_the_lattice():
    src = (
        "%token a /a/\n%start S\n[p] S ::= a ;\n[q] S ::= a ;\n"
        "%prefer select p over q ;\n"
    )
    g = grammar(src)
    la = tokenize(g, "a")
    trees = oracle_parse_all(g, la)
    with pytest.raises(ValueError):
        oracle_filter(trees, g)
    kept = oracle_filter(trees, g, la)
    assert len(kept) == 1 and next(iter(kept))[4] == 0


def test_oracle_module_does_not_depend_on_the_engine_under_test():
    import ast
    import fence.oracle as module

    tree = ast.parse(open(module.__file__).read())
    package_imports = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert package_imports <= {"grammar", "lexgraph", "errors"}, package_imports
