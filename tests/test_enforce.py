"""Forest expansion, constraint rules, counting, enumeration, documents."""

import sys
import threading

import pytest

import randsuite

from fence.enforce import (
    canonical_tree,
    egraph_document,
    egraph_to_dot,
    enumerate_trees,
    epsilon_forest,
    tree_counts,
    tree_to_jsonable,
)
from fence.errors import EvaluatorError
from fence.pipeline import parse_text
from helpers import (
    AMBIG_INPUT,
    AMBIG_NUMBERS,
    ARITH,
    ARITH_LEFT,
    DANGLING_ELSE,
    OUTPUT_CALL,
    catalan,
    chain,
    grammar,
    pipeline,
    pipeline_trees,
)


def test_running_example_expands_to_the_single_expected_tree():
    g = grammar(AMBIG_NUMBERS)
    _la, _ig, eg = pipeline(g, AMBIG_INPUT)
    assert len(eg.roots) == 1
    tree = canonical_tree(eg, g, eg.roots[0])
    assert tree == (
        "n", "E", 0, 13, 0,
        (
            ("n", "A", 0, 5, 1, (
                ("t", "Ampersand", 0, 1, "&"),
                ("t", "Real", 1, 4, "5.2"),
                ("t", "Ampersand", 4, 5, "&"),
            )),
            ("n", "B", 6, 13, 2, (
                ("t", "Slash", 6, 7, "/"),
                ("t", "Integer", 7, 9, "25"),
                ("t", "Point", 9, 10, "."),
                ("t", "Integer", 10, 12, "20"),
                ("t", "Slash", 12, 13, "/"),
            )),
        ),
    )


def test_only_one_b_derivation_exists():
    g = grammar(AMBIG_NUMBERS)
    _la, _ig, eg = pipeline(g, AMBIG_INPUT)
    b_nodes = [n for n in eg.nodes if g.symbol_by_id[n.symbol_id].name == "B"]
    assert len(b_nodes) == 1
    assert (b_nodes[0].start, b_nodes[0].end) == (6, 13)


def test_token_leaves_are_shared():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, "1+1+1")
    leaves = [n for n in eg.nodes if n.lexeme is not None]
    assert len({(n.symbol_id, n.start, n.end) for n in leaves}) == len(leaves)


def test_cyclic_expansion_is_cut_by_history():
    g = grammar("%token c /c/\n%start A\nA ::= c ;\nA ::= B ;\nB ::= A ;\n")
    trees = pipeline_trees(g, "c")
    assert trees == {("n", "A", 0, 1, 0, (("t", "c", 0, 1, "c"),))}


def test_nullable_position_gets_zero_width_placeholder():
    g = grammar("%token b /b/\n%start S\nS ::= A b ;\nA ::= ;\n")
    trees = pipeline_trees(g, "b")
    assert trees == {
        ("n", "S", 0, 1, 0, (("n", "A", 0, 0, 1, ()), ("t", "b", 0, 1, "b")))
    }


def test_two_candidates_before_constraints():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, "1+1+1", enforce=False)
    spans = [
        n for n in eg.nodes
        if n.production_id == 0 and (n.start, n.end) == (0, 5)
    ]
    assert len(spans) == 2  # left-heavy and right-heavy


def test_left_associativity_rejects_right_nesting():
    g = grammar(ARITH_LEFT)
    trees = pipeline_trees(g, "1+1+1")
    assert len(trees) == 1
    (tree,) = trees
    right_child = tree[5][2]
    assert right_child[0] == "t" or right_child[4] != 0  # not the same production


def test_no_constraints_accepts_everything():
    g = grammar(ARITH)
    assert len(pipeline_trees(g, chain(4))) == catalan(3)


def test_dangling_else_binds_inner():
    g = grammar(DANGLING_ELSE)
    text = "if expr1 if expr2 sent1 else sent2"
    assert len(pipeline_trees(g, text, enforce=False)) == 2
    trees = pipeline_trees(g, text)
    assert len(trees) == 1
    (tree,) = trees
    assert g.productions[tree[4]].label == "ifshort"  # outer if has no else


def test_selection_precedence_prefers_output_statement():
    g = grammar(OUTPUT_CALL)
    text = "output(var);"
    assert len(pipeline_trees(g, text, enforce=False)) == 2
    trees = pipeline_trees(g, text)
    assert len(trees) == 1
    (tree,) = trees
    assert tree[5][0][1] == "OutputStatement"


def test_selection_precedence_falls_back_when_preferred_dies():
    # the preferred production's only candidate is vetoed by an evaluator,
    # so the less preferred alternative must survive
    src = (
        "%token a /a/\n%start S\n[p] S ::= a ;\n[q] S ::= a ;\n"
        "%prefer select p over q ;\n"
    )
    g = grammar(src, evaluators={"p": lambda view: False})
    trees = pipeline_trees(g, "a")
    assert len(trees) == 1
    (tree,) = trees
    assert g.productions[tree[4]].label == "q"


def test_custom_evaluator_vetoes_and_reports_errors():
    src = "%token a /a/\n%start S\n[dup] S ::= S S ;\n[one] S ::= a ;\n"
    seen = []

    def veto(view):
        seen.append((view.symbol, view.start, view.end, view.text))
        return view.end - view.start <= 2

    g = grammar(src, evaluators={"dup": veto})
    trees = pipeline_trees(g, "aaa")
    assert trees == frozenset()  # the 3-wide node is always vetoed
    assert seen

    def broken(view):
        raise RuntimeError("boom")

    g2 = grammar(src, evaluators={"dup": broken})
    with pytest.raises(EvaluatorError) as err:
        pipeline_trees(g2, "aa")
    assert "dup" in str(err.value)


def test_tree_counts():
    g = grammar(AMBIG_NUMBERS)
    _la, _ig, eg = pipeline(g, AMBIG_INPUT)
    counts = tree_counts(eg)
    assert counts.total == 1 and not counts.saturated

    single = grammar("%token a /a/\n%start S\nS ::= a ;\n")
    _la, _ig, eg1 = pipeline(single, "a")
    assert tree_counts(eg1).total == 1

    ga = grammar(ARITH)
    _la, _ig, eg2 = pipeline(ga, chain(4))
    counts = tree_counts(eg2)
    assert counts.total == 5  # all binary bracketings of four operands
    assert all(v == 1 for v in counts.per_root.values())


def test_enumerate_trees_is_sorted_and_limited():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, chain(4))
    trees = enumerate_trees(eg, g, 100)
    assert trees == sorted(trees)
    assert enumerate_trees(eg, g, 2) == trees[:2]
    with pytest.raises(ValueError):
        enumerate_trees(eg, g, 0)


def test_epsilon_forest_for_empty_input():
    g = grammar("%token a /a/\n%start S\nS ::= ;\nS ::= a ;\n")
    eg = epsilon_forest(g, 0, "")
    assert len(eg.roots) == 1
    assert canonical_tree(eg, g, eg.roots[0]) == ("n", "S", 0, 0, 0, ())


def test_forest_document_and_gc():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, "1+1+1")
    doc = egraph_document(eg, g)
    assert set(doc) >= {"nodes", "roots", "treeCounts"}
    ids = {n["id"] for n in doc["nodes"]}
    assert ids == set(range(len(doc["nodes"])))  # renumbered densely
    for n in doc["nodes"]:
        assert ("lexeme" in n) != ("production" in n)
        for c in n.get("children", ()):
            assert c in ids
    assert doc["treeCounts"] == {str(r): 1 for r in doc["roots"]}
    # every node reachable from some root
    reachable = set()
    stack = list(doc["roots"])
    by_id = {n["id"]: n for n in doc["nodes"]}
    while stack:
        i = stack.pop()
        if i in reachable:
            continue
        reachable.add(i)
        stack.extend(by_id[i].get("children", ()))
    assert reachable == ids


def test_dot_output_uses_squares_for_nonterminals():
    g = grammar(AMBIG_NUMBERS)
    _la, _ig, eg = pipeline(g, AMBIG_INPUT)
    dot = egraph_to_dot(eg, g)
    assert dot.startswith("digraph")
    assert "shape=box" in dot and "shape=ellipse" in dot
    assert "peripheries=2" in dot  # the root stands out


def test_tree_to_jsonable_roundtrips_structure():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, "1+1")
    (tree,) = enumerate_trees(eg, g, 1)
    doc = tree_to_jsonable(tree)
    assert doc["symbol"] == "E" and len(doc["children"]) == 3


def test_determinism_across_runs():
    g = grammar(ARITH)
    docs = []
    for _ in range(2):
        _la, _ig, eg = pipeline(g, chain(5))
        docs.append(egraph_document(eg, g))
    assert docs[0] == docs[1]


DEEP_CHAIN = (
    "%token plus /\\+/\n%token int /1/\n%start E\n"
    "E ::= E plus T ;\nE ::= T ;\nT ::= int ;\n"
)


def test_deeply_nested_unambiguous_input(monkeypatch):
    # expansion of a 1000-token left-recursive chain must not hit the
    # interpreter recursion limit on the caller's thread, and must not get
    # round it by changing process-wide state or starting a thread
    g = grammar(DEEP_CHAIN)
    limit = sys.getrecursionlimit()
    threads = threading.active_count()

    def no_thread(self):
        raise AssertionError("parsing started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    _la, _ig, eg = pipeline(g, chain(500))
    assert sys.getrecursionlimit() == limit
    assert threading.active_count() == threads
    assert tree_counts(eg).total == 1
    (tree,) = enumerate_trees(eg, g, 1)
    assert tree_to_jsonable(tree)["symbol"] == "E"


def test_evaluator_sees_a_deeply_nested_candidate():
    # the evaluator's view of the root holds the whole 520-level chain
    g = grammar(
        DEEP_CHAIN.replace("%start E", "%start S") + "[top] S ::= E ;\n",
        evaluators={"top": lambda view: view.children[0].end == view.end},
    )
    _la, _ig, eg = pipeline(g, chain(520))
    assert tree_counts(eg).total == 1


def test_concurrent_parses_leave_the_recursion_limit_alone():
    g = grammar(DEEP_CHAIN)
    limit = sys.getrecursionlimit()
    results = []

    def work():
        for _ in range(3):
            results.append(tree_counts(pipeline(g, chain(100))[2]).total)

    workers = [threading.Thread(target=work) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
        assert not w.is_alive()
    assert results == [1] * 12
    assert sys.getrecursionlimit() == limit


def test_roots_never_repeat():
    # expand_forest concatenates the roots of all starting nodes without
    # deduplicating them
    seen = 0
    for seed in range(40):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for text in inst.inputs:
            if randsuite.oracle_trees(inst.grammar, text) is None:
                continue
            for g in (inst.grammar, inst.constrained):
                for enforce in (True, False):
                    outcome = parse_text(g, text, enforce_constraints=enforce)
                    if outcome.accepted:
                        assert len(set(outcome.egraph.roots)) == len(outcome.egraph.roots)
                        seen += len(outcome.egraph.roots)
    _la, _ig, eg = pipeline(grammar(ARITH), chain(7))
    assert len(set(eg.roots)) == len(eg.roots) == catalan(6)
    assert seen > 100
