"""Forest expansion, constraint rules, counting, enumeration, documents."""

import gc
import re
import sys
import threading
import time
import tracemalloc
from itertools import product

import pytest

import randsuite

from fence import build_ela_graph, expand_forest, run_chart
from fence.cli import main
from fence.enforce import (
    COUNT_CAP,
    ForestNode,
    _Expander,
    canonical_tree,
    egraph_document,
    egraph_to_dot,
    enumerate_trees,
    epsilon_forest,
    tree_counts,
    tree_to_jsonable,
)
from fence.errors import EvaluatorError
from fence.lexgraph import tokenize
from fence.oracle import oracle_filter, oracle_parse_all
from fence.pipeline import parse_text
from helpers import (
    AMBIG_INPUT,
    AMBIG_NUMBERS,
    ARITH,
    ARITH_LEFT,
    DANGLING_ELSE,
    OUTPUT_CALL,
    UNAMBIGUOUS_CHAIN,
    UNIT_LIST,
    assert_counts,
    assert_forest_shape,
    catalan,
    chain,
    grammar,
    pipeline,
    pipeline_trees,
    reference_counts,
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


def test_a_placeholder_is_checked_against_its_parents_constraints():
    # the empty E before "a" derives by [empty], which [pair] may not take
    g = grammar(
        "%token a /a/\n%start S\n[pair] S ::= E a ;\n[empty] E ::= ;\n[one] E ::= a ;\n"
        "%prefer compose pair over empty ;\n"
    )
    assert pipeline_trees(g, "a") == frozenset()
    assert pipeline_trees(g, "a", enforce=False) != frozenset()
    assert len(pipeline_trees(g, "aa")) == 1


def test_two_candidates_before_constraints():
    # both bracketings are packed into one node, one alternative each
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, "1+1+1", enforce=False)
    (node,) = [
        n for n in eg.nodes
        if n.production_id == 0 and (n.start, n.end) == (0, 5)
    ]
    splits = sorted(
        tuple((eg.nodes[c].start, eg.nodes[c].end) for c in alt) for alt in node.children
    )
    assert splits == [((0, 1), (1, 2), (2, 5)), ((0, 3), (3, 4), (4, 5))]


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


def test_a_dominated_production_is_never_expanded():
    # every slashed number is a Real or Integer Point Integer; the Real is
    # preferred and always holds a tree, so only kept alternatives are built
    text = " ".join([AMBIG_INPUT] * 3)
    eg = parse_text(grammar(UNIT_LIST), text).egraph
    kept = sum(len(n.children) for n in eg.nodes if n.children is not None and n.start != n.end)
    assert tree_counts(eg).total == 1
    assert eg.constructions == kept

    calls = []
    judged = grammar(UNIT_LIST, evaluators={"split": lambda view: calls.append(view) or True})
    judged_eg = parse_text(judged, text).egraph
    assert calls == []
    assert egraph_document(judged_eg, judged) == egraph_document(eg, grammar(UNIT_LIST))
    assert len(assert_counts(judged, judged_eg)) == 1


# the least preferred production is declared first, so its node is checked
# before the preferred ones exist, and checking it builds them
SELECT_CHAIN = """
%token a /a/
%token b /b/
%start R
R ::= S ;
[low] S ::= a b ;
[mid] S ::= a Y ;
[high] S ::= X b ;
X ::= a ;
Y ::= b ;
%prefer select high over mid ;
%prefer select mid over low ;
"""


@pytest.mark.parametrize("vetoed, called, winner", [
    ((), ["high"], "high"),
    (("mid",), ["high"], "high"),
    (("high",), ["high", "mid"], "mid"),
    (("high", "mid"), ["high", "mid", "low"], "low"),
])
def test_a_selection_check_builds_the_preferred_nodes_first(vetoed, called, winner):
    calls = []

    def judge(label):
        return lambda view: calls.append(label) or label not in vetoed

    g = grammar(SELECT_CHAIN, evaluators={label: judge(label) for label in ("low", "mid", "high")})
    la = tokenize(g, "ab")
    expected = oracle_filter(oracle_parse_all(g, la), g, la)
    calls.clear()
    eg = parse_text(g, "ab").egraph
    assert calls == called
    assert frozenset(enumerate_trees(eg, g, 10)) == expected
    ((_, _, _, _, _, (s_node,)),) = expected
    assert g.productions[s_node[4]].label == winner


def _add_calls(accept):
    """An evaluator for ``add`` that records (start, end, child spans) of every call, and its records."""
    records = []

    def evaluator(view):
        records.append((view.start, view.end, tuple((c.start, c.end) for c in view.children)))
        return accept(view)

    return evaluator, records


def test_an_evaluator_is_called_once_per_alternative_across_suspensions():
    # each add node waits for the add nodes inside it while it is half walked,
    # and none of its alternatives is judged again when it resumes
    text = chain(8)
    plain = grammar(ARITH)
    evaluator, records = _add_calls(lambda view: True)
    judged = grammar(ARITH, evaluators={"add": evaluator})
    eg = parse_text(judged, text).egraph
    add = judged.by_label["add"].id
    alternatives = sum(len(n.children) for n in eg.nodes if n.production_id == add)
    assert len(set(records)) == len(records) == alternatives == 84
    assert egraph_document(eg, judged) == egraph_document(parse_text(plain, text).egraph, plain)

    # rejecting a wider left operand: every call is one construction, kept or not
    evaluator, records = _add_calls(lambda v: v.children[0].end - v.start <= v.end - v.children[2].start)
    judged = grammar(ARITH, evaluators={"add": evaluator})
    _la, ig, eg = pipeline(judged, text)
    records.clear()
    expander = _Expander(judged, ig, True)
    expander.run()
    forest = expander.forest  # before compaction, so it keeps every node built
    kept = sum(len(n.children) for n in forest.nodes if n.children is not None and n.start != n.end)
    rejected = sum(1 for _start, _end, (left, _op, right) in records if left[1] - left[0] > right[1] - right[0])
    assert len(set(records)) == len(records)
    assert 0 < rejected < len(records)
    assert forest.constructions == kept + rejected
    assert tree_counts(eg).total == len(oracle_filter(oracle_parse_all(judged, tokenize(judged, text)), judged,
                                                      tokenize(judged, text)))


def test_forest_nodes_refuse_attribute_assignment():
    _la, _ig, eg = pipeline(grammar(AMBIG_NUMBERS), AMBIG_INPUT)
    with pytest.raises(AttributeError):
        eg.nodes[0].children = None
    with pytest.raises(AttributeError):
        eg.nodes[0].extra = 1


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


def test_an_evaluated_node_counts_the_candidates_it_accepts():
    # of the five bracketings of four operands, two put no more operands
    # left than right at every split: a(a(aa)) and (aa)(aa)
    src = "%token a /a/\n%start S\n[dup] S ::= S S ;\n[one] S ::= a ;\n"
    g = grammar(src, evaluators={"dup": lambda v: v.children[0].end - v.start <= v.end - v.children[1].start})
    _la, _ig, eg = pipeline(g, "aaaa")
    assert tree_counts(eg).total == 2
    assert len(assert_counts(g, eg)) == 2
    assert eg.constructions > 2  # rejected candidates were assembled too


def test_an_evaluator_keeps_the_forest_packed():
    # the evaluator judges one alternative whose child holds every bracketing
    source = ARITH.replace("%start E", "%start S") + "[top] S ::= E ;\n"
    views = []
    plain = grammar(source)
    judged = grammar(source, evaluators={"top": lambda view: views.append(view) or True})
    for operands in (12, 30):
        text = "+".join(["1"] * operands)
        t0 = time.perf_counter()
        eg = parse_text(judged, text).egraph
        seconds = time.perf_counter() - t0
        assert egraph_document(eg, judged) == egraph_document(parse_text(plain, text).egraph, plain)
        assert tree_counts(eg).total == catalan(operands - 1)
    assert seconds < 1.0, seconds
    assert len(views) == 2
    (child,) = views[-1].children
    assert child.children == ()
    assert (child.symbol, child.start, child.end, child.text) == ("E", 0, len(text), text)
    assert (judged.productions[child.production].label, child.label) == ("add", "add")


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
    assert counts.per_root == {eg2.roots[0]: 5}  # one packed root holds them all


def test_a_count_past_the_cap_is_saturated():
    # Catalan(39) is about 1.7e21 trees, past COUNT_CAP
    _la, _ig, eg = pipeline(grammar(ARITH), chain(40))
    (root,) = eg.roots
    counts = tree_counts(eg)
    assert catalan(39) > COUNT_CAP
    assert counts == (COUNT_CAP, {root: COUNT_CAP}, True)
    # a smaller cap gives min(count, cap) and flags the cap it reached
    assert tree_counts(eg, 10**6) == (10**6, {root: 10**6}, True)
    _la, _ig, small = pipeline(grammar(ARITH), chain(10))
    (small_root,) = small.roots
    assert tree_counts(small, 100) == (100, {small_root: 100}, True)
    assert tree_counts(small, 10_000) == (catalan(9), {small_root: catalan(9)}, False)
    # counts were capped as the forest was built, so a larger cap cannot be honoured
    with pytest.raises(ValueError, match="COUNT_CAP"):
        tree_counts(eg, COUNT_CAP + 1)


def test_tree_counts_rejects_a_cap_below_one():
    _la, _ig, eg = pipeline(grammar(ARITH), chain(3))
    (root,) = eg.roots
    for cap in (0, -5):
        with pytest.raises(ValueError, match="cap"):
            tree_counts(eg, cap)
    assert tree_counts(eg, 1) == (1, {root: 1}, True)


def test_stored_counts_equal_the_reference_walk():
    compared = 0
    for seed in range(200):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for g in (inst.grammar, inst.constrained):
            for text in inst.inputs:
                for enforce in (True, False):
                    eg = parse_text(g, text, enforce_constraints=enforce).egraph
                    if eg is not None:
                        assert eg.counts == reference_counts(eg), (seed, text, enforce)
                        compared += 1
    assert compared > 1000


def test_nodes_left_unreachable_are_compacted_away():
    # S ::= A and A ::= S form a unit cycle; on "w" expansion builds a fourth
    # node under the cut that no root reaches
    g = randsuite.make_instance(4).grammar
    _la, ig, eg = pipeline(g, "w", enforce=False)
    expander = _Expander(g, ig, False)
    expander.run()
    assert len(expander.forest.nodes) == 4
    assert len(eg.nodes) == 3
    assert_forest_shape(eg)
    assert eg.counts == reference_counts(eg) == [1, 1, 1]
    _la, expected = randsuite.oracle_trees(g, "w")
    assert frozenset(assert_counts(g, eg)) == expected


def _forest_lists(eg):
    return (eg.node_symbol, eg.node_start, eg.node_end, eg.node_production, eg.node_alts, eg.alt_kids, eg.kids,
            eg.counts)


def _document_records(eg, g):
    """The forest's nodes as ``ForestNode`` records rebuilt from its document, which is pinned byte for byte."""
    return [
        ForestNode(entry["id"], g.symbol(entry["symbol"]).id, entry["start"], entry["end"], entry.get("production"),
                   tuple(map(tuple, entry["alternatives"])) if "alternatives" in entry else None, entry.get("lexeme"))
        for entry in egraph_document(eg, g)["nodes"]
    ]


def test_the_forest_keeps_untracked_ints_and_its_views_match_its_document():
    # the collector tracks no int, so a forest node allocates nothing it has to scan
    def check(eg, g):
        for values in _forest_lists(eg):
            for value in values:
                assert (type(value) is int or value is None) and not gc.is_tracked(value), value
        views = list(eg.nodes)
        assert views == _document_records(eg, g)
        assert eg.nodes[-1:] == views[-1:] and eg.nodes[1:3] == views[1:3]

    compacted = 0
    # a unit cycle cut on "w", and an evaluator that rejects alternatives, leave nodes unreachable
    unit_cycle = randsuite.make_instance(4).grammar
    vetoed = grammar("%token a /a/\n%start S\n[dup] S ::= S S ;\n[one] S ::= a ;\n",
                     evaluators={"dup": lambda v: v.children[0].end - v.start <= v.end - v.children[1].start})
    for g, text, enforce in ((unit_cycle, "w", False), (vetoed, "aaaa", True)):
        _la, ig, eg = pipeline(g, text, enforce)
        expander = _Expander(g, ig, enforce)
        expander.run()
        assert len(expander.forest.nodes) > len(eg.nodes) > 0
        check(eg, g)
        compacted += 1
    forests = 0
    for seed in range(40):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for g in (inst.grammar, inst.constrained):
            for text in inst.inputs:
                for enforce in (True, False):
                    eg = parse_text(g, text, enforce_constraints=enforce).egraph
                    if eg is not None:
                        check(eg, g)
                        forests += 1
    assert compacted == 2 and forests > 200


def test_a_forest_stores_each_alternative_once_in_its_kids():
    g = grammar(ARITH)
    eg = parse_text(g, chain(4)).egraph
    alternatives = [alt for node in eg.nodes for alt in node.children or ()]
    assert eg.kids == [c for alt in alternatives for c in alt]
    assert len(eg.alt_kids) == len(alternatives) + 1 and len(eg.node_alts) == len(eg.nodes) + 1
    leaves = [node for node in eg.nodes if node.children is None]
    assert [leaf.lexeme for leaf in leaves] == ["1", "+", "1", "+", "1", "+", "1"]
    assert all(eg.node_production[leaf.id] is None for leaf in leaves)


def test_every_random_suite_forest_is_numbered_children_first():
    shaped = 0
    for seed in range(200):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for g in (inst.grammar, inst.constrained):
            for text in inst.inputs:
                for enforce in (True, False):
                    eg = parse_text(g, text, enforce_constraints=enforce).egraph
                    if eg is not None:
                        assert_forest_shape(eg)
                        shaped += 1
    assert shaped > 1000


def test_canonical_tree_refuses_a_node_with_several_trees():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, chain(4))
    with pytest.raises(ValueError, match="holds 5 trees"):
        canonical_tree(eg, g, eg.roots[0])
    assert canonical_tree(eg, g, eg.nodes[eg.roots[0]].children[0][1]) == ("t", "plus", 1, 2, "+")


def test_enumerate_trees_is_sorted_and_limited():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, chain(4))
    trees = enumerate_trees(eg, g, 100)
    assert trees == sorted(trees)
    assert enumerate_trees(eg, g, 2) == trees[:2]
    with pytest.raises(ValueError):
        enumerate_trees(eg, g, 0)


def _every_tree(eg, g):
    """Every tree of the forest, sorted: each alternative's full product, with no limit."""
    trees = {}

    def of(eid):
        if eid not in trees:
            rec = eg.nodes[eid]
            name = g.symbol_by_id[rec.symbol_id].name
            if rec.children is None:
                trees[eid] = [("t", name, rec.start, rec.end, rec.lexeme)]
            else:
                trees[eid] = [
                    ("n", name, rec.start, rec.end, rec.production_id, children)
                    for alt in rec.children
                    for children in product(*(of(c) for c in alt))
                ]
        return trees[eid]

    return sorted(t for root in eg.roots for t in of(root))


def test_enumeration_equals_the_sorted_full_enumeration():
    compared = 0
    for seed in range(60):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for g in (inst.grammar, inst.constrained):
            for text in inst.inputs:
                eg = parse_text(g, text).egraph
                if eg is None or not eg.roots or tree_counts(eg).total > 2_000:
                    continue
                every = _every_tree(eg, g)
                for limit in (1, 3, 10):
                    assert enumerate_trees(eg, g, limit) == every[:limit], (seed, text, limit)
                compared += 1
    assert compared > 100


def test_enumeration_merges_alternatives_lazily():
    # about 1.3e13 trees over 491 forest nodes: keeping each node's first 100
    # trees must not sort every alternative's list
    g = randsuite.make_instance(16).grammar
    started = time.perf_counter()
    eg = parse_text(g, "a" * 9).egraph
    trees = enumerate_trees(eg, g, 100)
    seconds = time.perf_counter() - started
    assert len(trees) == 100 and trees == sorted(trees)
    assert seconds < 2.5


def test_epsilon_forest_for_empty_input():
    g = grammar("%token a /a/\n%start S\nS ::= ;\nS ::= a ;\n")
    eg = epsilon_forest(g, 0, "")
    assert len(eg.roots) == 1
    assert canonical_tree(eg, g, eg.roots[0]) == ("n", "S", 0, 0, 0, ())


def test_forest_document_and_gc():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, "1+1+1")
    doc = egraph_document(eg, g)
    assert doc["formatVersion"] == 2
    assert set(doc) >= {"nodes", "roots", "treeCounts"}
    ids = {n["id"] for n in doc["nodes"]}
    assert ids == set(range(len(doc["nodes"])))  # renumbered densely
    for n in doc["nodes"]:
        assert ("lexeme" in n) != ("production" in n) == ("alternatives" in n)
        for alt in n.get("alternatives", ()):
            assert all(c in ids for c in alt)
    # one root holds both bracketings as two alternatives
    (root,) = doc["roots"]
    assert doc["treeCounts"] == {str(root): 2}
    by_id = {n["id"]: n for n in doc["nodes"]}
    assert len(by_id[root]["alternatives"]) == 2
    assert sum(len(n.get("alternatives", ())) > 1 for n in doc["nodes"]) == 1
    # one node per (start, end, symbol, production): shared, not repeated per tree
    keys = [(n["start"], n["end"], n["symbol"], n.get("production")) for n in doc["nodes"]]
    assert len(keys) == len(set(keys))
    # children are numbered before their parents, so the single root comes last
    for n in doc["nodes"]:
        for alt in n.get("alternatives", ()):
            assert all(c < n["id"] for c in alt)
    assert root == len(doc["nodes"]) - 1
    # every node reachable from the root
    reachable = set()
    stack = [root]
    while stack:
        i = stack.pop()
        if i in reachable:
            continue
        reachable.add(i)
        for alt in by_id[i].get("alternatives", ()):
            stack.extend(alt)
    assert reachable == ids


def test_dot_output_uses_squares_for_nonterminals():
    g = grammar(AMBIG_NUMBERS)
    _la, _ig, eg = pipeline(g, AMBIG_INPUT)
    dot = egraph_to_dot(eg, g)
    assert dot.startswith("digraph")
    assert "shape=box" in dot and "shape=ellipse" in dot
    assert "peripheries=2" in dot  # the root stands out


def test_dot_output_draws_packed_alternatives():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, "1+1+1", enforce=False)
    dot = egraph_to_dot(eg, g)
    (root,) = eg.roots
    assert dot.count("shape=point") == 2  # only the root holds two alternatives
    for a in (0, 1):
        assert f'n{root}a{a} [label="", shape=point];' in dot
        assert f"n{root} -> n{root}a{a};" in dot
        for i, child in enumerate(eg.nodes[root].children[a]):
            assert f'n{root}a{a} -> n{child} [label="{i}"];' in dot


def test_dot_output_escapes_lexemes():
    g = grammar('%token q /"/\n' r"%token b /\\/" "\n%start S\nS ::= q b ;\n")
    _la, _ig, eg = pipeline(g, '"\\')  # a quote, then a backslash
    dot = egraph_to_dot(eg, g)
    assert r'label="q\n\""' in dot
    assert r'label="b\n\\"' in dot
    for line in dot.splitlines():
        assert re.sub(r"\\.", "", line).count('"') % 2 == 0, line


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
    # the root's one alternative sits on the whole 520-level chain
    g = grammar(
        DEEP_CHAIN.replace("%start E", "%start S") + "[top] S ::= E ;\n",
        evaluators={"top": lambda view: view.children[0].end == view.end},
    )
    _la, _ig, eg = pipeline(g, chain(520))
    assert tree_counts(eg).total == 1
    assert len(assert_counts(g, eg)) == 1


def _expansion_peak(g, text):
    """``tracemalloc`` peak of expanding the chart of ``text``, in bytes above its start."""
    ig = run_chart(g, build_ela_graph(tokenize(g, text)))
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        expand_forest(g, ig)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_left_chain_costs_little_expansion_memory_per_level():
    # a left chain keeps one node open per level while its innermost level is
    # built; with saved frames that costs about 950 bytes an operand, forest
    # included, and the bound lies halfway to the 1,480 bytes that a
    # suspended generator per open level costs
    g = grammar(DEEP_CHAIN)
    per_operand = (_expansion_peak(g, chain(2000)) - _expansion_peak(g, chain(1000))) / 1000
    assert per_operand < 1215, per_operand


def test_long_nullable_chain_parses_without_recursion(tmp_path, capsys):
    # the placeholder for A0 is a 1,001-level chain of empty derivations
    levels = 1000
    source = (
        "%token a /a/\n%start S\nS ::= A0 a ;\n"
        + "".join(f"A{i} ::= A{i + 1} ;\n" for i in range(levels))
        + f"A{levels} ::= ;\n"
    )
    started = time.perf_counter()
    g = grammar(source)
    eg = parse_text(g, "a").egraph
    assert tree_counts(eg).total == 1
    tree = canonical_tree(eg, g, eg.roots[0])
    depth = 0
    node = tree[5][0]
    while node[5]:
        node = node[5][0]
        depth += 1
    assert (node[1], depth) == (f"A{levels}", levels)
    path = tmp_path / "chain.fence"
    path.write_text(source)
    assert main(["parse", "--grammar", str(path), "--text", "a", "--enumerate", "1"]) == 0
    printed = capsys.readouterr().out  # too deep for json.loads
    assert printed.count('"symbol": "S"') == 1
    assert printed.count('"symbol": "A') == levels + 1
    # building the grammar's nullable tables is quadratic in the chain length
    assert time.perf_counter() - started < 60.0


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
    assert len(eg.roots) == 1 and tree_counts(eg).total == catalan(6)
    assert seen > 100


# -- the packed forest stays small when the tree count is not ----------------------


def test_random_suite_seed_16_is_counted_without_enumeration():
    # the trees multiply about 45x per added token; the forest must not
    g = randsuite.make_instance(16).grammar
    started = time.perf_counter()
    totals, sizes = [], []
    for n in (3, 4, 5, 6):
        eg = parse_text(g, "a" * n).egraph
        totals.append(tree_counts(eg).total)
        sizes.append(len(eg.nodes))
    assert totals[:3] == [1_016, 40_736, 1_835_200]
    assert totals[3] > totals[2] and sizes[3] < 1_000
    assert time.perf_counter() - started < 10.0


def test_unconstrained_lattice_forest_grows_linearly():
    # each unit doubles the trees; the forest gains a fixed number of nodes
    g = grammar(UNIT_LIST)
    started = time.perf_counter()
    sizes = {}
    for units in (8, 10, 12, 14):
        text = " ".join([AMBIG_INPUT] * units)
        eg = parse_text(g, text, enforce_constraints=False).egraph
        assert tree_counts(eg).total == 2**units
        sizes[units] = len(eg.nodes)
        assert tree_counts(parse_text(g, text).egraph).total == 1
    assert all(sizes[u] <= sizes[8] * u / 8 for u in sizes), sizes
    assert time.perf_counter() - started < 10.0


def test_chain_constructions_grow_linearly():
    g = grammar(UNAMBIGUOUS_CHAIN)
    started = time.perf_counter()
    made = {}
    for n in (250, 500, 1000, 2000):
        _la, _ig, eg = pipeline(g, chain(n // 2) + ";")
        assert tree_counts(eg).total == 1
        made[n] = eg.constructions
    for n in (500, 1000, 2000):
        assert made[n] / made[n // 2] <= 2.2, made
    assert time.perf_counter() - started < 10.0


def test_left_associative_constructions_are_linear_in_operands():
    # the chart derives every E [i,j); expansion builds only the left-deep tree
    g = grammar(ARITH_LEFT)
    started = time.perf_counter()
    made = {}
    for operands in (50, 100, 200):
        _la, _ig, eg = pipeline(g, chain(operands))
        assert tree_counts(eg).total == 1
        made[operands] = eg.constructions
    assert made[200] - made[100] == 2 * (made[100] - made[50]), made
    assert time.perf_counter() - started < 30.0


def test_enumeration_stops_at_the_limit():
    g = grammar(ARITH)
    _la, _ig, eg = pipeline(g, chain(8))
    every = enumerate_trees(eg, g, 10**6)
    assert len(every) == catalan(7)
    assert enumerate_trees(eg, g, 7) == every[:7]
    # a node keeps at most ``limit`` trees, so a Catalan(29) forest lists its first three
    started = time.perf_counter()
    _la, _ig, big = pipeline(g, chain(30))
    first = enumerate_trees(big, g, 3)
    assert len(first) == 3 and first == sorted(first)
    assert time.perf_counter() - started < 10.0


def test_a_saturated_forest_document_says_so():
    # Catalan(39) is about 6.8e20 trees, past COUNT_CAP
    g = grammar(ARITH)
    eg = parse_text(g, chain(40), enforce_constraints=False).egraph
    doc = egraph_document(eg, g)
    (root,) = eg.roots
    assert doc["treeCounts"] == {str(root): COUNT_CAP}
    assert doc["treeCountsSaturated"] is True
    assert "treeCountsSaturated" not in egraph_document(parse_text(g, chain(30)).egraph, g)
