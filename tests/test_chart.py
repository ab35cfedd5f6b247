"""Chart phase: handle management, reductions, merging, termination."""

import gc
import json
import time
import tracemalloc
from collections import Counter

import pytest

import randsuite
from fence import expand_forest, explain_rejection, oracle_filter, oracle_parse_all, parse_text, tree_counts
from fence.chart import ChartParser, igraph_document, run_chart
from fence.elagraph import build_ela_graph
from fence.grammar import Grammar
from fence.lexgraph import TokenizationError, tokenize
from helpers import (
    AMBIG_INPUT,
    AMBIG_NUMBERS,
    ARITH,
    ARITH_LEFT,
    UNAMBIGUOUS_CHAIN,
    UNIT_LIST,
    chain,
    entry_parts,
    grammar,
    handle_parts,
    pipeline,
    pipeline_trees,
)


def build(g, text):
    return build_ela_graph(tokenize(g, text))


def core_view(ela, offset):
    """The view of the core at ``offset``."""
    return next(core for core in ela.cores if core.position == offset)


def node_triples(g, ig, ids=None):
    nodes = ig.nodes if ids is None else [ig.nodes[i] for i in ids]
    return sorted((n.start, n.end, g.symbol_by_id[n.symbol_id].name) for n in nodes)


def test_add_handle_single_production():
    g = grammar("%token a /a/\n%start S\nS ::= a ;\n")
    ela = build(g, "a")
    parser = ChartParser(g, ela)
    position = ela.content_start
    parser.add_handle(g.item_base[0], position, position)
    assert [handle_parts(g, ela, h) for h in core_view(ela, position).handles] == [(0, 0, position)]
    assert len(parser.agenda) == 1


def test_add_handle_expands_nullable_skips():
    g = grammar("%token b /b/\n%start S\nS ::= A b ;\nA ::= ;\n")
    ela = build(g, "b")
    parser = ChartParser(g, ela)
    parser.add_handle(g.item_base[0], ela.content_start, ela.content_start)
    dots = sorted(handle_parts(g, ela, h)[1] for h in core_view(ela, ela.content_start).handles)
    assert dots == [0, 1]  # dot before A, and A skipped
    assert len(parser.agenda) == 1  # the b token matches the advanced handle


def test_a_handle_is_keyed_by_its_origin_not_its_first_node():
    # after "a a" the dot-2 handle of S is reached through A [0,1) A [1,3)
    # and through A [0,2) A [2,3): two first nodes, one origin
    g = grammar("%token a /a/\n%token b /b/\n%start S\nS ::= A A b ;\nA ::= a ;\nA ::= a a ;\n")
    ela = build(g, "aaab")
    ig = run_chart(g, ela)
    assert len(ig.starting) == 1
    core = core_view(ela, 3)
    assert sorted(h for h in (handle_parts(g, ela, h) for h in core.handles) if h[0] == 0 and h[1] == 2) == [(0, 2, 0)]


def test_a_skip_run_to_the_end_reduces_for_every_end():
    # "a" and "a " end at 1 and 2, and both are followed by the core at 2:
    # the handle X ::= A . N stored there once completes X [0,1) and X [0,2)
    g = grammar(
        "%token a /a/\n%token asp /a /\n%token c /c/\n%skip /[ ]+/\n%start S\n"
        "S ::= X c ;\nX ::= A N ;\nA ::= a ;\nA ::= asp ;\nN ::= ;\n"
    )
    ig = run_chart(g, build(g, "a c"))
    assert [t for t in node_triples(g, ig) if t[2] == "X"] == [(0, 1, "X"), (0, 2, "X")]
    assert len(_assert_matches_oracle(g, "a c")) == 2


def test_initialization_of_running_example():
    g = grammar(AMBIG_NUMBERS)
    ela = build(g, AMBIG_INPUT)
    parser = ChartParser(g, ela)
    parser.initialize()
    # the start symbol E begins with A, which begins with Ampersand: the
    # starting core holds the dot-0 handles of E and A and nothing for B
    by_name = {s.name: s.id for s in g.symbols.values()}
    start_core = core_view(ela, ela.content_start)
    assert {handle_parts(g, ela, h) for h in start_core.handles} == {
        (p.id, 0, 0) for p in g.productions if p.lhs.name in ("E", "A")
    }
    assert parser.predicted[start_core.position] == {by_name["E"], by_name["A"], by_name["Ampersand"]}
    # every other core stays empty until the run reaches it
    for core in ela.cores:
        if core.id != start_core.id:
            assert not core.handles and core.position not in parser.predicted
    # only one entry: the Ampersand matching A's production
    assert len(parser.agenda) == 1
    pid, dot, origin, node_id = entry_parts(g, ela, parser.agenda[0])
    assert g.productions[pid].lhs.name == "A" and dot == 0 and origin == 0
    assert g.symbol_by_id[ela.nodes[node_id].symbol_id].name == "Ampersand"


def test_no_matching_production_leaves_agenda_empty():
    g = grammar("%token b /b/\n%token c /c/\n%start S\nS ::= b ;\n")
    ela = build(g, "c")
    parser = ChartParser(g, ela)
    parser.initialize()
    assert len(parser.agenda) == 0
    ig = parser.run()
    assert ig.starting == ()


def test_running_example_accepts_exactly_one_reading():
    g = grammar(AMBIG_NUMBERS)
    ig = run_chart(g, build(g, AMBIG_INPUT))
    assert node_triples(g, ig, ig.starting) == [(0, 13, "E")]
    # The Integer Point Integer reading inside &...& yields no A node at all.
    a_nodes = [t for t in node_triples(g, ig) if t[2] == "A"]
    assert a_nodes == [(0, 5, "A")]


def test_trivial_acceptance():
    g = grammar("%token a /a/\n%start S\nS ::= a ;\n")
    ig = run_chart(g, build(g, "a"))
    assert node_triples(g, ig, ig.starting) == [(0, 1, "S")]


def test_cyclic_production_set_terminates_and_merges():
    g = grammar("%token c /c/\n%start A\nA ::= c ;\nA ::= B ;\nB ::= A ;\n")
    ig = run_chart(g, build(g, "c"))
    assert node_triples(g, ig) == [(0, 1, "A"), (0, 1, "B"), (0, 1, "c")]
    assert node_triples(g, ig, ig.starting) == [(0, 1, "A")]


def test_ambiguous_chain_node_set():
    g = grammar(ARITH)
    ig = run_chart(g, build(g, "1+1+1"))
    e_nodes = [t for t in node_triples(g, ig) if t[2] == "E"]
    assert e_nodes == [(0, 1, "E"), (0, 3, "E"), (0, 5, "E"), (2, 3, "E"), (2, 5, "E"), (4, 5, "E")]
    assert len(ig.starting) == 1


def test_leading_and_trailing_nullables_complete():
    lead = grammar("%token b /b/\n%start S\nS ::= A b ;\nA ::= ;\n")
    assert len(run_chart(lead, build(lead, "b")).starting) == 1
    trail = grammar("%token b /b/\n%start S\nS ::= b A ;\nA ::= ;\n")
    assert len(run_chart(trail, build(trail, "b")).starting) == 1
    both = grammar("%token b /b/\n%start S\nS ::= A b A ;\nA ::= ;\nA ::= b ;\n")
    ig = run_chart(both, build(both, "bb"))
    assert len(ig.starting) == 1


def test_nullable_chain_is_skippable():
    g = grammar("%token b /b/\n%start S\nS ::= A b ;\nA ::= B ;\nB ::= ;\n")
    ig = run_chart(g, build(g, "b"))
    assert len(ig.starting) == 1


class _RecordingAgenda(list):
    def __init__(self):
        super().__init__()
        self.pushed = []

    def append(self, entry):
        self.pushed.append(entry)
        super().append(entry)


def test_no_agenda_entry_is_pushed_twice():
    # the random grammars include nullable chains, unit cycles and
    # self-nesting productions
    runs = filtered = 0
    for seed in range(120):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for text in inst.inputs:
            try:
                la = tokenize(inst.grammar, text)
            except TokenizationError:
                continue
            if not la.nodes:
                continue
            # the constrained variant's chart also blocks positions
            for g, enforce in ((inst.grammar, False), (inst.constrained, True)):
                parser = ChartParser(g, build_ela_graph(la), enforce)
                parser.agenda = _RecordingAgenda()
                ig = parser.run()
                pushed = parser.agenda.pushed
                assert len(set(pushed)) == len(pushed), (seed, text, enforce)
                assert ig.agenda_pops == len(pushed)
                if enforce:  # no handle meets a node all of whose productions its position blocks
                    blocks = g.position_blocks
                    blocked = [
                        e for e in (entry_parts(g, ig, e) for e in pushed)
                        if ig.nodes[e[3]].productions and blocks[e[0]][e[1]].issuperset(ig.nodes[e[3]].productions)
                    ]
                    assert not blocked, (seed, text)
                    filtered += ig.filtered
                runs += 1
    assert runs > 300 and filtered > 50



def test_handles_and_agenda_entries_are_untracked_ints():
    # the collector never tracks an int, so the chart's per-handle and
    # per-push work allocates nothing it has to scan
    runs = 0
    for seed in range(60):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for text in inst.inputs:
            try:
                la = tokenize(inst.grammar, text)
            except TokenizationError:
                continue
            if not la.nodes:
                continue
            for g, enforce in ((inst.grammar, False), (inst.constrained, True)):
                parser = ChartParser(g, build_ela_graph(la), enforce)
                parser.agenda = _RecordingAgenda()
                ig = parser.run()
                stored = [*ig.handles, *parser.waiting, *parser.following_by_sym, *parser.node_ids]
                stored += [h for waiting in parser.waiting.values() for h in waiting]
                for value in stored + parser.agenda.pushed:
                    assert type(value) is int and not gc.is_tracked(value), (seed, text, value)
                runs += 1
    assert runs > 150


def test_a_handle_whose_origin_is_the_end_of_the_input():
    # after "a", the last core holds T ::= a . N from offset 0, and the
    # nullable tail R predicts T there, seeding T ::= . a N from offset 1,
    # the input's length: the next item at origin 0 and this one at the
    # largest origin must not share a code
    g = grammar("%token a /a/\n%start S\nS ::= T R ;\nR ::= T ;\nR ::= ;\nT ::= a N ;\nN ::= ;\n")
    ela = build(g, "a")
    ig = run_chart(g, ela)
    assert len(ig.starting) == 1
    t = g.production_by_ref("T").id
    last = ela.cores[-1]
    assert last.position == len("a") == ela.stride - 1
    at_end = {handle_parts(g, ela, h): h for h in last.handles}
    assert len(at_end) == len(last.handles)
    assert at_end[t, 1, 0] != at_end[t, 0, 1]
    at_start = {handle_parts(g, ela, h): h for h in core_view(ela, ela.content_start).handles}
    assert at_start[t, 0, 0] != at_end[t, 0, 1]
    assert len(_assert_matches_oracle(g, "a")) == 1

def test_stats_and_document():
    g = grammar(AMBIG_NUMBERS)
    ig = run_chart(g, build(g, AMBIG_INPUT))
    doc = igraph_document(ig, g)
    assert set(doc["stats"]) == {"agendaPops", "handles"}
    assert len(doc["nodes"]) == len(ig.nodes) and len(ig.starting) == 1
    assert ig.agenda_pops > 0 and ig.handle_count > 0
    top = g.productions_by_lhs[g.symbol("E").id][0].id
    assert doc["starting"] == [{"start": 0, "end": 13, "symbol": "E", "productions": [top]}]
    assert doc["stats"]["agendaPops"] == ig.agenda_pops
    assert {"start", "end", "symbol"} <= doc["nodes"][0].keys()
    # a nonterminal entry lists the productions that derived it, a token entry none
    for entry in doc["nodes"]:
        assert ("productions" in entry) == (not g.symbol(entry["symbol"]).is_terminal), entry
    rejection = run_chart(g, build(g, "&&"))
    assert igraph_document(rejection, g)["starting"] == []


def test_rejected_input_is_an_empty_starting_set_not_an_error():
    g = grammar(AMBIG_NUMBERS)
    ig = run_chart(g, build(g, "&&"))
    assert ig.starting == ()
    assert len(ig.nodes) == 2  # both tokens survive, nothing reduces


def test_the_chart_fills_and_returns_the_graph_it_is_given():
    g = grammar(AMBIG_NUMBERS)
    ela = build(g, AMBIG_INPUT)
    assert (ela.starting, ela.agenda_pops, ela.handle_count, ela.filtered) == ((), 0, 0, False)
    assert run_chart(g, ela) is ela
    assert ela.starting and ela.agenda_pops and ela.handle_count


def test_run_only_grows_the_seeded_state():
    g = grammar(AMBIG_NUMBERS)
    ela = build(g, AMBIG_INPUT)
    parser = ChartParser(g, ela)
    parser.initialize()
    seeded_handles = {c.id: set(c.handles) for c in ela.cores}
    token_count = len(ela.nodes)
    ig = parser.run()
    for core in ela.cores:
        assert seeded_handles[core.id] <= core.handles
    assert len(ig.nodes) >= token_count
    assert all(ig.nodes[i].symbol_id in g.terminal_ids for i in range(token_count))


def test_pops_grow_linearly_on_the_unambiguous_chain():
    g = grammar(UNAMBIGUOUS_CHAIN)
    pops = {}
    for n in (250, 500, 1000, 2000):
        la = tokenize(g, chain(n // 2) + ";")
        assert len(la.nodes) == n
        ig = run_chart(g, build_ela_graph(la))
        assert len(ig.starting) == 1
        pops[n] = ig.agenda_pops
    for n in (500, 1000, 2000):
        assert pops[n] / pops[n // 2] <= 2.2, pops


def test_left_associative_pops_grow_linearly():
    # the chart predicts no add production where an add may not be a child,
    # so only the left-nested E [0,k) are built
    g = grammar(ARITH_LEFT)
    pops = {}
    for n in (50, 100, 200, 400):
        t0 = time.perf_counter()
        outcome = parse_text(g, chain(n))
        seconds = time.perf_counter() - t0
        assert tree_counts(outcome.egraph).total == 1
        pops[n] = outcome.igraph.agenda_pops
    for n in (100, 200, 400):
        assert pops[n] / pops[n // 2] <= 2.2, pops
    assert seconds < 1.0  # 400 operands, end to end


def test_a_rejected_left_associative_sum_is_charted_once():
    # the trailing operator leaves no derivation; parse_text runs only the
    # enforcing chart, and only explain_rejection runs the unfiltered one
    g = grammar(ARITH_LEFT)
    t0 = time.perf_counter()
    outcome = parse_text(g, chain(400) + "+")
    seconds = time.perf_counter() - t0
    ig = outcome.chart
    assert outcome.failure == "parse" and ig.filtered
    assert ig.agenda_pops < 2000
    assert seconds < 1.0


def test_a_chart_that_enforced_the_constraints_is_not_expanded_without_them():
    g = grammar(ARITH_LEFT)
    ig = run_chart(g, build(g, "1+1+1"), enforce_constraints=True)
    with pytest.raises(ValueError):
        expand_forest(g, ig, enforce_constraints=False)
    assert tree_counts(expand_forest(g, ig)).total == 1
    # a chart of a grammar whose positions block nothing expands either way
    free = grammar(ARITH)
    ig = run_chart(free, build(free, "1+1+1"), enforce_constraints=True)
    assert tree_counts(expand_forest(free, ig, enforce_constraints=False)).total == 2


def test_the_default_chart_ignores_the_constraints():
    # criterion 9 expands one default chart both with and without enforcement
    g = grammar(ARITH_LEFT)
    free = Grammar(g.token_defs, g.productions, g.start, None, g.skip_pattern)
    text = chain(8)
    default = run_chart(g, build(g, text))
    unfiltered = run_chart(free, build(free, text))
    assert (default.agenda_pops, default.handle_count, len(default.nodes)) == (
        unfiltered.agenda_pops, unfiltered.handle_count, len(unfiltered.nodes)
    )
    assert not default.filtered
    assert [n.productions for n in default.nodes] == [n.productions for n in unfiltered.nodes]
    enforced = run_chart(g, build(g, text), enforce_constraints=True)
    assert enforced.agenda_pops < default.agenda_pops
    assert enforced.filtered


def test_a_skip_to_a_blocked_placeholder_is_not_taken():
    g = grammar(
        "%token a /a/\n%token b /b/\n%start S\n"
        "[s] S ::= a N ;\n[none] N ::= ;\n[one] N ::= b ;\n%prefer compose s over none ;\n"
    )
    assert g.epsilon_production[g.symbol("N").id] == g.by_label["none"].id
    assert len(run_chart(g, build(g, "a")).starting) == 1
    assert run_chart(g, build(g, "a"), enforce_constraints=True).starting == ()
    assert len(run_chart(g, build(g, "ab"), enforce_constraints=True).starting) == 1
    la = tokenize(g, "a")
    assert oracle_filter(oracle_parse_all(g, la), g, la) == frozenset()
    assert explain_rejection(parse_text(g, "a")).startswith("derived but pruned")


# A unit cycle whose productions block each other's alternatives: on "a",
# A [0,1) is derived by the blocked aa and by a2 and ab, and B [0,1) by the
# blocked bs and by ba.
CLASSED_CYCLE = (
    "%token a /a/\n%token b /b/\n%start S\n[s] S ::= A ;\n"
    "[ab] A ::= B ;\n[aa] A ::= a ;\n[a2] A ::= a ;\n[ba] B ::= A ;\n[bb] B ::= b ;\n[bs] B ::= a ;\n"
    "%prefer compose ab over bs ;\n%prefer compose ba over aa ;\n"
)


def test_a_classed_unit_cycle_agrees_with_the_filtered_oracle():
    g = grammar(CLASSED_CYCLE)
    # "a" keeps A(aa) and A(a2); "b" keeps A(ab B(bb)); every A [0,1) that
    # re-enters itself through ba is cut
    for text, trees in (("a", 2), ("b", 1)):
        la = tokenize(g, text)
        expected = oracle_filter(oracle_parse_all(g, la), g, la)
        assert len(expected) == trees
        assert pipeline_trees(g, text) == expected, text
    ig = parse_text(g, "a").igraph
    shared = Counter(n.key for n in ig.nodes)
    assert shared[(0, 1, g.symbol("A").id)] == 1
    assert shared[(0, 1, g.symbol("B").id)] == 1
    (a_node,) = [n for n in ig.nodes if n.key == (0, 1, g.symbol("A").id)]
    assert a_node.productions == tuple(sorted(g.by_label[label].id for label in ("ab", "aa", "a2")))


def test_the_document_lists_the_productions_of_each_node():
    g = grammar(CLASSED_CYCLE)
    plain = igraph_document(run_chart(g, build(g, "a")), g)
    parser = ChartParser(g, build(g, "a"), enforce_constraints=True)
    ig = parser.run()
    doc = igraph_document(ig, g)
    # enforcing the blocked positions removes no derivation of "a" from the chart
    assert doc["nodes"] == plain["nodes"]
    for n in ig.nodes:
        assert n.productions == tuple(sorted(n.productions))
        assert bool(n.productions) == (n.symbol_id not in g.terminal_ids), n
        key = (n.start * ig.stride + n.end) * (max(g.symbol_by_id) + 1) + n.symbol_id
        assert n.symbol_id in g.terminal_ids or parser.node_ids[key] == n.id
    a_nodes = [e for e in doc["nodes"] if e["symbol"] == "A"]
    assert a_nodes == [
        {"start": 0, "end": 1, "symbol": "A",
         "productions": sorted(g.by_label[label].id for label in ("ab", "aa", "a2"))},
    ]
    assert len({json.dumps(e) for e in doc["nodes"]}) == len(doc["nodes"])


def test_an_enforcing_chart_keeps_one_node_per_triple():
    blocking = 0
    shared = []
    for seed in range(200):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        g = inst.constrained
        for text in inst.inputs:
            try:
                la = tokenize(g, text)
            except TokenizationError:
                continue
            if not la.nodes:
                continue
            ig = run_chart(g, build_ela_graph(la), enforce_constraints=True)
            keys = [n.key for n in ig.nodes]
            if len(keys) != len(set(keys)):
                shared.append((seed, text))
            blocking += any(any(row) for row in g.position_blocks)
    assert not shared
    assert blocking > 100


@pytest.mark.parametrize("p2_first", [False, True], ids=["p1-declared-first", "p2-declared-first"])
def test_a_blocked_and_an_admitted_production_share_one_node(p2_first):
    # s blocks p1 and t blocks nothing, so both of A's productions derive
    # A [0,1); with p2 declared first, p1 reduces first and s meets the node
    # while it holds p1 alone
    productions = ["[p1] A ::= a ;\n", "[p2] A ::= a ;\n"]
    if p2_first:
        productions.reverse()
    g = grammar(
        "%token a /a/\n%start S\n[s] S ::= A ;\n[t] S ::= A A ;\n"
        + "".join(productions)
        + "%prefer compose s over p1 ;\n"
    )
    p1, p2, s = (g.by_label[label].id for label in ("p1", "p2", "s"))
    ig = run_chart(g, build(g, "a"), enforce_constraints=True)
    (a_node,) = [n for n in ig.nodes if n.symbol_id == g.symbol("A").id]
    assert a_node.productions == tuple(sorted((p1, p2)))
    # s's position blocks p1, yet it advances over the node that p2 derived too
    assert [ig.nodes[i].productions for i in ig.starting] == [(s,)]
    for text, trees in (("a", 1), ("aa", 4)):
        la = tokenize(g, text)
        expected = oracle_filter(oracle_parse_all(g, la), g, la)
        assert len(expected) == trees
        assert pipeline_trees(g, text) == expected, text


def test_a_handle_advances_once_per_triple():
    # random-suite seed 135's constrained grammar blocks some of a symbol's
    # productions at some positions; a handle there advances over each
    # (start, end, symbol) once, however many productions derive it
    g = randsuite.make_instance(135).constrained
    ig = run_chart(g, build(g, "aabba"), enforce_constraints=True)
    assert ig.handle_count == 62
    # 57 pops; advancing once per production's derivation instead would take 76
    assert ig.agenda_pops < 76


def test_a_blocked_production_that_selection_prefers_is_still_derived():
    # q may not sit under s, yet q's tree over [1,2) is what drops p there
    g = grammar(
        "%token a /a/\n%start S\n[s] S ::= a E ;\n[q] E ::= a ;\n[p] E ::= a ;\n"
        "%prefer select q over p ;\n%prefer compose s over q ;\n"
    )
    la = tokenize(g, "aa")
    assert len(oracle_parse_all(g, la)) == 2
    assert oracle_filter(oracle_parse_all(g, la), g, la) == frozenset()
    outcome = parse_text(g, "aa")
    assert not outcome.accepted
    assert explain_rejection(outcome).startswith("derived but pruned")


def test_every_chart_node_of_the_unambiguous_chain_is_in_the_forest():
    # E is predicted only at offset 0 and T only where an operand starts,
    # so every node the chart builds is used by the one tree
    g = grammar(UNAMBIGUOUS_CHAIN)
    _la, ig, eg = pipeline(g, chain(40) + ";")
    chart = {n.key for n in ig.nodes if n.symbol_id not in g.terminal_ids}
    forest = {(e.start, e.end, e.symbol_id) for e in eg.nodes}
    assert len(chart) == 40 * 2 + 1  # E and T per operand, and S
    assert chart <= forest


def _assert_matches_oracle(g, text):
    expected = oracle_parse_all(g, tokenize(g, text))
    assert pipeline_trees(g, text, enforce=False) == expected, text
    return expected


def test_prediction_through_a_nullable_left_corner():
    g = grammar(
        "%token b /b/\n%token c /c/\n%start S\n"
        "S ::= A B c ;\nA ::= ;\nB ::= b ;\nB ::= A B b ;\n"
    )
    ela = build(g, "bbc")
    parser = ChartParser(g, ela)
    parser.initialize()
    start_core = core_view(ela, ela.content_start)
    # B is predicted where S is, past the empty A, with both its productions
    assert g.symbol("B").id in parser.predicted[start_core.position]
    handles = [handle_parts(g, ela, h) for h in start_core.handles]
    assert {str(g.productions[p]) for p, dot, _ in handles if dot == 0} == {
        "S ::= A B c", "B ::= b", "B ::= A B b"
    }
    accepted = [text for text in ("bc", "bbc", "bbbc", "c", "bcc", "b") if _assert_matches_oracle(g, text)]
    assert accepted == ["bc", "bbc", "bbbc"]


def test_prediction_through_a_unit_cycle():
    g = grammar(
        "%token c /c/\n%token d /d/\n%start S\n"
        "S ::= A S ;\nS ::= A ;\nA ::= B ;\nB ::= A ;\nA ::= c ;\nB ::= d ;\n"
    )
    _productions, reached = g.predictions[g.start.id]
    assert {g.symbol_by_id[s].name for s in reached} == {"S", "A", "B", "c", "d"}
    accepted = [text for text in ("c", "d", "cd", "dcd", "ccc") if _assert_matches_oracle(g, text)]
    assert accepted == ["c", "d", "cd", "dcd", "ccc"]


def test_the_work_on_a_lattice_of_twenty_units_is_pinned():
    # 20 units shaped like the lex-lattice benchmark input, under selection
    # precedence: a change to how the graph layers store their data must not
    # change the work the chart and expansion do
    text = " ".join(f"&{i + 1}.{i + 2}& /{2 * i + 5}.{i + 10}/" for i in range(20))
    outcome = parse_text(grammar(UNIT_LIST), text)
    ig, eg = outcome.chart, outcome.egraph
    assert (len(outcome.la.nodes), len(ig.cores)) == (240, 201)
    assert (ig.agenda_pops, ig.handle_count, len(ig.nodes)) == (280, 264, 340)
    assert (eg.constructions, len(eg.nodes)) == (100, 220)
    assert tree_counts(eg).total == 1


def _sets_and_dicts(root) -> Counter:
    """The ``set`` and ``dict`` objects reachable from ``root``, by type; classes are not followed."""
    found = Counter()
    seen = set()
    todo = [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if type(obj) in (set, dict):
            found[type(obj).__name__] += 1
        todo += gc.get_referents(obj)
    return found


def test_the_graph_keeps_one_set_and_dict_per_store_whatever_its_cores():
    g = grammar(UNIT_LIST)
    runs = []
    for units in (10, 40):
        text = " ".join(f"&{i + 1}.{i + 2}& /{2 * i + 5}.{i + 10}/" for i in range(units))
        parser = ChartParser(g, build(g, text), True)
        ig = parser.run()
        assert ig.starting
        runs.append((ig, parser))
    (small, small_parser), (large, large_parser) = runs
    assert len(large.cores) > 3 * len(small.cores)
    # the graph keeps the handles, which expansion reads, and the parser
    # keeps the waits, the predictions, the nonterminal nodes by symbol and
    # the node keys: none of them grows a set or dict per core, and next_at
    # is a list indexed by offset
    assert _sets_and_dicts(small) == _sets_and_dicts(large) == {"set": 1}
    for parser in (small_parser, large_parser):
        stores = (parser.waiting, parser.predicted, parser.following_by_sym, parser.node_ids)
        assert _sets_and_dicts(stores) == {"dict": 4}
    # a core holds nothing until the chart reaches it: the Integer and Point
    # tokens inside each slashed number start cores that no handle reaches,
    # since a Real is read there first
    idle = [core for core in large.cores if not core.handles]
    assert idle and all(core.position not in large_parser.predicted for core in idle)
    # only nonterminals are listed by symbol; tokens are the core's id range
    assert all(key // large.stride not in g.terminal_ids for key in large_parser.following_by_sym)


def test_the_chart_frees_its_working_stores_before_expansion():
    # the waits, predictions, nodes by symbol and node keys of a %assoc left
    # sum took 2,731 bytes an operand at the peak while they lived on the
    # graph through expansion, and 1,936 once the parser kept them
    g = grammar(ARITH_LEFT)
    text = chain(400)
    assert tree_counts(parse_text(g, text).egraph).total == 1
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        tree_counts(parse_text(g, text).egraph)
        per_operand = (tracemalloc.get_traced_memory()[1] - base) / 400
    finally:
        if not tracing:
            tracemalloc.stop()
    assert per_operand < 2300, per_operand


def _workload_grammars():
    """The four benchmark workloads' grammars, read from the benchmark's own module."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [grammar(w.grammar) for w in module.WORKLOADS.values()]


def test_each_blocked_items_seeds_are_its_admitted_and_preferred_productions():
    # a prediction under a blocked position seeds the symbol's productions
    # outside the blocked set, plus those preferred over one of them, each
    # with a non-empty right-hand side, in production_ids_by_lhs order
    grammars = _workload_grammars()
    for seed in range(200):
        inst = randsuite.make_instance(seed)
        if inst is not None:
            grammars += [inst.grammar, inst.constrained]
    checked = 0
    for g in grammars:
        assert g.items.seeds == {}
        tables = g.enforced_items
        blocked_items = [item for item, blocked in enumerate(tables.blocked) if blocked]
        assert sorted(tables.seeds) == blocked_items
        assert tables.filtered == bool(blocked_items)
        assert (tables is g.items) == (not blocked_items)
        for item in blocked_items:
            sym, blocked = tables.symbol[item], tables.blocked[item]
            options = g.production_ids_by_lhs.get(sym, ())
            kept = [p for p in options if p not in blocked]
            needed = set(kept).union(*(g.preferred_over.get(p, ()) for p in kept))
            expected = tuple(g.item_base[p] for p in options if g.rhs_ids[p] and p in needed)
            assert tables.seeds[item] == expected, (g.productions, item)
            checked += 1
    assert checked > 200
