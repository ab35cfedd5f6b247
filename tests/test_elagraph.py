"""Core placement and lattice extension."""

import gc
import tracemalloc

import pytest

from fence.chart import run_chart
from fence.elagraph import ELAGraph, build_ela_graph, ela_document
from fence.enforce import expand_forest
from fence.lexgraph import enumerate_token_paths, tokenize
from fence.pipeline import parse_text
from helpers import AMBIG_INPUT, AMBIG_NUMBERS, UNIT_LIST, grammar, hand_lattice


def test_running_example_core_placement():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    ela = build_ela_graph(la)
    cores = ela.cores
    positions = [c.position for c in cores]
    # one core per distinct token start offset, plus the last core at the end
    assert positions == [0, 1, 2, 3, 4, 6, 7, 9, 10, 12, 13]
    assert ela.content_start == cores[0].position == 0
    assert cores[-1].position == len(AMBIG_INPUT)
    # the starting core precedes exactly the former starting tokens
    assert list(cores[0].following) == sorted(la.starting)
    # the last core follows exactly the tokens that reach the input end
    final_ids = [t.id for t in la.nodes if la.node_next[t.id] == len(la.input)]
    assert sorted(cores[-1].preceding) == final_ids


def test_single_token_graph_has_two_cores():
    g = grammar(AMBIG_NUMBERS)
    ela = build_ela_graph(tokenize(g, "&"))
    assert len(ela.cores) == 2


def test_four_token_two_path_graph_has_four_cores():
    g = grammar(AMBIG_NUMBERS)
    ela = build_ela_graph(tokenize(g, "5.2"))
    assert [c.position for c in ela.cores] == [0, 1, 2, 3]
    assert len(ela.cores) == 4


@pytest.mark.parametrize("text", [AMBIG_INPUT, "5.2", "5.2.5", "&", "& &"])
def test_core_count_bound(text):
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, text)
    ela = build_ela_graph(la)
    assert len(ela.cores) <= len(la.nodes) + 2


def test_token_paths_preserved_through_cores():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    ela = build_ela_graph(la)

    def ela_paths():
        at = {core.position: core for core in ela.cores}
        out = []

        def walk(core, acc):
            if core.position == len(la.input):
                out.append(tuple(acc))
                return
            for nid in core.following:
                node = ela.nodes[nid]
                acc.append(nid)
                walk(at[ela.next_at[node.end]], acc)
                acc.pop()

        walk(at[ela.content_start], [])
        return sorted(out)

    assert ela_paths() == sorted(enumerate_token_paths(la, 1000))


def test_same_offset_tokens_share_their_preceding_core():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, "5.2")
    ela = build_ela_graph(la)
    by_start = {}
    for core in ela.cores:
        for nid in core.following:
            by_start.setdefault(ela.nodes[nid].start, set()).add(core.id)
    for cores in by_start.values():
        assert len(cores) == 1


def test_adjacency_is_symmetric():
    g = grammar(AMBIG_NUMBERS)
    ela = build_ela_graph(tokenize(g, AMBIG_INPUT))
    at = {core.position: core for core in ela.cores}
    for n in ela.nodes:
        assert n.id in at[n.start].following
        assert n.id in at[ela.next_at[n.end]].preceding


def test_document_schema():
    g = grammar(AMBIG_NUMBERS)
    ela = build_ela_graph(tokenize(g, "5.2"))
    doc = ela_document(ela, g)
    assert {"cores", "nodes"} <= doc.keys()
    assert all(
        {"id", "position", "handleCount", "preceding", "following"} <= c.keys()
        for c in doc["cores"]
    )
    assert all(c["handleCount"] == 0 for c in doc["cores"])  # before any chart run


def test_empty_lattice_is_rejected():
    g = grammar(AMBIG_NUMBERS)
    with pytest.raises(ValueError):
        build_ela_graph(tokenize(g, " "))


def test_token_nodes_are_views_of_the_lattice_tokens():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    ela = build_ela_graph(la)
    assert len(ela.nodes) == len(la.nodes)
    for token in la.nodes:
        node = ela.nodes[token.id]
        assert node.id == token.id
        assert node.key == (token.start, token.end, token.symbol_id)
        assert node.productions == ()
    assert list(ela.nodes) == [ela.nodes[i] for i in range(len(la.nodes))]
    assert ela.nodes[-1] == ela.nodes[len(la.nodes) - 1]
    with pytest.raises(IndexError):
        ela.nodes[len(la.nodes)]
    # the chart appends to the extended graph's lists, never to the lattice's columns
    expand_forest(g, run_chart(g, ela))
    assert len(ela.nodes) > len(la.nodes) == 12
    for column in (la.node_start, la.node_end, la.node_symbol):
        assert type(column) is tuple and len(column) == 12


def test_each_core_holds_the_id_range_of_the_tokens_starting_there():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    ela = build_ela_graph(la)
    table = ela.token_table()  # the chart's: the same ranges, by offset
    for core in ela.cores:
        starting_here = [t.id for t in la.nodes if t.start == core.position]
        assert list(range(core.tok_lo, core.tok_hi)) == starting_here
        assert (table[core.position], table[core.position + 1]) == (core.tok_lo, core.tok_hi)


def test_a_lattice_out_of_offset_order_is_rejected():
    # tokens must be numbered by (start, end, symbol); here the Point at 1
    # comes before the Integer at 0, so the two cores' token ranges would mix
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, "5.2")
    assert [(t.start, t.end) for t in la.nodes] == [(0, 1), (0, 3), (1, 2), (2, 3)]
    tokens = list(zip(la.node_start, la.node_end, la.node_symbol, la.node_next))
    for order in ((2, 0, 1, 3), (1, 0, 2, 3)):
        bad = hand_lattice(la.input, [tokens[i] for i in order], la.content_start)
        with pytest.raises(ValueError, match="start, end, symbol"):
            build_ela_graph(bad)


def test_tokens_that_share_an_end_but_not_a_next_position_are_rejected():
    # next_at keeps one next position per end offset, so x [0,2) would have
    # stepped to the core at 2, where b steps, instead of to the input's end
    g = grammar("%token a /a/\n%token b /b/\n%token c /c/\n%token x /ab/\n%start S\nS ::= a b c ;\nS ::= x ;\n")
    a, b, c, x = (g.symbols[name].id for name in "abcx")
    tokens = [(0, 1, a, 1), (0, 2, x, 2), (1, 2, b, 2), (2, 3, c, 3)]
    assert build_ela_graph(hand_lattice("abc", tokens)).next_at == [None, 1, 2, 3]
    tokens[1] = (0, 2, x, 3)
    with pytest.raises(ValueError, match="different next positions"):
        build_ela_graph(hand_lattice("abc", tokens))


def test_node_views_take_a_slice():
    g = grammar(AMBIG_NUMBERS)
    ela = build_ela_graph(tokenize(g, AMBIG_INPUT))
    every = list(ela.nodes)
    assert len(every) > 3
    assert ela.nodes[1:3] == every[1:3] == [ela.nodes[1], ela.nodes[2]]
    assert ela.nodes[:] == every
    assert ela.nodes[::-2] == every[::-2]
    assert ela.nodes[-2:] == every[-2:]
    assert ela.nodes[5:5] == []
    assert ela.nodes[-1] == every[-1]
    with pytest.raises(IndexError):
        ela.nodes[len(every)]


def test_the_graph_keeps_one_list_by_offset_and_numbers_cores_by_position():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    ela = build_ela_graph(la)
    n = len(AMBIG_INPUT)
    # next_at is the only list the graph keeps by offset
    by_offset = [name for name in ELAGraph.__slots__
                 if type(getattr(ela, name)) is list and len(getattr(ela, name)) == n + 1]
    assert by_offset == ["next_at"]
    steps = la.next_position
    preceding = ela.preceding_lists()
    for p in range(n + 1):
        if p in steps:
            assert ela.next_at[p] == steps[p]
        else:
            # a lookup off a token end fails rather than reading a core
            assert ela.next_at[p] is None
            with pytest.raises(TypeError):
                preceding[ela.next_at[p]]
    # the views number cores densely, in position order, from the starting core to the last
    cores = ela.cores
    assert [c.id for c in cores] == list(range(len(cores)))
    positions = [c.position for c in cores]
    assert positions == sorted({*la.node_start, n}) and positions[0] == ela.content_start


def _parse_peak(g, text):
    """``tracemalloc`` peak of ``parse_text`` over ``text``, in bytes above its start."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert parse_text(g, text).accepted
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("text", ["a" * 200_000, "a" + " " * 200_000 + "a"], ids=["long-token", "long-skip-run"])
def test_a_long_token_or_skip_run_costs_a_few_bytes_per_input_character(text):
    # next_at and, while each phase runs, the chart's token table or
    # expansion's preceding lists hold one 8-byte slot per input offset
    # each, 16.0 bytes a character at the peak, and the lexer and pruner one
    # flag byte per offset each; a handful of tokens cost nothing that grows
    # with their length
    g = grammar("%token w /[a-z]+/\n%start S\nS ::= w ;\nS ::= w w ;\n")
    per_char = _parse_peak(g, text) / len(text)
    assert per_char < 20, per_char


def test_the_graph_keeps_no_index_by_core_after_a_parse():
    # the token ranges are the chart's and the preceding lists expansion's
    outcome = parse_text(grammar(UNIT_LIST), "&1.5& /2.5/ &3.0& /4.25/")
    ig = outcome.igraph
    for name in ("core_tokens", "core_preceding"):
        assert not hasattr(ig, name)
    assert ig.n_tokens == len(outcome.la.node_start)
    assert [(c.tok_lo, c.tok_hi) for c in ig.cores][-1] == (ig.n_tokens, ig.n_tokens)


def test_the_lattice_and_the_graph_keep_their_indexes_by_core_only_while_read():
    # with a next-position dict on the lattice, token ranges on the graph and
    # preceding lists it kept from the start of the chart, the parse of a
    # unit list took 7,905 bytes a unit at the peak; with next positions in
    # a column and each index owned by the phase that reads it, 7,203; with
    # every store keyed by offset and no core-id lookups, 6,799
    g = grammar(UNIT_LIST)
    units = 100
    text = " ".join(f"&{i + 1}.{i + 2}& /{2 * i + 5}.{i + 10}/" for i in range(units))
    _parse_peak(g, text)
    per_unit = _parse_peak(g, text) / units
    assert per_unit < 7000, per_unit
