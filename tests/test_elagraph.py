"""Core placement and lattice extension."""

import gc
import tracemalloc

import pytest

from fence.chart import run_chart
from fence.elagraph import build_ela_graph, ela_document
from fence.enforce import expand_forest
from fence.lexgraph import LAGraph, enumerate_token_paths, tokenize
from fence.pipeline import parse_text
from helpers import AMBIG_INPUT, AMBIG_NUMBERS, grammar


def test_running_example_core_placement():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    ela = build_ela_graph(la)
    positions = [c.position for c in ela.cores]
    # one core per distinct token start offset, plus the last core at the end
    assert positions == [0, 1, 2, 3, 4, 6, 7, 9, 10, 12, 13]
    assert ela.cores[ela.starting_core].position == 0
    assert ela.cores[ela.last_core].position == len(AMBIG_INPUT)
    # the starting core precedes exactly the former starting tokens
    assert list(ela.cores[ela.starting_core].following) == sorted(la.starting)
    # the last core follows exactly the tokens that reach the input end
    final_ids = [t.id for t in la.nodes if la.next_position[t.end] == len(la.input)]
    assert sorted(ela.cores[ela.last_core].preceding) == final_ids


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
        start = ela.cores[ela.starting_core]
        out = []

        def walk(core, acc):
            if core.id == ela.last_core:
                out.append(tuple(acc))
                return
            for nid in core.following:
                node = ela.nodes[nid]
                acc.append(nid)
                walk(ela.cores[ela.next_core[node.end]], acc)
                acc.pop()

        walk(start, [])
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
    for n in ela.nodes:
        assert n.id in ela.cores[ela.core_at[n.start]].following
        assert n.id in ela.cores[ela.next_core[n.end]].preceding


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
    for core in ela.cores:
        starting_here = [t.id for t in la.nodes if t.start == core.position]
        assert list(range(core.tok_lo, core.tok_hi)) == starting_here


def test_a_lattice_out_of_offset_order_is_rejected():
    # tokens must be numbered by (start, end, symbol); here the Point at 1
    # comes before the Integer at 0, so the two cores' token ranges would mix
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, "5.2")
    assert [(t.start, t.end) for t in la.nodes] == [(0, 1), (0, 3), (1, 2), (2, 3)]
    for order in ((2, 0, 1, 3), (1, 0, 2, 3)):
        columns = [tuple(column[i] for i in order) for column in (la.node_start, la.node_end, la.node_symbol)]
        bad = LAGraph(la.input, *columns, la.next_position, la.content_start)
        with pytest.raises(ValueError, match="start, end, symbol"):
            build_ela_graph(bad)


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


def test_offsets_find_cores_through_lists_with_none_elsewhere():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    ela = build_ela_graph(la)
    n = len(AMBIG_INPUT)
    assert type(ela.core_at) is list and type(ela.next_core) is list
    assert len(ela.core_at) == len(ela.next_core) == n + 1
    positions = [c.position for c in ela.cores]
    assert [ela.core_at[p] for p in positions] == list(range(len(positions)))
    assert ela.core_at[n] == ela.last_core
    assert all(ela.core_at[p] is None for p in range(n + 1) if p not in positions)
    for p in range(n + 1):
        if p in la.next_position:
            assert ela.next_core[p] == ela.core_at[la.next_position[p]]
        else:
            # a lookup off a token end fails rather than reading the last core
            assert ela.next_core[p] is None
            with pytest.raises(TypeError):
                ela.core_preceding[ela.next_core[p]]


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
    # core_at and next_core hold one 8-byte slot per input offset each, and
    # the lexer and pruner one flag byte per offset each; a handful of tokens
    # cost nothing that grows with their length
    g = grammar("%token w /[a-z]+/\n%start S\nS ::= w ;\nS ::= w w ;\n")
    per_char = _parse_peak(g, text) / len(text)
    assert per_char < 20, per_char
