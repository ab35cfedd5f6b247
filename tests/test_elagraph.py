"""Core placement and lattice extension."""

import pytest

from fence.elagraph import build_ela_graph, ela_document
from fence.lexgraph import enumerate_token_paths, tokenize
from helpers import AMBIG_INPUT, AMBIG_NUMBERS, grammar


def following(core):
    """The ids of the nodes that start at ``core``."""
    return sorted(i for ids in core.following_by_sym.values() for i in ids)


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
    assert following(ela.cores[ela.starting_core]) == sorted(la.starting)
    # the last core follows exactly the tokens that reach the input end
    assert sorted(ela.cores[ela.last_core].preceding) == sorted(la.final_ids)


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
            for nid in following(core):
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
        for nid in following(core):
            by_start.setdefault(ela.nodes[nid].start, set()).add(core.id)
    for cores in by_start.values():
        assert len(cores) == 1


def test_adjacency_is_symmetric():
    g = grammar(AMBIG_NUMBERS)
    ela = build_ela_graph(tokenize(g, AMBIG_INPUT))
    for n in ela.nodes:
        assert n.id in following(ela.cores[ela.core_at[n.start]])
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
