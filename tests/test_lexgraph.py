"""All-matches lexer, lattice pruning, path enumeration, serialization."""

import gc
import random
import re
import tracemalloc

import pytest
import randsuite
from hypothesis import given, settings
from hypothesis import strategies as st

from fence.lexgraph import (
    LatticeFormatError,
    TokenizationError,
    enumerate_token_paths,
    load_la_graph,
    prune_la_graph,
    serialize_la_graph,
    tokenize,
)
from fence.elagraph import build_ela_graph
from fence.grammar import Grammar
from fence.pipeline import parse_text
from helpers import AMBIG_INPUT, AMBIG_NUMBERS, UNIT_LIST, grammar, hand_lattice


def path_names(g, la, paths):
    return [" ".join(g.symbol_by_id[la.nodes[i].symbol_id].name for i in p) for p in paths]


def test_running_example_has_exactly_four_paths():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    got = set(path_names(g, la, enumerate_token_paths(la, 100)))
    assert got == {
        "Ampersand Integer Point Integer Ampersand Slash Integer Point Integer Slash",
        "Ampersand Integer Point Integer Ampersand Slash Real Slash",
        "Ampersand Real Ampersand Slash Integer Point Integer Slash",
        "Ampersand Real Ampersand Slash Real Slash",
    }


def test_single_token_input():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, "&")
    assert len(la.nodes) == 1
    assert la.starting == (0,)
    entry = serialize_la_graph(la, g)["nodes"][0]
    assert entry["preceding"] == [] and entry["following"] == []


def test_integer_point_integer_versus_real():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, "5.2")
    assert len(la.nodes) == 4
    assert set(path_names(g, la, enumerate_token_paths(la, 10))) == {
        "Integer Point Integer",
        "Real",
    }


def test_three_way_overlap():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, "5.2.5")
    assert set(path_names(g, la, enumerate_token_paths(la, 10))) == {
        "Integer Point Integer Point Integer",
        "Real Point Integer",
        "Integer Point Real",
    }


def test_enumeration_respects_limit_and_order():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    all_paths = enumerate_token_paths(la, 100)
    assert enumerate_token_paths(la, 2) == all_paths[:2]
    assert all_paths == sorted(all_paths)
    with pytest.raises(ValueError):
        enumerate_token_paths(la, 0)


def test_enumeration_walks_a_long_chain_without_recursion():
    g = grammar("%token a /a/\n%start S\nS ::= a ;\n")
    la = tokenize(g, "a " * 5000)
    assert enumerate_token_paths(la, 2) == [tuple(range(5000))]


def test_tokenization_failure_reports_furthest_offset():
    g = grammar(AMBIG_NUMBERS)
    with pytest.raises(TokenizationError) as err:
        tokenize(g, "&5.2@&")
    assert err.value.furthest == 4


def test_whitespace_only_input_yields_empty_graph():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, "   ")
    assert len(la.nodes) == 0 and la.starting == ()
    assert la.content_start == 3


def test_a_zero_width_match_is_never_a_token():
    g = grammar("%token a /a*/\n%start S\nS ::= a ;\n")
    outcome = parse_text(g, "b")  # a* matches the empty string before b
    assert (outcome.failure, outcome.furthest) == ("lexical", 0)
    outcome = parse_text(g, "aa")
    assert outcome.accepted
    assert [(t.start, t.end) for t in outcome.la.nodes] == [(0, 2)]


def test_matches_at_one_offset_are_numbered_by_end_then_symbol_whatever_the_definition_order():
    # each shorter match is put before the longer ones found at its offset
    # by earlier definitions, and never before a token of an earlier offset
    g = grammar(
        "%token ab /ab/\n%token abc /abc/\n%token a /a/\n%token bc /bc/\n%token b /b/\n%token c /c/\n"
        "%start S\nS ::= a b c ;\n"
    )
    la = tokenize(g, "abc")
    names = [(t.start, t.end, g.symbol_by_id[t.symbol_id].name) for t in la.nodes]
    assert names == [(0, 1, "a"), (0, 2, "ab"), (0, 3, "abc"), (1, 2, "b"), (1, 3, "bc"), (2, 3, "c")]
    assert la == prune_la_graph(_unpruned_lattice(g, "abc"))


def test_matches_are_ordered_whatever_the_order_of_a_built_grammars_definitions():
    # a grammar built by the constructor may list its definitions in any
    # order; the lexer tries them by symbol id all the same
    g = grammar(
        "%token ab /ab/\n%token abc /abc/\n%token a /a/\n%token bc /bc/\n%token b /b/\n%token c /c/\n"
        "%token d /abc/\n%start S\nS ::= a b c ;\n"
    )
    backwards = Grammar(g.token_defs[::-1], g.productions, g.start, None, g.skip_pattern)
    assert [m[1] for m in backwards.token_matchers] == sorted(td.symbol.id for td in g.token_defs)
    assert tokenize(backwards, "abc") == tokenize(g, "abc")


def test_dead_end_branches_are_pruned():
    # "xy" can lex as [xy] or [x, y]; "xz" forces [x] then fails on z unless
    # z exists. With tokens x, xy, y over "xyx": [x y x], [xy x]; the final x
    # never dangles. Over "xy" + "q"? q untokenizable kills everything.
    g = grammar("%token x /x/\n%token y /y/\n%token xy /xy/\n%start S\nS ::= x ;\n")
    la = tokenize(g, "xyx")
    names = set(path_names(g, la, enumerate_token_paths(la, 10)))
    assert names == {"x y x", "xy x"}
    # every node participates in some full path
    used = {i for p in enumerate_token_paths(la, 10) for i in p}
    assert used == {n.id for n in la.nodes}


def test_prune_is_idempotent():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    assert prune_la_graph(la) == la


def test_serialize_load_roundtrip():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, AMBIG_INPUT)
    doc = serialize_la_graph(la, g)
    assert load_la_graph(doc, g) == la


def test_load_rejects_asymmetric_links():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, "& &")
    doc = serialize_la_graph(la, g)
    doc["nodes"][0]["following"] = [1]
    doc["nodes"][1]["preceding"] = []
    with pytest.raises(LatticeFormatError) as err:
        load_la_graph(doc, g)
    assert "asymmetric" in str(err.value)


def test_load_rejects_zero_width_and_unknown_symbols():
    g = grammar(AMBIG_NUMBERS)
    la = tokenize(g, "&")
    doc = serialize_la_graph(la, g)
    bad = {**doc, "nodes": [dict(doc["nodes"][0], end=0)]}
    with pytest.raises(LatticeFormatError):
        load_la_graph(bad, g)
    bad = {**doc, "nodes": [dict(doc["nodes"][0], symbol="NotAToken")]}
    with pytest.raises(LatticeFormatError):
        load_la_graph(bad, g)
    bad = {**doc, "nodes": [dict(doc["nodes"][0], symbol="E")]}
    with pytest.raises(LatticeFormatError):
        load_la_graph(bad, g)


def test_load_rejects_links_that_are_not_positional():
    # Kept links a->c and A->C describe the paths [a c] and [A C] only, but
    # the chart links tokens by position and would also parse [a C] and [A c].
    g = grammar(
        "%token a /a/\n%token A /[ab]/\n%token c /c/\n%token C /[cd]/\n%start S\n"
        "S ::= a C ;\nS ::= A c ;\n"
    )
    doc = serialize_la_graph(tokenize(g, "ac"), g)
    ids = {entry["symbol"]: entry["id"] for entry in doc["nodes"]}
    kept = {(ids["a"], ids["c"]), (ids["A"], ids["C"])}
    for entry in doc["nodes"]:
        entry["following"] = [f for f in entry["following"] if (entry["id"], f) in kept]
        entry["preceding"] = [p for p in entry["preceding"] if (p, entry["id"]) in kept]
    with pytest.raises(LatticeFormatError) as err:
        load_la_graph(doc, g)
    assert "exactly the tokens" in str(err.value)


def test_tokens_refuse_attribute_assignment():
    la = tokenize(grammar(AMBIG_NUMBERS), "5.2")
    with pytest.raises(AttributeError):
        la.nodes[0].start = 1
    with pytest.raises(AttributeError):
        la.nodes[0].extra = 1


def test_load_handwritten_two_path_lattice():
    g = grammar(AMBIG_NUMBERS)
    doc = {
        "input": "5.2",
        "nodes": [
            {"id": 0, "symbol": "Integer", "start": 0, "end": 1, "preceding": [], "following": [2]},
            {"id": 1, "symbol": "Real", "start": 0, "end": 3, "preceding": [], "following": []},
            {"id": 2, "symbol": "Point", "start": 1, "end": 2, "preceding": [0], "following": [3]},
            {"id": 3, "symbol": "Integer", "start": 2, "end": 3, "preceding": [2], "following": []},
        ],
        "starting": [0, 1],
    }
    la = load_la_graph(doc, g)
    assert len(enumerate_token_paths(la, 10)) == 2


def test_load_lattice_with_unordered_ids():
    # ids are neither contiguous nor in offset order, and listed out of order
    g = grammar(AMBIG_NUMBERS)
    doc = {
        "input": "5.2",
        "nodes": [
            {"id": 7, "symbol": "Point", "start": 1, "end": 2, "preceding": [9], "following": [12]},
            {"id": 40, "symbol": "Real", "start": 0, "end": 3, "preceding": [], "following": []},
            {"id": 12, "symbol": "Integer", "start": 2, "end": 3, "preceding": [7], "following": []},
            {"id": 9, "symbol": "Integer", "start": 0, "end": 1, "preceding": [], "following": [7]},
        ],
        "starting": [40, 9],
    }
    la = load_la_graph(doc, g)
    # renumbered by (start, end, symbol), as tokenize numbers them
    assert [(t.start, t.end, g.symbol_by_id[t.symbol_id].name) for t in la.nodes] == [
        (0, 1, "Integer"), (0, 3, "Real"), (1, 2, "Point"), (2, 3, "Integer")
    ]
    assert la == tokenize(g, "5.2")
    paths = enumerate_token_paths(la, 10)
    assert set(path_names(g, la, paths)) == {"Integer Point Integer", "Real"}
    assert load_la_graph(serialize_la_graph(la, g), g) == la
    ela = build_ela_graph(la)
    following = {core.position: core.following for core in ela.cores}
    core_paths, todo = [], [(ela.content_start, ())]
    while todo:
        offset, path = todo.pop()
        if offset == len(la.input):
            core_paths.append(path)
        todo += [(ela.next_at[ela.nodes[i].end], path + (i,)) for i in following[offset]]
    assert sorted(core_paths) == paths


def test_load_rejects_a_token_listed_twice():
    # each listing became a token of its own, and "a" then counted two trees
    g = grammar("%token a /a/\n%start S\nS ::= a ;\n")
    entry = {"symbol": "a", "start": 0, "end": 1, "preceding": [], "following": []}
    doc = {"input": "a", "nodes": [{"id": 0, **entry}, {"id": 1, **entry}], "starting": [0, 1]}
    with pytest.raises(LatticeFormatError, match=r"share start, end and symbol id \(0, 1, 0\)"):
        load_la_graph(doc, g)


def test_core_placement_rejects_a_token_listed_twice():
    g = grammar("%token a /a/\n%start S\nS ::= a ;\n")
    once = tokenize(g, "a")
    twice = once._replace(node_start=once.node_start * 2, node_end=once.node_end * 2,
                          node_symbol=once.node_symbol * 2, node_next=once.node_next * 2)
    with pytest.raises(ValueError, match="each triple once"):
        build_ela_graph(twice)


def _stepped_lattice(steps, ends=(1, 2, 3, 3)):
    """A hand-built lattice over "abc": a [0,1), b [1,2), x [1,3) and c [2,3), with the given next positions."""
    g = grammar("%token a /a/\n%token b /b/\n%token c /c/\n%token x /bc/\n%start S\nS ::= a x ;\nS ::= a b c ;\n")
    a, b, c, x = (g.symbols[name].id for name in "abcx")
    return hand_lattice("abc", list(zip((0, 1, 1, 2), ends, (a, b, x, c), steps)))


@pytest.mark.parametrize("check", [prune_la_graph, build_ela_graph], ids=["prune", "extend"])
def test_a_token_end_without_a_next_position_is_rejected(check):
    check(_stepped_lattice((1, 2, 3, 3)))
    # extending raised TypeError and pruning KeyError
    with pytest.raises(ValueError, match="no next position"):
        check(_stepped_lattice((1, 2, 3, 3))._replace(node_next=(1, 2, 3)))


@pytest.mark.parametrize("check", [prune_la_graph, build_ela_graph, lambda la: enumerate_token_paths(la, 10)],
                         ids=["prune", "extend", "enumerate"])
@pytest.mark.parametrize("column, resize", [
    ("node_start", lambda c: c + c[-1:]), ("node_symbol", lambda c: c[:-1]), ("node_symbol", lambda c: c + c[-1:]),
], ids=["start-longer", "symbol-shorter", "symbol-longer"])
def test_a_lattice_whose_columns_differ_in_length_is_rejected(check, column, resize):
    # over "ab" with S ::= a b: a longer start column got through extending
    # and the chart raised IndexError; a shorter symbol column got through
    # pruning and extending; a longer one parsed, and its root read b [0,2),
    # a token symbol derived by S ::= a b
    g = grammar("%token a /a/\n%token b /b/\n%start S\nS ::= a b ;\n")
    a, b = g.symbols["a"].id, g.symbols["b"].id
    la = hand_lattice("ab", [(0, 1, a, 1), (1, 2, b, 2)])
    check(la)
    with pytest.raises(ValueError, match="columns differ in length"):
        check(la._replace(**{column: resize(getattr(la, column))}))


@pytest.mark.parametrize("check", [prune_la_graph, build_ela_graph], ids=["prune", "extend"])
@pytest.mark.parametrize("steps, ends", [
    ((1, 4, 3, 3), (1, 2, 3, 3)), ((1, 2, 3, 3), (1, 2, 4, 3)), ((0, 2, 3, 3), (-1, 2, 3, 3)),
], ids=["next-past-input", "end-past-input", "negative-end"])
def test_a_next_position_or_its_end_outside_the_input_is_rejected(check, steps, ends):
    # extending raised IndexError or built a graph; pruning let the ends through
    with pytest.raises(ValueError, match=r"outside \[0, 3\]"):
        check(_stepped_lattice(steps, ends))


@pytest.mark.parametrize("check", [prune_la_graph, build_ela_graph], ids=["prune", "extend"])
def test_a_next_position_before_its_end_is_rejected(check):
    # b stepping back from 2 to 0 closes a loop a b a b ..., which
    # enumerate_token_paths walked without end; both checks let it through
    with pytest.raises(ValueError, match="before its token end"):
        check(_stepped_lattice((1, 0, 3, 3)))


def test_path_enumeration_rejects_a_next_position_before_its_end():
    # the walk a b a b ... never reached the input's end, so it never returned
    with pytest.raises(ValueError, match="before its token end"):
        enumerate_token_paths(_stepped_lattice((1, 0, 3, 3)), 10)


@pytest.mark.parametrize("check", [prune_la_graph, build_ela_graph, lambda la: enumerate_token_paths(la, 10)],
                         ids=["prune", "extend", "enumerate"])
def test_an_empty_token_is_rejected(check):
    # e [1,1) steps to 1, where it starts again: pruning and extending let it
    # through, and the path walk followed e forever
    g = grammar("%token a /a/\n%token b /b/\n%token e /e/\n%start S\nS ::= a b ;\n")
    a, b, e = (g.symbols[name].id for name in "abe")
    with pytest.raises(ValueError, match="does not end after it starts"):
        check(hand_lattice("ab", [(0, 1, a, 1), (1, 1, e, 1), (1, 2, b, 2)]))


@pytest.mark.parametrize("la, message", [
    (hand_lattice("ab", [(-1, 1, 0, 1), (1, 2, 1, 2)]), r"outside \[0, 2\]"),
    (hand_lattice("xab", [(1, 2, 0, 2), (2, 3, 1, 3)]), "content_start is not a token start"),
], ids=["negative-start", "content-start-between-tokens"])
def test_core_placement_rejects_a_lattice_with_no_core_to_start_at(la, message):
    # both built a graph whose starting core was None, and the chart raised TypeError
    g = grammar("%token a /a/\n%token b /b/\n%start S\nS ::= a b ;\n")
    assert [g.symbol_by_id[s].name for s in la.node_symbol] == ["a", "b"]
    with pytest.raises(ValueError, match=message):
        build_ela_graph(la)


def test_core_placement_rejects_a_next_position_inside_a_token():
    # x [1,3) starts no core at 2, so a's step to 2 would lead nowhere
    g = grammar("%token a /a/\n%token x /bc/\n%start S\nS ::= a x ;\n")
    a, x = g.symbols["a"].id, g.symbols["x"].id
    with pytest.raises(ValueError, match="next position is not a token start"):
        build_ela_graph(hand_lattice("abc", [(0, 1, a, 2), (1, 3, x, 3)]))


def test_load_rejects_a_document_with_no_full_path():
    # the empty lattice stands for a skip-only input; a document over real
    # content whose tokens all prune away is as malformed as a lexical error
    g = grammar("%token a /a/\n%token b /b/\n%start S\nS ::= ;\nS ::= a ;\n")
    no_tokens = {"input": "b", "nodes": []}
    pruned = {
        "input": "ab",
        "nodes": [{"id": 0, "symbol": "a", "start": 0, "end": 1, "preceding": [], "following": []}],
        "starting": [0],
    }
    for doc in (no_tokens, pruned):
        with pytest.raises(LatticeFormatError) as err:
            load_la_graph(doc, g)
        assert "no token path" in str(err.value)
    blank = load_la_graph({"input": "  ", "nodes": []}, g)
    assert len(blank.nodes) == 0 and blank.content_start == 2


def _after_skip(g, text, pos):
    m = g.skip_re.match(text, pos) if g.skip_re else None
    return m.end() if m and m.end() > pos else pos


def _brute_force_paths(g, text):
    """Independent enumeration of full tokenizations by direct recursion."""
    n = len(text)
    out = []

    def walk(pos, acc):
        if pos == n:
            out.append(tuple(acc))
            return
        for td in g.token_defs:
            m = td.regex.match(text, pos)
            if m and m.end() > pos:
                acc.append((pos, m.end(), td.symbol.name))
                walk(_after_skip(g, text, m.end()), acc)
                acc.pop()

    walk(_after_skip(g, text, 0), [])
    return sorted(out)


@pytest.mark.parametrize("seed", range(12))
def test_lattice_paths_match_brute_force(seed):
    g = grammar(AMBIG_NUMBERS)
    rng = random.Random(seed)
    text = "".join(rng.choice("5.2& /") for _ in range(rng.randint(1, 40)))
    try:
        la = tokenize(g, text)
    except TokenizationError:
        assert _brute_force_paths(g, text) == []
        return
    expected = _brute_force_paths(g, text)
    got = sorted(
        tuple(
            (la.nodes[i].start, la.nodes[i].end, g.symbol_by_id[la.nodes[i].symbol_id].name)
            for i in p
        )
        for p in enumerate_token_paths(la, 10_000)
    )
    assert got == expected


@pytest.mark.parametrize("seed", range(8))
def test_path_soundness_reconstructs_input(seed):
    g = grammar(AMBIG_NUMBERS)
    rng = random.Random(100 + seed)
    text = "".join(rng.choice("5.2& /") for _ in range(rng.randint(1, 30)))
    try:
        la = tokenize(g, text)
    except TokenizationError:
        return
    skip = re.compile(g.skip_pattern)
    for path in enumerate_token_paths(la, 200):
        rebuilt = []
        pos = 0
        for i in path:
            node = la.nodes[i]
            gap = text[pos : node.start]
            assert gap == "" or skip.fullmatch(gap)
            rebuilt.append(gap + node.lexeme)
            pos = node.end
        tail = text[pos:]
        assert tail == "" or skip.fullmatch(tail)
        assert "".join(rebuilt) + tail == text


# No token starts with "z": "x", "y" and "xy" die before a "z" that only
# "yz" can consume, and "dead" matches only there, so it never survives.
DEAD_ENDS = """
%token x /x/
%token y /y/
%token xy /xy/
%token yz /yz/
%token dead /x(?=z)/
%start S
S ::= x ;
"""


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="xyz ", max_size=12))
def test_pruned_lattice_is_the_union_of_full_paths(text):
    g = grammar(DEAD_ENDS)
    expected = _brute_force_paths(g, text)
    try:
        la = tokenize(g, text)
    except TokenizationError:
        assert expected == []
        return
    nodes = {(t.start, t.end, g.symbol_by_id[t.symbol_id].name) for t in la.nodes}
    assert nodes == {token for path in expected for token in path}
    assert prune_la_graph(la) == la
    assert load_la_graph(serialize_la_graph(la, g), g) == la


def _unpruned_lattice(g, text):
    """Every match at every offset reachable from the start, with no
    pruning; ``_assert_positional`` checks the links written for it."""
    start = _after_skip(g, text, 0)
    spans, todo, seen = set(), [start], set()
    while todo:
        pos = todo.pop()
        if pos in seen or pos >= len(text):
            continue
        seen.add(pos)
        for td in g.token_defs:
            m = td.regex.match(text, pos)
            if m and m.end() > pos:
                spans.add((pos, m.end(), td.symbol.id))
                todo.append(_after_skip(g, text, m.end()))
    return hand_lattice(text, [(s, e, sym, _after_skip(g, text, e)) for s, e, sym in sorted(spans)], start)


def _assert_positional(g, la):
    """The links ``serialize_la_graph`` writes for each token are exactly
    the tokens at its next position and the tokens whose next position is
    its start, found by direct comparison of offsets."""
    for t, entry in zip(la.nodes, serialize_la_graph(la, g)["nodes"]):
        assert entry["following"] == [u.id for u in la.nodes if u.start == la.node_next[t.id]]
        assert entry["preceding"] == [u.id for u in la.nodes if la.node_next[u.id] == t.start]


def test_pruning_keeps_the_same_tokens_whatever_their_order():
    # a lattice built by hand may list its tokens in any order; the pruner
    # visits them by start and keeps the survivors in the order given
    g = grammar(DEAD_ENDS)
    raw = _unpruned_lattice(g, "xyz xy")
    kept = prune_la_graph(raw)
    assert 0 < len(kept.nodes) < len(raw.nodes)
    backwards = prune_la_graph(raw._replace(node_start=raw.node_start[::-1], node_end=raw.node_end[::-1],
                                            node_symbol=raw.node_symbol[::-1], node_next=raw.node_next[::-1]))
    assert [tuple(t)[1:] for t in backwards.nodes] == [tuple(t)[1:] for t in kept.nodes][::-1]
    assert backwards.node_next == kept.node_next[::-1]


@pytest.mark.parametrize("change", [
    {"node_start": (-1,)}, {"node_end": (7,)}, {"node_next": (7,)}, {"content_start": 7},
], ids=["negative-start", "end-past-input", "next-past-input", "content-start-past-input"])
def test_pruning_rejects_an_offset_outside_the_input(change):
    # the pruner keeps one flag byte per offset, where a negative offset
    # would read the flag of the input's end
    g = grammar("%token w /[a-z]+/\n%start S\nS ::= w ;\n")
    la = tokenize(g, "abcdef")
    one = hand_lattice("a", [(0, 1, la.node_symbol[0], 1)])
    assert prune_la_graph(one) == one
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        prune_la_graph(one._replace(**change))


def test_pruning_keeps_exactly_the_tokens_on_full_paths():
    checked = pruned_some = 0
    for seed in range(200):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        g = inst.grammar
        for text in inst.inputs:
            raw = _unpruned_lattice(g, text)
            paths = enumerate_token_paths(raw, 10**5) if raw.nodes else []
            assert len(paths) < 10**5
            full = [p for p in paths if raw.node_next[p[-1]] == len(text)]
            on_a_path = {(t.start, t.end, t.symbol_id) for p in full for t in map(raw.nodes.__getitem__, p)}
            pruned = prune_la_graph(raw)
            assert {(t.start, t.end, t.symbol_id) for t in pruned.nodes} == on_a_path, (seed, text)
            _assert_positional(g, raw)
            _assert_positional(g, pruned)
            if on_a_path:
                assert tokenize(g, text) == pruned
            else:
                with pytest.raises(TokenizationError):
                    tokenize(g, text)
            checked += 1
            pruned_some += len(pruned.nodes) < len(raw.nodes)
    assert checked > 600 and pruned_some > 20, (checked, pruned_some)


def _two_token_doc():
    """The document of the lattice ``a`` ``b`` over "ab": token 0 is followed by token 1."""
    return {
        "input": "ab",
        "nodes": [
            {"id": 0, "symbol": "a", "start": 0, "end": 1, "preceding": [], "following": [1]},
            {"id": 1, "symbol": "b", "start": 1, "end": 2, "preceding": [0], "following": []},
        ],
        "starting": [0],
    }


def _edit(**fields):
    """A change to one node of the two-token document: ``node`` picks it, the rest are set."""
    node = fields.pop("node", 0)

    def change(doc):
        doc["nodes"][node].update(fields)
        return doc

    return change


def _alone(entry, start):
    return lambda doc: {"input": "ab", "nodes": [entry], "starting": start}


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: [doc], "must be an object with 'input' and 'nodes'"),
        (lambda doc: dict(doc, input=5), "'input' must be a string"),
        (lambda doc: dict(doc, nodes=5), "'nodes' must be a list"),
        (lambda doc: dict(doc, nodes=[doc["nodes"][0], 7]), "'nodes' must be a list of objects"),
        (lambda doc: doc["nodes"][0].pop("end") and doc, "node entry missing 'end'"),
        (_edit(start="0"), "needs integer 'id', 'start' and 'end'"),
        (_edit(id=[0]), "needs integer 'id', 'start' and 'end'"),
        (_edit(symbol=["a"]), "and a string 'symbol'"),
        (_edit(node=1, preceding=0), "node 1's 'preceding' and 'following' must be lists of node ids"),
        (_edit(node=1, preceding=[[0]]), "must be lists of node ids"),
        (_edit(node=1, id=0), "duplicate node id 0"),
        (lambda doc: dict(doc, starting=[9]), "'starting' must be a list of the ids of listed nodes"),
        (lambda doc: dict(doc, starting="0"), "'starting' must be a list of the ids of listed nodes"),
        (_edit(symbol="S"), "symbol 'S' is not a token of this grammar"),
        (_edit(end=0), "invalid span [0, 0)"),
        (_edit(following=[9]), "links to unknown node 9"),
        (_edit(node=1, preceding=[]), "node 0 lists 1 as following"),
        (_edit(following=[]), "node 1 lists 0 as preceding"),
        (lambda doc: _edit(node=1, preceding=[])(_edit(following=[])(doc)), "must be followed by exactly"),
        (lambda doc: _edit(node=1, following=[0])(_edit(preceding=[1])(doc)), "must be preceded by exactly"),
        (lambda doc: dict(doc, starting=[]), "declared starting nodes do not match"),
        (
            _alone({"id": 0, "symbol": "b", "start": 1, "end": 2, "preceding": [], "following": []}, [0]),
            "starting node 0 does not start at the beginning",
        ),
        (
            _alone({"id": 0, "symbol": "a", "start": 0, "end": 1, "preceding": [], "following": []}, [0]),
            "no token path spans the input",
        ),
    ],
    ids=[
        "not-an-object", "input-not-a-string", "nodes-not-a-list", "entry-not-an-object", "missing-key",
        "string-start", "list-id", "list-symbol", "preceding-not-a-list", "unhashable-link", "duplicate-id",
        "starting-names-no-token", "starting-not-a-list", "unknown-symbol", "empty-span", "unknown-link",
        "asymmetric-following", "asymmetric-preceding", "following-not-positional", "preceding-not-positional",
        "starting-mismatch", "starting-after-the-beginning", "no-full-path",
    ],
)
def test_load_rejects_a_malformed_document_with_a_format_error(change, message):
    g = grammar("%token a /a/\n%token b /b/\n%start S\nS ::= a b ;\nS ::= b ;\n")
    assert load_la_graph(_two_token_doc(), g) == tokenize(g, "ab")
    with pytest.raises(LatticeFormatError) as err:
        load_la_graph(change(_two_token_doc()), g)
    assert message in str(err.value)


def _lattice_bytes(g, text):
    """``tracemalloc`` bytes that the lattice of ``text`` keeps, and its token count."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        la = tokenize(g, text)
        return tracemalloc.get_traced_memory()[0] - base, len(la.nodes)
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_lattice_keeps_few_bytes_per_token():
    # each unit forks the lattice (a Real or Integer Point Integer); three
    # token columns cost about 121 bytes a token, the next-position map
    # included, and the bound lies halfway to the 243 bytes that one stored
    # TokenNode record and lexeme per token cost
    g = grammar(UNIT_LIST)
    unit = "&12.5& /-3.25/ "
    (small, small_tokens), (large, large_tokens) = _lattice_bytes(g, unit * 160), _lattice_bytes(g, unit * 320)
    per_token = (large - small) / (large_tokens - small_tokens)
    assert per_token < 182, per_token


def test_the_lexer_keeps_no_record_per_match():
    # at 160 units (1,920 tokens) the lattice keeps about 113 bytes a token;
    # a (start, end, symbol) tuple per match, which CPython keeps on its free
    # list once the lexer drops it, added 64 more, and the bound lies halfway
    g = grammar(UNIT_LIST)
    kept, tokens = _lattice_bytes(g, "&12.5& /-3.25/ " * 160)
    assert kept / tokens < 145, kept / tokens
