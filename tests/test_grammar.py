"""Grammar model, text format, nullable computation, constraint validation."""

import gc
import random
import re
import time

import pytest
import randsuite
from hypothesis import given, settings
from hypothesis import strategies as st

from fence.grammar import (
    ASSOC_LEFT,
    ConstraintSet,
    Grammar,
    GrammarError,
    NONTERMINAL,
    Production,
    Symbol,
    TERMINAL,
    TokenDef,
    _closure,
    compute_epsilon_symbols,
    grammar_to_text,
    make_grammar,
    parse_grammar_text,
)
from fence.pipeline import parse_text
from helpers import AMBIG_NUMBERS, ARITH, pipeline_trees


def test_parse_running_example():
    g = parse_grammar_text(AMBIG_NUMBERS)
    assert len(g.productions) == 3
    assert g.start.name == "E"
    assert sum(1 for s in g.symbols.values() if s.is_terminal) == 5
    assert [p.id for p in g.productions] == [0, 1, 2]
    assert str(g.productions[1]) == "A ::= Ampersand Real Ampersand"


def test_direct_epsilon_lhs():
    g = parse_grammar_text("%token a /a/\n%start S\nS ::= ;\nS ::= a ;\n")
    assert {s.name for s in g.epsilon_symbols} == {"S"}


def test_nullable_closure_through_chain():
    g = parse_grammar_text("%token a /a/\n%start S\nS ::= A B ;\nA ::= ;\nB ::= A ;\n")
    assert {s.name for s in g.epsilon_symbols} == {"S", "A", "B"}


def test_prediction_closure_walks_past_nullable_prefixes():
    g = parse_grammar_text(
        "%token b /b/\n%token c /c/\n%token d /d/\n%start S\n"
        "S ::= A B c ;\nA ::= ;\nB ::= b ;\nB ::= C ;\nC ::= d C ;\nD ::= c ;\n"
    )

    def names(sym):
        productions, reached = g.predictions[g.symbol(sym).id]
        return [str(g.productions[p]) for p in productions], {g.symbol_by_id[s].name for s in reached}

    # A is nullable, so S begins with A or B; c comes after B, which is not
    assert names("S") == (
        ["S ::= A B c", "B ::= b", "B ::= C", "C ::= d C"],
        {"S", "A", "B", "b", "C", "d"},
    )
    assert names("A") == ([], {"A"})  # only an empty production: nothing to seed
    assert names("C") == (["C ::= d C"], {"C", "d"})
    assert names("c") == ([], {"c"})  # a terminal predicts only itself


def _symbols(*names, kinds=None):
    out = {}
    for i, name in enumerate(names):
        kind = kinds[i] if kinds else NONTERMINAL
        out[name] = Symbol(i, name, kind)
    return out


def test_compute_epsilon_symbols_cases():
    syms = _symbols("E", "S", "A", "a", kinds=[NONTERMINAL, NONTERMINAL, NONTERMINAL, TERMINAL])
    # single direct epsilon production
    assert compute_epsilon_symbols([Production(0, syms["E"], ())]) == frozenset({syms["E"]})
    # no empty rhs anywhere
    assert compute_epsilon_symbols([Production(0, syms["S"], (syms["a"],))]) == frozenset()
    # two-step fixed point: S ::= A A ; A ::= epsilon
    result = compute_epsilon_symbols(
        [Production(0, syms["S"], (syms["A"], syms["A"])), Production(1, syms["A"], ())]
    )
    assert result == frozenset({syms["S"], syms["A"]})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_epsilon_computation_is_monotone(data):
    names = ["S", "A", "B", "C"]
    syms = _symbols(*names)
    term = Symbol(99, "t", TERMINAL)

    def rhs():
        return tuple(
            data.draw(st.sampled_from([syms["S"], syms["A"], syms["B"], syms["C"], term]))
            for _ in range(data.draw(st.integers(0, 3)))
        )

    prods = [
        Production(i, data.draw(st.sampled_from(list(syms.values()))), rhs()) for i in range(5)
    ]
    extra = Production(5, data.draw(st.sampled_from(list(syms.values()))), rhs())
    before = compute_epsilon_symbols(prods)
    after = compute_epsilon_symbols(prods + [extra])
    assert before <= after


def _fixpoint_tables(productions):
    """Both nullable tables by whole-production passes repeated until nothing
    changes, the definition the worklists must reproduce."""
    nullable = {}
    changed = True
    while changed:
        changed = False
        for p in productions:
            if p.lhs.id not in nullable and all(s.id in nullable for s in p.rhs):
                nullable[p.lhs.id] = p.lhs
                changed = True
    cost, choice = {}, {}
    changed = True
    while changed:
        changed = False
        for p in productions:
            if all(s.id in cost for s in p.rhs):
                c = 1 + sum(cost[s.id] for s in p.rhs)
                old = cost.get(p.lhs.id, float("inf"))
                if c < old or (c == old and p.id < choice[p.lhs.id]):
                    cost[p.lhs.id] = c
                    choice[p.lhs.id] = p.id
                    changed = True
    return frozenset(nullable.values()), choice


def test_nullable_tables_equal_the_fixpoint_on_the_random_suite():
    checked = nullable = 0
    for seed in range(200):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for g in (inst.grammar, inst.constrained):
            symbols, choice = _fixpoint_tables(g.productions)
            assert compute_epsilon_symbols(g.productions) == symbols == g.epsilon_symbols, seed
            assert g.epsilon_production == choice, seed
            assert g.epsilon_ids == set(choice), seed
            checked += 1
            nullable += bool(choice)
    assert checked > 300 and nullable > 100


def _nullable_chain(levels):
    # listed outermost first: a whole-production pass would settle one level
    rules = "".join(f"A{i} ::= A{i + 1} ;\n" for i in range(levels))
    return f"%token a /a/\n%start S\nS ::= A0 a ;\n{rules}A{levels} ::= ;\n"


def test_nullable_tables_grow_linearly_in_a_nullable_chain():
    levels = (500, 1000, 2000, 4000)
    grammars = {n: parse_grammar_text(_nullable_chain(n)) for n in levels}
    best = dict.fromkeys(levels, float("inf"))
    for _ in range(7):  # rounds over every size, so drift in machine speed hits all alike
        for n in levels:
            gc.collect()
            gc.disable()  # a collection inside one timing would swamp it
            try:
                t0 = time.perf_counter()
                compute_epsilon_symbols(grammars[n].productions)
                Grammar.epsilon_production.func(grammars[n])
                best[n] = min(best[n], time.perf_counter() - t0)
            finally:
                gc.enable()
    # at most 2.5x per doubling over the three doublings; whole-production
    # passes took 4x
    assert best[4000] / best[500] <= 2.5**3, best
    assert best[4000] < 1.0, best


def _eager_predictions(g):
    """Every symbol's prediction entry, each closure walked and every
    production scanned for it, the definition the lazy table must match."""
    corners = {}
    for p in g.productions:
        begins = corners.setdefault(p.lhs.id, [])
        for s in p.rhs:
            begins.append(s.id)
            if s.id not in g.epsilon_ids:
                break
    table = {}
    for sym_id in g.symbol_by_id:
        reached = {sym_id}
        stack = [sym_id]
        while stack:
            for nxt in corners.get(stack.pop(), ()):
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        productions = tuple(p.id for p in g.productions if p.rhs and p.lhs.id in reached)
        table[sym_id] = (productions, frozenset(reached))
    return table


def test_lazy_predictions_equal_the_eager_table_on_the_random_suite():
    checked = 0
    for seed in range(200):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for g in (inst.grammar, inst.constrained):
            eager = _eager_predictions(g)
            assert {sym: g.predictions[sym] for sym in eager} == eager, seed
            checked += 1
    assert checked > 300


def test_first_parse_of_a_long_nullable_chain_is_fast():
    # a table computed whole for every symbol took about 1 s at 2,000 levels
    g = parse_grammar_text(_nullable_chain(2000))
    t0 = time.perf_counter()
    outcome = parse_text(g, "a")
    seconds = time.perf_counter() - t0
    assert outcome.accepted
    assert seconds < 0.25, seconds


def test_selection_cycle_reported_with_both_productions():
    with pytest.raises(GrammarError) as err:
        parse_grammar_text(
            "%token a /a/\n%start S\n[p0] S ::= a ;\n[p1] S ::= a a ;\n"
            "%prefer select p0 over p1 ;\n%prefer select p1 over p0 ;\n"
        )
    assert "p0" in str(err.value) and "p1" in str(err.value)


def test_each_precedence_relation_is_closed_once(monkeypatch):
    import fence.grammar

    calls = []
    closure = fence.grammar._closure

    def counted(pairs):
        calls.append(1)
        return closure(pairs)

    monkeypatch.setattr(fence.grammar, "_closure", counted)
    g = parse_grammar_text(
        "%token a /a/\n%start S\n[p] S ::= a ;\n[q] S ::= a a ;\n[r] S ::= a a a ;\n"
        "%prefer select p over q ;\n%prefer select q over r ;\n%prefer compose p over r ;\n"
    )
    assert len(calls) == 2
    p, q, r = (g.by_label[x].id for x in "pqr")
    assert g.selection_closed == {(p, q), (q, r), (p, r)}
    assert g.composition_closed == {(p, r)}


def test_empty_constraint_set_is_ok():
    g = parse_grammar_text("%token a /a/\n%start S\nS ::= a ;\n")
    assert g.constraint_warnings == ()


def test_ineffective_associativity_warns_and_never_changes_output():
    # Associativity on a unit production can never apply: the sole child's
    # deriving production always has a different left-hand side.
    base = "%token a /a/\n%start S\nS ::= T ;\nT ::= a ;\n"
    warned = base.replace("S ::= T ;", "%assoc left S ::= T ;")
    g_plain = parse_grammar_text(base)
    g_warned = parse_grammar_text(warned)
    assert any(i.kind == "ineffective-associativity" for i in g_warned.constraint_warnings)
    assert pipeline_trees(g_plain, "a") == pipeline_trees(g_warned, "a")


def test_effective_associativity_does_not_warn():
    g = parse_grammar_text(ARITH.replace("[add] E", "%assoc left [add] E"))
    assert not any(i.kind == "ineffective-associativity" for i in g.constraint_warnings)


def test_cross_symbol_selection_warns():
    g = parse_grammar_text(
        "%token a /a/\n%start S\n[p0] S ::= T ;\n[p1] T ::= a ;\n"
        "%prefer select p0 over p1 ;\n"
    )
    assert any(i.kind == "cross-symbol-selection" for i in g.constraint_warnings)


def test_selection_across_symbols_is_closed_before_it_is_filtered():
    g = parse_grammar_text(
        "%token a /a/\n%start S\n[s1] S ::= a ;\n[s2] S ::= A ;\n[x] A ::= a ;\n"
        "%prefer select s1 over x ;\n%prefer select x over s2 ;\n"
    )
    # s1 over x and x over s2 close to s1 over s2; the pairs across symbols go
    assert g.preferred_over == {1: (0,)}
    assert pipeline_trees(g, "a") == {("n", "S", 0, 1, 0, (("t", "a", 0, 1, "a"),))}



def test_preferred_productions_are_listed_most_preferred_first():
    # c over b over a, declared bottom-up and in the reverse of rank order
    g = parse_grammar_text(
        "%token x /x/\n%start S\n[a] S ::= x ;\n[b] S ::= x ;\n[c] S ::= x ;\n[d] S ::= x ;\n"
        "%prefer select b over a ;\n%prefer select c over b ;\n%prefer select d over a ;\n"
    )
    ids = {p.label: p.id for p in g.productions}
    assert g.selection_order_by_lhs[g.start.id] == (ids["c"], ids["d"], ids["b"], ids["a"])
    assert g.preferred_over == {ids["a"]: (ids["c"], ids["d"], ids["b"]), ids["b"]: (ids["c"],)}
    eg = parse_text(g, "x").egraph
    assert [g.productions[eg.nodes[r].production_id].label for r in eg.roots] == ["c", "d"]

def _prefer_chain(kind, levels):
    rules = "".join(f"[p{i}] S ::= a ;\n" for i in range(levels))
    prefers = "".join(f"%prefer {kind} p{i} over p{i + 1} ;\n" for i in range(levels - 1))
    return "%token a /a/\n%start S\n" + rules + prefers


@pytest.mark.parametrize("kind", ["select", "compose"])
def test_long_precedence_chain_closes_fast(kind):
    # a whole-relation fixpoint took about 5 s at 100 levels
    t0 = time.perf_counter()
    g = parse_grammar_text(_prefer_chain(kind, 300))
    seconds = time.perf_counter() - t0
    closed = g.selection_closed if kind == "select" else g.composition_closed
    assert len(closed) == 300 * 299 // 2 == 44_850
    assert seconds < 1.0, seconds


def _brute_force_closure(pairs):
    closed = set(pairs)
    while True:
        more = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not more:
            return closed
        closed |= more


def test_closure_equals_brute_force_on_random_relations():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        assert _closure(pairs) == _brute_force_closure(pairs), pairs


def test_position_blocks_join_associativity_and_composition():
    g = parse_grammar_text(
        "%token plus /\\+/\n%token hat /\\^/\n%token int /[0-9]+/\n%start E\n"
        "%assoc left [add] E ::= E plus E ;\n%assoc right [pow] E ::= E hat E ;\n[lit] E ::= int ;\n"
        "%prefer compose pow over add ;\n"
    )
    add, pow_, lit = (g.by_label[label].id for label in ("add", "pow", "lit"))
    none = frozenset()
    assert g.position_blocks[add] == (none, none, {add})
    # the hat token has no production to block
    assert g.position_blocks[pow_] == ({pow_, add}, none, {add})
    assert g.position_blocks[lit] == (none,)


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("%token a /a/\nS ::= a ;\n", "start symbol missing"),
        ("%token a /a/\n%start S\nS ::= a b ;\n", "unknown symbol 'b'"),
        ("%token a /a/\n%token a /b/\n%start S\nS ::= a ;\n", "duplicate token name"),
        ("%token a /a/\n%start S\nS ::= a\n", "not terminated"),
        ("%token a /a/\n%start S\nS = a ;\n", "expected '::='"),
        ("%token a /a/\n%start a\nS ::= a ;\n", "has no productions"),
        ("%token a /a/\n%start S\nS ::= a ;\n%prefer select X over S ;\n", "unknown production"),
        ("%token a /a/\n%start S\nS ::= a ;\nS ::= ;\n%prefer select S over S ;\n", "ambiguous"),
        ("%token a /(/\n%start S\nS ::= a ;\n", "bad regex"),
        ("%token S /s/\n%start S\nS ::= S ;\n", "both as a token and a nonterminal"),
        ("%token aé /x/\n%start S\nS ::= aé ;\n", "malformed %token line"),
    ],
)
def test_grammar_errors(source, fragment):
    with pytest.raises(GrammarError) as err:
        parse_grammar_text(source)
    assert fragment in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(GrammarError) as err:
        parse_grammar_text("%token a /a/\n%start S\nS ::= a ;\nT ::= zzz ;\n")
    assert err.value.line == 4


def test_duplicate_assoc_direction_is_rejected():
    with pytest.raises(GrammarError):
        parse_grammar_text("%token a /a/\n%start S\n%assoc sideways S ::= a ;\n")


def test_roundtrip_with_constraints_and_labels():
    source = (
        "%token plus /\\+/\n%token int /[0-9]+/\n%skip /[ ]+/\n%start E\n"
        "%assoc left [add] E ::= E plus E ;\n[lit] E ::= int ;\n"
        "[wide] E ::= E E ;\n"
        "%prefer select add over wide ;\n%prefer compose add over lit ;\n"
    )
    g = parse_grammar_text(source)
    text = grammar_to_text(g)
    g2 = parse_grammar_text(text)
    assert g.signature() == g2.signature()
    assert grammar_to_text(g2) == text


def test_patterns_the_text_format_cannot_write_are_rejected():
    with pytest.raises(GrammarError) as err:
        make_grammar([("slash", "/"), ("a", "a")], [("S", ["slash", "a"])], "S")
    assert "slash" in str(err.value)
    with pytest.raises(GrammarError) as err:
        make_grammar([("a", "a")], [("S", ["a"])], "S", skip="\n")
    assert "%skip" in str(err.value)
    g = make_grammar([("slash", r"\/"), ("a", "a")], [("S", ["slash", "a"])], "S")
    assert parse_grammar_text(grammar_to_text(g)).signature() == g.signature()


def test_a_prefer_reference_without_a_label_that_the_text_format_cannot_write_is_rejected():
    a, s = Symbol(0, "a", TERMINAL), Symbol(1, "S", NONTERMINAL)
    tokens = [TokenDef(a, "a", re.compile("a"))]
    productions = [Production(0, s, (a,)), Production(1, s, (a, a))]
    g = Grammar(tokens, productions, s, constraints=ConstraintSet(selection=((0, 1),)))
    with pytest.raises(GrammarError, match=re.escape("production 0 (S ::= a) needs a [label]")):
        grammar_to_text(g)
    labelled = [productions[0]._replace(label="one"), productions[1]._replace(label="two")]
    g = Grammar(tokens, labelled, s, constraints=ConstraintSet(selection=((0, 1),)))
    assert parse_grammar_text(grammar_to_text(g)).signature() == g.signature()


def test_a_constructed_pattern_that_the_text_format_cannot_write_is_rejected():
    a, s = Symbol(0, "a", TERMINAL), Symbol(1, "S", NONTERMINAL)
    g = Grammar([TokenDef(a, "a/b", re.compile("a/b"))], [Production(0, s, (a,))], s)
    with pytest.raises(GrammarError, match="pattern of token 'a'"):
        grammar_to_text(g)
    g = Grammar([TokenDef(a, "a", re.compile("a"))], [Production(0, s, (a,))], s, skip_pattern="/")
    with pytest.raises(GrammarError, match="pattern of %skip"):
        grammar_to_text(g)


def test_a_constructed_token_name_that_the_text_format_cannot_write_is_rejected():
    a, s = Symbol(0, "a b", TERMINAL), Symbol(1, "S", NONTERMINAL)
    g = Grammar([TokenDef(a, "a", re.compile("a"))], [Production(0, s, (a,))], s)
    with pytest.raises(GrammarError, match=re.escape("bad token name 'a b'")):
        grammar_to_text(g)


def test_a_constructed_nonterminal_name_that_the_text_format_cannot_write_is_rejected():
    a, s, t = Symbol(0, "a", TERMINAL), Symbol(1, "S", NONTERMINAL), Symbol(2, "T-1", NONTERMINAL)
    g = Grammar([TokenDef(a, "a", re.compile("a"))], [Production(0, s, (t,)), Production(1, t, (a,))], s)
    with pytest.raises(GrammarError, match=re.escape("bad nonterminal name 'T-1'")):
        grammar_to_text(g)


def test_a_constructed_production_label_that_the_text_format_cannot_write_is_rejected():
    a, s = Symbol(0, "a", TERMINAL), Symbol(1, "S", NONTERMINAL)
    g = Grammar([TokenDef(a, "a", re.compile("a"))], [Production(0, s, (a,), "x y")], s)
    with pytest.raises(GrammarError, match=re.escape("bad production label 'x y'")):
        grammar_to_text(g)
    g = Grammar([TokenDef(a, "a", re.compile("a"))], [Production(0, s, (a,), "x_y")], s)
    assert parse_grammar_text(grammar_to_text(g)).signature() == g.signature()


def test_production_ids_stable_under_reparse():
    g1 = parse_grammar_text(AMBIG_NUMBERS)
    g2 = parse_grammar_text(AMBIG_NUMBERS)
    assert [(p.id, str(p)) for p in g1.productions] == [(p.id, str(p)) for p in g2.productions]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_roundtrip_random_grammars(data):
    n_tokens = data.draw(st.integers(1, 3))
    tokens = [(f"t{i}", chr(ord("a") + i)) for i in range(n_tokens)]
    nts = ["S", "A", "B"][: data.draw(st.integers(1, 3))]
    pool = [name for name, _ in tokens] + nts
    rules = [(nt, []) for nt in nts]  # every nonterminal needs a production
    for i in range(data.draw(st.integers(0, 4))):
        lhs = data.draw(st.sampled_from(nts))
        rhs = [data.draw(st.sampled_from(pool)) for _ in range(data.draw(st.integers(0, 3)))]
        rules.append((lhs, rhs, f"r{i}"))
    g = make_grammar(tokens, rules, "S")
    g2 = parse_grammar_text(grammar_to_text(g))
    assert g.signature() == g2.signature()


def test_multiline_and_comment_handling():
    g = parse_grammar_text(
        "# tokens\n%token a /a/  # trailing\n%start S\n"
        "S ::= a\n      a ;  # two on one path\nS ::= a ; S ::= ;\n"
    )
    assert len(g.productions) == 3
    assert [len(p.rhs) for p in g.productions] == [2, 1, 0]


def test_hash_inside_token_regex_is_not_a_comment():
    g = parse_grammar_text("%token h /#+/\n%start S\nS ::= h ;\n")
    assert g.token_defs[0].pattern == "#+"


def test_evaluator_resolution():
    called = []

    def veto(view):
        called.append(view.symbol)
        return False

    g = parse_grammar_text(
        "%token a /a/\n%start S\n[only] S ::= a ;\n", evaluators={"only": veto}
    )
    assert g.constraints.custom
    with pytest.raises(GrammarError):
        parse_grammar_text("%token a /a/\n%start S\nS ::= a ;\n", evaluators={"nope": veto})


def test_associativity_constants_round_trip():
    g = parse_grammar_text(ARITH.replace("[add] E", "%assoc left [add] E"))
    assert g.constraints.associativity == {0: ASSOC_LEFT}


def test_production_lookup_by_reference():
    g = parse_grammar_text(ARITH)
    assert g.production_by_ref("add").id == 0
    assert g.production_by_ref("lit").id == 1
    with pytest.raises(GrammarError):
        g.production_by_ref("E")  # two E productions, label required
    single = parse_grammar_text("%token a /a/\n%start S\nS ::= a ;\n")
    assert single.production_by_ref("S").id == 0


def test_a_long_selection_chain_declared_bottom_up_is_ranked_without_recursion():
    # a recursive ranking needed one interpreter frame per level and raised RecursionError
    levels = 1100
    rules = "".join(f"[p{i}] S ::= a ;\n" for i in range(levels))
    prefers = "".join(f"%prefer select p{i + 1} over p{i} ;\n" for i in range(levels - 1))
    t0 = time.perf_counter()
    g = parse_grammar_text("%token a /a/\n%start S\n" + rules + prefers)
    seconds = time.perf_counter() - t0
    assert isinstance(g, Grammar)
    assert g.selection_order_by_lhs[g.start.id] == tuple(range(levels - 1, -1, -1))
    assert seconds < 30.0, seconds
    # a scan of the node's 1,100 productions per preferred production took seconds
    t0 = time.perf_counter()
    eg = parse_text(g, "a").egraph
    seconds = time.perf_counter() - t0
    assert [g.productions[eg.nodes[r].production_id].label for r in eg.roots] == [f"p{levels - 1}"]
    assert seconds < 2.0, seconds


def test_the_one_token_parse_of_a_2200_level_selection_chain_is_quick():
    # the chart merged each production into the node's tuple by re-sorting
    # it, and expansion rebuilt a set of the node's 2,200 productions for each
    # of them: 125-140 ms per parse on a 2-vCPU virtual machine, where one
    # insertion and one bisection per production take about 36 ms
    levels = 2200
    rules = "".join(f"[p{i}] S ::= a ;\n" for i in range(levels))
    prefers = "".join(f"%prefer select p{i + 1} over p{i} ;\n" for i in range(levels - 1))
    g = parse_grammar_text("%token a /a/\n%start S\n" + rules + prefers)
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        outcome = parse_text(g, "a")
        seconds.append(time.perf_counter() - t0)
    assert outcome.chart.nodes[outcome.chart.starting[0]].productions == tuple(range(levels))
    assert [g.productions[outcome.egraph.nodes[r].production_id].label for r in outcome.egraph.roots] == ["p2199"]
    assert min(seconds) < 0.5, seconds


@pytest.mark.parametrize(
    "tokens, rules, start, bad",
    [
        ([("semi;colon", ";")], [("S", ["semi;colon"])], "S", "semi;colon"),
        ([("a", "a")], [("S", ["T x"]), ("T x", ["a"])], "S", "T x"),
        ([("a", "a")], [("S", ["a"], "my label")], "S", "my label"),
        ([("a", "a")], [("S", ["a"])], "S;", "S;"),
    ],
    ids=["token", "nonterminal", "label", "start"],
)
def test_names_the_text_format_cannot_write_are_rejected(tokens, rules, start, bad):
    with pytest.raises(GrammarError) as err:
        make_grammar(tokens, rules, start)
    assert repr(bad) in str(err.value)


def test_valid_names_round_trip_through_the_text_format():
    g = make_grammar(
        [("_tok1", "a"), ("Tok_2", "b")],
        [("Start_0", ["_tok1", "Rest"], "first_label"), ("Rest", ["Tok_2"], "_second2"), ("Rest", [], "rest_0")],
        "Start_0",
        select=[("_second2", "rest_0")],
    )
    text = grammar_to_text(g)
    assert parse_grammar_text(text).signature() == g.signature()
    assert grammar_to_text(parse_grammar_text(text)) == text


def test_code_built_declarations_have_no_line():
    with pytest.raises(GrammarError) as err:
        make_grammar([("a", "a")], [("S", ["x"])], "S")
    assert str(err.value) == "unknown symbol 'x'" and err.value.line is None
    with pytest.raises(GrammarError) as err:
        make_grammar([("a", "a")], [("S", ["a"])], "S", evaluators={"nope": bool})
    assert str(err.value) == "unknown production reference 'nope'" and err.value.line is None
    with pytest.raises(GrammarError) as err:
        parse_grammar_text("%token a /a/\n%start S\nS ::= a ;\n", evaluators={"nope": bool})
    assert err.value.line is None
    with pytest.raises(GrammarError) as err:
        parse_grammar_text("%token a /a/\n%start S\nS ::= a ;\n%prefer select S over T ;\n")
    assert str(err.value) == "unknown production reference 'T' (line 4)"


ARITH_PREC = """
%token plus /\\+/
%token times /\\*/
%token int /[0-9]+/
%start S
S ::= E ;
%assoc left [add] E ::= E plus E ;
%assoc right [mul] E ::= E times E ;
[lit] E ::= int ;
%prefer compose mul over add ;
"""


def test_make_grammar_resolves_assoc_and_compose_references():
    tokens = [("plus", r"\+"), ("times", r"\*"), ("int", "[0-9]+")]
    rules = [("S", ["E"]), ("E", ["E", "plus", "E"], "add"), ("E", ["E", "times", "E"], "mul"), ("E", ["int"], "lit")]
    g = make_grammar(tokens, rules, "S", assoc=[("add", "left"), ("mul", "right")], compose=[("mul", "add")])
    assert g.signature() == parse_grammar_text(ARITH_PREC).signature()
    assert g.constraints.associativity == {1: "left", 2: "right"}
    assert g.constraints.composition == ((2, 1),)
    trees = pipeline_trees(g, "1+2*3*4+5")
    assert len(trees) == 1
    # a unique left-hand side names its production too
    unit = make_grammar(tokens, rules, "S", assoc=[("S", "none")])
    assert unit.constraints.associativity == {0: "none"}
    for assoc, compose, message in (
        ([("E", "left")], (), "production reference 'E' is ambiguous; add a [label]"),
        ((), [("mul", "E")], "production reference 'E' is ambiguous; add a [label]"),
        ([("sum", "left")], (), "unknown production reference 'sum'"),
        ((), [("mul", "sum")], "unknown production reference 'sum'"),
    ):
        with pytest.raises(GrammarError) as err:
            make_grammar(tokens, rules, "S", assoc=assoc, compose=compose)
        assert str(err.value) == message and err.value.line is None


_A = Symbol(0, "a", TERMINAL)
_S = Symbol(1, "S", NONTERMINAL)
_TOKENS = [TokenDef(_A, "a", re.compile("a"))]
_RULES = [Production(0, _S, (_A,))]


def _text(*lines):
    return lambda: parse_grammar_text("\n".join(lines) + "\n")


def _direct(tokens=_TOKENS, rules=_RULES, start=_S, **constraints):
    return lambda: Grammar(tokens, rules, start, ConstraintSet(**constraints))


_ERROR_SITES = [
    (_text("%token a /a/", "%skip [ ]", "%start S", "S ::= a ;"), "malformed %skip line", 2),
    (_text("%token a /a/", "%skip / /", "%skip /x/", "%start S", "S ::= a ;"), "duplicate %skip declaration", 3),
    (_text("%token a /a/", "%start S T", "S ::= a ;"), "malformed %start line", 2),
    (_text("%token a /a/", "%start S", "S ::= a ;", "%start S"), "duplicate %start declaration", 4),
    (_text("%token a /a/", "%start S", "S ::= a ;", "%prefer select S S ;"), "malformed %prefer declaration", 4),
    (_text("%token a /a/", "%start S", "%keep S ;"), "unknown directive '%keep'", 3),
    (_text("%token a /a/", "%start S", "[p S ::= a ;"), "unterminated production label", 3),
    (_text("%token a /a/", "%start S", "[1p] S ::= a ;"), "bad production label '1p'", 3),
    (_text("%token a /a/", "%start S", "S T ::= a ;"), "bad production left-hand side 'S T'", 3),
    (_text("%token a /a/", "%start S", "S ::= a a-b ;"), "bad symbol name 'a-b'", 3),
    (_text("%token a /a/", "%start S", "[p] S ::= a ;", "[p] S ::= a a ;"), "duplicate production label 'p'", 4),
    (_text("%token a /a/", "%skip /(/", "%start S", "S ::= a ;"), "bad %skip regex", 2),
    (_direct(tokens=_TOKENS + [TokenDef(Symbol(1, "b", TERMINAL), "b", re.compile("b"))]),
     "symbol ids are not unique", None),
    (_direct(start=_A), "start symbol 'a' is a token", None),
    (_direct(rules=[Production(0, _A, (_A,))]), "has a token on its left-hand side", None),
    # a token definition whose symbol is a nonterminal, used as one by the productions
    (_direct(tokens=[TokenDef(Symbol(0, "a", NONTERMINAL), "a", re.compile("a"))],
             rules=[Production(0, _S, (Symbol(0, "a", NONTERMINAL),))]),
     "token definition of 'a' has a nonterminal symbol", None),
    # a token and a nonterminal of one name
    (_direct(rules=[Production(0, _S, (Symbol(0, "a", NONTERMINAL),))]), "conflicting definitions for symbol 'a'",
     None),
    (lambda: make_grammar([("a", "a")], [("S", ["a"])], "S").symbol("T"), "unknown symbol 'T'", None),
    (_direct(associativity={7: "left"}), "associativity on unknown production #7", None),
    (_direct(selection=((0, 7),)), "selection precedence refers to unknown production(s) #7", None),
    (_direct(composition=((7, 0),)), "composition precedence refers to unknown production(s) #7", None),
    (_direct(custom={7: bool}), "evaluator on unknown production #7", None),
    (lambda: make_grammar([("a", "a")], [("S", ["a"])], "S", assoc=[("S", "sideways")]),
     "associativity on #0:S has direction 'sideways'", None),
    # the constructor checks constraints, so a text-built one has no line either
    (_text("%token a /a/", "%start S", "[p] S ::= a ;", "%prefer select p over p ;"),
     "selection precedence declares p over itself", None),
]


@pytest.mark.parametrize("build, fragment, line", _ERROR_SITES, ids=[fragment for _b, fragment, _l in _ERROR_SITES])
def test_each_grammar_check_raises_its_error(build, fragment, line):
    with pytest.raises(GrammarError) as err:
        build()
    assert fragment in err.value.message and err.value.line == line


@pytest.mark.parametrize(
    "build, fragment",
    [
        (_direct(rules=[Production(5, _S, (_A,))]), "production #5:S has id 5 at position 0"),
        (_direct(rules=[Production(0, _S, (_A,), "x"), Production(1, _S, (_A, _A), "x")]),
         "duplicate production label 'x'"),
        (lambda: Grammar(_TOKENS, _RULES, _S, skip_pattern="("), "bad skip pattern"),
    ],
    ids=["id-not-position", "duplicate-label", "bad-skip"],
)
def test_the_constructor_rejects_what_the_text_format_rejects(build, fragment):
    with pytest.raises(GrammarError) as err:
        build()
    assert fragment in err.value.message and err.value.line is None
