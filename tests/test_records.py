"""The value records: immutable named tuples, equal by value, built by keyword."""

import re

import pytest

from fence.elagraph import ImplicitNode
from fence.enforce import ForestNode, TreeCount
from fence.grammar import (
    NONTERMINAL,
    TERMINAL,
    ConstraintIssue,
    ConstraintSet,
    Grammar,
    NodeView,
    Production,
    Symbol,
    TokenDef,
    make_grammar,
)
from fence.lexgraph import LAGraph, TokenNode
from fence.oracle import OracleBounds


_A = Symbol(0, "a", TERMINAL)
_S = Symbol(1, "S", NONTERMINAL)

# Each record type, with a factory that builds a fresh instance equal to the last, and whether it
# hashes: the records that hold a mapping compare by value but cannot be hashed.
RECORDS = {
    "Symbol": (lambda: Symbol(id=0, name="a", kind=TERMINAL), True),
    "Production": (lambda: Production(id=0, lhs=_S, rhs=(_A,)), True),
    "TokenDef": (lambda: TokenDef(symbol=_A, pattern="a", regex=re.compile("a")), True),
    "NodeView": (
        lambda: NodeView(symbol="S", start=0, end=1, production=0, label=None, children=(), lexeme=None, text="a"),
        True,
    ),
    "ConstraintIssue": (lambda: ConstraintIssue(kind="cycle", message="m"), True),
    "OracleBounds": (lambda: OracleBounds(max_work=10), True),
    "ConstraintSet": (lambda: ConstraintSet(selection=((1, 0),)), False),
    "LAGraph": (
        lambda: LAGraph(input="a", node_start=(0,), node_end=(1,), node_symbol=(0,), next_position={1: 1}),
        False,
    ),
    "TokenNode": (lambda: TokenNode(id=0, symbol_id=0, start=0, end=1, lexeme="a"), True),
    "TreeCount": (lambda: TreeCount(total=2, per_root={0: 2}, saturated=False), False),
    "ImplicitNode": (lambda: ImplicitNode(id=3, start=0, end=1, symbol_id=2, productions=(0, 4)), True),
    "ForestNode": (
        lambda: ForestNode(id=2, symbol_id=1, start=0, end=1, production_id=0, children=((0,),), lexeme=None),
        True,
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_a_record_is_immutable_and_equal_by_value(name):
    make, hashable = RECORDS[name]
    record, twin = make(), make()
    assert type(record).__name__ == name
    assert record is not twin
    assert record == twin
    if hashable:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_records_take_their_defaults_when_built_by_keyword():
    assert OracleBounds(max_work=10) == OracleBounds(500, 80, 10)
    assert OracleBounds(max_work=10)._replace(max_depth=3) == OracleBounds(500, 3, 10)
    s = Symbol(0, "S", NONTERMINAL)
    assert Production(id=0, lhs=s, rhs=()).label is None
    assert ConstraintIssue(kind="cycle", message="m").productions == ()
    la = LAGraph(input="", node_start=(), node_end=(), node_symbol=(), next_position={})
    assert la.content_start == 0
    cs = ConstraintSet(selection=((1, 0),))
    assert (dict(cs.associativity), cs.selection, cs.composition, dict(cs.custom)) == ({}, ((1, 0),), (), {})
    assert not cs.empty
    assert ConstraintSet().empty


def test_the_default_constraint_mappings_are_read_only():
    cs = ConstraintSet()
    for mapping in (cs.associativity, cs.custom):
        with pytest.raises(TypeError):
            mapping[0] = "left"
    # a grammar built without constraints takes the default set, which no caller can change
    g = make_grammar([("a", "a")], [("S", ["a"])], "S")
    bare = [Grammar(g.token_defs, g.productions, g.start) for _ in range(2)]
    for other in bare:
        assert other.constraints == ConstraintSet()
        with pytest.raises(TypeError):
            other.constraints.custom[0] = bool
    assert dict(bare[0].constraints.custom) == {}
