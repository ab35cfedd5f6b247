"""Extended lexical analysis graph: the token lattice completed with cores.

A core is a container of handles (partially applied productions) placed
between tokens. One core sits at each distinct token start offset, shared by
every token starting there, so partial parse progress recorded before one
tokenization alternative is automatically visible to the others. A starting
core precedes the tokens with no predecessor and a last core follows the
tokens that reach the end of the input.

Parse nodes are kept in four parallel lists indexed by node id:
``node_start``, ``node_end``, ``node_symbol`` and ``node_productions``. The
first ids are the lattice's tokens, copied from it in one pass with ``()``
as productions, so a token's node id is its lattice id. The lattice numbers
its tokens by (start, end, symbol), so the tokens that start at a core are
the id range ``[tok_lo, tok_hi)``, and a core lists only the nonterminal
nodes that start at it. ``ELAGraph.nodes`` gives read-only
:class:`ImplicitNode` views of the lists, for documents, diagnostics and
tests; the chart and expansion index the lists.

The chart phase fills an extended graph in place: cores gain predicted
symbols and handles, the node lists grow nonterminal nodes and the graph
records its accepted roots and work counts. A core's handle, waiting and
prediction stores, and its lists of nonterminals, start as the shared empty
stores ``EMPTY_SET`` and ``EMPTY_MAP``, which nothing writes; the chart gives
a core a store of its own when it first writes to it. A core the chart never
reaches thus costs one object and its ``preceding`` list. The filled graph
is the implicit graph that expansion walks, so build a fresh graph per parse
session.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from itertools import compress, islice
from operator import le, ne
from types import MappingProxyType

from .grammar import Grammar
from .lexgraph import LAGraph

__all__ = ["Core", "ImplicitNode", "ELAGraph", "build_ela_graph", "ela_document"]

# The stores of a core that holds nothing yet, shared by all such cores and never written.
EMPTY_SET: frozenset = frozenset()
EMPTY_MAP = MappingProxyType({})


class Core:
    """A handle store between tokens.

    ``handles`` holds the handles stored here, each the int
    ``item * stride + origin`` that the chart module describes. ``waiting``
    indexes the handles that wait for a nonterminal by that symbol,
    including handles whose dot reached it by skipping nullable positions,
    so a single lookup answers which handles a freshly derived node can
    advance. ``predicted`` holds the nonterminals already predicted here:
    once a symbol is in it, the dot-0 handles of its left-corner closure are
    in ``handles``, so a later handle waiting for it seeds nothing new. A
    chart that enforces blocked positions also keeps (symbol, blocked
    productions) pairs in it, one for each restricted prediction made here.
    ``preceding`` lists the nodes that end just before the core. The tokens
    that start at it are the node ids ``tok_lo`` to ``tok_hi - 1``, and
    ``following_by_sym`` lists the nonterminal nodes that start at it, by
    symbol. Until the chart first writes to them, ``handles`` and
    ``predicted`` are ``EMPTY_SET`` and ``waiting`` and ``following_by_sym``
    are ``EMPTY_MAP``.
    """

    __slots__ = ("id", "position", "tok_lo", "tok_hi", "handles", "waiting", "predicted", "preceding",
                 "following_by_sym")

    def __init__(self, core_id: int, position: int, tok_lo: int, tok_hi: int):
        self.id = core_id
        self.position = position
        self.tok_lo = tok_lo
        self.tok_hi = tok_hi
        self.handles: set[int] | frozenset[int] = EMPTY_SET
        self.waiting = EMPTY_MAP
        self.predicted: set | frozenset = EMPTY_SET
        self.preceding: list[int] = []
        self.following_by_sym = EMPTY_MAP

    def __repr__(self):
        return f"Core({self.id}@{self.position}, handles={len(self.handles)})"


class ImplicitNode(namedtuple("ImplicitNode", "id start end symbol_id productions")):
    """A view of one parse node, identified by (start, end, symbol); contents stay implicit.

    Re-derivations of the same triple merge into one node, which is what keeps
    cyclic production sets finite. Token nodes are the lattice's tokens, the
    nodes whose symbol is a terminal, and their ``productions`` is empty.
    Every other node is created by a reduction, and ``productions`` holds the
    ascending ids of the productions that derived it, as an SPPF symbol node
    holds one packed child per production. A view is a copy: it does not
    follow later changes to the node. (Built with ``collections.namedtuple``:
    a ``typing.NamedTuple`` class costs twice as long to create at import.)
    """

    __slots__ = ()

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.start, self.end, self.symbol_id)


class NodeViews:
    """A graph's nodes as a read-only sequence of view records, by id; ``ELAGraph.nodes`` and ``EGraph.nodes``.

    ``column`` is one of the graph's parallel node lists, so its length is the
    number of nodes, and ``view(i)`` makes node ``i``'s record from the lists.
    A view is made on each access; a slice gives a list of views.
    """

    __slots__ = ("_column", "_view")

    def __init__(self, column: list, view: Callable[[int], tuple]):
        self._column = column
        self._view = view

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, node_id: int | slice):
        node_id = range(len(self._column))[node_id]  # a negative id counts from the end
        if isinstance(node_id, range):
            return list(map(self._view, node_id))
        return self._view(node_id)

    def __iter__(self):
        return map(self._view, range(len(self._column)))


class ELAGraph:
    """Cores and parse nodes over one lattice; the chart fills it in place.

    ``core_at`` maps a token start offset to its core and ``next_core`` maps
    a token end offset to the core after it; every node starts where a token
    starts and ends where one ends, so both serve all nodes. The node lists
    are described in the module docstring. ``node_ids`` maps a nonterminal
    node's (start, end, symbol) key to its id; tokens are never looked up by
    key, so theirs are left out. ``stride`` is the input's length plus one,
    the number of offsets a handle's origin can take, so that a handle is
    one int (see the chart module).

    The chart's results stay empty or zero until a chart runs. ``starting``
    then holds the accepted roots: start-symbol nodes whose only preceding
    core is the starting core and whose only following core is the last one.
    ``agenda_pops`` and ``handle_count`` count the chart's work, and
    ``filtered`` tells whether it enforced blocked positions and so may lack
    derivations that the constraints forbid.
    """

    __slots__ = ("input", "stride", "cores", "node_start", "node_end", "node_symbol", "node_productions",
                 "node_ids", "core_at", "next_core", "starting_core", "last_core", "starting", "agenda_pops",
                 "handle_count", "filtered")

    def __init__(self, input: str, cores: list[Core], node_start: list[int], node_end: list[int],
                 node_symbol: list[int], node_productions: list[tuple[int, ...]], core_at: dict[int, int],
                 next_core: dict[int, int], starting_core: int = 0, last_core: int = 0):
        self.input = input
        self.stride = len(input) + 1
        self.cores = cores
        self.node_start = node_start
        self.node_end = node_end
        self.node_symbol = node_symbol
        self.node_productions = node_productions
        self.node_ids: dict[tuple[int, int, int], int] = {}
        self.core_at = core_at
        self.next_core = next_core
        self.starting_core = starting_core
        self.last_core = last_core
        self.starting: tuple[int, ...] = ()
        self.agenda_pops = 0
        self.handle_count = 0
        self.filtered = False

    @property
    def nodes(self) -> NodeViews:
        return NodeViews(self.node_start, self._view)

    def _view(self, node_id: int) -> ImplicitNode:
        return ImplicitNode(node_id, self.node_start[node_id], self.node_end[node_id], self.node_symbol[node_id],
                            self.node_productions[node_id])

    def following(self, core_id: int) -> list[int]:
        """The ids of the nodes that start at core ``core_id``, ascending."""
        core = self.cores[core_id]
        ids = list(range(core.tok_lo, core.tok_hi))
        for nonterminals in core.following_by_sym.values():
            ids += nonterminals
        return sorted(ids)


def build_ela_graph(la: LAGraph) -> ELAGraph:
    """Complete a pruned lattice with cores and copy its tokens into the node lists.

    Raises ``ValueError`` on an empty lattice, and on one whose tokens are not
    numbered by (start, end, symbol) as ``tokenize`` and ``load_la_graph``
    number them.
    """
    tokens = la.nodes
    if not tokens:
        raise ValueError("cannot extend an empty lexical analysis graph")
    _ids, symbols, starts, ends, _lexemes = zip(*tokens)
    # Each (start, end, symbol) against the next; zip reuses its tuples, so no token allocates one
    if not all(map(le, zip(starts, ends, symbols), islice(zip(starts, ends, symbols), 1, None))):
        raise ValueError("lattice tokens must be numbered by (start, end, symbol)")

    n = len(tokens)
    end = len(la.input)
    # The ids where a new start offset begins, then the end of the last run
    bounds = [0, *compress(range(1, n), map(ne, starts, islice(starts, 1, None)))]
    positions = [starts[i] for i in bounds]
    bounds.append(n)
    cores = list(map(Core, range(len(positions)), positions, bounds, islice(bounds, 1, None)))
    last = len(cores)
    cores.append(Core(last, end, n, n))
    core_at = dict(zip(positions, range(last)))

    next_core = {e: last if nxt == end else core_at[nxt] for e, nxt in la.next_position.items()}
    for i, e in enumerate(ends):
        cores[next_core[e]].preceding.append(i)

    return ELAGraph(
        input=la.input,
        cores=cores,
        node_start=list(starts),
        node_end=list(ends),
        node_symbol=list(symbols),
        node_productions=[()] * n,
        core_at=core_at,
        next_core=next_core,
        starting_core=core_at[la.content_start],
        last_core=last,
    )


def ela_document(ela: ELAGraph, grammar: Grammar) -> dict:
    """Structured dump of an extended graph (debugging aid)."""
    return {
        "cores": [
            {
                "id": c.id,
                "position": c.position,
                "handleCount": len(c.handles),
                "preceding": sorted(c.preceding),
                "following": ela.following(c.id),
            }
            for c in ela.cores
        ],
        "nodes": [
            {
                "id": n.id,
                "symbol": grammar.symbol_by_id[n.symbol_id].name,
                "start": n.start,
                "end": n.end,
                "preceding": [ela.core_at[n.start]],
                "following": [ela.next_core[n.end]],
            }
            for n in ela.nodes
        ],
    }
