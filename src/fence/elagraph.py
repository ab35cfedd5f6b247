"""Extended lexical analysis graph: the token lattice completed with cores.

A core is a container of handles (partially applied productions) placed
between tokens. One core sits at each distinct token start offset, shared by
every token starting there, so partial parse progress recorded before one
tokenization alternative is automatically visible to the others. A starting
core precedes the tokens with no predecessor and a last core follows the
tokens that reach the end of the input.

The chart phase fills an extended graph in place: cores gain predicted
symbols and handles, the node store grows nonterminal nodes and the graph
records its accepted roots and work counts. The filled graph is the implicit
graph that expansion walks, so build a fresh graph per parse session.
"""

from __future__ import annotations

from .grammar import Grammar
from .lexgraph import LAGraph

__all__ = ["Core", "ImplicitNode", "ELAGraph", "build_ela_graph", "ela_document"]


class Core:
    """A handle store between tokens.

    ``handles`` holds the handles stored here, each the int
    ``item * stride + origin`` that the chart module describes. ``waiting``
    indexes the same ints by the symbol after their dot, including
    handles whose dot reached that symbol by skipping nullable positions, so
    a single lookup answers which handles a freshly derived node can advance.
    ``predicted`` holds the symbols already predicted here: once a symbol is
    in it, the dot-0 handles of its left-corner closure are in ``handles``,
    so a later handle waiting for it seeds nothing new. A chart that enforces
    blocked positions also keeps (symbol, blocked productions) pairs in it,
    one for each restricted prediction made here. ``preceding`` lists the
    nodes that end just before the core, and ``following_by_sym`` the nodes
    that start at it, by symbol.
    """

    __slots__ = ("id", "position", "handles", "waiting", "predicted", "preceding", "following_by_sym")

    def __init__(self, core_id: int, position: int):
        self.id = core_id
        self.position = position
        self.handles: set[int] = set()
        self.waiting: dict[int, list[int]] = {}
        self.predicted: set = set()
        self.preceding: list[int] = []
        self.following_by_sym: dict[int, list[int]] = {}

    def __repr__(self):
        return f"Core({self.id}@{self.position}, handles={len(self.handles)})"


class ImplicitNode:
    """A parse node identified by (start, end, symbol); contents stay implicit.

    Re-derivations of the same triple merge into one node, which is what keeps
    cyclic production sets finite. Token nodes are the re-housed lattice
    tokens, the nodes whose symbol is a terminal, and their ``productions``
    is empty. Every other node is created by a reduction, and
    ``productions`` holds the ascending ids of the productions that derived
    it, as an SPPF symbol node holds one packed child per production. A
    node derived by one production shares the chart's one-element tuple of
    that production.
    """

    __slots__ = ("id", "start", "end", "symbol_id", "productions")

    def __init__(self, node_id: int, start: int, end: int, symbol_id: int, productions: tuple[int, ...]):
        self.id = node_id
        self.start = start
        self.end = end
        self.symbol_id = symbol_id
        self.productions = productions

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.start, self.end, self.symbol_id)

    def __repr__(self):
        derived = "".join(f",p{p}" for p in self.productions)
        return f"ImplicitNode({self.start},{self.end},s{self.symbol_id}{derived})"


class ELAGraph:
    """Cores and parse nodes over one lattice; the chart fills it in place.

    ``core_at`` maps a token start offset to its core and ``next_core`` maps
    a token end offset to the core after it; every node starts where a token
    starts and ends where one ends, so both serve all nodes. ``node_ids``
    maps a nonterminal node's (start, end, symbol) key to its id; tokens are
    never looked up by key, so theirs are left out. ``stride`` is the
    input's length plus one, the number of offsets a handle's origin can
    take, so that a handle is one int (see the chart module).

    The chart's results stay empty or zero until a chart runs. ``starting``
    then holds the accepted roots: start-symbol nodes whose only preceding
    core is the starting core and whose only following core is the last one.
    ``agenda_pops`` and ``handle_count`` count the chart's work, and
    ``filtered`` tells whether it enforced blocked positions and so may lack
    derivations that the constraints forbid.
    """

    __slots__ = ("input", "stride", "cores", "nodes", "node_ids", "core_at", "next_core", "starting_core",
                 "last_core", "starting", "agenda_pops", "handle_count", "filtered")

    def __init__(self, input: str, cores: list[Core], nodes: list[ImplicitNode], node_ids: dict[tuple, int],
                 core_at: dict[int, int], next_core: dict[int, int], starting_core: int = 0, last_core: int = 0):
        self.input = input
        self.stride = len(input) + 1
        self.cores = cores
        self.nodes = nodes
        self.node_ids = node_ids
        self.core_at = core_at
        self.next_core = next_core
        self.starting_core = starting_core
        self.last_core = last_core
        self.starting: tuple[int, ...] = ()
        self.agenda_pops = 0
        self.handle_count = 0
        self.filtered = False


def build_ela_graph(la: LAGraph) -> ELAGraph:
    """Complete a pruned lattice with cores and re-house tokens as parse nodes."""
    if not la.nodes:
        raise ValueError("cannot extend an empty lexical analysis graph")
    end = len(la.input)
    positions = sorted({t.start for t in la.nodes})
    cores = [Core(i, pos) for i, pos in enumerate(positions)]
    core_at = {c.position: c.id for c in cores}
    last = Core(len(cores), end)
    cores.append(last)

    next_core: dict[int, int] = {}
    for token_end, nxt in la.next_position.items():
        next_core[token_end] = last.id if nxt == end else core_at[nxt]

    nodes: list[ImplicitNode] = []
    for t in la.nodes:
        nodes.append(ImplicitNode(t.id, t.start, t.end, t.symbol_id, ()))
        cores[core_at[t.start]].following_by_sym.setdefault(t.symbol_id, []).append(t.id)
        cores[next_core[t.end]].preceding.append(t.id)

    return ELAGraph(
        input=la.input,
        cores=cores,
        nodes=nodes,
        node_ids={},
        core_at=core_at,
        next_core=next_core,
        starting_core=core_at[la.content_start],
        last_core=last.id,
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
                "following": sorted(i for ids in c.following_by_sym.values() for i in ids),
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
