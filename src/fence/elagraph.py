"""Extended lexical analysis graph: the token lattice completed with cores.

A core is a container of handles (partially applied productions) placed
between tokens. One core sits at each distinct token start offset, shared by
every token starting there, so partial parse progress recorded before one
tokenization alternative is automatically visible to the others. A starting
core precedes the tokens with no predecessor and a last core follows the
tokens that reach the end of the input.

Parse nodes are kept in four parallel lists indexed by node id:
``node_start``, ``node_end``, ``node_symbol`` and ``node_productions``. The
first ids are the lattice's tokens, its columns copied into new lists with
``()`` as productions, so a token's node id is its lattice id. Tokens are
numbered by (start, end, symbol), so the tokens that start at a core are
the id range ``core_tokens[c]`` to ``core_tokens[c + 1] - 1``, and the chart
lists only the nonterminal nodes that start at a core. ``ELAGraph.nodes``
gives read-only :class:`ImplicitNode` views of the lists, as the lattice's
``nodes`` do of its columns; the chart and expansion index the lists.

Cores are kept the same way, in lists indexed by core id: ``core_position``,
the ``core_tokens`` offsets and ``core_preceding``, the nodes that end just
before each core. Offsets find cores through two lists indexed by input
offset, ``core_at`` and ``next_core``, with None at an offset that has no
core or ends no token; they take 16 bytes per input offset, so an input of
a few long tokens pays for its length rather than for its tokens. What
the chart stores at a core lives in four containers for the whole graph,
whose members or keys are ints that hold the core id: ``handles``,
``waiting``, ``predicted`` and ``following_by_sym`` (see
:class:`ELAGraph`). A core the chart never reaches thus costs its list
entries and its ``preceding`` list, and a core it reaches allocates no set
or dict of its own. ``ELAGraph.cores`` gives read-only :class:`CoreView`
views, made in one pass over the stores on each access.

The chart phase fills an extended graph in place: cores gain predicted
symbols and handles, the node lists grow nonterminal nodes and the graph
records its accepted roots and work counts. The filled graph is the implicit
graph that expansion walks, so build a fresh graph per parse session.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, islice
from operator import lt, ne

from .grammar import Grammar
from .lexgraph import LAGraph, NodeViews

__all__ = ["CoreView", "ImplicitNode", "ELAGraph", "build_ela_graph", "ela_document"]


class CoreView(namedtuple("CoreView", "id position tok_lo tok_hi handles predicted preceding following")):
    """A view of one core: its position, its tokens and what the chart stored there.

    The tokens that start at the core are the node ids ``tok_lo`` to
    ``tok_hi - 1``. ``handles`` holds the handles stored here, each the int
    ``item * stride + origin`` that the chart module describes, and
    ``predicted`` the nonterminals predicted here, with a (symbol, blocked
    productions) pair for each restricted prediction. ``preceding`` lists
    the nodes that end just before the core in the order they were added,
    and ``following`` the nodes that start at it, ascending. A view is a
    copy: it does not follow later changes to the graph.
    """

    __slots__ = ()


class ImplicitNode(namedtuple("ImplicitNode", "id start end symbol_id productions")):
    """A view of one parse node, identified by (start, end, symbol); contents stay implicit.

    Re-derivations of the same triple merge into one node, which is what keeps
    cyclic production sets finite. Token nodes are the lattice's tokens, the
    nodes whose symbol is a terminal, and their ``productions`` is empty.
    Every other node is created by a reduction, and ``productions`` holds the
    ascending ids of the productions that derived it, as an SPPF symbol node
    holds one packed child per production. A view is a copy: it does not
    follow later changes to the node.
    """

    __slots__ = ()

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.start, self.end, self.symbol_id)


class ELAGraph:
    """Cores and parse nodes over one lattice; the chart fills it in place.

    ``core_at`` and ``next_core`` are lists indexed by input offset, each
    ``len(input) + 1`` long: ``core_at[p]`` is the core at offset ``p``, a
    token start or the input's end, and ``next_core[p]`` is the core after a
    token that ends at ``p``. Every node starts where a token starts and
    ends where one ends, so both serve all nodes. Every other offset holds
    None, so a lookup there fails instead of reading a core. The two lists
    cost 16 bytes per input offset, whatever the number of tokens. The node
    and core lists are described in the module docstring. ``stride`` is the
    input's length plus one, the number of offsets a handle's origin can
    take, so that a handle is one int (see the chart module), and
    ``n_cores`` is the number of cores.

    The chart's stores hold ints and are keyed by ints, one container each
    for the whole graph. ``handles`` holds ``handle * n_cores + core`` for
    every handle stored at a core. ``waiting`` maps ``symbol * n_cores +
    core`` to the handles stored there that wait for that nonterminal,
    including handles whose dot reached it by skipping nullable positions,
    so a single lookup answers which handles a freshly derived node can
    advance. ``following_by_sym`` maps the same key to the nonterminal
    nodes of that symbol that start at the core. ``predicted`` maps a core
    to the symbols predicted there: once a symbol is in it, the dot-0
    handles of its left-corner closure are in ``handles``, so a later handle
    waiting for it seeds nothing new. Its value is the grammar's own closure
    frozenset when the core predicted once, and a union only when it
    predicted again; a chart that enforces blocked positions also adds
    (symbol, blocked productions) pairs, one for each restricted prediction
    made there. ``node_ids`` maps a nonterminal node's key, the int
    ``(start * stride + end) * n_symbols + symbol`` with ``n_symbols`` one
    more than the grammar's largest symbol id, to its id; tokens are never
    looked up by key, so theirs are left out.

    The chart's results stay empty or zero until a chart runs. ``starting``
    then holds the accepted roots: start-symbol nodes whose only preceding
    core is the starting core and whose only following core is the last one.
    ``agenda_pops`` and ``handle_count`` count the chart's work, and
    ``filtered`` tells whether it enforced blocked positions and so may lack
    derivations that the constraints forbid.
    """

    __slots__ = ("input", "stride", "n_cores", "core_position", "core_tokens", "core_preceding", "node_start",
                 "node_end", "node_symbol", "node_productions", "node_ids", "handles", "waiting", "predicted",
                 "following_by_sym", "core_at", "next_core", "starting_core", "last_core", "starting",
                 "agenda_pops", "handle_count", "filtered")

    def __init__(self, input: str, core_position: list[int], core_tokens: list[int], core_preceding: list[list[int]],
                 node_start: list[int], node_end: list[int], node_symbol: list[int],
                 node_productions: list[tuple[int, ...]], core_at: list[int | None], next_core: list[int | None],
                 starting_core: int = 0, last_core: int = 0):
        self.input = input
        self.stride = len(input) + 1
        self.n_cores = len(core_position)
        self.core_position = core_position
        self.core_tokens = core_tokens
        self.core_preceding = core_preceding
        self.node_start = node_start
        self.node_end = node_end
        self.node_symbol = node_symbol
        self.node_productions = node_productions
        self.node_ids: dict[int, int] = {}
        self.handles: set[int] = set()
        self.waiting: dict[int, list[int]] = {}
        self.predicted: dict[int, frozenset] = {}
        self.following_by_sym: dict[int, list[int]] = {}
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

    @property
    def cores(self) -> tuple[CoreView, ...]:
        """Every core's view, by id, made in one pass over the handle and node stores."""
        n = self.n_cores
        handles: list[list[int]] = [[] for _ in range(n)]
        for code in self.handles:
            handle, core_id = divmod(code, n)
            handles[core_id].append(handle)
        tokens = self.core_tokens
        following = [list(range(lo, hi)) for lo, hi in zip(tokens, islice(tokens, 1, None))]
        for key, ids in self.following_by_sym.items():
            following[key % n] += ids
        predicted = self.predicted
        return tuple(map(CoreView, range(n), self.core_position, tokens, islice(tokens, 1, None),
                         map(frozenset, handles), [predicted.get(c, frozenset()) for c in range(n)],
                         map(tuple, self.core_preceding), [tuple(sorted(ids)) for ids in following]))


def build_ela_graph(la: LAGraph) -> ELAGraph:
    """Complete a pruned lattice with cores and copy its token columns into the node lists.

    Raises ``ValueError`` on an empty lattice, on one whose tokens are not
    numbered by (start, end, symbol), each once, as ``tokenize`` and
    ``load_la_graph`` number them, and on one where a token end has no next
    position at a token start or the input's end, or one before it.
    """
    starts, ends, symbols = la.node_start, la.node_end, la.node_symbol
    if not starts:
        raise ValueError("cannot extend an empty lexical analysis graph")
    # Each (start, end, symbol) against the next; zip reuses its tuples, so no token allocates one
    if not all(map(lt, zip(starts, ends, symbols), islice(zip(starts, ends, symbols), 1, None))):
        raise ValueError("lattice tokens must be numbered by (start, end, symbol), each triple once")

    n = len(starts)
    end = len(la.input)
    # The ids where a new start offset begins; the last core, at the input's end, starts no token
    core_tokens = [0, *compress(range(1, n), map(ne, starts, islice(starts, 1, None)))]
    positions = [starts[i] for i in core_tokens]
    positions.append(end)
    core_tokens += (n, n)
    last = len(positions) - 1

    core_at: list[int | None] = [None] * (end + 1)
    for core, position in enumerate(positions):
        core_at[position] = core
    next_core: list[int | None] = [None] * (end + 1)
    for e, nxt in la.next_position.items():
        if not 0 <= e <= nxt <= end:
            raise ValueError(f"a next position lies before its token end or outside [0, {end}]")
        next_core[e] = core_at[nxt]
    preceding: list[list[int]] = [[] for _ in positions]
    try:  # checked here, not in a pass of its own, since every parse builds this graph
        for i, e in enumerate(ends):
            preceding[next_core[e]].append(i)
    except (IndexError, TypeError):  # e lies past the input, or next_core[e] is None
        raise ValueError("a token end has no next position at a token start or the input's end") from None

    return ELAGraph(
        input=la.input,
        core_position=positions,
        core_tokens=core_tokens,
        core_preceding=preceding,
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
                "following": list(c.following),
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
