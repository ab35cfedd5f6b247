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
``()`` as productions, so a token's node id is its lattice id, and
``n_tokens`` counts them. Tokens are numbered by (start, end, symbol), so
the tokens that start at one core are one id range, which
``ELAGraph.token_ranges`` lists for every core. ``ELAGraph.nodes`` gives
read-only :class:`ImplicitNode` views of the lists, as the lattice's
``nodes`` do of its columns; the chart and expansion index the lists.

A core is an id into ``core_position``, its offset. Offsets find cores
through two lists indexed by input offset, ``core_at`` and ``next_core``,
with None at an offset that has no core or ends no token; they take 16 bytes
per input offset, so an input of a few long tokens pays for its length
rather than for its tokens. The handles the chart stores at cores live in
one set for the whole graph, ``handles``, whose members are ints that hold
the core id (see :class:`ELAGraph`). The graph keeps no other store per
core: the phase that reads an index by core builds it and frees it. The
chart keeps the token ranges and its working stores (see
:class:`~fence.chart.ChartParser`) until it returns, and expansion builds
each core's list of preceding nodes, ``ELAGraph.preceding_lists``, when it
starts. ``ELAGraph.cores`` gives read-only :class:`CoreView` views, made in
one pass over the handles and one over each node list on each access.

The chart phase fills an extended graph in place: cores gain handles, the
node lists grow nonterminal nodes and the graph records its accepted roots
and work counts. The filled graph is the implicit graph that expansion
walks, so build a fresh graph per parse session.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress, islice
from operator import lt, ne

from .grammar import Grammar
from .lexgraph import LAGraph, NodeViews, _check_offsets

__all__ = ["CoreView", "ImplicitNode", "ELAGraph", "build_ela_graph", "ela_document"]


class CoreView(namedtuple("CoreView", "id position tok_lo tok_hi handles preceding following")):
    """A view of one core: its position, its tokens and the handles the chart stored there.

    The tokens that start at the core are the node ids ``tok_lo`` to
    ``tok_hi - 1``. ``handles`` holds the handles stored here, each the int
    ``item * stride + origin`` that the chart module describes.
    ``preceding`` lists the nodes that end just before the core and
    ``following`` the nodes that start at it, both ascending. A view is a
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
    lists and ``core_position`` are described in the module docstring; the
    graph is built over the tokens alone, so ``n_tokens`` is the length of
    the node lists then. ``stride`` is the
    input's length plus one, the number of offsets a handle's origin can
    take, so that a handle is one int (see the chart module), and
    ``n_cores`` is the number of cores. ``handles`` is one int set for the
    whole graph: ``handle * n_cores + core`` for every handle stored at a core.

    The chart's results stay empty or zero until a chart runs. ``starting``
    then holds the accepted roots: start-symbol nodes whose only preceding
    core is the starting core and whose only following core is the last one.
    ``agenda_pops`` and ``handle_count`` count the chart's work, and
    ``filtered`` tells whether it enforced blocked positions and so may lack
    derivations that the constraints forbid.
    """

    __slots__ = ("input", "stride", "n_cores", "n_tokens", "core_position", "node_start", "node_end", "node_symbol",
                 "node_productions", "handles", "core_at", "next_core", "starting_core", "last_core", "starting",
                 "agenda_pops", "handle_count", "filtered")

    def __init__(self, input: str, core_position: list[int], node_start: list[int], node_end: list[int],
                 node_symbol: list[int], node_productions: list[tuple[int, ...]], core_at: list[int | None],
                 next_core: list[int | None], starting_core: int = 0, last_core: int = 0):
        self.input = input
        self.stride = len(input) + 1
        self.n_cores = len(core_position)
        self.n_tokens = len(node_start)
        self.core_position = core_position
        self.node_start = node_start
        self.node_end = node_end
        self.node_symbol = node_symbol
        self.node_productions = node_productions
        self.handles: set[int] = set()
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
        """Every core's view, by id, made in one pass over the handles and one over each node list."""
        n = self.n_cores
        handles: list[list[int]] = [[] for _ in range(n)]
        for code in self.handles:
            handle, core_id = divmod(code, n)
            handles[core_id].append(handle)
        following = self._by_core(map(self.core_at.__getitem__, self.node_start))
        tokens = self.token_ranges()
        return tuple(map(CoreView, range(n), self.core_position, tokens, islice(tokens, 1, None),
                         map(frozenset, handles), map(tuple, self.preceding_lists()), map(tuple, following)))

    def token_ranges(self) -> list[int]:
        """Each core's first token id, then ``n_tokens`` twice; a new list on each call.

        Core ``c``'s tokens are the ids from entry ``c`` up to entry
        ``c + 1``; the last core, at the input's end, starts no token.
        """
        n = self.n_tokens
        ranges = _first_tokens(self.node_start, n)
        ranges += (n, n)
        return ranges

    def preceding_lists(self) -> list[list[int]]:
        """Each core's list of the nodes that end just before it, ascending; new lists on each call."""
        return self._by_core(map(self.next_core.__getitem__, self.node_end))

    def _by_core(self, cores) -> list[list[int]]:
        """The node ids grouped by the core that ``cores`` gives each node, in one pass, ascending."""
        lists: list[list[int]] = [[] for _ in range(self.n_cores)]
        for node_id, core_id in enumerate(cores):
            lists[core_id].append(node_id)
        return lists


def _first_tokens(starts, n: int) -> list[int]:
    """The ids among the first ``n`` tokens of ``starts`` that start where the token before does not."""
    return [0, *compress(range(1, n), map(ne, starts, islice(starts, 1, n)))]


def build_ela_graph(la: LAGraph) -> ELAGraph:
    """Complete a pruned lattice with cores and copy its token columns into the node lists.

    Raises ``ValueError`` on an empty lattice, on one that the lattice
    module's offset check rejects, on one whose tokens are not numbered by
    (start, end, symbol), each once, as ``tokenize`` and ``load_la_graph``
    number them, on one where a next position or ``content_start`` is not a
    token start or the input's end, and on one where two tokens that end at
    one offset have different next positions, since ``next_core`` keeps one
    core per end offset.
    """
    starts, ends, symbols = la.node_start, la.node_end, la.node_symbol
    if not starts:
        raise ValueError("cannot extend an empty lexical analysis graph")
    _check_offsets(la)
    # Each (start, end, symbol) against the next; zip reuses its tuples, so no token allocates one
    if not all(map(lt, zip(starts, ends, symbols), islice(zip(starts, ends, symbols), 1, None))):
        raise ValueError("lattice tokens must be numbered by (start, end, symbol), each triple once")

    n = len(starts)
    end = len(la.input)
    # A core at each token start offset, and the last core at the input's end
    positions = list(map(starts.__getitem__, _first_tokens(starts, n)))
    positions.append(end)
    last = len(positions) - 1

    core_at: list[int | None] = [None] * (end + 1)
    for core, position in enumerate(positions):
        core_at[position] = core
    if core_at[la.content_start] is None:
        raise ValueError("content_start is not a token start or the input's end")
    steps = list(map(core_at.__getitem__, la.node_next))  # each token's next core
    if None in steps:
        raise ValueError("a token end's next position is not a token start or the input's end")
    next_core: list[int | None] = [None] * (end + 1)
    for e, core in zip(ends, steps):
        next_core[e] = core
    if list(map(next_core.__getitem__, ends)) != steps:  # a later token overwrote an earlier one's next core
        raise ValueError("two tokens that end at one offset have different next positions")

    return ELAGraph(
        input=la.input,
        core_position=positions,
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
