"""Extended lexical analysis graph: the token lattice completed with cores.

A core is a container of handles (partially applied productions) placed
between tokens. One core sits at each distinct token start offset, shared by
every token starting there, so partial parse progress recorded before one
tokenization alternative is automatically visible to the others. A starting
core, at ``content_start``, precedes the tokens with no predecessor and a
last core, at the input's end, follows the tokens that reach it.

Parse nodes are kept in four parallel lists indexed by node id:
``node_start``, ``node_end``, ``node_symbol`` and ``node_productions``. The
first ids are the lattice's tokens, its columns copied into new lists with
``()`` as productions, so a token's node id is its lattice id, and
``n_tokens`` counts them. Tokens are numbered by (start, end, symbol), so
the tokens that start at one core are one id range. ``ELAGraph.nodes``
gives read-only :class:`ImplicitNode` views of the lists, as the lattice's
``nodes`` do of its columns; the chart and expansion index the lists.

A core and its offset are one-to-one, so the chart and expansion name a
core by its offset. A node starts at a core and is followed by the core at
the next position of its end, which ``next_at``, the graph's one list
indexed by input offset, holds (see :class:`ELAGraph`); it takes 8 bytes
per input offset, so an input of a few long tokens pays for its length
rather than for its tokens. The handles the chart stores at cores live in
one int set for the whole graph, ``handles``. The graph keeps no other
store per core: the phase that reads an index by core builds it and frees
it. The chart keeps its token table and working stores (see
:class:`~fence.chart.ChartParser`) until it returns, and expansion builds
each offset's list of preceding nodes, ``ELAGraph.preceding_lists``, when
it starts. Only ``ELAGraph.cores`` and ``ela_document`` number cores
densely, by position: ``cores`` gives read-only :class:`CoreView` views,
made in one pass over the handles and one over each node list on each
access.

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

    ``id`` numbers the cores by position, from 0. The tokens that start at
    the core are the node ids ``tok_lo`` to ``tok_hi - 1``. ``handles``
    holds the handles stored here, each the int ``item * stride + origin``
    that the chart module describes. ``preceding`` lists the nodes that end
    just before the core and ``following`` the nodes that start at it, both
    ascending. A view is a copy: it does not follow later changes to the
    graph.
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

    A core is named by its offset: a token start or the input's end. The
    starting core is at ``content_start``. ``next_at`` is a list indexed by
    input offset, ``len(input) + 1`` long: ``next_at[p]`` is the next
    position of the tokens that end at ``p``, the offset of the core after
    them. Every node ends where a token ends, so it serves all nodes. Every
    other offset holds None, so a lookup there fails instead of reading a
    core. The node lists are described in the module docstring; the graph
    is built over the tokens alone, so ``n_tokens`` is the length of the
    node lists then. ``stride`` is the input's length plus one, the number
    of offsets a core, and so a handle's origin, can take, so that a handle
    is one int (see the chart module). ``handles`` holds
    ``handle * stride + offset`` for every handle stored at the core at
    ``offset``.

    The chart's results stay empty or zero until a chart runs. ``starting``
    then holds the accepted roots: start-symbol nodes that start at the
    starting core and are followed by the last one.
    ``agenda_pops`` and ``handle_count`` count the chart's work, and
    ``filtered`` tells whether it enforced blocked positions and so may lack
    derivations that the constraints forbid.
    """

    __slots__ = ("input", "stride", "n_tokens", "content_start", "node_start", "node_end", "node_symbol",
                 "node_productions", "handles", "next_at", "starting", "agenda_pops", "handle_count", "filtered")

    def __init__(self, input: str, node_start: list[int], node_end: list[int], node_symbol: list[int],
                 node_productions: list[tuple[int, ...]], next_at: list[int | None], content_start: int):
        self.input = input
        self.stride = len(input) + 1
        self.n_tokens = len(node_start)
        self.content_start = content_start
        self.node_start = node_start
        self.node_end = node_end
        self.node_symbol = node_symbol
        self.node_productions = node_productions
        self.handles: set[int] = set()
        self.next_at = next_at
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
        """Every core's view, numbered by position, made in one pass over the handles and one over each node list."""
        n, stride = self.n_tokens, self.stride
        first = _first_tokens(self.node_start, n)
        positions = [*map(self.node_start.__getitem__, first), stride - 1]
        first += (n, n)  # the last core, at the input's end, starts no token
        handles: dict[int, list[int]] = {}
        for code in self.handles:
            handles.setdefault(code % stride, []).append(code // stride)
        preceding, following = self.preceding_lists(), self._by_offset(self.node_start)
        return tuple([CoreView(core_id, p, first[core_id], first[core_id + 1], frozenset(handles.get(p, ())),
                               tuple(preceding[p]), tuple(following[p])) for core_id, p in enumerate(positions)])

    def token_table(self) -> list[int | None]:
        """The token ids by start offset, a new list on each call, ``stride + 1`` long.

        The tokens that start at the core at offset ``p`` are the ids from
        entry ``p`` up to entry ``p + 1``; the last core starts none. Only
        those entries are written, and every other one holds None.
        """
        n, starts = self.n_tokens, self.node_start
        table: list[int | None] = [None] * (self.stride + 1)
        hi = table[-1] = table[-2] = n  # the last core, at the input's end, starts no token
        for lo in reversed(_first_tokens(starts, n)):
            p = starts[lo]
            table[p] = lo
            table[p + 1] = hi  # one past the last token at p, which is the first at p + 1 if a core is there
            hi = lo
        return table

    def preceding_lists(self) -> list:
        """Each offset's list of the nodes that end just before it, ascending; new lists on each call.

        An offset that no node ends before holds ``()``, so the lists cost
        one slot per input offset and one list per core that nodes precede.
        """
        return self._by_offset(map(self.next_at.__getitem__, self.node_end))

    def _by_offset(self, offsets) -> list:
        """The node ids grouped by the offset that ``offsets`` gives each node, ascending, ``()`` for none."""
        lists: list = [()] * self.stride
        for node_id, at in enumerate(offsets):
            nodes = lists[at]
            if nodes:
                nodes.append(node_id)
            else:
                lists[at] = [node_id]
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
    one offset have different next positions, since ``next_at`` keeps one
    next position per end offset.
    """
    starts, ends, symbols, steps = la.node_start, la.node_end, la.node_symbol, la.node_next
    if not starts:
        raise ValueError("cannot extend an empty lexical analysis graph")
    _check_offsets(la)
    # Each (start, end, symbol) against the next; zip reuses its tuples, so no token allocates one
    if not all(map(lt, zip(starts, ends, symbols), islice(zip(starts, ends, symbols), 1, None))):
        raise ValueError("lattice tokens must be numbered by (start, end, symbol), each triple once")

    end = len(la.input)
    cores = {*starts, end}  # a core at each token start offset, and the last core at the input's end
    if la.content_start not in cores:
        raise ValueError("content_start is not a token start or the input's end")
    if not cores.issuperset(steps):
        raise ValueError("a token end's next position is not a token start or the input's end")
    next_at: list[int | None] = [None] * (end + 1)
    for e, step in zip(ends, steps):
        next_at[e] = step
    if any(map(ne, map(next_at.__getitem__, ends), steps)):  # a later token overwrote an earlier one's step
        raise ValueError("two tokens that end at one offset have different next positions")

    return ELAGraph(
        input=la.input,
        node_start=list(starts),
        node_end=list(ends),
        node_symbol=list(symbols),
        node_productions=[()] * len(starts),
        next_at=next_at,
        content_start=la.content_start,
    )


def ela_document(ela: ELAGraph, grammar: Grammar) -> dict:
    """Structured dump of an extended graph (debugging aid); cores are numbered by position."""
    cores = ela.cores
    core_id = {c.position: c.id for c in cores}
    return {
        "cores": [
            {
                "id": c.id,
                "position": c.position,
                "handleCount": len(c.handles),
                "preceding": sorted(c.preceding),
                "following": list(c.following),
            }
            for c in cores
        ],
        "nodes": [
            {
                "id": n.id,
                "symbol": grammar.symbol_by_id[n.symbol_id].name,
                "start": n.start,
                "end": n.end,
                "preceding": [core_id[n.start]],
                "following": [core_id[ela.next_at[n.end]]],
            }
            for n in ela.nodes
        ],
    }
