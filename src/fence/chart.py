"""Agenda-driven chart parsing with top-down prediction over the extended lattice.

The parser predicts the start symbol at the starting core, then drains an
agenda of (handle, node) pairs where the node matches the symbol after the
handle's dot. A handle is an Earley item (production, dot, origin): the
origin is the start offset of its first matched node, or its core's own
position while nothing is matched. Nodes are never zero-width, so a handle
that has matched something sits in a core after its origin and the two cases
never share a key. Matching the last pending symbol reduces: a node (origin,
matched node end, lhs) is created or merged, wired to the cores at its
boundaries, and every handle already waiting for that symbol in its start
core is re-awakened. Otherwise the advanced handle is added to the core
following the matched node.

Prediction is Earley's (1970), with cores in the role of Earley sets. One
core is shared by every token starting at its offset, so it predicts for
every tokenization alternative at once. When a handle is first stored in a
core, the symbol after its dot is predicted there unless ``Core.predicted``
already holds it: the core is seeded with the dot-0 handles of every
production in that symbol's left-corner closure (``Grammar.predictions``)
and the closure's symbols are marked predicted. A production is therefore
seeded only where its left-hand side is predicted, and every node the chart
builds derives a symbol predicted at its start core.

Nullable symbols never materialize as nodes. When a handle is stored, any
run of nullable symbols after its dot also stores the skipped variants in the
same core, and a skip run that reaches the end of the production completes
it immediately, ending where the last actually-matched node ends.
This is the nullable step of Aycock and Horspool ("Practical Earley
Parsing", 2002): predicting a nullable symbol also moves past it, so an
empty derivation needs neither a node nor a completion. A skipped variant
predicts the symbol it waits for like any other stored handle, and the
left-corner closure walks past nullable prefixes for the same reason.

Termination holds for cyclic production sets and nullable chains because
nodes merge on their (start, end, symbol) identity, handles merge within
their core and a core predicts each symbol at most once, so all three
stores are finite and only grow. No (handle, node) pair is pushed twice: a
handle is stored once and then meets the nodes already following its core,
and a node is created once and then meets the handles already waiting in
its start core, so each pair is pushed by whichever of the two came second.
Prediction pushes nothing itself: the handles it seeds are stored through
the same store-once path as advanced ones, so both arguments cover them.

The agenda is a plain list popped from the end (LIFO). Pop order cannot
change the result: popping an entry only adds handles, predicted symbols and
nodes, each keyed by its identity, and every entry pushed is popped before
the run ends, so the final sets are the closure of the start symbol's
prediction under the predict, advance and reduce steps whatever the order.
Prediction keeps that true because it depends only on which handles a core
holds, never on when they arrived. The order fixes only the ids that nodes
receive, and one fixed order keeps those deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elagraph import Core, ELAGraph, ImplicitNode
from .grammar import Grammar

__all__ = ["IGraph", "ChartParser", "run_chart", "igraph_stats", "igraph_document"]


@dataclass
class IGraph:
    """The implicit parse graph: every derived node predicted at its start.

    ``starting`` holds the accepted roots: start-symbol nodes whose only
    preceding core is the starting core and whose only following core is the
    last one. The expansion phase walks the chart's own cores, shared with
    the extended graph: ``cores`` with their handles and ``preceding`` node
    lists, ``core_at`` mapping a token start offset to its core and
    ``next_core`` mapping a token end offset to the core that follows it. No
    index is built for it.
    """

    input: str
    nodes: list[ImplicitNode]
    starting: tuple[int, ...]
    agenda_pops: int
    handle_count: int
    cores: list[Core] = field(repr=False)
    core_at: dict[int, int] = field(repr=False)
    next_core: dict[int, int] = field(repr=False)


class ChartParser:
    """One predictive chart run over one extended graph.

    The graph is mutated in place (cores gain predicted symbols and handles,
    the node store grows), so construct a fresh extended graph per run.
    :meth:`initialize` predicts the start symbol at the starting core; every
    other production is seeded by :meth:`add_handle` as the handles that
    wait for its left-hand side are stored. ``agenda`` holds pending
    (production, dot, origin, node) entries, a handle and the node that
    matches the symbol after its dot, and is drained from the end; the
    module docstring explains why the order does not affect the graph.
    """

    def __init__(self, grammar: Grammar, ela: ELAGraph):
        self.grammar = grammar
        self.ela = ela
        self.agenda: list[tuple] = []
        self.pops = 0
        self._rhs = grammar.rhs_ids
        self._eps = grammar.epsilon_ids
        self._predictions = grammar.predictions
        self._seeded = False

    # -- core operations ----------------------------------------------------

    def add_handle(
        self, production_id: int, dot: int, origin: int, core: Core, end: int | None = None
    ) -> None:
        """Store the handle (and its nullable-skip variants) in ``core``.

        Pushes an agenda entry for every node following the core that matches
        the symbol after the dot, and predicts that symbol in ``core`` the
        first time a handle waits for it there. ``end`` is where the last
        matched node ends, None while nothing is matched. When skipping
        nullable symbols reaches the end of the production and something was
        matched, the production is complete and reduces over (origin, end);
        that happens on every call, since two matched nodes that end at
        different offsets can lead to the same core.
        """
        rhs = self._rhs[production_id]
        size = len(rhs)
        while True:
            if dot == size:
                if end is not None:
                    self._reduce(production_id, origin, end)
                return
            sym = rhs[dot]
            handle = (production_id, dot, origin)
            if handle not in core.handles:
                core.handles.add(handle)
                core.waiting.setdefault(sym, []).append(handle)
                for node_id in core.following_by_sym.get(sym, ()):
                    self.agenda.append(handle + (node_id,))
                if sym not in core.predicted:
                    self._predict(sym, core)
            if sym not in self._eps:
                return
            dot += 1

    def _predict(self, sym: int, core: Core) -> None:
        """Seed ``core`` with the dot-0 handles of ``sym``'s left-corner closure.

        The closure's symbols are marked first, so the seeded handles, which
        all wait for one of them, predict nothing further.
        """
        productions, reached = self._predictions[sym]
        core.predicted |= reached
        for production_id in productions:
            self.add_handle(production_id, 0, core.position, core)

    def _reduce(self, production_id: int, start: int, end: int) -> None:
        ela = self.ela
        nodes = ela.nodes
        production = self.grammar.productions[production_id]
        key = (start, end, production.lhs.id)
        if key in ela.node_ids:
            return
        node_id = len(nodes)
        ela.node_ids[key] = node_id
        nodes.append(ImplicitNode(node_id, start, end, production.lhs.id, False))
        pre = ela.cores[ela.core_at[start]]
        pre.following.append(node_id)
        pre.following_by_sym.setdefault(production.lhs.id, []).append(node_id)
        ela.cores[ela.next_core[end]].preceding.append(node_id)
        # Re-awaken handles already waiting for this symbol. Handles stored
        # later find the node through the scan in add_handle.
        for handle in pre.waiting.get(production.lhs.id, ()):
            self.agenda.append(handle + (node_id,))

    # -- driver --------------------------------------------------------------

    def initialize(self) -> None:
        """Predict the start symbol at the starting core."""
        self._predict(self.grammar.start.id, self.ela.cores[self.ela.starting_core])
        self._seeded = True

    def run(self) -> IGraph:
        if not self._seeded:
            self.initialize()
        ela = self.ela
        nodes = ela.nodes
        agenda = self.agenda
        while agenda:
            production_id, dot, origin, node_id = agenda.pop()
            self.pops += 1
            end = nodes[node_id].end
            nxt = dot + 1
            if nxt == len(self._rhs[production_id]):
                self._reduce(production_id, origin, end)
            else:
                self.add_handle(production_id, nxt, origin, ela.cores[ela.next_core[end]], end)
        return self._igraph()

    def _igraph(self) -> IGraph:
        ela = self.ela
        start_sym = self.grammar.start.id
        s0 = ela.cores[ela.starting_core].position
        starting = tuple(
            n.id
            for n in ela.nodes
            if n.symbol_id == start_sym
            and n.start == s0
            and ela.next_core[n.end] == ela.last_core
        )
        return IGraph(
            input=ela.input,
            nodes=ela.nodes,
            starting=starting,
            agenda_pops=self.pops,
            handle_count=sum(len(c.handles) for c in ela.cores),
            cores=ela.cores,
            core_at=ela.core_at,
            next_core=ela.next_core,
        )


def run_chart(grammar: Grammar, ela: ELAGraph) -> IGraph:
    """Parse the extended graph predictively; an empty ``starting`` means rejection."""
    return ChartParser(grammar, ela).run()


def igraph_stats(ig: IGraph) -> dict:
    """Deterministic chart statistics (node and work counts)."""
    return {
        "nodes": len(ig.nodes),
        "starting": len(ig.starting),
        "agendaPops": ig.agenda_pops,
        "handles": ig.handle_count,
    }


def igraph_document(ig: IGraph, grammar: Grammar) -> dict:
    """Structured dump of the implicit graph."""
    entries = sorted(
        (n.start, n.end, grammar.symbol_by_id[n.symbol_id].name) for n in ig.nodes
    )
    starting = sorted(
        (ig.nodes[i].start, ig.nodes[i].end, grammar.symbol_by_id[ig.nodes[i].symbol_id].name)
        for i in ig.starting
    )
    return {
        "nodes": [{"start": s, "end": e, "symbol": sym} for s, e, sym in entries],
        "starting": [{"start": s, "end": e, "symbol": sym} for s, e, sym in starting],
        "stats": {"agendaPops": ig.agenda_pops, "handles": ig.handle_count},
    }
