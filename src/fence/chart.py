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
following the matched node. The chart fills the extended graph it is given,
and the filled graph is the implicit graph that expansion walks.

Prediction is Earley's (1970), with cores in the role of Earley sets. One
core is shared by every token starting at its offset, so it predicts for
every tokenization alternative at once. When a handle is first stored in a
core, the symbol after its dot is predicted there unless ``Core.predicted``
already holds it: the core is seeded with the dot-0 handles of every
production in that symbol's left-corner closure (``Grammar.predictions``)
and the closure's symbols are marked predicted. A production is therefore
seeded only where its left-hand side is predicted, and every node the chart
builds derives a symbol predicted at its start core.

With ``enforce_constraints`` on, associativity and composition precedence
act here rather than after the chart, as disambiguation filters pushed into
the parser (Visser, "A case study in optimizing parsing schemata by
disambiguation filters", 1997). The handle (production, dot, origin) waits
for the symbol after its dot with the blocked set that
``Grammar.position_blocks`` gives that position: the productions a child
there may not have. An empty blocked set predicts as above. A non-empty one
predicts the pair (symbol, blocked set) once per core, seeding only the
symbol's productions outside the set, plus those that selection precedence
prefers over one of them, because expansion needs the preferred node to
judge the other. The seeded productions' own left corners are predicted as
their handles are stored. A node stands for one (start, end, symbol) and
records the productions that derived it, as an SPPF symbol node holds
one packed child per production (Scott, "SPPF-style parsing from Earley
recognisers", 2008). A handle advances over a node only when one of those
productions lies outside its blocked set; a handle that meets a node all of
whose productions it blocks advances when the first production it admits
re-derives the node. Terminal positions block nothing, since a token has no
production to refuse.

Nullable symbols never materialize as nodes. When a handle is stored, any
run of nullable symbols after its dot also stores the skipped variants in the
same core, and a skip run that reaches the end of the production completes
it immediately, ending where the last actually-matched node ends.
This is the nullable step of Aycock and Horspool ("Practical Earley
Parsing", 2002): predicting a nullable symbol also moves past it, so an
empty derivation needs neither a node nor a completion. A skipped variant
predicts the symbol it waits for like any other stored handle, and the
left-corner closure walks past nullable prefixes for the same reason. A
position is not skipped when its blocked set holds the canonical production
of the symbol's empty derivation (``Grammar.epsilon_production``), the one
expansion would place there.

Termination holds for cyclic production sets and nullable chains because
nodes merge on their key, handles merge within their core and a core
predicts each symbol, or each (symbol, blocked set) pair, at most once. There
are finitely many symbols, productions and blocked sets, so all three stores
are finite and only grow. No (handle, node) pair is pushed twice: a handle is
stored once and then meets the nodes already following its core, and a node
is created once and then meets the handles already waiting in its start
core, so each pair is pushed by whichever of the two came second. Under a
blocked position the pair is pushed instead when the position first admits
one of the node's productions: when the handle is stored, when the node is
created, or when a production the position admits first joins the node, and
each of these happens once. Prediction pushes nothing itself: the handles it
seeds are stored through the same store-once path as advanced ones, so the
same arguments cover them.

Handles and agenda entries are plain ints, as Earley items are LR(0) item
numbers in McLean and Horspool ("A faster Earley parser", 1996). The grammar
numbers its items once: production p with its dot at d is item
``Grammar.item_base[p] + d``, so advancing a dot adds one. A handle is
``item * stride + origin``, where ``ELAGraph.stride`` is the input's length
plus one, because the last core sits at the input's end and can be an
origin. An agenda entry is ``node_id * space + handle``, where ``space`` is
the number of items times the stride. Each code stands for exactly one
tuple, so the sets keep the same members. An int hashes without rehashing
fields, and the cyclic collector never tracks it. Per item the parser reads
the symbol after the dot (-1 once the item is complete), the blocked set
(empty when nothing is blocked) and whether that symbol may be skipped as
empty, so no handle is decoded into production and dot.

The agenda is a plain list popped from the end (LIFO). Pop order cannot
change the result: popping an entry only adds handles, predictions and
nodes, each keyed by its identity, and every entry pushed is popped before
the run ends, so the final sets are the closure of the start symbol's
prediction under the predict, advance and reduce steps whatever the order.
Prediction keeps that true because it depends only on which handles a core
holds, never on when they arrived, and the blocked sets depend only on the
handle. The order fixes only the ids that nodes receive, and one fixed order
keeps those deterministic.
"""

from __future__ import annotations

from .elagraph import Core, ELAGraph, ImplicitNode
from .grammar import Grammar

__all__ = ["ChartParser", "run_chart", "igraph_stats", "igraph_document"]


class ChartParser:
    """One predictive chart run over one extended graph.

    The graph is filled in place (cores gain predictions and handles, the
    node store grows, and :meth:`run` records the roots and work counts on
    it), so construct a fresh extended graph per run.
    :meth:`initialize` predicts the start symbol at the starting core; every
    other production is seeded by :meth:`add_handle` as the handles that
    wait for its left-hand side are stored. ``agenda`` holds pending entries,
    a handle and the node that matches the symbol after its dot, each coded
    as the int ``node_id * space + handle`` with ``space`` the number of
    handles the graph can hold; it is drained from the end, and the module
    docstring explains why the order does not affect the graph.

    With ``enforce_constraints`` on, each handle waits with the blocked set of
    its position and advances only over a node that a production outside the
    set derived, and never skips to a blocked empty derivation. Off, or for a
    grammar whose positions block nothing, the chart holds every derivation.
    """

    def __init__(self, grammar: Grammar, ela: ELAGraph, enforce_constraints: bool = False):
        self.grammar = grammar
        self.ela = ela
        self.agenda: list[int] = []
        self.pops = 0
        self._stride = ela.stride
        self.space = len(grammar.item_production) * ela.stride
        self._base = grammar.item_base
        self._production = grammar.item_production
        self._predictions = grammar.predictions
        self._lhs = [p.lhs.id for p in grammar.productions]
        # One shared ``productions`` tuple per production, for the nodes it alone derives
        self._single = [(p,) for p in range(len(grammar.productions))]
        blocks = grammar.position_blocks if enforce_constraints else ()
        self._filtered = any(any(row) for row in blocks)
        # Per item: the symbol after the dot (-1 once complete), the productions a
        # node there may not have, and whether the symbol may be skipped as empty.
        none: frozenset[int] = frozenset()
        symbol: list[int] = []
        blocked: list[frozenset[int]] = []
        for p, rhs in enumerate(grammar.rhs_ids):
            symbol += rhs
            symbol.append(-1)
            blocked += blocks[p] if self._filtered else [none] * len(rhs)
            blocked.append(none)
        eps = grammar.epsilon_ids
        self._symbol = symbol
        self._blocked = blocked
        self._skip = [
            s in eps and not (b and grammar.epsilon_production[s] in b) for s, b in zip(symbol, blocked)
        ]
        self._seeded = False

    # -- core operations ----------------------------------------------------

    def add_handle(self, item: int, origin: int, core: Core, end: int | None = None) -> None:
        """Store the handle of ``item`` and ``origin`` (and its nullable-skip variants) in ``core``.

        Pushes an agenda entry for every node following the core that matches
        the symbol after the dot, and predicts that symbol in ``core`` the
        first time a handle waits for it there; a handle at a blocked position
        does both through :meth:`_wait_blocked`. ``end`` is where the last
        matched node ends, None while nothing is matched. When skipping
        nullable symbols reaches the end of the production and something was
        matched, the production is complete and reduces over (origin, end);
        that happens on every call, since two matched nodes that end at
        different offsets can lead to the same core.
        """
        stride = self._stride
        while True:
            sym = self._symbol[item]
            if sym < 0:
                if end is not None:
                    self._reduce(self._production[item], origin, end)
                return
            handle = item * stride + origin
            if handle not in core.handles:
                core.handles.add(handle)
                core.waiting.setdefault(sym, []).append(handle)
                blocked = self._blocked[item]
                if blocked:
                    self._wait_blocked(handle, sym, blocked, core)
                else:
                    for node_id in core.following_by_sym.get(sym, ()):
                        self.agenda.append(node_id * self.space + handle)
                    if sym not in core.predicted:
                        self._predict(sym, core)
            if not self._skip[item]:
                return
            item += 1

    def _predict(self, sym: int, core: Core) -> None:
        """Seed ``core`` with the dot-0 handles of ``sym``'s left-corner closure.

        The closure's symbols are marked first, so the seeded handles, which
        all wait for one of them, predict nothing further.
        """
        productions, reached = self._predictions[sym]
        core.predicted |= reached
        base = self._base
        for production_id in productions:
            self.add_handle(base[production_id], core.position, core)

    def _wait_blocked(self, handle: int, sym: int, blocked: frozenset[int], core: Core) -> None:
        """Push and predict for a handle whose position blocks ``blocked``.

        Only the following nodes that a production outside ``blocked``
        derived are pushed; :meth:`_reduce` pushes the others if such a
        production derives them later.
        Unless ``sym`` is already predicted here, with or without this
        blocked set, the handles of ``sym``'s productions outside ``blocked``
        are seeded, with those of the blocked ones that selection precedence
        prefers over one of them: expansion drops a production's node where a
        preferred one holds a tree, so it needs the preferred node too.
        """
        nodes = self.ela.nodes
        for node_id in core.following_by_sym.get(sym, ()):
            if not blocked.issuperset(nodes[node_id].productions):
                self.agenda.append(node_id * self.space + handle)
        if sym in core.predicted or (sym, blocked) in core.predicted:
            return
        core.predicted.add((sym, blocked))
        options = self.grammar.production_ids_by_lhs.get(sym, ())
        kept = [p for p in options if p not in blocked]
        needed = set(kept).union(*(self.grammar.preferred_over.get(p, ()) for p in kept))
        for p in options:
            if self.grammar.rhs_ids[p] and p in needed:
                self.add_handle(self._base[p], core.position, core)

    def _reduce(self, production_id: int, start: int, end: int) -> None:
        """Create or extend the node of a completed production and re-awaken its waiting handles.

        A re-derivation by a production the node already records changes
        nothing. A new production joins the node's ``productions``; the
        handles waiting for it have met the node already, except those whose
        blocked set held every earlier production, and they are pushed now if
        they admit the new one.
        """
        ela = self.ela
        nodes = ela.nodes
        lhs = self._lhs[production_id]
        key = (start, end, lhs)
        node_id = ela.node_ids.get(key)
        if node_id is None:
            node_id = len(nodes)
            ela.node_ids[key] = node_id
            nodes.append(ImplicitNode(node_id, start, end, lhs, self._single[production_id]))
            pre = ela.cores[ela.core_at[start]]
            pre.following_by_sym.setdefault(lhs, []).append(node_id)
            ela.cores[ela.next_core[end]].preceding.append(node_id)
            earlier = ()
        else:
            node = nodes[node_id]
            earlier = node.productions
            if production_id in earlier:
                return
            node.productions = tuple(sorted(earlier + (production_id,)))
            if not self._filtered:
                return
            pre = ela.cores[ela.core_at[start]]
        # Re-awaken handles already waiting for this symbol. Handles stored
        # later find the node through the scan in add_handle.
        entry = node_id * self.space
        for handle in pre.waiting.get(lhs, ()):
            if self._filtered:
                blocked = self._blocked[handle // self._stride]
                if production_id in blocked or not blocked.issuperset(earlier):
                    continue
            self.agenda.append(entry + handle)

    # -- driver --------------------------------------------------------------

    def initialize(self) -> None:
        """Predict the start symbol at the starting core."""
        self._predict(self.grammar.start.id, self.ela.cores[self.ela.starting_core])
        self._seeded = True

    def run(self) -> ELAGraph:
        """Drain the agenda, record the roots and work counts, and return the filled graph."""
        if not self._seeded:
            self.initialize()
        ela = self.ela
        nodes = ela.nodes
        cores = ela.cores
        next_core = ela.next_core
        agenda = self.agenda
        space = self.space
        stride = ela.stride
        symbol = self._symbol
        production = self._production
        pops = 0
        while agenda:
            entry = agenda.pop()
            pops += 1
            handle = entry % space
            item = handle // stride + 1  # the dot moves over the node
            origin = handle % stride
            end = nodes[entry // space].end
            if symbol[item] < 0:
                self._reduce(production[item], origin, end)
            else:
                self.add_handle(item, origin, cores[next_core[end]], end)
        self.pops += pops
        start_sym = self.grammar.start.id
        s0 = ela.cores[ela.starting_core].position
        ela.starting = tuple(
            n.id
            for n in nodes
            if n.symbol_id == start_sym
            and n.start == s0
            and ela.next_core[n.end] == ela.last_core
        )
        ela.agenda_pops = self.pops
        ela.handle_count = sum(len(c.handles) for c in ela.cores)
        ela.filtered = self._filtered
        return ela


def run_chart(grammar: Grammar, ela: ELAGraph, enforce_constraints: bool = False) -> ELAGraph:
    """Fill the extended graph predictively and return it; an empty ``starting`` means rejection.

    The chart holds every derivation unless ``enforce_constraints`` is on;
    then it leaves out what associativity and composition precedence forbid,
    as :class:`ChartParser` describes. Expansion still checks every
    constraint, so the forest is the same either way when it enforces them;
    ``expand_forest`` refuses to expand a chart that left derivations out
    with its own enforcement off.
    """
    return ChartParser(grammar, ela, enforce_constraints).run()


def igraph_stats(ig: ELAGraph) -> dict:
    """Deterministic chart statistics (node and work counts)."""
    return {
        "nodes": len(ig.nodes),
        "starting": len(ig.starting),
        "agendaPops": ig.agenda_pops,
        "handles": ig.handle_count,
    }


def igraph_document(ig: ELAGraph, grammar: Grammar) -> dict:
    """Structured dump of the implicit graph: the nodes and roots of a charted extended graph.

    A nonterminal node also lists the ``productions`` that derived it.
    """

    def entries(ids) -> list[dict]:
        out = []
        for n in sorted((ig.nodes[i] for i in ids), key=lambda n: (n.start, n.end, names[n.symbol_id].name)):
            entry = {"start": n.start, "end": n.end, "symbol": names[n.symbol_id].name}
            if n.productions:
                entry["productions"] = list(n.productions)
            out.append(entry)
        return out

    names = grammar.symbol_by_id
    return {
        "nodes": entries(range(len(ig.nodes))),
        "starting": entries(ig.starting),
        "stats": {"agendaPops": ig.agenda_pops, "handles": ig.handle_count},
    }
