"""Agenda-driven chart parsing with top-down prediction over the extended lattice.

The parser predicts the start symbol at the starting core, then drains an
agenda of (handle, node) pairs where the node matches the symbol after the
handle's dot. A handle is an Earley item (production, dot, origin): the
origin is the start offset of its first matched node, or its own core while
nothing is matched. Nodes are never zero-width, so a handle
that has matched something sits in a core after its origin and the two cases
never share a key. Matching the last pending symbol reduces: a node (origin,
matched node end, lhs) is created or merged, wired to the cores at its
boundaries, and every handle already waiting for that symbol in its start
core is re-awakened. Otherwise the advanced handle is added to the core
following the matched node. The chart fills the extended graph it is given,
and the filled graph is the implicit graph that expansion walks. The run
counts its work on that graph, once: ``ELAGraph.agenda_pops`` and
``handle_count``, which ``igraph_document`` reports as its ``stats``.

The graph keeps its nodes in parallel lists (``ELAGraph.node_start``,
``node_end``, ``node_symbol`` and ``node_productions``), which the chart
indexes by node id; a new node is one append to each. A core is named by
its offset, and what the chart stores at cores lives in containers for the
whole graph keyed by ints that hold the offset: the graph's ``handles``
set, which expansion reads, and the parser's own ``waiting``,
``following_by_sym`` and ``predicted`` (see :class:`ChartParser`), which
are freed when the run returns. No core allocates a set or dict of its
own. A node starts at the core at its start offset and is followed by the
core at ``ELAGraph.next_at[end]``. A handle that waits for a terminal
meets the tokens that start at its core, the lattice ids
``token_table[offset]`` to ``token_table[offset + 1] - 1`` in the parser's
token table, and most cores start a single token, so that case is one
comparison. A handle that waits for a nonterminal meets the nodes listed
under its symbol and core in ``following_by_sym`` and is listed under the
same key in ``waiting``; terminal positions are never listed there, since
no node re-awakens them.

Prediction is Earley's (1970), with cores in the role of Earley sets. One
core is shared by every token starting at its offset, so it predicts for
every tokenization alternative at once. When a handle is first stored in a
core, the nonterminal after its dot is predicted there unless the core's
entry in ``predicted`` already holds it: the core is seeded with the dot-0
handles of every production in that symbol's left-corner closure
(``Grammar.predictions``) and the closure's symbols are marked predicted. A
production is therefore seeded only where its left-hand side is predicted,
and every node the chart builds derives a symbol predicted at its start
core.

With ``enforce_constraints`` on, associativity and composition precedence
act here rather than after the chart, as disambiguation filters pushed into
the parser (Visser, "A case study in optimizing parsing schemata by
disambiguation filters", 1997). The handle (production, dot, origin) waits
for the symbol after its dot with the blocked set of its item: the
productions a child there may not have. An empty blocked set predicts as
above. A non-empty one predicts the pair (symbol, blocked set) once per
core, seeding the item's ``seeds``: only the symbol's productions outside
the set, plus those that selection precedence prefers over one of them,
because expansion needs the preferred node to judge the other. The seeded
productions' own left corners are predicted as their handles are stored.
A node stands for one (start, end, symbol) and records the productions
that derived it, as an SPPF symbol node holds one packed child per
production (Scott, "SPPF-style parsing from Earley recognisers", 2008). A
handle advances over a node only when one of those productions lies
outside its blocked set; a handle that meets a node all of whose
productions it blocks advances when the first production it admits
re-derives the node. Terminal positions block nothing, since a token has
no production to refuse.

Nullable symbols never materialize as nodes. When a handle is stored, any
run of nullable symbols after its dot also stores the skipped variants in the
same core, and a skip run that reaches the end of the production completes
it immediately, ending where the last actually-matched node ends.
This is the nullable step of Aycock and Horspool ("Practical Earley
Parsing", 2002): predicting a nullable symbol also moves past it, so an
empty derivation needs neither a node nor a completion. A skipped variant
predicts the symbol it waits for like any other stored handle, and the
left-corner closure walks past nullable prefixes for the same reason. An
item's ``skip`` flag says whether its symbol may be skipped: not when its
blocked set holds the production that expansion would place there.

Termination holds for cyclic production sets and nullable chains because
nodes merge on their key, handles merge within their core (a handle and its
core are one member of the graph's handle set) and a core predicts each
symbol, or each (symbol, blocked set) pair, at most once. There are
finitely many cores, symbols, productions and blocked sets, so the node
keys, the handle set and the predicted sets are finite and only grow. No (handle, node) pair is pushed twice: a handle is
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
the number of items times the stride. The stores add the core's offset the
same way: a stored handle is ``handle * stride + offset``, a wait or a
following node is listed under ``symbol * stride + offset``, and a node's
key is ``(start * stride + end) * n_symbols + symbol``. Each code stands for
exactly one tuple, so the sets keep the same members. An int hashes without
rehashing fields, and the cyclic collector never tracks it. Every fact the
parser reads about an item comes from the item tables that the grammar
module owns (``grammar.ItemTables``, ``Grammar.items`` without enforcement
and ``Grammar.enforced_items`` with it), built once per grammar and flag: the
symbol after the dot (-1 once the item is complete), whether it is a token,
the blocked set (empty when nothing is blocked), whether the symbol may be
skipped as empty, and a blocked item's seeds. No handle is decoded into
production and dot.

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

from bisect import bisect

from .elagraph import ELAGraph
from .grammar import Grammar

__all__ = ["ChartParser", "run_chart", "igraph_document"]


class ChartParser:
    """One predictive chart run over one extended graph.

    The graph is filled in place (cores gain handles, the node lists grow,
    and :meth:`run` records the roots and work counts on it: the pops it
    counts go straight to ``ELAGraph.agenda_pops``), so construct a fresh
    extended graph per run.
    :meth:`initialize` predicts the start symbol at the starting core; every
    other production is seeded by :meth:`add_handle` as the handles that
    wait for its left-hand side are stored. ``agenda`` holds pending entries,
    a handle and the node that matches the symbol after its dot, each coded
    as the int ``node_id * space + handle`` with ``space`` the number of
    handles the graph can hold; it is drained from the end, and the module
    docstring explains why the order does not affect the graph.

    The parser keeps the run's working stores, which nothing after the chart
    reads, and names each core by its offset. ``token_table`` is built from
    the token starts by ``ELAGraph.token_table``: the tokens that start at
    the core at offset ``p`` are the ids ``token_table[p]`` to
    ``token_table[p + 1] - 1``. The others are one int-keyed dict each for
    the whole graph. ``waiting`` maps ``symbol * stride + offset`` to the
    handles stored at that core that wait for that nonterminal, including
    handles whose dot reached it by skipping nullable positions, so a single
    lookup answers which handles a freshly derived node can advance.
    ``following_by_sym`` maps the same key to the nonterminal nodes of that
    symbol that start at the core. ``predicted`` maps a core's offset to the
    symbols predicted there: once a symbol is in it, the
    dot-0 handles of its left-corner closure are in the graph's ``handles``,
    so a later handle waiting for it seeds nothing new. Its value is the
    grammar's own closure frozenset when the core predicted once, and a
    union only when it predicted again; a chart that enforces blocked
    positions also adds (symbol, blocked productions) pairs, one for each
    restricted prediction made there. ``node_ids`` maps a nonterminal node's
    key, the int ``(start * stride + end) * n_symbols + symbol`` with
    ``n_symbols`` one more than the grammar's largest symbol id, to its id;
    tokens are never looked up by key, so theirs are left out.

    With ``enforce_constraints`` on, each handle waits with the blocked set of
    its position and advances only over a node that a production outside the
    set derived, and never skips to a blocked empty derivation. Off, or for a
    grammar whose positions block nothing, the chart holds every derivation.
    """

    # Slots: the chart reads several of these per handle, and with an instance
    # dict of this size it ran about 10% slower on the prec-arith workload.
    __slots__ = ("grammar", "ela", "agenda", "_stride", "_n_symbols", "space", "_base", "_production",
                 "_predictions", "_filtered", "_symbol", "_token", "_blocked", "_skip", "_seeds", "_lhs", "_single",
                 "_node_symbol", "_node_productions", "_handles", "token_table", "waiting", "predicted",
                 "following_by_sym", "node_ids", "_seeded")

    def __init__(self, grammar: Grammar, ela: ELAGraph, enforce_constraints: bool = False):
        self.grammar = grammar
        self.ela = ela
        self.agenda: list[int] = []
        self._stride = ela.stride
        self._n_symbols = max(grammar.symbol_by_id) + 1
        self.space = len(grammar.item_production) * ela.stride
        self._base = grammar.item_base
        self._production = grammar.item_production
        self._predictions = grammar.predictions
        tables = grammar.enforced_items if enforce_constraints else grammar.items
        self._filtered = tables.filtered
        self._symbol = tables.symbol
        self._token = tables.token
        self._blocked = tables.blocked
        self._skip = tables.skip
        self._seeds = tables.seeds
        self._lhs = tables.lhs
        self._single = tables.single
        self._node_symbol = ela.node_symbol
        self._node_productions = ela.node_productions
        self._handles = ela.handles
        self.token_table = ela.token_table()
        self.waiting: dict[int, list[int]] = {}
        self.predicted: dict[int, frozenset] = {}
        self.following_by_sym: dict[int, list[int]] = {}
        self.node_ids: dict[int, int] = {}
        self._seeded = False

    # -- core operations ----------------------------------------------------

    def add_handle(self, item: int, origin: int, core: int, end: int | None = None) -> None:
        """Store the handle of ``item`` and ``origin`` (and its nullable-skip variants) at the core at offset ``core``.

        Pushes an agenda entry for every node following the core that matches
        the symbol after the dot, and predicts a nonterminal at ``core`` the
        first time a handle waits for it; a handle at a blocked position does
        both through :meth:`_wait_blocked`. ``end`` is where the last matched
        node ends, None while nothing is matched. When skipping nullable
        symbols reaches the end of the production and something was matched,
        the production is complete and reduces over (origin, end); that
        happens on every call, since two matched nodes that end at different
        offsets can lead to the same core.
        """
        stride = self._stride
        handles = self._handles
        symbol = self._symbol
        agenda = self.agenda
        while True:
            sym = symbol[item]
            if sym < 0:
                if end is not None:
                    self._reduce(self._production[item], origin, end)
                return
            handle = item * stride + origin
            code = handle * stride + core
            if code not in handles:
                handles.add(code)
                if self._token[item]:
                    # The core's tokens are the ids token_table[core] and up; most cores start one token.
                    tokens = self.token_table
                    lo, hi = tokens[core], tokens[core + 1]
                    node_symbol = self._node_symbol
                    if hi - lo == 1:
                        if node_symbol[lo] == sym:
                            agenda.append(lo * self.space + handle)
                    else:
                        for node_id in range(lo, hi):
                            if node_symbol[node_id] == sym:
                                agenda.append(node_id * self.space + handle)
                else:
                    key = sym * stride + core
                    waiting = self.waiting.get(key)
                    if waiting is None:
                        self.waiting[key] = [handle]
                    else:
                        waiting.append(handle)
                    if self._blocked[item]:
                        self._wait_blocked(handle, item, core)
                    else:
                        following = self.following_by_sym.get(key)
                        if following is not None:
                            space = self.space
                            for node_id in following:
                                agenda.append(node_id * space + handle)
                        predicted = self.predicted.get(core)
                        if predicted is None or sym not in predicted:
                            self._predict(sym, core)
            if not self._skip[item]:
                return
            item += 1

    def _predict(self, sym: int, core: int) -> None:
        """Seed the core at offset ``core`` with the dot-0 handles of ``sym``'s left-corner closure.

        The closure's symbols are marked first, so the seeded handles, which
        all wait for one of them, predict nothing further. A core's first
        prediction stores the grammar's closure set itself. A seeded handle's
        origin is the core itself.
        """
        productions, reached = self._predictions[sym]
        predicted = self.predicted.get(core)
        self.predicted[core] = reached if predicted is None else predicted | reached
        base = self._base
        for production_id in productions:
            self.add_handle(base[production_id], core, core)

    def _wait_blocked(self, handle: int, item: int, core: int) -> None:
        """Push and predict for a handle of ``item``, whose position blocks some productions.

        Only the following nodes that a production outside the blocked set
        derived are pushed; :meth:`_reduce` pushes the others if such a
        production derives them later. Unless the symbol after the dot is
        already predicted here, with or without this blocked set, the item's
        seeds are seeded.
        """
        sym, blocked = self._symbol[item], self._blocked[item]
        productions = self._node_productions
        for node_id in self.following_by_sym.get(sym * self._stride + core, ()):
            if not blocked.issuperset(productions[node_id]):
                self.agenda.append(node_id * self.space + handle)
        pair = (sym, blocked)
        predicted = self.predicted.get(core)
        if predicted is None:
            self.predicted[core] = frozenset((pair,))
        elif sym in predicted or pair in predicted:
            return
        else:
            self.predicted[core] = predicted | {pair}
        for seed in self._seeds[item]:
            self.add_handle(seed, core, core)

    def _reduce(self, production_id: int, start: int, end: int) -> None:
        """Create or extend the node of a completed production and re-awaken its waiting handles.

        A re-derivation by a production the node already records changes
        nothing. A new production is inserted into the node's ascending
        ``productions``; the handles waiting for it have met the node
        already, except those whose blocked set held every earlier
        production, and they are pushed now if they admit the new one.
        """
        ela = self.ela
        lhs = self._lhs[production_id]
        key = (start * self._stride + end) * self._n_symbols + lhs
        node_id = self.node_ids.get(key)
        if node_id is None:
            node_id = len(ela.node_start)
            self.node_ids[key] = node_id
            ela.node_start.append(start)
            ela.node_end.append(end)
            self._node_symbol.append(lhs)
            self._node_productions.append(self._single[production_id])
            at = lhs * self._stride + start  # the key of lhs at the node's start core
            following = self.following_by_sym.get(at)
            if following is None:
                self.following_by_sym[at] = [node_id]
            else:
                following.append(node_id)
            earlier = ()
        else:
            productions = self._node_productions
            earlier = productions[node_id]
            if production_id in earlier:
                return
            i = bisect(earlier, production_id)
            productions[node_id] = earlier[:i] + (production_id,) + earlier[i:]
            if not self._filtered:
                return
            at = lhs * self._stride + start
        # Re-awaken handles already waiting for this symbol. Handles stored
        # later find the node through the scan in add_handle.
        waiting = self.waiting.get(at)
        if waiting is None:
            return
        entry = node_id * self.space
        agenda = self.agenda
        if self._filtered:
            blocked_of = self._blocked
            stride = self._stride
            for handle in waiting:
                blocked = blocked_of[handle // stride]
                if production_id in blocked or not blocked.issuperset(earlier):
                    continue
                agenda.append(entry + handle)
        else:
            for handle in waiting:
                agenda.append(entry + handle)

    # -- driver --------------------------------------------------------------

    def initialize(self) -> None:
        """Predict the start symbol at the starting core."""
        self._predict(self.grammar.start.id, self.ela.content_start)
        self._seeded = True

    def run(self) -> ELAGraph:
        """Drain the agenda, record the roots and work counts, and return the filled graph."""
        if not self._seeded:
            self.initialize()
        ela = self.ela
        node_end = ela.node_end
        next_at = ela.next_at
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
            end = node_end[entry // space]
            if symbol[item] < 0:
                self._reduce(production[item], origin, end)
            else:
                self.add_handle(item, origin, next_at[end], end)
        ela.agenda_pops += pops
        # The start symbol is a nonterminal, so its nodes at the starting core are listed by symbol.
        roots = self.following_by_sym.get(self.grammar.start.id * stride + ela.content_start, ())
        ela.starting = tuple(sorted([r for r in roots if next_at[node_end[r]] == stride - 1]))
        ela.handle_count = len(ela.handles)
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
