"""Constraint-enforcing expansion of the implicit parse graph into a packed forest.

A forest node is one symbol over one span derived by one production: it is
keyed by (start, end, symbol, production), plus the cycle context described
below. Its children are packed alternatives, each an ordered tuple with one
child per right-hand-side position: a forest node, a token leaf or a
zero-width placeholder. A node stands for the union of its alternatives'
trees and an alternative for the product of its children's, so the forest
stays polynomial in the input while the trees it holds may be exponential,
and counting them is a sum of products over the nodes. Each node's count is
computed when the node is built, from its children's, which are built
before it; ``EGraph.counts`` keeps them and ``tree_counts`` reads them.

Alternatives come from a right-to-left walk through the handles the chart
left at its cores, each looked up in the graph's one handle set; nothing is
searched. A core is named by its offset, as in the chart, and the graph
holds the handle (item, origin) stored at offset o as the int
``(item * stride + origin) * stride + o``. The child at the last position
ends where the node ends, so it is one of the nodes preceding the core at
``ELAGraph.next_at[end]``. A child at position j that starts at offset o
is taken only if the core at o holds the handle (production, j, start),
whose origin is the forest node's start: the chart stored that handle only
after deriving positions 0..j-1 from there, so the walk never extends a
suffix whose prefix cannot be derived. Position j-1 is then filled from the
nodes preceding that core. The graph keeps no such lists; expansion makes
them, indexed by offset and ascending, in one pass over the node ends when
it starts, and frees them when it returns. A nullable position may
instead be skipped when the same core holds the handle
for that position (the chart stores skip variants beside the handle they
skip from). A skipped position gets a zero-width placeholder carrying
the symbol's canonical minimal empty derivation, at the end of the real
child to its left, or at the node's start when there is none. Placeholder
internals are canonical and not subject to constraints, but a placeholder is
an ordinary child for the checks on its parent.

An implicit node is expanded once per production that derived it, each
production giving a forest node of its own. Associativity and composition
precedence look only at a child's production, so the blocked productions at
a position are skipped before they are expanded. What a position blocks, and
whether it may be skipped, are read from the item tables that the grammar
module owns (``Grammar.enforced_items``, or ``Grammar.items`` without
enforcement), the same tables the chart reads. A chart that enforced them
already left out the children that no admitted production derives; the
checks stay here all the same, as the definition. Selection precedence
compares the forest nodes of one implicit node in one context: a
production's node is dropped when a preferred production's node holds a
tree. The preferred nodes are expanded first, so a dropped node is never
expanded at all, and a custom evaluator under a dominated production is
never called. A custom evaluator judges one packed alternative as it is
completed: it sees a ``NodeView`` of the node whose children are one-level
views of the alternative's direct children, and a rejected alternative is
dropped with its trees. A child forest node fixes its own symbol, span,
production and label, so every tree of an alternative looks the same to
the evaluator, and the forest stays packed. ``EGraph.constructions`` counts
the alternatives built, those an evaluator rejects included.

No (start, end, symbol) repeats on any root-to-leaf path of an output tree:
a child that would re-enter a (start, end, symbol) already under expansion
is cut. Ancestor spans contain a node's span, so only ancestors of exactly
its span can recur inside it, and the set of the implicit nodes of those
ancestors, one per (start, end, symbol), is the node's cycle context. A cut
makes a node's alternatives depend on that context, so the context is part
of the node's key; a node with no equal-span ancestor, the common case, has
none, and ordinary nested ambiguity still shares one node.

Expansion starts at the accepted roots and builds only the nodes it reaches.
It runs on the caller's thread without recursion, in one loop. A forest
node whose walk needs a child node not built yet saves a small frame, the
state of its walk, on an explicit stack, and the loop opens the child; once
the child is finished, the loop resumes the frame where it stopped. Input
nesting depth therefore costs one saved frame per level, not an interpreter
frame, and parsing changes no process-wide setting. A forest
node is appended to the forest as soon as it is finished, so its id is its
creation index and its children, finished before it, have smaller ids. A
node built for a derivation that does not complete (a cut cycle, a suffix
whose prefix fails, an alternative an evaluator rejects) is left unreachable
from the roots. There are such nodes only when some node is neither a root
nor any node's child; then one sweep from the last node down finds them, and
the forest is compacted.

The forest is stored as ``ELAGraph`` stores its nodes: in parallel lists
indexed by forest node id (symbol, start, end, and production, None for a
token leaf). The packed alternatives of every node go into one flat int
list, ``EGraph.kids``, in node order, with offsets per node and per
alternative, so a node allocates no container of its own and the collector
has nothing in the forest to scan. A leaf keeps no lexeme: it is the input
over the leaf's span. ``EGraph.nodes`` makes :class:`ForestNode` views of
the lists on access, for callers and tests; the queries and writers below
index the lists. The memo that maps (implicit node, production) to its
forest node keys a node without a cycle context by one int.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import islice, product

from .elagraph import ELAGraph
from .errors import EvaluatorError
from .grammar import Grammar, NodeView
from .lexgraph import NodeViews

__all__ = [
    "ForestNode",
    "EGraph",
    "TreeCount",
    "FOREST_FORMAT_VERSION",
    "expand_forest",
    "epsilon_forest",
    "tree_counts",
    "enumerate_trees",
    "canonical_tree",
    "tree_to_jsonable",
    "egraph_document",
    "egraph_to_dot",
]

COUNT_CAP = 10**18
# Version 1 was the unpacked forest, one node per tree and no version field.
FOREST_FORMAT_VERSION = 2

_EMPTY = -1  # memo value of a forest node left without alternatives


class ForestNode(namedtuple("ForestNode", "id symbol_id start end production_id children lexeme")):
    """A view of one forest node: a symbol over a span, derived by one production in packed form.

    ``children`` holds the packed alternatives, one ordered tuple of child
    node ids each. A token leaf has ``children`` None and carries its lexeme,
    the input over its span, instead of a production. Zero-width nodes
    (start == end) are placeholders for skipped nullable symbols and hold one
    alternative. A view is a copy made from the forest's lists on access.
    """

    __slots__ = ()


class EGraph:
    """The packed parse forest: the nodes reachable from the roots, each numbered after its children.

    Nodes live in parallel lists indexed by node id: ``node_symbol``,
    ``node_start``, ``node_end`` and ``node_production``, which is None for a
    token leaf. The packed alternatives of all nodes are one flat int list,
    ``kids``: node ``i``'s alternatives are the ids ``node_alts[i]`` to
    ``node_alts[i + 1] - 1``, and alternative ``a`` holds the child ids
    ``kids[alt_kids[a]:alt_kids[a + 1]]``. Both offset lists therefore hold
    one more entry than they have nodes or alternatives, and a leaf has no
    alternatives. ``counts`` is indexed like the nodes: the trees each node
    holds, capped at ``COUNT_CAP``, kept as expansion built the node.
    ``nodes`` gives read-only :class:`ForestNode` views of the lists.
    """

    __slots__ = ("input", "node_symbol", "node_start", "node_end", "node_production", "node_alts", "alt_kids",
                 "kids", "counts", "roots", "constructions")

    def __init__(self, input: str):
        self.input = input
        self.node_symbol: list[int] = []
        self.node_start: list[int] = []
        self.node_end: list[int] = []
        self.node_production: list[int | None] = []
        self.node_alts = [0]
        self.alt_kids = [0]
        self.kids: list[int] = []
        self.counts: list[int] = []
        self.roots: tuple[int, ...] = ()
        self.constructions = 0

    @property
    def nodes(self) -> NodeViews:
        return NodeViews(self.node_start, self._view)

    def _view(self, eid: int) -> ForestNode:
        start, end, pid = self.node_start[eid], self.node_end[eid], self.node_production[eid]
        if pid is None:
            return ForestNode(eid, self.node_symbol[eid], start, end, None, None, self.input[start:end])
        return ForestNode(eid, self.node_symbol[eid], start, end, pid, tuple(map(tuple, self.alternatives(eid))), None)

    def alternatives(self, eid: int) -> list[list[int]]:
        """The packed alternatives of node ``eid``, each a new list of child ids; none for a leaf."""
        kids, alt_kids = self.kids, self.alt_kids
        return [kids[alt_kids[a]:alt_kids[a + 1]] for a in range(self.node_alts[eid], self.node_alts[eid + 1])]

    def _add(self, symbol_id: int, start: int, end: int, production_id: int | None, alternatives, count: int) -> int:
        """Append a node with its alternatives (sequences of child ids; empty for a leaf); returns its id."""
        eid = len(self.node_start)
        self.node_symbol.append(symbol_id)
        self.node_start.append(start)
        self.node_end.append(end)
        self.node_production.append(production_id)
        self.counts.append(count)
        node_alts = self.node_alts
        if alternatives:
            kids, alt_kids = self.kids, self.alt_kids
            for alt in alternatives:
                kids += alt
                alt_kids.append(len(kids))
            node_alts.append(len(alt_kids) - 1)
        else:
            node_alts.append(node_alts[-1])
        return eid


def _placeholder(grammar: Grammar, forest: EGraph, cache: dict, symbol_id: int, offset: int) -> int:
    """The node of ``symbol_id``'s canonical empty derivation at ``offset``.

    Built children first from an explicit stack, so a long nullable chain
    costs no interpreter frames.
    """
    stack = [symbol_id]
    while stack:
        sym = stack[-1]
        if (sym, offset) in cache:
            stack.pop()
            continue
        pid = grammar.epsilon_production[sym]
        rhs = grammar.rhs_ids[pid]
        missing = [s for s in rhs if (s, offset) not in cache]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        cache[sym, offset] = forest._add(sym, offset, offset, pid, ([cache[s, offset] for s in rhs],), 1)
    return cache[symbol_id, offset]


def _reachable(forest: EGraph) -> EGraph:
    """The forest's nodes reachable from its roots, renumbered densely in the same order.

    When every node is a root or some node's child, every node is reachable,
    and the forest is returned as it is: a child's id is below its parent's,
    so the highest unreachable node would need an unreachable parent above
    it. Otherwise one sweep from the last node down marks every reachable
    node, since children precede their parents; a node's alternatives are
    one run of ``kids``.
    """
    node_alts, alt_kids, kids = forest.node_alts, forest.alt_kids, forest.kids
    marked = bytearray(len(forest.node_start))
    for eid in forest.roots:
        marked[eid] = 1
    for eid in kids:
        marked[eid] = 1
    if 0 not in marked:
        return forest
    keep = [False] * len(forest.node_start)
    for r in forest.roots:
        keep[r] = True
    for eid in range(len(keep) - 1, -1, -1):
        if keep[eid]:
            for c in kids[alt_kids[node_alts[eid]]:alt_kids[node_alts[eid + 1]]]:
                keep[c] = True
    order = [eid for eid, kept in enumerate(keep) if kept]
    number = [-1] * len(keep)
    for new, old in enumerate(order):
        number[old] = new
    renumber = number.__getitem__
    compacted = EGraph(forest.input)
    for old in order:
        compacted._add(
            forest.node_symbol[old], forest.node_start[old], forest.node_end[old], forest.node_production[old],
            [list(map(renumber, alt)) for alt in forest.alternatives(old)], forest.counts[old],
        )
    compacted.roots = tuple([number[r] for r in forest.roots])
    compacted.constructions = forest.constructions
    return compacted


class _Expander:
    def __init__(self, grammar: Grammar, ig: ELAGraph, enforce: bool):
        self.grammar = grammar
        self.ig = ig
        self.enforce = enforce
        self.items = grammar.enforced_items if enforce else grammar.items
        self.forest = EGraph(ig.input)
        # implicit node id * n_productions + production id -> forest node id, or _EMPTY; a node
        # with a cycle context is keyed by the tuple (implicit node id, production id, context)
        self.memo: dict[int | tuple, int] = {}
        self.n_productions = len(grammar.productions)
        # by offset, the nodes that end just before the core there, ascending: the order the chart
        # made them in, which fixes the order of the alternatives and so the forest's node ids
        self.preceding = ig.preceding_lists()
        self._leaves: list[int | None] = [None] * ig.n_tokens  # a token's leaf node, by token id
        self._placeholders: dict[tuple[int, int], int] = {}

    def run(self) -> tuple[int, ...]:
        """Forest nodes of the accepted roots, expanding every node they reach."""
        roots: list[int] = []
        productions = self.ig.node_productions
        n_productions = self.n_productions
        memo = self.memo
        for node_id in sorted(self.ig.starting):
            for p in productions[node_id]:
                key = node_id * n_productions + p
                got = memo.get(key)
                if got is None:
                    got = self._build(key)
                if got != _EMPTY:
                    roots.append(got)
        return tuple(roots)

    def _fill(self, suffix: tuple[int, ...], offset: int) -> tuple[int, ...]:
        """``suffix``, which starts with open placeholders stored as ~symbol, with those put at ``offset``."""
        n = 1
        while n < len(suffix) and suffix[n] < 0:
            n += 1
        placed = tuple([_placeholder(self.grammar, self.forest, self._placeholders, ~s, offset) for s in suffix[:n]])
        return placed + suffix[n:]

    # -- expansion ----------------------------------------------------------------

    def _build(self, key: int | tuple) -> int:
        """Build the forest node of memo key ``key`` and every node it needs; returns its id or ``_EMPTY``.

        A key is (implicit node id, production id, cycle context): one int
        when there is no context, else that triple. One loop works on the
        innermost open node. Under enforcement a node first checks the nodes
        of the productions preferred over its own, most preferred first, and
        once one holds a tree it is empty. Otherwise a stack of partial
        suffixes is extended right to left, as the module docstring
        describes. An entry is (the item whose dot stands before the position
        to fill next, start of the real child right of it or None when there
        is none, children chosen right of it, the product of their tree
        counts); every position is filled once the item precedes the
        production's dot-0 item. A nonterminal child offers the forest nodes
        of its productions that the position does not block and that hold a
        tree; a suffix that starts with open placeholders has them put at the
        end of the child placed before it. A suffix that reaches the node's
        start is an alternative, kept only if the production's custom
        evaluator, when it has one, accepts it.

        A node that needs a node the memo lacks is suspended: its frame goes
        on ``frames`` and the wanted node is opened in the same loop. A frame
        holds the node's key, its stack, alternatives, tree total and cycle
        context, and where its walk stands: the entry being extended, the
        iterator over the candidates preceding that entry's core, the
        candidate child, the suffix the child extends and the index of the
        child production whose node is wanted. A node still in its selection
        check saves only its key and the index into ``preferred_over``. Once
        the wanted node is finished, the frame resumes at the same index,
        whose lookup now finds it; what an entry's item and a child's id
        determine is read again from the tables.
        """
        grammar = self.grammar
        ig = self.ig
        forest = self.forest
        counts = forest.counts
        memo = self.memo
        leaves = self._leaves
        fill = self._fill
        n_productions = self.n_productions
        items = self.items
        item_symbol, item_blocked, item_skip, item_token = items.symbol, items.blocked, items.skip, items.token
        item_base, rhs_ids = grammar.item_base, grammar.rhs_ids
        preferred_over = grammar.preferred_over if self.enforce else {}
        custom = grammar.constraints.custom if self.enforce else {}
        node_productions, node_symbol = ig.node_productions, ig.node_symbol
        node_start, node_end = ig.node_start, ig.node_end
        handles, preceding, next_at = ig.handles, self.preceding, ig.next_at
        stride = ig.stride
        # The chart stores a handle at the core at offset o as handle * stride + o
        step = stride * stride
        frames: list[tuple] = []  # the suspended nodes' frames, innermost last
        frame = None  # the frame of ``key`` when it is resumed, None when it is opened
        while True:
            if type(key) is int:
                node_id, pid = divmod(key, n_productions)
                outer = None
            else:
                node_id, pid, outer = key
            start, end = node_start[node_id], node_end[node_id]
            origin = start * stride  # every handle read here starts at start
            first = item_base[pid]  # the item of pid with its dot at 0
            evaluator = custom.get(pid)
            if frame is None or len(frame) == 2:  # opened, or resumed in its selection check
                got = _EMPTY
                if pid in preferred_over:
                    derived = node_productions[node_id]  # ascending, so membership is a bisection
                    preferred = preferred_over[pid]
                    j = 0 if frame is None else frame[1]
                    while j < len(preferred):
                        q = preferred[j]
                        at = bisect_left(derived, q)
                        if at < len(derived) and derived[at] == q:
                            wanted = node_id * n_productions + q if outer is None else (node_id, q, outer)
                            got = memo.get(wanted)
                            if got != _EMPTY:  # wanted, or a tree that makes this node empty
                                break
                        j += 1
                    if got is None:
                        frames.append((key, j))
                        key = wanted
                        frame = None
                        continue
                # a node whose preferred production holds a tree has nothing to extend
                stack = [(first + len(rhs_ids[pid]) - 1, None, (), 1)] if got == _EMPTY else []
                alternatives = []
                trees = 0
                context = None  # built when the first child over this node's own span appears
                children = ()
                pending = None
            else:  # resumed in its walk
                (_, stack, alternatives, trees, context, item, right, suffix, made, children, child_id, filled,
                 j) = frame
                sym = item_symbol[item]
                blocked = item_blocked[item]
                token = item_token[item]
                code = item * step + origin
                open_placeholders = suffix and suffix[0] < 0
                child_start = node_start[child_id]
                child_context = context if child_start == start and node_end[child_id] == end else None
                pending = node_productions[child_id]
            while True:  # the walk, until the stack is empty or a candidate waits for a node
                if pending is not None:  # a resumed candidate's productions, from the one it waited for
                    for j in range(j, len(pending)):
                        p = pending[j]
                        if blocked and p in blocked:
                            continue
                        wanted = child_id * n_productions + p if child_context is None else (child_id, p, child_context)
                        got = memo.get(wanted)
                        if got is None:
                            break
                        if got != _EMPTY:
                            stack.append((item - 1, child_start, (got,) + filled, made * counts[got]))
                    else:
                        pending = None
                    if got is None:
                        break
                for child_id in children:
                    if node_symbol[child_id] != sym:
                        continue
                    child_end = node_end[child_id]
                    child_start = node_start[child_id]
                    if (right is None and child_end != end) or child_start < start:
                        continue
                    if code + child_start not in handles:
                        continue
                    filled = fill(suffix, child_end) if open_placeholders else suffix
                    if token:
                        leaf = leaves[child_id]
                        if leaf is None:
                            leaf = leaves[child_id] = forest._add(sym, child_start, child_end, None, (), 1)
                        stack.append((item - 1, child_start, (leaf,) + filled, made))
                        continue
                    if child_start != start or child_end != end:
                        child_context = None
                    elif child_id == node_id or (outer and child_id in outer):
                        continue  # cyclic re-entry contributes nothing on this path
                    else:
                        if context is None:
                            context = (outer or frozenset()) | {node_id}
                        child_context = context
                    prods = node_productions[child_id]
                    for p in prods:
                        if blocked and p in blocked:
                            continue
                        wanted = child_id * n_productions + p if child_context is None else (child_id, p, child_context)
                        got = memo.get(wanted)
                        if got is None:
                            break
                        if got != _EMPTY:
                            stack.append((item - 1, child_start, (got,) + filled, made * counts[got]))
                    else:
                        continue
                    j = prods.index(p)  # p's node is wanted
                    break
                else:
                    if not stack:
                        break
                    item, right, suffix, made = stack.pop()
                    if item < first:
                        if right == start:  # a node is never zero-width, so something was matched
                            if suffix and suffix[0] < 0:
                                suffix = fill(suffix, start)
                            if evaluator is None or self._accepts(evaluator, pid, start, end, suffix):
                                alternatives.append(suffix)
                                trees += made
                            else:
                                forest.constructions += 1
                        continue
                    sym = item_symbol[item]
                    blocked = item_blocked[item]
                    code = item * step + origin  # the handle (item, start), less its core
                    core = next_at[end] if right is None else right  # the core after the child to fill
                    if item_skip[item] and code + core in handles:
                        stack.append((item - 1, right, (~sym,) + suffix, made))
                    token = item_token[item]
                    open_placeholders = suffix and suffix[0] < 0
                    children = iter(preceding[core])
                    continue
                break
            if got is None:  # suspend this node and open the wanted one
                frames.append((key, stack, alternatives, trees, context, item, right, suffix, made, children,
                               child_id, filled, j))
                key = wanted
                frame = None
                continue
            forest.constructions += len(alternatives)
            if alternatives:
                got = forest._add(node_symbol[node_id], start, end, pid, alternatives, min(trees, COUNT_CAP))
            else:
                got = _EMPTY
            memo[key] = got
            if not frames:
                return got
            frame = frames.pop()
            key = frame[0]

    def _accepts(self, evaluator, pid: int, start: int, end: int, alternative: tuple[int, ...]) -> bool:
        """The evaluator's verdict on one alternative of production ``pid`` over [start, end)."""
        grammar = self.grammar
        forest = self.forest
        text = forest.input
        names = grammar.symbol_by_id
        productions = grammar.productions
        children = []
        for c in alternative:
            cstart, cend, cpid = forest.node_start[c], forest.node_end[c], forest.node_production[c]
            name = names[forest.node_symbol[c]].name
            span = text[cstart:cend]
            if cpid is None:  # a token leaf, whose lexeme is its span
                children.append(NodeView(name, cstart, cend, None, None, (), span, span))
            else:
                children.append(NodeView(name, cstart, cend, cpid, productions[cpid].label, (), None, span))
        p = productions[pid]
        view = NodeView(p.lhs.name, start, end, pid, p.label, tuple(children), None, text[start:end])
        try:
            return bool(evaluator(view))
        except Exception as exc:
            raise EvaluatorError(pid, p.label, exc) from exc


def expand_forest(grammar: Grammar, ig: ELAGraph, enforce_constraints: bool = True) -> EGraph:
    """Expand the accepted implicit roots of a charted graph into the packed forest.

    ``ig`` is the extended graph after ``run_chart`` filled it. With
    ``enforce_constraints`` off, every derivation survives; the result is
    the raw ambiguity of the grammar over the input. The roots are the forest
    nodes of the accepted implicit roots, one per surviving production.
    A chart that enforced the blocked positions lacks the derivations they
    forbid, so expanding it without enforcement raises ``ValueError``.
    """
    if ig.filtered and not enforce_constraints:
        raise ValueError("this chart enforced the constraints; expand it with enforce_constraints on")
    expander = _Expander(grammar, ig, enforce_constraints)
    roots = expander.run()
    forest = expander.forest
    del expander  # its memo and caches go before the sweep
    forest.roots = roots
    return _reachable(forest)


def epsilon_forest(grammar: Grammar, offset: int, input_text: str = "") -> EGraph:
    """Forest for an empty token stream: the start symbol's canonical empty tree.

    Only meaningful when the start symbol can derive the empty string; the
    parse machinery proper cannot represent zero-width roots, so this case is
    produced directly.
    """
    forest = EGraph(input_text)
    forest.roots = (_placeholder(grammar, forest, {}, grammar.start.id, offset),)
    forest.constructions = len(forest.node_start)
    return forest


# -- forest queries -----------------------------------------------------------


TreeCount = namedtuple("TreeCount", "total per_root saturated")


def tree_counts(eg: EGraph, cap: int = COUNT_CAP) -> TreeCount:
    """Trees held by each root: a sum over alternatives of products over children.

    Nothing is enumerated or walked: expansion kept each node's count, capped
    at ``COUNT_CAP``, in ``eg.counts``. Counts are capped at ``cap``, at most
    ``COUNT_CAP`` and at least 1; hitting the cap sets the saturated flag
    instead of silently overflowing. A sum of products of children capped at
    ``cap`` is the true count capped at ``cap``, so the smaller cap is exact.
    """
    if not 1 <= cap <= COUNT_CAP:
        raise ValueError(f"cap must be between 1 and COUNT_CAP ({COUNT_CAP})")
    counts = eg.counts
    per_root: dict[int, int] = {}
    total = 0
    saturated = False
    for root in eg.roots:
        per_root[root] = min(counts[root], cap)
        total += per_root[root]
        if per_root[root] >= cap or total > cap:
            saturated = True
            total = min(total, cap)
    return TreeCount(total, per_root, saturated)


def canonical_tree(eg: EGraph, grammar: Grammar, eid: int) -> tuple:
    """Canonical nested-tuple form of the one tree that node ``eid`` holds.

    Leaves are ("t", symbol, start, end, lexeme); interior nodes are
    ("n", symbol, start, end, production id, (children...)). A node holding
    more than one tree raises ``ValueError``; ``enumerate_trees`` lists them.
    """
    count = eg.counts[eid]
    if count != 1:
        raise ValueError(f"node {eid} holds {count} trees, not one; use enumerate_trees")
    names = grammar.symbol_by_id
    built: dict[int, tuple] = {}
    stack = [(eid, False)]
    while stack:
        nid, ready = stack.pop()
        if nid in built:
            continue
        name = names[eg.node_symbol[nid]].name
        start, end, pid = eg.node_start[nid], eg.node_end[nid], eg.node_production[nid]
        if pid is None:
            built[nid] = ("t", name, start, end, eg.input[start:end])
            continue
        (kids,) = eg.alternatives(nid)  # a node holding one tree has one alternative
        if ready:
            built[nid] = ("n", name, start, end, pid, tuple(built[c] for c in kids))
        else:
            stack.append((nid, True))
            stack.extend((c, False) for c in kids if c not in built)
    return built[eid]


def _first(ordered: list, limit: int) -> list[tuple]:
    """The first ``limit`` items of the merge of sorted iterables.

    The merge is lazy, so it draws about ``limit`` items, not all of them.
    """
    if len(ordered) == 1:
        return list(islice(ordered[0], limit))
    import heapq  # only ambiguous forests need it; the import costs about 1 ms

    return list(islice(heapq.merge(*ordered), limit))


def enumerate_trees(eg: EGraph, grammar: Grammar, limit: int) -> list[tuple]:
    """Trees of the forest in canonical order, up to ``limit``.

    Every node keeps only its first ``limit`` trees, in order: an
    alternative's trees come out of the product of its children's lists in
    order, because canonical tuples compare children left to right, and a
    node's alternatives are merged lazily, one generator each, so about
    ``limit`` trees are built per node. A tree that uses a child's later tree
    follows at least ``limit`` trees that use earlier ones, so nothing past a
    child's first ``limit`` is ever needed.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    names = grammar.symbol_by_id
    text = eg.input
    trees: list[list[tuple]] = []  # children come before their parents
    for eid, (symbol_id, start, end, pid) in enumerate(zip(eg.node_symbol, eg.node_start, eg.node_end,
                                                           eg.node_production)):
        name = names[symbol_id].name
        if pid is None:
            trees.append([("t", name, start, end, text[start:end])])
        else:
            head = ("n", name, start, end, pid)
            trees.append(
                _first([(head + (kids,) for kids in product(*[trees[c] for c in alt])) for alt in eg.alternatives(eid)],
                       limit)
            )
    return _first([trees[r] for r in eg.roots], limit)


def tree_to_jsonable(tree: tuple) -> dict:
    """Canonical tuple tree rendered as plain dicts for structured output."""
    built: dict[int, dict] = {}
    stack: list[tuple[tuple, bool]] = [(tree, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in built:
            continue
        if node[0] == "t":
            _tag, symbol, start, end, lexeme = node
            built[id(node)] = {"symbol": symbol, "start": start, "end": end, "lexeme": lexeme}
        elif ready:
            _tag, symbol, start, end, production, children = node
            built[id(node)] = {
                "symbol": symbol,
                "start": start,
                "end": end,
                "production": production,
                "children": [built[id(c)] for c in children],
            }
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node[5] if id(c) not in built)
    return built[id(tree)]


def egraph_document(eg: EGraph, grammar: Grammar) -> dict:
    """Structured document for the packed forest, including per-root tree counts.

    ``formatVersion`` is ``FOREST_FORMAT_VERSION``. Every nonterminal node
    lists its ``alternatives``, each a list of child node ids.
    """
    counts = tree_counts(eg)
    names = grammar.symbol_by_id
    nodes = []
    for eid, (symbol_id, start, end, pid) in enumerate(zip(eg.node_symbol, eg.node_start, eg.node_end,
                                                           eg.node_production)):
        entry: dict = {"id": eid, "symbol": names[symbol_id].name, "start": start, "end": end}
        if pid is None:
            entry["lexeme"] = eg.input[start:end]
        else:
            entry["production"] = pid
            entry["alternatives"] = eg.alternatives(eid)
        nodes.append(entry)
    doc = {
        "formatVersion": FOREST_FORMAT_VERSION,
        "nodes": nodes,
        "roots": list(eg.roots),
        "treeCounts": {str(r): counts.per_root[r] for r in eg.roots},
    }
    if counts.saturated:
        doc["treeCountsSaturated"] = True
    return doc


def egraph_to_dot(eg: EGraph, grammar: Grammar) -> str:
    """Graphviz rendering: squares for nonterminal nodes, ovals for tokens.

    A node with several alternatives points at one small dot per
    alternative, and each dot at that alternative's children.
    """
    escapes = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})
    lines = ["digraph forest {"]
    roots = set(eg.roots)
    for eid, (symbol_id, start, end, pid) in enumerate(zip(eg.node_symbol, eg.node_start, eg.node_end,
                                                           eg.node_production)):
        name = grammar.symbol_by_id[symbol_id].name
        if pid is None:
            label = f"{name}\\n{eg.input[start:end].translate(escapes)}"
            shape = "ellipse"
            style = ""
        else:
            label = f"{name} [{start},{end})"
            shape = "box"
            style = ", style=dashed" if start == end else ""
        peripheries = ", peripheries=2" if eid in roots else ""
        lines.append(f'  n{eid} [label="{label}", shape={shape}{style}{peripheries}];')
    for eid in range(len(eg.node_start)):
        alternatives = eg.alternatives(eid)
        for a, alt in enumerate(alternatives):
            parent = f"n{eid}"
            if len(alternatives) > 1:
                parent = f"n{eid}a{a}"
                lines.append(f'  {parent} [label="", shape=point];')
                lines.append(f"  n{eid} -> {parent};")
            for i, child in enumerate(alt):
                lines.append(f'  {parent} -> n{child} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
