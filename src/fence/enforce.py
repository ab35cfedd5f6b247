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
left in its cores; nothing is searched. The child at the last position ends
where the node ends, so it is one of the nodes preceding the core after that
end. A child at position j that starts at offset o is taken only if the core
at o holds the handle (production, j, start), whose origin is the forest
node's start: the chart stored that handle only after deriving positions
0..j-1 from there, so the walk never extends a suffix whose prefix cannot be
derived. Position j-1 is then filled from the nodes preceding that core. A
nullable position may instead be skipped when the same core holds the handle
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
It runs on the caller's thread without recursion: each forest node under
expansion is a generator on an explicit stack, which hands the driver the
child nodes it needs. Input nesting depth therefore costs memory, not
interpreter frames, and parsing changes no process-wide setting. A forest
node is appended to the forest as soon as it is finished, so its id is its
creation index and its children, finished before it, have smaller ids. A
node built for a derivation that does not complete (a cut cycle, a suffix
whose prefix fails, an alternative an evaluator rejects) is left unreachable
from the roots; one sweep from the last node down finds such nodes, and the
forest is compacted only when there are any.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice, product
from typing import NamedTuple

from .elagraph import ELAGraph
from .errors import EvaluatorError
from .grammar import Grammar, NodeView

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


class ForestNode(NamedTuple):
    """A symbol over a span, derived by one production in packed form.

    ``children`` holds the packed alternatives, one ordered tuple of child
    node ids each. A token leaf has ``children`` None and carries its lexeme
    instead of a production. Zero-width nodes (start == end) are placeholders
    for skipped nullable symbols and hold one alternative.
    """

    id: int
    symbol_id: int
    start: int
    end: int
    production_id: int | None
    children: tuple[tuple[int, ...], ...] | None
    lexeme: str | None


class EGraph:
    """The packed parse forest: the nodes reachable from the roots, each numbered after its children.

    ``counts`` is indexed like ``nodes``: the trees each node holds, capped
    at ``COUNT_CAP``, kept as expansion built the node.
    """

    __slots__ = ("input", "nodes", "counts", "roots", "constructions")

    def __init__(self, input: str, nodes: list[ForestNode], counts: list[int], roots: tuple[int, ...],
                 constructions: int):
        self.input = input
        self.nodes = nodes
        self.counts = counts
        self.roots = roots
        self.constructions = constructions


# ForestNode's own constructor adds a Python call per node.
_make = tuple.__new__


def _placeholder(
    grammar: Grammar, nodes: list[ForestNode], counts: list[int], cache: dict, symbol_id: int, offset: int
) -> int:
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
        eid = cache[sym, offset] = len(nodes)
        nodes.append(_make(ForestNode, (eid, sym, offset, offset, pid, (tuple(cache[s, offset] for s in rhs),), None)))
        counts.append(1)
    return cache[symbol_id, offset]


def _reachable(
    nodes: list[ForestNode], counts: list[int], roots: tuple[int, ...]
) -> tuple[list[ForestNode], list[int], tuple[int, ...]]:
    """The nodes reachable from ``roots`` and their counts, renumbered densely in the same order.

    Children precede their parents, so one sweep from the last node down
    marks every reachable node. When all of them are, the lists are returned
    as they are.
    """
    keep = [False] * len(nodes)
    for r in roots:
        keep[r] = True
    for eid in range(len(nodes) - 1, -1, -1):
        if keep[eid]:
            alternatives = nodes[eid].children
            if alternatives:
                for alt in alternatives:
                    for c in alt:
                        keep[c] = True
    if all(keep):
        return nodes, counts, roots
    order = [eid for eid, kept in enumerate(keep) if kept]
    number = [-1] * len(nodes)
    for new, old in enumerate(order):
        number[old] = new
    renumber = number.__getitem__
    compacted = []
    for new, old in enumerate(order):
        node = nodes[old]
        alternatives = node.children
        if alternatives is not None:
            alternatives = tuple([tuple(map(renumber, alt)) for alt in alternatives])
        compacted.append(node._replace(id=new, children=alternatives))
    return compacted, [counts[eid] for eid in order], tuple([number[r] for r in roots])


class _Expander:
    def __init__(self, grammar: Grammar, ig: ELAGraph, enforce: bool):
        self.grammar = grammar
        self.ig = ig
        self.enforce = enforce
        self.items = grammar.enforced_items if enforce else grammar.items
        self.nodes: list[ForestNode] = []
        self.counts: list[int] = []  # each node's trees, capped at COUNT_CAP
        # (implicit node id, production id, cycle context) -> forest node id, or _EMPTY
        self.memo: dict[tuple, int] = {}
        self.constructions = 0
        self._leaves: dict[int, int] = {}
        self._placeholders: dict[tuple[int, int], int] = {}

    def run(self) -> tuple[int, ...]:
        """Forest nodes of the accepted roots, expanding every node they reach.

        The innermost generator on the stack is resumed with the node id it
        asked for; a generator that needs a node the memo lacks yields that
        node's key and a ``_derive`` generator for it is pushed.
        """
        open_nodes = [self._roots()]
        value = None
        while True:
            try:
                key = open_nodes[-1].send(value)
            except StopIteration as done:
                open_nodes.pop()
                if not open_nodes:
                    return done.value
                value = done.value
            else:
                open_nodes.append(self._derive(key))
                value = None

    def _roots(self):
        roots: list[int] = []
        productions = self.ig.node_productions
        for node_id in sorted(self.ig.starting):
            for p in productions[node_id]:
                got = self.memo.get((node_id, p, None))
                if got is None:
                    got = yield (node_id, p, None)
                if got != _EMPTY:
                    roots.append(got)
        return tuple(roots)

    def _fill(self, suffix: tuple[int, ...], offset: int) -> tuple[int, ...]:
        """``suffix``, which starts with open placeholders stored as ~symbol, with those put at ``offset``."""
        n = 1
        while n < len(suffix) and suffix[n] < 0:
            n += 1
        placed = tuple(
            _placeholder(self.grammar, self.nodes, self.counts, self._placeholders, ~s, offset)
            for s in suffix[:n]
        )
        return placed + suffix[n:]

    # -- expansion ----------------------------------------------------------------

    def _derive(self, key: tuple):
        """Generator building one forest node's alternatives; memoizes and returns its id.

        ``key`` is (implicit node id, production id, cycle context). Under
        enforcement the nodes of the productions preferred over this one are
        checked first, most preferred first, and once one holds a tree this
        node is empty. Otherwise
        a stack of partial suffixes is extended right to left, as the module
        docstring describes. An entry is (the item whose dot stands before the
        position to fill next, start of the real child right of it or None
        when there is none, children chosen right of it, the product of their
        tree counts); every position is filled once the item precedes the
        production's dot-0 item. A nonterminal child
        offers the forest nodes of its productions that the position does not
        block and that hold a tree; a suffix that starts with open
        placeholders has them put at the end of the child placed before it.
        A suffix that reaches the node's start is an alternative, kept only
        if the production's custom evaluator, when it has one, accepts it.
        """
        node_id, pid, outer = key
        ig = self.ig
        node_productions = ig.node_productions
        memo = self.memo
        preferred = self.grammar.preferred_over.get(pid) if self.enforce else None
        if preferred:
            derived = node_productions[node_id]  # ascending, so membership is a bisection
            for q in preferred:
                at = bisect_left(derived, q)
                if at < len(derived) and derived[at] == q:
                    wanted = (node_id, q, outer)
                    other = memo.get(wanted)
                    if other is None:
                        other = yield wanted
                    if other != _EMPTY:
                        memo[key] = _EMPTY  # pid loses to q
                        return _EMPTY
        cores = ig.cores
        core_at = ig.core_at
        grammar = self.grammar
        forest = self.nodes
        counts = self.counts
        text = ig.input
        leaves = self._leaves
        items = self.items
        node_start = ig.node_start
        node_end = ig.node_end
        node_symbol = ig.node_symbol
        start, end = node_start[node_id], node_end[node_id]
        context = None  # built when the first child over this node's own span appears
        stride = ig.stride
        first = grammar.item_base[pid]  # the item of pid with its dot at 0
        evaluator = grammar.constraints.custom.get(pid) if self.enforce else None
        alternatives = []
        trees = 0
        stack = [(first + len(grammar.rhs_ids[pid]) - 1, None, (), 1)]
        while stack:
            item, right, suffix, made = stack.pop()
            if item < first:
                if right == start:  # a node is never zero-width, so something was matched
                    if suffix and suffix[0] < 0:
                        suffix = self._fill(suffix, start)
                    if evaluator is None or self._accepts(evaluator, pid, start, end, suffix):
                        alternatives.append(suffix)
                        trees += made
                    else:
                        self.constructions += 1
                continue
            sym = items.symbol[item]
            blocked = items.blocked[item]
            handle = item * stride + start
            cid = ig.next_core[end] if right is None else core_at[right]
            if items.skip[item] and handle in cores[cid].handles:
                stack.append((item - 1, right, (~sym,) + suffix, made))
            token = items.token[item]
            open_placeholders = suffix and suffix[0] < 0
            for child_id in cores[cid].preceding:
                if node_symbol[child_id] != sym:
                    continue
                child_end = node_end[child_id]
                child_start = node_start[child_id]
                if (right is None and child_end != end) or child_start < start:
                    continue
                if handle not in cores[core_at[child_start]].handles:
                    continue
                filled = self._fill(suffix, child_end) if open_placeholders else suffix
                if token:
                    leaf = leaves.get(child_id)
                    if leaf is None:
                        leaf = leaves[child_id] = len(forest)
                        lexeme = text[child_start:child_end]
                        forest.append(_make(ForestNode, (leaf, sym, child_start, child_end, None, None, lexeme)))
                        counts.append(1)
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
                for p in node_productions[child_id]:
                    if blocked and p in blocked:
                        continue
                    wanted = (child_id, p, child_context)
                    got = memo.get(wanted)
                    if got is None:
                        got = yield wanted
                    if got != _EMPTY:
                        stack.append((item - 1, child_start, (got,) + filled, made * counts[got]))

        self.constructions += len(alternatives)
        if alternatives:
            result = len(forest)
            forest.append(_make(ForestNode, (result, node_symbol[node_id], start, end, pid, tuple(alternatives), None)))
            counts.append(min(trees, COUNT_CAP))
        else:
            result = _EMPTY
        memo[key] = result
        return result

    def _accepts(self, evaluator, pid: int, start: int, end: int, alternative: tuple[int, ...]) -> bool:
        """The evaluator's verdict on one alternative of production ``pid`` over [start, end)."""
        grammar = self.grammar
        text = self.ig.input
        names = grammar.symbol_by_id
        productions = grammar.productions
        children = []
        for c in alternative:
            _id, symbol_id, cstart, cend, cpid, _alternatives, lexeme = self.nodes[c]
            label = None if cpid is None else productions[cpid].label
            children.append(NodeView(names[symbol_id].name, cstart, cend, cpid, label, (), lexeme, text[cstart:cend]))
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
    nodes, counts, constructions = expander.nodes, expander.counts, expander.constructions
    del expander  # its memo and caches go before the sweep
    nodes, counts, roots = _reachable(nodes, counts, roots)
    return EGraph(ig.input, nodes, counts, roots, constructions)


def epsilon_forest(grammar: Grammar, offset: int, input_text: str = "") -> EGraph:
    """Forest for an empty token stream: the start symbol's canonical empty tree.

    Only meaningful when the start symbol can derive the empty string; the
    parse machinery proper cannot represent zero-width roots, so this case is
    produced directly.
    """
    nodes: list[ForestNode] = []
    counts: list[int] = []
    root = _placeholder(grammar, nodes, counts, {}, grammar.start.id, offset)
    return EGraph(input_text, nodes, counts, (root,), len(nodes))


# -- forest queries -----------------------------------------------------------


class TreeCount(NamedTuple):
    total: int
    per_root: dict[int, int]
    saturated: bool


def tree_counts(eg: EGraph, cap: int = COUNT_CAP) -> TreeCount:
    """Trees held by each root: a sum over alternatives of products over children.

    Nothing is enumerated or walked: expansion kept each node's count, capped
    at ``COUNT_CAP``, in ``eg.counts``. Counts are capped at ``cap``, at most
    ``COUNT_CAP``; hitting the cap sets the saturated flag instead of
    silently overflowing. A sum of products of children capped at ``cap``
    is the true count capped at ``cap``, so the smaller cap is exact.
    """
    if cap > COUNT_CAP:
        raise ValueError(f"cap must be at most COUNT_CAP ({COUNT_CAP})")
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
    built: dict[int, tuple] = {}
    stack = [(eid, False)]
    while stack:
        nid, ready = stack.pop()
        if nid in built:
            continue
        rec = eg.nodes[nid]
        name = grammar.symbol_by_id[rec.symbol_id].name
        if rec.children is None:
            built[nid] = ("t", name, rec.start, rec.end, rec.lexeme)
        elif ready:
            children = tuple(built[c] for c in rec.children[0])
            built[nid] = ("n", name, rec.start, rec.end, rec.production_id, children)
        else:
            stack.append((nid, True))
            stack.extend((c, False) for c in rec.children[0] if c not in built)
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
    trees: list[list[tuple]] = []  # children come before their parents
    for rec in eg.nodes:
        name = names[rec.symbol_id].name
        if rec.children is None:
            trees.append([("t", name, rec.start, rec.end, rec.lexeme)])
        else:
            head = ("n", name, rec.start, rec.end, rec.production_id)
            trees.append(
                _first([(head + (kids,) for kids in product(*[trees[c] for c in alt])) for alt in rec.children], limit)
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
    nodes = []
    for rec in eg.nodes:
        entry: dict = {
            "id": rec.id,
            "symbol": grammar.symbol_by_id[rec.symbol_id].name,
            "start": rec.start,
            "end": rec.end,
        }
        if rec.children is None:
            entry["lexeme"] = rec.lexeme
        else:
            entry["production"] = rec.production_id
            entry["alternatives"] = [list(alt) for alt in rec.children]
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
    for rec in eg.nodes:
        name = grammar.symbol_by_id[rec.symbol_id].name
        if rec.children is None:
            label = f"{name}\\n{rec.lexeme.translate(escapes)}"
            shape = "ellipse"
            style = ""
        else:
            span = f"[{rec.start},{rec.end})"
            label = f"{name} {span}"
            shape = "box"
            style = ", style=dashed" if rec.start == rec.end else ""
        peripheries = ", peripheries=2" if rec.id in roots else ""
        lines.append(f'  n{rec.id} [label="{label}", shape={shape}{style}{peripheries}];')
    for rec in eg.nodes:
        alternatives = rec.children or ()
        for a, alt in enumerate(alternatives):
            parent = f"n{rec.id}"
            if len(alternatives) > 1:
                parent = f"n{rec.id}a{a}"
                lines.append(f'  {parent} [label="", shape=point];')
                lines.append(f"  n{rec.id} -> {parent};")
            for i, child in enumerate(alt):
                lines.append(f'  {parent} -> n{child} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
