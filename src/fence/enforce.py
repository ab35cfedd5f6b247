"""Expansion of the implicit parse graph into an explicit shared forest.

Each accepted implicit node is expanded into every explicit derivation that
satisfies the grammar's constraints. An explicit node fixes a production and
an ordered child list; identical subderivations are shared structurally, and
ambiguity shows up as several explicit roots (or several explicit nodes over
one implicit node deeper in the forest).

Expansion is memoized. A history of implicit nodes on the active expansion
path cuts cyclic derivations, so no (start, end, symbol) repeats on any
root-to-leaf path of an output tree. A cut makes the result context
dependent, and a naive memo would leak trees across contexts, so entries are
keyed by the node plus the active ancestors sharing its exact span: ancestor
spans always contain the node's span, hence only equal-span ancestors can
ever recur inside its derivations, and that tiny set is the entire relevant
context. A node with no such ancestor, the common case, is keyed by its id
alone. Ordinary nested ambiguity still shares one entry per node.

Expansion runs on the caller's thread without recursion: each implicit node
under expansion is a generator on an explicit stack, which hands the driver
the child expansions it needs. Input nesting depth therefore costs memory,
not interpreter frames, and parsing changes no process-wide setting.

A candidate's children are chosen left to right. At the last right-hand-side
position the child must end where the node ends, so it is looked up exactly
by (start, end, symbol) instead of searched for.

Skipped nullable positions are filled with zero-width placeholder children
carrying the symbol's canonical minimal empty derivation, so output trees
always have one child per right-hand-side position. Placeholder internals are
canonical and not subject to constraints, but a placeholder is an ordinary
child for the checks on its parent.

Associativity and composition precedence each look at one child's
production, so they are checked as each child, placeholders included, is
appended, and a candidate that would fail them is never assembled;
``EGraph.constructions`` counts the candidates that pass. Custom evaluators
see the assembled candidate and veto it before it is stored. Selection
precedence needs the sibling candidates of the same implicit node, so it
runs as a per-node post-pass: candidates are grouped by production and a
production's candidates are dropped when any preferred production kept at
least one survivor, resolved in topological order of the (acyclic,
transitively closed) preference relation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chart import IGraph
from .errors import EvaluatorError
from .grammar import ASSOC_LEFT, ASSOC_NONE, ASSOC_RIGHT, Grammar, NodeView, Production

__all__ = [
    "ExplicitNode",
    "EGraph",
    "TreeCount",
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


@dataclass(frozen=True)
class ExplicitNode:
    """One derivation step: a production applied to ordered children.

    Token leaves carry a lexeme instead of a production. Zero-width
    placeholder nodes (start == end) stand for skipped nullable symbols.
    """

    id: int
    symbol_id: int
    start: int
    end: int
    production_id: int | None
    children: tuple[int, ...] | None
    lexeme: str | None


@dataclass
class EGraph:
    """The explicit parse forest: deduplicated nodes plus accepted roots."""

    input: str
    nodes: list[ExplicitNode]
    roots: tuple[int, ...]
    constructions: int


class _Expander:
    def __init__(self, grammar: Grammar, ig: IGraph, enforce: bool):
        self.grammar = grammar
        self.ig = ig
        self.input = ig.input
        self.enforce = enforce
        self.records: list[ExplicitNode] = []
        self.ids: dict[tuple, int] = {}
        self.memo: dict[int | tuple[int, frozenset[int]], tuple[int, ...]] = {}
        # the implicit nodes under expansion, by span
        self.context: dict[tuple[int, int], frozenset[int]] = {}
        self.constructions = 0
        self._leaves: dict[int, tuple[int]] = {}
        self._markers: dict[tuple[int, int], int] = {}
        self._views: dict[int, NodeView] = {}
        self._blocks: dict[int, tuple[frozenset[int], ...]] = {}

    # -- node store ----------------------------------------------------------

    def _leaf(self, node) -> tuple[int]:
        """The one-element expansion of a token node."""
        got = self._leaves.get(node.id)
        if got is None:
            eid = len(self.records)
            self.records.append(
                ExplicitNode(
                    eid, node.symbol_id, node.start, node.end, None, None,
                    self.input[node.start : node.end],
                )
            )
            got = self._leaves[node.id] = (eid,)
        return got

    def _intern(self, symbol_id: int, start: int, end: int, pid: int, children: tuple[int, ...]) -> int:
        key = (symbol_id, start, end, pid, children)
        got = self.ids.get(key)
        if got is None:
            got = len(self.records)
            self.ids[key] = got
            self.records.append(ExplicitNode(got, symbol_id, start, end, pid, children, None))
        return got

    def _marker(self, symbol_id: int, offset: int) -> int:
        key = (symbol_id, offset)
        got = self._markers.get(key)
        if got is None:
            got = self._build_marker(self.grammar.epsilon_derivations[symbol_id], symbol_id, offset)
            self._markers[key] = got
        return got

    def _build_marker(self, skeleton: tuple, symbol_id: int, offset: int) -> int:
        pid, child_skeletons = skeleton
        p = self.grammar.productions[pid]
        children = tuple(
            self._build_marker(sk, sym.id, offset)
            for sk, sym in zip(child_skeletons, p.rhs)
        )
        return self._intern(symbol_id, offset, offset, pid, children)

    # -- expansion -----------------------------------------------------------

    def expand(self, node_id: int) -> tuple[int, ...]:
        """Candidates of an accepted root, expanded with no ancestor active.

        One ``_derive`` generator stands for each implicit node under
        expansion, innermost last; the loop resumes the innermost one with
        the expansion it asked for, so nesting depth costs no interpreter
        frames.
        """
        got = self.memo.get(node_id)
        if got is not None:
            return got
        open_nodes = [self._derive(node_id, node_id)]
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
                open_nodes.append(self._derive(key if type(key) is int else key[0], key))
                value = None

    def _derive(self, node_id: int, key: int | tuple[int, frozenset[int]]):
        """Generator expanding one nonterminal node; memoizes and returns its candidates.

        It yields the memo key of each child expansion the memo lacks and is
        resumed with that expansion. A candidate's right-hand side is filled
        left to right, depth first, from an explicit stack of partial child
        tuples, so candidates come out in the order of their choices: the
        placeholder first, then children by end offset, then each child's
        own candidates in order.
        """
        grammar = self.grammar
        ig = self.ig
        nodes = ig.nodes
        node_ids = ig.node_ids
        by_start_sym = ig.by_start_sym
        next_position = ig.next_position
        eps = grammar.epsilon_ids
        records = self.records
        memo = self.memo
        enforce = self.enforce
        node = nodes[node_id]
        start, end = node.start, node.end
        span = (start, end)
        outer = self.context.get(span)
        context = self.context[span] = (outer or frozenset()) | {node_id}

        prods = grammar.productions_by_lhs[node.symbol_id]
        candidates: dict[int, list[int]] = {}
        for p in prods:
            out = candidates[p.id] = []
            rhs = grammar.rhs_ids[p.id]
            if not rhs:
                continue  # implicit nodes are never zero-width
            last = len(rhs) - 1
            blocks = self._position_blocks(p) if enforce else None
            evaluator = grammar.constraints.custom.get(p.id) if enforce else None
            stack = [(0, start, start, ())]
            while stack:
                pos, cursor, offset, children = stack.pop()
                # (child candidate, its end, next token offset), each passing
                # the checks that concern this position alone
                options = []
                sym = rhs[pos]
                blocked = blocks[pos] if blocks else None
                if sym in eps and (pos < last or cursor == end):
                    marker = self._marker(sym, cursor)
                    if not blocked or records[marker].production_id not in blocked:
                        options.append((marker, cursor, offset))
                if pos == last:
                    found = node_ids.get((offset, end, sym))
                    kids = () if found is None else (found,)
                else:
                    kids = by_start_sym.get((offset, sym), ())
                for child_id in kids:
                    child = nodes[child_id]
                    if child.end > end:
                        break
                    if child.is_token:
                        subs = self._leaf(child)
                    else:
                        # Ancestors span at least this node, so only a child
                        # of the same span can meet one again.
                        if child.start != start or child.end != end:
                            child_key = child_id
                        elif child_id in context:
                            continue  # cyclic re-entry contributes nothing on this path
                        else:
                            child_key = (child_id, context)
                        subs = memo.get(child_key)
                        if subs is None:
                            subs = yield child_key
                    after = next_position[child.end]
                    for sub in subs:
                        if not blocked or records[sub].production_id not in blocked:
                            options.append((sub, child.end, after))
                if pos < last:
                    nxt = pos + 1
                    stack.extend([(nxt, c, o, children + (sub,)) for sub, c, o in reversed(options)])
                    continue
                for sub, _c, _o in options:
                    # Distinct choices give distinct child tuples: children
                    # differ in span, or in production or children below.
                    complete = children + (sub,)
                    self.constructions += 1
                    if evaluator is not None and not self._evaluate(p, node, complete, evaluator):
                        continue
                    out.append(self._intern(node.symbol_id, start, end, p.id, complete))

        if enforce and grammar.has_selection:
            for pid in grammar.selection_order_by_lhs[node.symbol_id]:
                if candidates.get(pid) and any(
                    candidates.get(q) for q in grammar.preferred_over.get(pid, ())
                ):
                    candidates[pid] = []
        result = tuple(eid for p in prods for eid in candidates[p.id])
        if outer is None:
            del self.context[span]
        else:
            self.context[span] = outer
        memo[key] = result
        return result

    # -- constraint checks -----------------------------------------------------

    def _position_blocks(self, p: Production) -> tuple[frozenset[int], ...]:
        """Per right-hand-side position, the productions a child there may not have.

        Composition precedence blocks the same productions everywhere;
        associativity adds ``p`` itself at the last position (left, none) and
        at the first (right, none).
        """
        got = self._blocks.get(p.id)
        if got is None:
            blocked = self.grammar.composition_blocks.get(p.id, frozenset())
            direction = self.grammar.constraints.associativity.get(p.id)
            last = len(p.rhs) - 1
            positions = []
            for i in range(len(p.rhs)):
                edge = (i == last and direction in (ASSOC_LEFT, ASSOC_NONE)) or (
                    i == 0 and direction in (ASSOC_RIGHT, ASSOC_NONE)
                )
                positions.append(blocked | {p.id} if edge else blocked)
            got = self._blocks[p.id] = tuple(positions)
        return got

    def _evaluate(self, p: Production, node, children: tuple[int, ...], evaluator) -> bool:
        view = NodeView(
            symbol=p.lhs.name,
            start=node.start,
            end=node.end,
            production=p.id,
            label=p.label,
            children=tuple(self._view(c) for c in children),
            lexeme=None,
            text=self.input[node.start : node.end],
        )
        try:
            return bool(evaluator(view))
        except Exception as exc:
            raise EvaluatorError(p.id, p.label, exc) from exc

    def _view(self, eid: int) -> NodeView:
        views = self._views
        stack = [(eid, False)]
        while stack:
            nid, ready = stack.pop()
            if nid in views:
                continue
            rec = self.records[nid]
            if rec.children and not ready:
                stack.append((nid, True))
                stack.extend((c, False) for c in rec.children if c not in views)
                continue
            production = label = None
            if rec.production_id is not None:
                prod = self.grammar.productions[rec.production_id]
                production, label = prod.id, prod.label
            views[nid] = NodeView(
                symbol=self.grammar.symbol_by_id[rec.symbol_id].name,
                start=rec.start,
                end=rec.end,
                production=production,
                label=label,
                children=tuple(views[c] for c in rec.children or ()),
                lexeme=rec.lexeme,
                text=self.input[rec.start : rec.end],
            )
        return views[eid]


def _collect(records: list[ExplicitNode], roots: tuple[int, ...]) -> tuple[list[ExplicitNode], tuple[int, ...]]:
    """Keep the nodes reachable from the roots, renumbered in preorder."""
    remap: dict[int, int] = {}
    order: list[int] = []
    stack = list(reversed(roots))
    while stack:
        eid = stack.pop()
        if eid in remap:
            continue
        remap[eid] = len(order)
        order.append(eid)
        children = records[eid].children
        if children:
            stack.extend(reversed(children))
    kept = []
    for new_id, old in enumerate(order):
        rec = records[old]
        children = (
            tuple(remap[c] for c in rec.children) if rec.children is not None else None
        )
        kept.append(
            ExplicitNode(
                new_id, rec.symbol_id, rec.start, rec.end, rec.production_id, children, rec.lexeme
            )
        )
    return kept, tuple(remap[r] for r in roots)


def expand_forest(grammar: Grammar, ig: IGraph, enforce_constraints: bool = True) -> EGraph:
    """Expand the accepted implicit roots into the explicit forest.

    With ``enforce_constraints`` off, every derivation survives; the result is
    the raw ambiguity of the grammar over the input.
    """
    expander = _Expander(grammar, ig, enforce_constraints)
    # Roots of different starting nodes differ in span, and one node's
    # candidates differ in production or children, so none repeats.
    roots = tuple(eid for node_id in sorted(ig.starting) for eid in expander.expand(node_id))
    nodes, new_roots = _collect(expander.records, roots)
    return EGraph(ig.input, nodes, new_roots, expander.constructions)


def epsilon_forest(grammar: Grammar, offset: int, input_text: str = "") -> EGraph:
    """Forest for an empty token stream: the start symbol's canonical empty tree.

    Only meaningful when the start symbol can derive the empty string; the
    parse machinery proper cannot represent zero-width roots, so this case is
    produced directly.
    """
    records: list[ExplicitNode] = []

    def build(skeleton: tuple, symbol_id: int) -> int:
        pid, child_skeletons = skeleton
        p = grammar.productions[pid]
        children = tuple(build(sk, sym.id) for sk, sym in zip(child_skeletons, p.rhs))
        eid = len(records)
        records.append(ExplicitNode(eid, symbol_id, offset, offset, pid, children, None))
        return eid

    root = build(grammar.epsilon_derivations[grammar.start.id], grammar.start.id)
    nodes, roots = _collect(records, (root,))
    return EGraph(input_text, nodes, roots, len(records))


# -- forest queries -----------------------------------------------------------


@dataclass(frozen=True)
class TreeCount:
    total: int
    per_root: dict[int, int]
    saturated: bool


def tree_counts(eg: EGraph, cap: int = COUNT_CAP) -> TreeCount:
    """Trees reachable from each root, by dynamic programming over the shared forest.

    Counts are capped at ``cap``; hitting the cap sets the saturated flag
    instead of silently overflowing.
    """
    counts: dict[int, int] = {}
    saturated = False
    for root in eg.roots:
        stack = [(root, False)]
        while stack:
            eid, ready = stack.pop()
            if eid in counts:
                continue
            children = eg.nodes[eid].children
            if not children:
                counts[eid] = 1
            elif ready:
                total = 1
                for child in children:
                    total *= counts[child]
                    if total > cap:
                        total = cap
                        break
                counts[eid] = total
            else:
                stack.append((eid, True))
                stack.extend((c, False) for c in children if c not in counts)

    per_root: dict[int, int] = {}
    total = 0
    for root in eg.roots:
        per_root[root] = counts[root]
        total += per_root[root]
        if per_root[root] >= cap or total > cap:
            saturated = True
            total = min(total, cap)
    return TreeCount(total, per_root, saturated)


def canonical_tree(eg: EGraph, grammar: Grammar, eid: int) -> tuple:
    """Canonical nested-tuple form of one tree, comparable across implementations.

    Leaves are ("t", symbol, start, end, lexeme); interior nodes are
    ("n", symbol, start, end, production id, (children...)).
    """
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
            children = tuple(built[c] for c in rec.children)
            built[nid] = ("n", name, rec.start, rec.end, rec.production_id, children)
        else:
            stack.append((nid, True))
            stack.extend((c, False) for c in rec.children if c not in built)
    return built[eid]


def enumerate_trees(eg: EGraph, grammar: Grammar, limit: int) -> list[tuple]:
    """Trees of the forest in canonical order, up to ``limit``."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    trees = sorted(canonical_tree(eg, grammar, r) for r in eg.roots)
    return trees[:limit]


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
    """Structured document for the forest, including per-root tree counts."""
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
            entry["children"] = list(rec.children)
        nodes.append(entry)
    doc = {
        "nodes": nodes,
        "roots": list(eg.roots),
        "treeCounts": {str(r): counts.per_root[r] for r in eg.roots},
    }
    if counts.saturated:
        doc["treeCountsSaturated"] = True
    return doc


def egraph_to_dot(eg: EGraph, grammar: Grammar) -> str:
    """Graphviz rendering: squares for nonterminal nodes, ovals for tokens."""
    lines = ["digraph forest {"]
    roots = set(eg.roots)
    for rec in eg.nodes:
        name = grammar.symbol_by_id[rec.symbol_id].name
        if rec.children is None:
            label = f"{name}\\n{rec.lexeme}"
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
        for i, child in enumerate(rec.children or ()):
            lines.append(f'  n{rec.id} -> n{child} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
