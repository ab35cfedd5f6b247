"""Brute-force reference parser used by tests and acceptance runs.

This module defines ground truth at desk scale, independently of the chart
and expansion machinery: it extracts every full token path from the lattice
and enumerates all derivations of each path by naive top-down search. A
derivation never repeats a (symbol, span) pair on one root-to-leaf path,
which makes "all derivations" a finite, well-defined set even for cyclic
production sets; skipped nullable positions expand to the same canonical
zero-width placeholders the main pipeline emits.

Trees are canonical nested tuples: ("t", symbol, start, end, lexeme) for
leaves and ("n", symbol, start, end, production id, (children...)) for
interior nodes, directly comparable with the main pipeline's output.

Only the grammar and lattice layers are shared with the engine under test;
nothing here touches the chart or the forest expander. Exponential behavior
is acceptable, so explicit bounds keep runs finite.
"""

from __future__ import annotations

import weakref
from collections import namedtuple

from .errors import EvaluatorError, FenceError
from .grammar import ASSOC_LEFT, ASSOC_NONE, ASSOC_RIGHT, Grammar, NodeView
from .lexgraph import LAGraph, enumerate_token_paths

__all__ = ["OracleBounds", "OracleLimitError", "oracle_parse_all", "oracle_filter"]


class OracleLimitError(FenceError):
    """The instance exceeds the oracle's bounds (distinct from a rejection)."""


class OracleBounds(namedtuple("OracleBounds", "max_paths max_depth max_work", defaults=(500, 80, 2_000_000))):
    """The oracle's limits; ``max_work`` counts the nodes assembled across the whole run."""

    __slots__ = ()


_marker_caches: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _marker_tree(grammar: Grammar, symbol_id: int, offset: int) -> tuple:
    """The canonical zero-width tree of ``symbol_id`` at ``offset``.

    Built children first from an explicit stack, so a long nullable chain
    costs no interpreter frames.
    """
    cache = _marker_caches.get(grammar)
    if cache is None:
        cache = {}
        _marker_caches[grammar] = cache
    stack = [symbol_id]
    while stack:
        sym = stack[-1]
        if (sym, offset) in cache:
            stack.pop()
            continue
        pid = grammar.epsilon_production[sym]
        rhs = [s.id for s in grammar.productions[pid].rhs]
        missing = [s for s in rhs if (s, offset) not in cache]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        children = tuple(cache[s, offset] for s in rhs)
        cache[sym, offset] = ("n", grammar.symbol_by_id[sym].name, offset, offset, pid, children)
    return cache[symbol_id, offset]


def _reach_terminals(grammar: Grammar) -> frozenset[int]:
    """Symbols from which some terminal is reachable through right-hand sides.

    No other symbol derives a non-empty string, so the search tries those
    on empty spans only, as skipped nullable positions.
    """
    users: dict[int, list[int]] = {}
    for p in grammar.productions:
        for s in p.rhs:
            users.setdefault(s.id, []).append(p.lhs.id)
    found = {s.id for s in grammar.symbol_by_id.values() if s.is_terminal}
    stack = list(found)
    while stack:
        for lhs in users.get(stack.pop(), ()):
            if lhs not in found:
                found.add(lhs)
                stack.append(lhs)
    return frozenset(found)


def oracle_parse_all(
    grammar: Grammar, la: LAGraph, bounds: OracleBounds = OracleBounds()
) -> frozenset[tuple]:
    """Every cycle-free derivation of every full token path, unconstrained."""
    if not la.nodes:
        if grammar.start.id in grammar.epsilon_ids:
            return frozenset({_marker_tree(grammar, grammar.start.id, la.content_start)})
        return frozenset()
    paths = enumerate_token_paths(la, bounds.max_paths + 1)
    if len(paths) > bounds.max_paths:
        raise OracleLimitError(f"more than {bounds.max_paths} token paths")
    eps = grammar.epsilon_ids
    solid = _reach_terminals(grammar)
    names = grammar.symbol_by_id
    out: set[tuple] = set()
    work = [0]

    def spend(amount: int) -> None:
        work[0] += amount
        if work[0] > bounds.max_work:
            raise OracleLimitError(f"work exceeds {bounds.max_work} assembled nodes")

    for path in paths:
        tokens = [la.nodes[i] for i in path]
        # Identical calls recur constantly inside product enumeration. The
        # result of a derivation depends only on the history entries covering
        # the same token range (an ancestor's range always contains this one,
        # so only equal ranges can recur inside), which makes caching on that
        # small context both sound and effective.
        cache: dict[tuple, list[tuple]] = {}

        def derive(symbol_id: int, i: int, j: int, hist: frozenset, depth: int) -> list[tuple]:
            if depth > bounds.max_depth:
                raise OracleLimitError(f"derivation depth exceeds {bounds.max_depth}")
            key = (symbol_id, i, j)
            if key in hist:
                return []
            context = (key, frozenset(h for h in hist if h[1] == i and h[2] == j))
            cached = cache.get(context)
            if cached is not None:
                return cached
            hist = hist | {key}
            span_start = tokens[i].start
            span_end = tokens[j - 1].end
            trees: list[tuple] = []
            for p in grammar.productions_by_lhs.get(symbol_id, ()):
                rhs = p.rhs

                def match(pos: int, k: int, cursor: int) -> list[list[tuple]]:
                    if pos == len(rhs):
                        return [[]] if k == j else []
                    sym = rhs[pos]
                    res: list[list[tuple]] = []
                    if sym.id in eps:
                        marker = _marker_tree(grammar, sym.id, cursor)
                        res.extend([marker] + rest for rest in match(pos + 1, k, cursor))
                    if sym.is_terminal:
                        if k < j and tokens[k].symbol_id == sym.id:
                            t = tokens[k]
                            leaf = ("t", names[t.symbol_id].name, t.start, t.end, t.lexeme)
                            res.extend(
                                [leaf] + rest for rest in match(pos + 1, k + 1, t.end)
                            )
                    elif sym.id in solid:
                        for k2 in range(k + 1, j + 1):
                            subs = derive(sym.id, k, k2, hist, depth + 1)
                            if not subs:
                                continue
                            rests = match(pos + 1, k2, tokens[k2 - 1].end)
                            res.extend([sub] + rest for sub in subs for rest in rests)
                    spend(len(res))
                    return res

                for children in match(0, i, span_start):
                    trees.append(
                        ("n", names[symbol_id].name, span_start, span_end, p.id, tuple(children))
                    )
            cache[context] = trees
            return trees

        out.update(derive(grammar.start.id, 0, len(tokens), frozenset(), 0))
    return frozenset(out)


# -- constraint filtering ------------------------------------------------------


def _local_ok(
    grammar: Grammar, pid: int, span: tuple[int, int], children: tuple, input_text: str
) -> bool:
    """Associativity, composition precedence, and custom checks on one node."""

    def production_of(tree: tuple) -> int | None:
        return tree[4] if tree[0] == "n" else None

    constraints = grammar.constraints
    p = grammar.productions[pid]
    direction = constraints.associativity.get(pid)
    if direction is not None and children:
        if direction in (ASSOC_LEFT, ASSOC_NONE) and production_of(children[-1]) == pid:
            return False
        if direction in (ASSOC_RIGHT, ASSOC_NONE) and production_of(children[0]) == pid:
            return False
    blocked = grammar.composition_blocks.get(pid)
    if blocked and any(production_of(c) in blocked for c in children):
        return False
    evaluator = constraints.custom.get(pid)
    if evaluator is not None:
        # one level, as the forest shows it: the children's own children are left out
        views = tuple(_tree_view(grammar, c, input_text) for c in children)
        view = _tree_view(grammar, ("n", p.lhs.name, span[0], span[1], pid, children), input_text, views)
        try:
            verdict = evaluator(view)
        except Exception as exc:
            raise EvaluatorError(pid, p.label, exc) from exc
        if not verdict:
            return False
    return True


def _tree_view(grammar: Grammar, tree: tuple, input_text: str, children: tuple = ()) -> NodeView:
    """The evaluator's view of ``tree``'s own node, with ``children`` as its child views."""
    if tree[0] == "t":
        _tag, symbol, start, end, lexeme = tree
        return NodeView(symbol, start, end, None, None, (), lexeme, lexeme)
    _tag, symbol, start, end, pid, _children = tree
    p = grammar.productions[pid]
    return NodeView(symbol, start, end, pid, p.label, children, None, input_text[start:end])


def _tree_passes_local(grammar: Grammar, tree: tuple, input_text: str) -> bool:
    if tree[0] == "t":
        return True
    _tag, _symbol, start, end, pid, children = tree
    if start == end:
        return True  # canonical zero-width placeholder, exempt inside
    if not _local_ok(grammar, pid, (start, end), children, input_text):
        return False
    return all(_tree_passes_local(grammar, c, input_text) for c in children)


class _LatticeFilter:
    """Surviving-derivation evaluator over the lattice, for selection precedence.

    Selection compares the alternative derivations of one parse node, which
    may come from different tokenizations of the same span, so the filter
    re-derives candidates over the whole lattice rather than over single
    trees. The recursion mirrors the forest expander's semantics: a history of
    (symbol, span) pairs cuts cycles, candidates for one node are grouped by
    production, and a production's candidates are dropped when a preferred
    production kept a survivor.
    """

    def __init__(self, grammar: Grammar, la: LAGraph):
        self.grammar = grammar
        self.la = la
        self.input = la.input
        self.tokens_at: dict[int, list] = {}
        for t in la.nodes:
            self.tokens_at.setdefault(t.start, []).append(t)
        self.next_position = la.next_position  # read once: the lattice makes a new view on each access
        self._segment_ends: dict[int, tuple[int, ...]] = {}
        self._cache: dict[tuple, list[tuple]] = {}
        self._solid = _reach_terminals(grammar)

    def segment_ends(self, offset: int) -> tuple[int, ...]:
        got = self._segment_ends.get(offset)
        if got is None:
            ends: set[int] = set()
            for t in self.tokens_at.get(offset, ()):
                ends.add(t.end)
                nxt = self.la.node_next[t.id]
                if nxt < len(self.la.input):
                    ends.update(self.segment_ends(nxt))
            got = tuple(sorted(ends))
            self._segment_ends[offset] = got
        return got

    def surviving(self, symbol_id: int, start: int, end: int, hist: frozenset) -> list[tuple]:
        name = self.grammar.symbol_by_id[symbol_id].name
        key = (symbol_id, start, end)
        if key in hist:
            return []
        # Same-span context keying, as in the unconstrained enumeration.
        context = (key, frozenset(h for h in hist if h[1] == start and h[2] == end))
        cached = self._cache.get(context)
        if cached is not None:
            return cached
        hist = hist | {key}
        candidates: dict[int, list[tuple]] = {}
        prods = self.grammar.productions_by_lhs.get(symbol_id, ())
        for p in prods:
            candidates[p.id] = [
                ("n", name, start, end, p.id, tuple(children))
                for children in self._match(p, 0, start, start, end, hist)
                if _local_ok(self.grammar, p.id, (start, end), tuple(children), self.input)
            ]
        # A production q preferred over p has strictly fewer productions preferred
        # over it than p has, so visiting by that count settles q before p.
        preferred_over = self.grammar.preferred_over
        for pid in sorted(candidates, key=lambda p: len(preferred_over.get(p, ()))):
            if candidates[pid] and any(candidates.get(q) for q in preferred_over.get(pid, ())):
                candidates[pid] = []
        out = [tree for p in prods for tree in candidates[p.id]]
        self._cache[context] = out
        return out

    def _match(
        self, p, pos: int, offset: int, cursor: int, limit_end: int, hist: frozenset
    ) -> list[list[tuple]]:
        rhs = p.rhs
        if pos == len(rhs):
            return [[]] if cursor == limit_end else []
        sym = rhs[pos]
        res: list[list[tuple]] = []
        if sym.id in self.grammar.epsilon_ids:
            marker = _marker_tree(self.grammar, sym.id, cursor)
            res.extend(
                [marker] + rest
                for rest in self._match(p, pos + 1, offset, cursor, limit_end, hist)
            )
        if sym.is_terminal:
            for t in self.tokens_at.get(offset, ()):
                if t.symbol_id == sym.id and t.end <= limit_end:
                    leaf = ("t", self.grammar.symbol_by_id[t.symbol_id].name, t.start, t.end, t.lexeme)
                    nxt = self.la.node_next[t.id]
                    res.extend(
                        [leaf] + rest
                        for rest in self._match(p, pos + 1, nxt, t.end, limit_end, hist)
                    )
        elif sym.id in self._solid:
            for seg_end in self.segment_ends(offset):
                if seg_end > limit_end:
                    break
                subs = self.surviving(sym.id, offset, seg_end, hist)
                if not subs:
                    continue
                nxt = self.next_position[seg_end]
                rests = self._match(p, pos + 1, nxt, seg_end, limit_end, hist)
                res.extend([sub] + rest for sub in subs for rest in rests)
        return res


def oracle_filter(
    trees, grammar: Grammar, la: LAGraph | None = None
) -> frozenset[tuple]:
    """Apply the constraint rules to complete trees, as a post-filter.

    Associativity, composition precedence, and custom evaluators are checked
    node by node. Selection precedence compares alternatives of one parse
    node across the whole lattice, so filtering a grammar that declares it
    requires ``la``.
    """
    trees = frozenset(trees)
    if grammar.constraints.empty:
        return trees
    if not grammar.constraints.selection:
        text = la.input if la is not None else ""
        return frozenset(t for t in trees if _tree_passes_local(grammar, t, text))
    if la is None:
        raise ValueError("selection precedence filtering requires the token lattice")
    if not la.nodes:
        return trees  # a lone zero-width root has no competing alternatives
    flt = _LatticeFilter(grammar, la)
    survivors_by_span: dict[tuple, frozenset] = {}
    out = []
    for t in trees:
        span = (t[1], t[2], t[3])
        if span not in survivors_by_span:
            sym = grammar.symbol(t[1])
            survivors_by_span[span] = frozenset(
                flt.surviving(sym.id, t[2], t[3], frozenset())
            )
        if t in survivors_by_span[span]:
            out.append(t)
    return frozenset(out)
