"""All-matches lexer producing a lexical analysis graph (token lattice).

Instead of committing to one tokenization, the lexer records every token any
definition can match at every reachable offset and links each token to every
token that can start where it ends (after consuming the inter-token skip
pattern). Paths through the resulting graph are the candidate tokenizations
of the input. ``prune_la_graph`` is the one place where branches that cannot
reach the end of the input are dropped, for lexed and loaded lattices alike.

Per token definition, a single match is kept at a given offset, with the
match extent decided by the definition's regex (greedy quantifiers yield the
longest match). Distinct definitions matching at the same offset all coexist,
which is where lexical ambiguity enters the graph. Tokens are never
zero-width and the skip pattern is consumed only between tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FenceError
from .grammar import Grammar

__all__ = [
    "TokenNode",
    "LAGraph",
    "TokenizationError",
    "LatticeFormatError",
    "tokenize",
    "enumerate_token_paths",
    "prune_la_graph",
    "serialize_la_graph",
    "load_la_graph",
]


class TokenizationError(FenceError):
    """No sequence of tokens spans the whole input."""

    def __init__(self, furthest: int):
        self.furthest = furthest
        super().__init__(f"cannot tokenize the input beyond offset {furthest}")


class LatticeFormatError(FenceError):
    """A lexical analysis graph document violates its schema or invariants."""


@dataclass(frozen=True)
class TokenNode:
    id: int
    symbol_id: int
    start: int
    end: int
    lexeme: str
    preceding: tuple[int, ...]
    following: tuple[int, ...]


@dataclass(frozen=True)
class LAGraph:
    """A token lattice over one input string, pruned by ``prune_la_graph``.

    ``next_position`` maps each token end offset to the offset where the next
    token may start (after skip consumption); ``content_start`` is that offset
    for the beginning of the input. ``starting`` lists the nodes with no
    predecessor, of which there may be several.
    """

    input: str
    nodes: tuple[TokenNode, ...]
    starting: tuple[int, ...]
    next_position: dict[int, int] = field(repr=False)
    content_start: int = 0

    def is_final(self, node: TokenNode) -> bool:
        return self.next_position[node.end] == len(self.input)

    @property
    def final_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if self.is_final(n))


def _skip_from(grammar: Grammar, text: str, pos: int) -> int:
    if grammar.skip_re is not None:
        m = grammar.skip_re.match(text, pos)
        if m and m.end() > pos:
            return m.end()
    return pos


def tokenize(grammar: Grammar, text: str) -> LAGraph:
    """Build the lexical analysis graph for ``text``.

    Every match at every offset reachable from the start becomes a token of a
    raw lattice, linked to all tokens at its next position, and the result is
    that lattice after ``prune_la_graph``. Raises :class:`TokenizationError`
    when no token path spans the input, reporting the furthest offset reached.
    An input consisting solely of skip characters (or nothing) yields an
    empty graph.
    """
    if not grammar.token_defs:
        raise TokenizationError(0)
    n = len(text)
    start_pos = _skip_from(grammar, text, 0)
    if start_pos == n:
        return LAGraph(text, (), (), {}, start_pos)

    raw: list[tuple[int, int, int]] = []
    next_position: dict[int, int] = {}
    explored: set[int] = set()
    stack = [start_pos]
    furthest = start_pos
    while stack:
        pos = stack.pop()
        if pos in explored or pos >= n:
            continue
        explored.add(pos)
        furthest = max(furthest, pos)
        for td in grammar.token_defs:
            m = td.regex.match(text, pos)
            if m is None or m.end() == pos:
                continue
            end = m.end()
            furthest = max(furthest, end)
            raw.append((pos, end, td.symbol.id))
            if end not in next_position:
                next_position[end] = _skip_from(grammar, text, end)
            stack.append(next_position[end])
    raw.sort()

    by_start: dict[int, list[int]] = {}
    by_next: dict[int, list[int]] = {}
    for i, (s, e, _sym) in enumerate(raw):
        by_start.setdefault(s, []).append(i)
        by_next.setdefault(next_position[e], []).append(i)
    nodes = []
    for i, (s, e, sym) in enumerate(raw):
        preceding = tuple(by_next.get(s, ()))
        following = tuple(by_start.get(next_position[e], ()))
        nodes.append(TokenNode(i, sym, s, e, text[s:e], preceding, following))
    starting = tuple(by_start.get(start_pos, ()))
    graph = prune_la_graph(LAGraph(text, tuple(nodes), starting, next_position, start_pos))
    if not graph.nodes:
        raise TokenizationError(furthest)
    return graph


def enumerate_token_paths(graph: LAGraph, limit: int) -> list[tuple[int, ...]]:
    """Distinct start-to-end paths, lexicographic by node id, up to ``limit``.

    This is the inefficient baseline a lattice exists to avoid; it is kept as
    a reference for tests and diagnostics. The walk keeps one iterator per
    path position on an explicit stack, so path length is not bounded by the
    recursion limit.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    # stack[k] yields the candidates for path position k
    stack = [iter(sorted(graph.starting))]
    while stack:
        node_id = next(stack[-1], None)
        if node_id is None:
            stack.pop()
            if path:
                path.pop()
            continue
        path.append(node_id)
        following = graph.nodes[node_id].following
        if following:
            stack.append(iter(sorted(following)))
            continue
        out.append(tuple(path))
        if len(out) >= limit:
            break
        path.pop()
    return out


def prune_la_graph(graph: LAGraph) -> LAGraph:
    """Drop nodes that lie on no full start-to-end path; idempotent.

    This is the lattice's only pruner: ``tokenize`` and ``load_la_graph`` both
    build an unpruned lattice and pass it here. A lattice that loses no node
    is returned as it is, since renumbering would be the identity.
    """
    n = len(graph.input)
    alive: set[int] = set()
    order = sorted(graph.nodes, key=lambda t: t.start, reverse=True)
    for node in order:
        if graph.next_position[node.end] == n or any(f in alive for f in node.following):
            alive.add(node.id)
    reachable: set[int] = set()
    stack = [i for i in graph.starting if i in alive]
    while stack:
        i = stack.pop()
        if i in reachable:
            continue
        reachable.add(i)
        for f in graph.nodes[i].following:
            if f in alive:
                stack.append(f)
    if len(reachable) == len(graph.nodes):
        return graph
    keep = sorted(reachable)
    remap = {old: new for new, old in enumerate(keep)}
    nodes = []
    for old in keep:
        t = graph.nodes[old]
        nodes.append(
            TokenNode(
                remap[old],
                t.symbol_id,
                t.start,
                t.end,
                t.lexeme,
                tuple(remap[p] for p in t.preceding if p in remap),
                tuple(remap[f] for f in t.following if f in remap),
            )
        )
    starting = tuple(remap[i] for i in graph.starting if i in remap)
    next_position = {t.end: graph.next_position[t.end] for t in nodes}
    return LAGraph(graph.input, tuple(nodes), starting, next_position, graph.content_start)


def serialize_la_graph(graph: LAGraph, grammar: Grammar) -> dict:
    """Loss-free structured document for a lattice (see ``load_la_graph``)."""
    return {
        "input": graph.input,
        "nodes": [
            {
                "id": t.id,
                "symbol": grammar.symbol_by_id[t.symbol_id].name,
                "start": t.start,
                "end": t.end,
                "preceding": sorted(t.preceding),
                "following": sorted(t.following),
            }
            for t in graph.nodes
        ],
        "starting": sorted(graph.starting),
    }


def load_la_graph(doc: dict, grammar: Grammar) -> LAGraph:
    """Rebuild and re-validate a lattice from its document form.

    Checks the schema, symbol references, token spans, link symmetry, and
    positional adjacency (a follower must start where its predecessor's skip
    run ends), then prunes dead branches. A document whose tokens leave no
    full path over an input with content is rejected, as ``tokenize`` rejects
    such an input; only a skip-only input loads as the empty lattice.
    """
    if not isinstance(doc, dict) or "input" not in doc or "nodes" not in doc:
        raise LatticeFormatError("document must be an object with 'input' and 'nodes'")
    text = doc["input"]
    if not isinstance(text, str):
        raise LatticeFormatError("'input' must be a string")
    raw_nodes = doc["nodes"]
    seen_ids: set[int] = set()
    for entry in raw_nodes:
        for key in ("id", "symbol", "start", "end", "preceding", "following"):
            if key not in entry:
                raise LatticeFormatError(f"node entry missing {key!r}")
        if entry["id"] in seen_ids:
            raise LatticeFormatError(f"duplicate node id {entry['id']}")
        seen_ids.add(entry["id"])
    remap = {old: new for new, old in enumerate(sorted(seen_ids))}

    nodes: list[TokenNode] = []
    for entry in sorted(raw_nodes, key=lambda e: e["id"]):
        name = entry["symbol"]
        sym = grammar.symbols.get(name)
        if sym is None or not sym.is_terminal:
            raise LatticeFormatError(f"symbol {name!r} is not a token of this grammar")
        start, end = entry["start"], entry["end"]
        if not (0 <= start < end <= len(text)):
            raise LatticeFormatError(
                f"token {entry['id']} has an invalid span [{start}, {end})"
            )
        for ref in (*entry["preceding"], *entry["following"]):
            if ref not in remap:
                raise LatticeFormatError(f"token {entry['id']} links to unknown node {ref}")
        nodes.append(
            TokenNode(
                remap[entry["id"]],
                sym.id,
                start,
                end,
                text[start:end],
                tuple(sorted(remap[p] for p in entry["preceding"])),
                tuple(sorted(remap[f] for f in entry["following"])),
            )
        )

    for t in nodes:
        for f in t.following:
            if t.id not in nodes[f].preceding:
                raise LatticeFormatError(
                    f"asymmetric link: node {t.id} lists {f} as following, "
                    f"but {f} does not list {t.id} as preceding"
                )
        for p in t.preceding:
            if t.id not in nodes[p].following:
                raise LatticeFormatError(
                    f"asymmetric link: node {t.id} lists {p} as preceding, "
                    f"but {p} does not list {t.id} as following"
                )

    next_position = {t.end: _skip_from(grammar, text, t.end) for t in nodes}
    for t in nodes:
        for f in t.following:
            if nodes[f].start != next_position[t.end]:
                raise LatticeFormatError(
                    f"nodes {t.id} and {f} are linked but not adjacent in the input"
                )

    content_start = _skip_from(grammar, text, 0)
    declared = tuple(sorted(remap[i] for i in doc.get("starting", ())))
    derived = tuple(t.id for t in nodes if not t.preceding)
    if declared != derived:
        raise LatticeFormatError(
            "declared starting nodes do not match the nodes with no predecessor"
        )
    for i in derived:
        if nodes[i].start != content_start:
            raise LatticeFormatError(
                f"starting node {i} does not start at the beginning of the input"
            )
    graph = prune_la_graph(LAGraph(text, tuple(nodes), derived, next_position, content_start))
    if not graph.nodes and content_start < len(text):
        raise LatticeFormatError(f"no token path spans the input from offset {content_start}")
    return graph
