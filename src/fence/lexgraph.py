"""All-matches lexer producing a lexical analysis graph (token lattice).

Instead of committing to one tokenization, the lexer records every token any
definition can match at every reachable offset. Paths through the resulting
graph are the candidate tokenizations of the input. ``_prune_columns`` is
the one place where branches that cannot reach the end of the input are
dropped, for lexed and loaded lattices alike: ``tokenize`` appends every
match straight into three column lists (start, end and symbol id), with no
record per match, and prunes them before it builds the lattice, and
``prune_la_graph`` prunes a built lattice's columns.

Links are positional, as in the lexical analysis graph of the Lamb lexer
(Quesada, Berzal and Cortijo, "Lamb: a lexical analyzer with ambiguity
support", ICSOFT 2011): every token whose next position (its end, after the
inter-token skip pattern) is offset p precedes every token that starts at p,
and no other link exists. A lattice therefore keeps positions only, in token
columns as the other graphs keep their nodes (see :class:`LAGraph`); ``_links``
derives the document's ``preceding`` and ``following`` lists, and
``load_la_graph`` still validates them. The lexer visits offsets in
increasing order and the pruner decides liveness per offset, not per link.

Per token definition, a single match is kept at a given offset, with the
match extent decided by the definition's regex (greedy quantifiers yield the
longest match). Distinct definitions matching at the same offset all coexist,
which is where lexical ambiguity enters the graph. Tokens are never
zero-width and the skip pattern is consumed only between tokens.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import compress
from operator import itemgetter

from .errors import FenceError
from .grammar import Grammar

__all__ = [
    "TokenNode",
    "NodeViews",
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


class TokenNode(namedtuple("TokenNode", "id symbol_id start end lexeme")):
    """A view of one token: one match of one token definition over ``[start, end)``.

    Its ``lexeme`` is ``input[start:end]``. A token has no links: it precedes
    exactly the tokens that start at its next position (see ``_links``).
    """

    __slots__ = ()


class NodeViews:
    """A graph's nodes as a read-only sequence of view records, by id; the ``nodes`` of all three graphs.

    ``column`` is one of the graph's parallel node columns, so its length is
    the number of nodes, and ``view(i)`` makes node ``i``'s record from the
    columns. A view is made on each access; a slice gives a list of views.
    """

    __slots__ = ("_column", "_view")

    def __init__(self, column: list | tuple, view: Callable[[int], tuple]):
        self._column = column
        self._view = view

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, node_id: int | slice):
        node_id = range(len(self._column))[node_id]  # a negative id counts from the end
        if isinstance(node_id, range):
            return list(map(self._view, node_id))
        return self._view(node_id)

    def __iter__(self):
        return map(self._view, range(len(self._column)))


class LAGraph(namedtuple("LAGraph", "input node_start node_end node_symbol next_position content_start", defaults=(0,))):
    """A token lattice over one input string, pruned by ``prune_la_graph``.

    Token ``i`` is ``node_symbol[i]`` over ``[node_start[i], node_end[i])``,
    in tuple columns that ``nodes`` views as :class:`TokenNode` records.
    Tokens are numbered by (start, end, symbol id); ``build_ela_graph``
    checks the order. ``next_position`` maps each token end offset to the
    offset where the next token may start (after skip consumption), and
    ``starting`` lists the tokens that start at ``content_start``, that
    offset for the beginning of the input: the tokens with no predecessor.
    """

    __slots__ = ()

    @property
    def nodes(self) -> NodeViews:
        return NodeViews(self.node_start, self._view)

    def _view(self, token_id: int) -> TokenNode:
        start, end = self.node_start[token_id], self.node_end[token_id]
        return TokenNode(token_id, self.node_symbol[token_id], start, end, self.input[start:end])

    @property
    def starting(self) -> tuple[int, ...]:
        return tuple([i for i, start in enumerate(self.node_start) if start == self.content_start])


def _skip_from(grammar: Grammar, text: str, pos: int) -> int:
    if grammar.skip_re is not None:
        m = grammar.skip_re.match(text, pos)
        if m and m.end() > pos:
            return m.end()
    return pos


def _links(graph: LAGraph) -> list[tuple[list[int], list[int]]]:
    """Each token's (preceding, following) ids, derived per offset from the
    tokens starting there and the tokens whose next position it is. Tokens
    share these lists, so callers copy them rather than change them."""
    starting_at: dict[int, list[int]] = {}
    ending_at: dict[int, list[int]] = {}
    steps = list(zip(graph.node_start, map(graph.next_position.__getitem__, graph.node_end)))
    for i, (start, nxt) in enumerate(steps):
        starting_at.setdefault(start, []).append(i)
        ending_at.setdefault(nxt, []).append(i)
    return [(ending_at.get(start, []), starting_at.get(nxt, [])) for start, nxt in steps]


def tokenize(grammar: Grammar, text: str) -> LAGraph:
    """Build the lexical analysis graph for ``text``.

    Every match at every offset reachable from the start is appended to
    three column lists, and the tokens of the result are the matches that
    ``_prune_columns`` keeps; no match allocates a record of its own.
    Offsets are visited in increasing order and the matches at one offset
    are put in (end, symbol id) order, so tokens are numbered by start, then
    end, then symbol id. Raises :class:`TokenizationError` when no token
    path spans the input, reporting the furthest offset reached. An input
    consisting solely of skip characters (or nothing) yields an empty graph.
    """
    n = len(text)
    start_pos = _skip_from(grammar, text, 0)
    if start_pos == n:
        return LAGraph(text, (), (), (), {}, start_pos)

    skip = grammar.skip_re.match if grammar.skip_re is not None else None
    # By symbol id, so a match is out of (end, symbol) order only when it is shorter than an earlier one
    matchers = grammar.token_matchers
    starts: list[int] = []
    ends: list[int] = []
    symbols: list[int] = []
    add_start, add_end, add_symbol = starts.append, ends.append, symbols.append
    next_position: dict[int, int] = {}
    reached = bytearray(n + 1)  # reached[p]: some token's next position is p
    pos = furthest = start_pos
    while 0 <= pos < n:
        if pos > furthest:
            furthest = pos
        last = pos  # the longest match at pos so far; matches are never zero-width
        for match, sym in matchers:
            m = match(text, pos)
            if m is None:
                continue
            end = m.end()
            if end == pos:
                continue
            add_start(pos)
            if end < last:  # it goes before the longer matches at pos
                i = len(ends)
                while i and starts[i - 1] == pos and ends[i - 1] > end:
                    i -= 1
                ends.insert(i, end)
                symbols.insert(i, sym)
            else:
                last = end
                add_end(end)
                add_symbol(sym)
            if end not in next_position:
                if end > furthest:
                    furthest = end
                nxt = end
                if skip is not None:
                    m = skip(text, end)
                    if m:
                        nxt = m.end()
                next_position[end] = nxt
                reached[nxt] = 1
        pos = reached.find(1, pos + 1)

    graph = LAGraph(text, *_prune_columns(starts, ends, symbols, next_position, start_pos, n), start_pos)
    if not graph.node_start:
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
    links = _links(graph)
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
        following = links[node_id][1]
        if following:
            stack.append(iter(following))
            continue
        out.append(tuple(path))
        if len(out) >= limit:
            break
        path.pop()
    return out


def _prune_columns(
    starts: Sequence[int], ends: Sequence[int], symbols: Sequence[int], next_position: dict[int, int],
    content_start: int, end: int,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], dict[int, int]]:
    """The columns of the tokens that lie on a full path, in their given order, and their next positions.

    Token ``i`` is ``symbols[i]`` over ``[starts[i], ends[i])``, and every
    offset lies in ``[0, end]``. Since links are positional, liveness is
    decided per offset, in O(tokens) rather than O(links), with one flag
    byte per offset: an offset is live when a token starting there ends the
    input (its next position is ``end``) or steps to a live offset (found
    right to left), and reachable when it is ``content_start`` or a kept
    token steps to it (found left to right). A token is kept when its next
    position is live and its start reachable. Tokens may come in any order,
    as a hand-built lattice's do; they are visited by start, a sort that
    takes one pass when they are in start order already, as lexed and loaded
    ones are. When no token is dropped, ``next_position`` is returned as it
    is, and otherwise it is cut to the kept tokens' ends.
    """
    steps = list(map(next_position.__getitem__, ends))
    order = sorted(range(len(starts)), key=starts.__getitem__)
    live = bytearray(end + 1)
    live[end] = 1
    for i in reversed(order):
        if live[steps[i]]:
            live[starts[i]] = 1
    reachable = bytearray(end + 1)
    reachable[content_start] = 1
    for i in order:
        nxt = steps[i]
        if live[nxt] and reachable[starts[i]]:
            reachable[nxt] = 1
    keep = [reachable[start] and live[nxt] for start, nxt in zip(starts, steps)]
    if all(keep):
        return tuple(starts), tuple(ends), tuple(symbols), next_position
    ends = tuple(compress(ends, keep))
    return (tuple(compress(starts, keep)), ends, tuple(compress(symbols, keep)),
            {stop: next_position[stop] for stop in ends})


def prune_la_graph(graph: LAGraph) -> LAGraph:
    """Drop tokens that lie on no full start-to-end path; idempotent.

    ``load_la_graph`` builds an unpruned lattice and passes it here, and
    ``tokenize`` prunes its columns with the same ``_prune_columns`` before
    it builds the lattice. A lattice that loses no token is returned as it
    is, since renumbering would be the identity. Raises ``ValueError`` when
    a token's start or end, a next position or ``content_start`` lies
    outside ``[0, len(graph.input)]``, as only a hand-built lattice's can.
    """
    n = len(graph.input)
    for offsets in (graph.node_start, graph.node_end, graph.next_position.values(), (graph.content_start,)):
        if offsets and not (min(offsets) >= 0 and max(offsets) <= n):
            raise ValueError(f"a lattice offset lies outside [0, {n}]")
    columns = _prune_columns(graph.node_start, graph.node_end, graph.node_symbol, graph.next_position,
                             graph.content_start, n)
    if len(columns[0]) == len(graph.node_start):
        return graph
    return LAGraph(graph.input, *columns, graph.content_start)


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
                "preceding": list(preceding),
                "following": list(following),
            }
            for t, (preceding, following) in zip(graph.nodes, _links(graph))
        ],
        "starting": sorted(graph.starting),
    }


def load_la_graph(doc: dict, grammar: Grammar) -> LAGraph:
    """Rebuild and re-validate a lattice from its document form.

    Checks the schema, symbol references, token spans, link symmetry, and
    that links are positional: a token's ``following`` must be exactly the
    tokens that start where its skip run ends, and its ``preceding`` exactly
    the tokens whose skip run ends at its start. The chart links tokens by
    position, so a document that dropped or added a link would be parsed as
    a lattice it does not describe. Dead branches are then pruned. A document
    whose tokens leave no full path over an input with content is rejected,
    as ``tokenize`` rejects such an input; only a skip-only input loads as
    the empty lattice. Tokens are renumbered by (start, end, symbol) as
    ``tokenize`` numbers them, whatever ids the document gives them.
    """
    if not isinstance(doc, dict) or "input" not in doc or "nodes" not in doc:
        raise LatticeFormatError("document must be an object with 'input' and 'nodes'")
    text = doc["input"]
    if not isinstance(text, str):
        raise LatticeFormatError("'input' must be a string")
    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, (list, tuple)) or not all(isinstance(entry, dict) for entry in raw_nodes):
        raise LatticeFormatError("'nodes' must be a list of objects")
    seen_ids: set[int] = set()
    for entry in raw_nodes:
        for key in ("id", "symbol", "start", "end", "preceding", "following"):
            if key not in entry:
                raise LatticeFormatError(f"node entry missing {key!r}")
        if not (all(type(entry[key]) is int for key in ("id", "start", "end")) and type(entry["symbol"]) is str):
            raise LatticeFormatError("a node entry needs integer 'id', 'start' and 'end' and a string 'symbol'")
        links = (entry["preceding"], entry["following"])
        if not all(isinstance(ids, (list, tuple)) and all(type(i) is int for i in ids) for ids in links):
            raise LatticeFormatError(f"node {entry['id']}'s 'preceding' and 'following' must be lists of node ids")
        if entry["id"] in seen_ids:
            raise LatticeFormatError(f"duplicate node id {entry['id']}")
        seen_ids.add(entry["id"])
    starting = doc.get("starting", ())
    if not isinstance(starting, (list, tuple)) or not all(type(i) is int and i in seen_ids for i in starting):
        raise LatticeFormatError("'starting' must be a list of the ids of listed nodes")

    keyed: list[tuple[tuple[int, int, int], dict]] = []
    for entry in sorted(raw_nodes, key=lambda e: e["id"]):
        name = entry["symbol"]
        sym = grammar.symbols.get(name)
        if sym is None or not sym.is_terminal:
            raise LatticeFormatError(f"symbol {name!r} is not a token of this grammar")
        start, end = entry["start"], entry["end"]
        if not (0 <= start < end <= len(text)):
            raise LatticeFormatError(f"token {entry['id']} has an invalid span [{start}, {end})")
        for ref in (*entry["preceding"], *entry["following"]):
            if ref not in seen_ids:
                raise LatticeFormatError(f"token {entry['id']} links to unknown node {ref}")
        keyed.append(((start, end, sym.id), entry))
    # Tokens are numbered by (start, end, symbol), as tokenize numbers them; ties keep id order.
    keyed.sort(key=itemgetter(0))
    remap = {entry["id"]: new for new, (_span, entry) in enumerate(keyed)}
    spans = [span for span, _entry in keyed]
    links = [  # (preceding, following)
        (sorted(remap[p] for p in entry["preceding"]), sorted(remap[f] for f in entry["following"]))
        for _span, entry in keyed
    ]

    for i, (preceding, following) in enumerate(links):
        for f in following:
            if i not in links[f][0]:
                raise LatticeFormatError(
                    f"asymmetric link: node {i} lists {f} as following, "
                    f"but {f} does not list {i} as preceding"
                )
        for p in preceding:
            if i not in links[p][1]:
                raise LatticeFormatError(
                    f"asymmetric link: node {i} lists {p} as preceding, "
                    f"but {p} does not list {i} as following"
                )

    next_position = {end: _skip_from(grammar, text, end) for _start, end, _sym in spans}
    content_start = _skip_from(grammar, text, 0)
    graph = LAGraph(text, *(tuple(zip(*spans)) or ((), (), ())), next_position, content_start)
    positional = _links(graph)
    for i, ((start, end, _sym), (preceding, following), expected) in enumerate(zip(spans, links, positional)):
        if following != expected[1]:
            raise LatticeFormatError(
                f"node {i} must be followed by exactly the tokens starting at "
                f"offset {next_position[end]}, {expected[1]}, not {following}"
            )
        if preceding != expected[0]:
            raise LatticeFormatError(
                f"node {i} must be preceded by exactly the tokens whose next "
                f"position is offset {start}, {expected[0]}, not {preceding}"
            )

    declared = tuple(sorted(remap[i] for i in starting))
    derived = tuple(i for i, (preceding, _following) in enumerate(positional) if not preceding)
    if declared != derived:
        raise LatticeFormatError("declared starting nodes do not match the nodes with no predecessor")
    for i in derived:
        if graph.node_start[i] != content_start:
            raise LatticeFormatError(f"starting node {i} does not start at the beginning of the input")
    graph = prune_la_graph(graph)  # its ``starting`` is ``derived``, as checked
    if not graph.node_start and content_start < len(text):
        raise LatticeFormatError(f"no token path spans the input from offset {content_start}")
    return graph
