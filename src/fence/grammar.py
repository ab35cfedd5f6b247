"""Grammar model: symbols, productions, constraints, and the grammar file format.

A grammar couples a token layer (named regex definitions plus an inter-token
skip pattern) with context-free productions over those tokens, a start symbol,
and optional disambiguation constraints: associativity, selection precedence,
composition precedence, and custom predicate evaluators. Empty right-hand
sides are allowed; one cheapest-first pass finds every nonterminal that can
derive the empty string together with its canonical empty derivation, so
chained-nullable symbols are skippable exactly like directly-empty ones.

The grammar numbers its LR(0) items once and owns every table about them
(:class:`ItemTables`, one per enforcement flag): the symbol after the dot,
whether it is a token, the productions a child there may not have, whether
it may be skipped as empty, and what a prediction under a blocked position
seeds. The chart, expansion and the rejection diagnostic all read these
tables; none of them derives an item fact of its own.

Grammars are immutable once constructed and safe to share across concurrent
parse sessions.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cached_property
from types import MappingProxyType

from .errors import FenceError

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"

ASSOC_LEFT = "left"
ASSOC_RIGHT = "right"
ASSOC_NONE = "none"
_ASSOC_DIRECTIONS = (ASSOC_LEFT, ASSOC_RIGHT, ASSOC_NONE)

DEFAULT_SKIP = r"[ \t\r\n]+"

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + r"\Z")
_REGEX_BODY = r"((?:[^/\\]|\\.)*)"
_TOKEN_LINE = re.compile(r"\s*%token\s+(" + _NAME + r")\s+/" + _REGEX_BODY + r"/\s*(?:#.*)?$")
_SKIP_LINE = re.compile(r"\s*%skip\s+/" + _REGEX_BODY + r"/\s*(?:#.*)?$")


class GrammarError(FenceError):
    """Malformed grammar text or an inconsistent set of declarations."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class Symbol(namedtuple("Symbol", "id name kind")):
    __slots__ = ()

    @property
    def is_terminal(self) -> bool:
        return self.kind == TERMINAL

    def __repr__(self):
        return f"Symbol({self.id}, {self.name!r}, {self.kind})"


class Production(namedtuple("Production", "id lhs rhs label", defaults=(None,))):
    __slots__ = ()

    @property
    def is_epsilon(self) -> bool:
        return not self.rhs

    def ref(self) -> str:
        """Stable human-readable reference, used in diagnostics."""
        return self.label if self.label is not None else f"#{self.id}:{self.lhs.name}"

    def __str__(self):
        rhs = " ".join(s.name for s in self.rhs)
        return f"{self.lhs.name} ::= {rhs}".rstrip()


class TokenDef(namedtuple("TokenDef", "symbol pattern regex")):
    __slots__ = ()


class NodeView(namedtuple("NodeView", "symbol start end production label children lexeme text")):
    """Read-only view of a candidate parse node, passed to custom evaluators.

    An evaluator sees one node and its direct children: ``children`` views
    the children of one packed alternative, and each child's own
    ``children`` is ``()``. A token child has ``production`` and ``label``
    None and carries its ``lexeme``; a nonterminal child, including a
    zero-width placeholder, carries the production that derives it.
    ``symbol`` is the node's symbol name, ``text`` the whole input, and
    ``production`` a production id.
    """

    __slots__ = ()


class ConstraintSet(
    namedtuple("ConstraintSet", "associativity selection composition custom",
               defaults=(MappingProxyType({}), (), (), MappingProxyType({})))
):
    """Constraint declarations attached to productions.

    ``associativity`` maps a production id to its direction and ``custom``
    maps one to its evaluator, a callable that takes a :class:`NodeView` and
    returns a bool; both default to read-only empty mappings. ``selection``
    and ``composition`` hold the declared pairs; their transitive closures
    live on the owning grammar. A ``selection`` pair (q, p) means q is
    preferred over p when both derive the same parse node. A ``composition``
    pair (p, q) means p may not take a direct child derived by q.
    """

    __slots__ = ()

    @property
    def empty(self) -> bool:
        return not (self.associativity or self.selection or self.composition or self.custom)


class ConstraintIssue(namedtuple("ConstraintIssue", "kind message productions", defaults=((),))):
    """A constraint warning: a declaration that can never influence a parse."""

    __slots__ = ()


def compute_epsilon_symbols(productions: Iterable[Production]) -> frozenset[Symbol]:
    """Nonterminals that can derive the empty string (least fixed point).

    A symbol qualifies if some production for it has every right-hand-side
    symbol already in the result; an empty right-hand side qualifies
    vacuously. These are the symbols that :func:`_empty_derivations` prices.
    """
    prods = tuple(productions)
    nullable = _empty_derivations(prods)
    return frozenset(p.lhs for p in prods if p.lhs.id in nullable)


def _empty_derivations(productions: Sequence[Production]) -> dict[int, int]:
    """The production of each nullable symbol's canonical minimal empty derivation.

    Maps symbol id to production id, choosing the derivation with the
    fewest nodes and breaking ties by the lowest production id. Every
    child of the chosen production has a cheaper derivation of its own,
    so following the table always ends. Its keys are exactly the nullable
    symbols.

    Computed cheapest first, as in Knuth's generalisation of Dijkstra's
    algorithm ("A generalization of Dijkstra's algorithm", 1977): a
    symbol's cost is final when it leaves the heap, and a production is
    priced once every right-hand-side symbol is final. A production's
    children all cost less than it does, so every production that ties
    for a symbol's cost is priced before the symbol leaves the heap.
    """
    empty = [p for p in productions if not p.rhs]
    if not empty:
        return {}
    import heapq  # only grammars with nullable symbols need it; the import costs about 1 ms

    pending = [len(p.rhs) for p in productions]
    uses: dict[int, list[int]] = {}
    for i, p in enumerate(productions):
        for s in p.rhs:
            uses.setdefault(s.id, []).append(i)
    best: dict[int, tuple[int, int]] = {}  # symbol -> (cost, production) so far
    cost: dict[int, int] = {}  # final costs
    heap: list[tuple[int, int]] = []

    def price(p: Production) -> None:
        offer = (1 + sum(cost[s.id] for s in p.rhs), p.id)
        if p.lhs.id not in best or offer < best[p.lhs.id]:
            best[p.lhs.id] = offer
            heapq.heappush(heap, (offer[0], p.lhs.id))

    for p in empty:
        price(p)
    while heap:
        c, sym = heapq.heappop(heap)
        if sym in cost:
            continue
        cost[sym] = c
        for i in uses.get(sym, ()):
            pending[i] -= 1
            if not pending[i]:
                price(productions[i])
    return {sym: best[sym][1] for sym in cost}


def _closure(pairs: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Transitive closure of a relation, by depth-first reachability from each source."""
    succ: dict[int, set[int]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closed: set[tuple[int, int]] = set()
    for a in succ:
        reached: set[int] = set()
        stack = [a]
        while stack:
            for b in succ.get(stack.pop(), ()):
                if b not in reached:
                    reached.add(b)
                    stack.append(b)
        closed.update((a, b) for b in reached)
    return frozenset(closed)


def _resolver(productions: Iterable[Production]) -> Callable[..., int]:
    """``resolve(ref, line=None)``: the id of the production a reference names, a label or a unique lhs name.

    The maps are built once; every reference a grammar takes (``%prefer``,
    ``evaluators=``, ``make_grammar``'s ``assoc=`` and
    :meth:`Grammar.production_by_ref`) is resolved here.
    """
    labels: dict[str, int] = {}
    by_lhs: dict[str, list[int]] = {}
    for p in productions:
        if p.label is not None:
            labels[p.label] = p.id
        by_lhs.setdefault(p.lhs.name, []).append(p.id)

    def resolve(ref: str, line: int | None = None) -> int:
        if ref in labels:
            return labels[ref]
        candidates = by_lhs.get(ref, ())
        if len(candidates) == 1:
            return candidates[0]
        if candidates:
            raise GrammarError(f"production reference {ref!r} is ambiguous; add a [label]", line)
        raise GrammarError(f"unknown production reference {ref!r}", line)

    return resolve


class ItemTables:
    """Every fact the parser reads about an LR(0) item, for one enforcement flag.

    Production p with its dot at d is item ``Grammar.item_base[p] + d``. By
    item: ``symbol`` after the dot (-1 once complete); ``token``, whether it
    is a terminal; ``blocked``, the productions a child there may not have
    (``Grammar.position_blocks`` under enforcement, else empty); ``skip``,
    whether the symbol may be skipped as empty, which it may not when the
    blocked set holds the production of its canonical empty derivation, the
    one expansion would place there. ``seeds`` maps each blocked item to the
    dot-0 items a prediction there seeds: the symbol's productions outside
    the set, plus those that selection prefers over one of them (expansion
    needs the preferred node to judge the other), each with a non-empty
    right-hand side, in ``Grammar.production_ids_by_lhs`` order. By
    production: ``lhs``, and ``single``, the one-element ``productions``
    tuple that the chart nodes it alone derives share. ``filtered`` tells
    whether any item blocks anything.
    """

    __slots__ = ("symbol", "token", "blocked", "skip", "seeds", "filtered", "lhs", "single")

    def __init__(self, grammar: Grammar, blocks: tuple[tuple[frozenset[int], ...], ...] | None):
        none: frozenset[int] = frozenset()
        symbol: list[int] = []
        blocked: list[frozenset[int]] = []
        for p, rhs in enumerate(grammar.rhs_ids):
            symbol += rhs
            symbol.append(-1)
            blocked += blocks[p] if blocks else [none] * len(rhs)
            blocked.append(none)
        eps = grammar.epsilon_production
        terminals = grammar.terminal_ids
        self.symbol = tuple(symbol)
        self.token = tuple([s in terminals for s in symbol])
        self.blocked = tuple(blocked)
        self.skip = tuple([s in eps and not (b and eps[s] in b) for s, b in zip(symbol, blocked)])
        self.filtered = bool(blocks)

        def seeds(sym: int, b: frozenset[int]) -> tuple[int, ...]:
            options = grammar.production_ids_by_lhs.get(sym, ())
            kept = [p for p in options if p not in b]
            needed = set(kept).union(*(grammar.preferred_over.get(p, ()) for p in kept))
            return tuple([grammar.item_base[p] for p in options if p in needed and grammar.rhs_ids[p]])

        self.seeds = {item: seeds(s, b) for item, (s, b) in enumerate(zip(symbol, blocked)) if b}
        self.lhs = tuple([p.lhs.id for p in grammar.productions])
        self.single = tuple([(p,) for p in range(len(grammar.productions))])


class _Predictions(dict):
    """``Grammar.predictions``: a symbol's entry is filled on its first lookup.

    Filling is idempotent, so threads that share a grammar and miss the same
    entry at once both store the same value.
    """

    def __init__(self, corners: dict[int, list[int]], productions_by_lhs: dict[int, tuple[Production, ...]]):
        super().__init__()
        self._corners = corners
        self._productions_by_lhs = productions_by_lhs

    def __missing__(self, sym_id: int) -> tuple[tuple[int, ...], frozenset[int]]:
        reached = {sym_id}
        stack = [sym_id]
        while stack:
            for nxt in self._corners.get(stack.pop(), ()):
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        productions = sorted(
            p.id for s in reached for p in self._productions_by_lhs.get(s, ()) if p.rhs
        )
        entry = self[sym_id] = (tuple(productions), frozenset(reached))
        return entry


class Grammar:
    """An immutable language definition.

    Use :func:`parse_grammar_text` (or :func:`make_grammar` from code) to build
    one; the constructor expects fully resolved symbols and productions, each
    production's id its position in the list. It raises
    :class:`GrammarError` on any inconsistency, constraint errors included,
    and keeps the constraint warnings in ``constraint_warnings``.
    """

    def __init__(
        self,
        token_defs: Sequence[TokenDef],
        productions: Sequence[Production],
        start: Symbol,
        constraints: ConstraintSet | None = None,
        skip_pattern: str = DEFAULT_SKIP,
    ):
        self.token_defs = tuple(token_defs)
        self.productions = tuple(productions)
        self.start = start
        self.constraints = constraints if constraints is not None else ConstraintSet()
        self.skip_pattern = skip_pattern
        try:
            self.skip_re = re.compile(skip_pattern) if skip_pattern else None
        except re.error as exc:
            raise GrammarError(f"bad skip pattern: {exc}") from None

        self.symbols: dict[str, Symbol] = {}
        for td in self.token_defs:
            self._intern(td.symbol)
        for p in self.productions:
            self._intern(p.lhs)
            for s in p.rhs:
                self._intern(s)
        self._intern(start)

        ids = [s.id for s in self.symbols.values()]
        if len(set(ids)) != len(ids):
            raise GrammarError("symbol ids are not unique")
        self.symbol_by_id: dict[int, Symbol] = {s.id: s for s in self.symbols.values()}
        # A name is interned once, so a token and a nonterminal never share one.
        self.terminal_ids = frozenset(s.id for s in self.symbols.values() if s.is_terminal)
        if start.is_terminal:
            raise GrammarError(f"start symbol {start.name!r} is a token, not a nonterminal")
        for td in self.token_defs:
            if not td.symbol.is_terminal:
                raise GrammarError(f"token definition of {td.symbol.name!r} has a nonterminal symbol")
        for i, p in enumerate(self.productions):
            if p.id != i:
                raise GrammarError(f"production {p.ref()} has id {p.id} at position {i}; ids must be positions")
            if p.lhs.is_terminal:
                raise GrammarError(f"production {p.ref()} has a token on its left-hand side")

        by_lhs: dict[int, list[Production]] = {}
        for p in self.productions:
            by_lhs.setdefault(p.lhs.id, []).append(p)
        self.productions_by_lhs: dict[int, tuple[Production, ...]] = {
            k: tuple(v) for k, v in by_lhs.items()
        }
        # By id, for the loops of the chart and expansion: reading a named tuple's field costs more
        self.production_ids_by_lhs: dict[int, tuple[int, ...]] = {
            k: tuple(p.id for p in v) for k, v in by_lhs.items()
        }
        self.by_label: dict[str, Production] = {}
        for p in self.productions:
            if p.label in self.by_label:
                raise GrammarError(f"duplicate production label {p.label!r}")
            if p.label is not None:
                self.by_label[p.label] = p

        # LR(0) items, numbered once: production p with its dot at d is item_base[p] + d,
        # so advancing a dot is adding one and a handle or agenda entry can be one int.
        # The facts about each item are in ``items`` and ``enforced_items``.
        item_base: list[int] = []
        item_production: list[int] = []
        for p in self.productions:
            item_base.append(len(item_production))
            item_production += [p.id] * (len(p.rhs) + 1)
        self.item_base = tuple(item_base)
        self.item_production = tuple(item_production)

        self.epsilon_ids = frozenset(self.epsilon_production)
        self.epsilon_symbols = frozenset(self.symbol_by_id[s] for s in self.epsilon_ids)

        self.constraint_warnings, self.selection_closed, self.composition_closed = _check_constraints(self)

        # Selection only ever compares productions of one symbol, so a pair
        # across symbols is dropped, but only after closing: a chain through
        # another symbol's production still relates the two ends.
        above: dict[int, list[int]] = {}
        below: dict[int, list[int]] = {}
        for q, p in self.selection_closed:
            if self.productions[q].lhs.id == self.productions[p].lhs.id:
                above.setdefault(p, []).append(q)
                below.setdefault(q, []).append(p)
        blocks: dict[int, set[int]] = {}
        for p, q in self.composition_closed:
            blocks.setdefault(p, set()).add(q)
        self.composition_blocks: dict[int, frozenset[int]] = {
            p: frozenset(qs) for p, qs in blocks.items()
        }

        # Rank: the longest chain preferred over p. In the closed acyclic relation each q
        # preferred over p has fewer productions preferred over it, so q is ranked first.
        rank: dict[int, int] = {}
        for p, qs in sorted(above.items(), key=lambda item: len(item[1])):
            rank[p] = 1 + max(rank.get(q, 0) for q in qs)
        self.selection_order_by_lhs: dict[int, tuple[int, ...]] = {
            lhs: tuple(sorted(ids, key=lambda i: (rank.get(i, 0), i)))
            for lhs, ids in self.production_ids_by_lhs.items()
        }
        # The productions preferred over p, most preferred first as in
        # selection_order_by_lhs, so a check that stops at the first one
        # holding a tree seldom looks further.
        preferred: dict[int, list[int]] = {}
        for order in self.selection_order_by_lhs.values():
            for q in order:
                for p in below.get(q, ()):
                    preferred.setdefault(p, []).append(q)
        self.preferred_over: dict[int, tuple[int, ...]] = {p: tuple(qs) for p, qs in preferred.items()}
        self.has_selection = bool(self.constraints.selection)

    def _intern(self, sym: Symbol) -> None:
        seen = self.symbols.get(sym.name)
        if seen is None:
            self.symbols[sym.name] = sym
        elif seen != sym:
            raise GrammarError(f"conflicting definitions for symbol {sym.name!r}")

    # -- lookups -----------------------------------------------------------

    def symbol(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise GrammarError(f"unknown symbol {name!r}") from None

    def production_by_ref(self, ref: str) -> Production:
        """Resolve a production by label, falling back to a unique lhs name."""
        return self.productions[self._resolve(ref)]

    @cached_property
    def _resolve(self) -> Callable[..., int]:
        return _resolver(self.productions)

    @cached_property
    def token_matchers(self) -> tuple[tuple[Callable, int], ...]:
        """Each token definition's ``(regex.match, symbol id)``, by symbol id, for the lexer."""
        return tuple(sorted([(td.regex.match, td.symbol.id) for td in self.token_defs], key=lambda m: m[1]))

    @cached_property
    def rhs_ids(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(s.id for s in p.rhs) for p in self.productions)

    @cached_property
    def predictions(self) -> dict[int, tuple[tuple[int, ...], frozenset[int]]]:
        """What predicting each symbol seeds, for the chart's top-down step.

        Maps every symbol id X to ``(productions, reached)``. ``reached`` is
        X's left-corner closure: X, and every symbol that a production of a
        reached nonterminal can begin with, where a production begins with
        each symbol up to and including its first non-nullable one (with
        ``S ::= A B c`` and ``A ::= ;``, S reaches A and B, and reaches c
        only if B is nullable too). ``productions`` are the ids, in order, of
        the non-empty productions of the reached nonterminals. A terminal
        reaches only itself and seeds nothing.

        Each entry is computed on its first lookup, in time linear in what
        it holds: a chart asks only for the symbols it predicts, and one
        prediction marks its whole closure predicted.
        """
        corners: dict[int, list[int]] = {}
        for p in self.productions:
            begins = corners.setdefault(p.lhs.id, [])
            for s in p.rhs:
                begins.append(s.id)
                if s.id not in self.epsilon_ids:
                    break
        return _Predictions(corners, self.productions_by_lhs)

    @cached_property
    def epsilon_production(self) -> dict[int, int]:
        """The production of each nullable symbol's canonical minimal empty derivation.

        Its keys are the nullable symbols (``epsilon_ids``); see
        :func:`_empty_derivations`. Used to materialize zero-width
        placeholder children for skipped nullable positions.
        """
        return _empty_derivations(self.productions)

    @cached_property
    def position_blocks(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """Per production and right-hand-side position, the productions a child there may not have.

        Composition precedence blocks the same productions at every
        nonterminal position; associativity adds the production itself at
        the last position (left, none) and at the first (right, none). A
        terminal position blocks nothing, since a token has no production.
        """
        none: frozenset[int] = frozenset()
        table = []
        for p in self.productions:
            blocked = self.composition_blocks.get(p.id, none)
            direction = self.constraints.associativity.get(p.id)
            last = len(p.rhs) - 1
            table.append(
                tuple(
                    none
                    if s.is_terminal
                    else blocked | {p.id}
                    if (i == last and direction in (ASSOC_LEFT, ASSOC_NONE))
                    or (i == 0 and direction in (ASSOC_RIGHT, ASSOC_NONE))
                    else blocked
                    for i, s in enumerate(p.rhs)
                )
            )
        return tuple(table)

    @cached_property
    def items(self) -> ItemTables:
        """The item tables with no constraint enforced: no item blocks anything."""
        return ItemTables(self, None)

    @cached_property
    def enforced_items(self) -> ItemTables:
        """The item tables under enforcement; ``items`` itself when no position blocks anything."""
        blocks = self.position_blocks
        return ItemTables(self, blocks) if any(any(row) for row in blocks) else self.items

    # -- comparison and serialization --------------------------------------

    def signature(self) -> tuple:
        """Canonical structural fingerprint, for round-trip comparisons."""
        return (
            tuple((td.symbol.id, td.symbol.name, td.pattern) for td in self.token_defs),
            tuple(
                (p.id, p.lhs.id, tuple(s.id for s in p.rhs), p.label) for p in self.productions
            ),
            self.start.id,
            self.skip_pattern,
            tuple(sorted(self.constraints.associativity.items())),
            tuple(sorted(self.constraints.selection)),
            tuple(sorted(self.constraints.composition)),
            tuple(sorted(s.id for s in self.epsilon_symbols)),
        )


def _check_constraints(grammar: Grammar) -> tuple[tuple[ConstraintIssue, ...], frozenset, frozenset]:
    """The constraint warnings, with the closed selection and composition relations.

    Raises one :class:`GrammarError` that joins every error: references to
    nonexistent productions, self-precedence, cyclic precedence
    declarations, bad associativity directions. The warnings flag
    declarations that can never influence a parse. Each relation is closed
    once, for the cycle check; without errors every declared pair was
    closed, so the grammar keeps the result.
    """
    closures = []
    errors: list[str] = []
    warnings: list[ConstraintIssue] = []
    cs = grammar.constraints
    valid = {p.id for p in grammar.productions}

    def ref(pid: int) -> str:
        return grammar.productions[pid].ref() if pid in valid else f"#{pid}"

    for pid, direction in sorted(cs.associativity.items()):
        if pid not in valid:
            errors.append(f"associativity on unknown production #{pid}")
            continue
        if direction not in _ASSOC_DIRECTIONS:
            errors.append(f"associativity on {ref(pid)} has direction {direction!r}")
            continue
        p = grammar.productions[pid]
        ends = []
        if direction in (ASSOC_LEFT, ASSOC_NONE):
            ends.append(p.rhs[-1] if p.rhs else None)
        if direction in (ASSOC_RIGHT, ASSOC_NONE):
            ends.append(p.rhs[0] if p.rhs else None)
        if len(p.rhs) < 2 or not any(s is not None and s.id == p.lhs.id for s in ends):
            warnings.append(
                ConstraintIssue(
                    "ineffective-associativity",
                    f"{direction} associativity on {ref(pid)} can never apply",
                    (pid,),
                )
            )

    for kind, pairs in (("selection", cs.selection), ("composition", cs.composition)):
        edges: dict[int, set[int]] = {}
        for a, b in pairs:
            missing = [x for x in (a, b) if x not in valid]
            if missing:
                errors.append(
                    f"{kind} precedence refers to unknown production(s) " + ", ".join(f"#{m}" for m in missing)
                )
                continue
            if a == b:
                errors.append(f"{kind} precedence declares {ref(a)} over itself")
                continue
            edges.setdefault(a, set()).add(b)
        closed = _closure((a, b) for a, bs in edges.items() for b in bs)
        closures.append(closed)
        cyclic = sorted({a for a, b in closed if a == b})
        if cyclic:
            errors.append(f"cyclic {kind} precedence involving " + ", ".join(ref(p) for p in cyclic))
        if kind == "selection":
            for a, b in sorted(set(pairs)):
                if a in valid and b in valid and a != b:
                    pa, pb = grammar.productions[a], grammar.productions[b]
                    if pa.lhs.id != pb.lhs.id:
                        warnings.append(
                            ConstraintIssue(
                                "cross-symbol-selection",
                                f"selection precedence {ref(a)} over {ref(b)} never applies: "
                                f"the productions derive different symbols",
                                (a, b),
                            )
                        )

    for pid in sorted(cs.custom):
        if pid not in valid:
            errors.append(f"evaluator on unknown production #{pid}")

    if errors:
        raise GrammarError("; ".join(errors))
    return tuple(warnings), closures[0], closures[1]


# ---------------------------------------------------------------------------
# Grammar text format
#
#   %token NAME /regex/          token definition
#   %skip /regex/                inter-token skip pattern (default: whitespace)
#   %start NAME                  start symbol
#   [label] Lhs ::= sym sym ;    production (empty rhs allowed)
#   %assoc left|right|none <production> ;
#   %prefer select P1 over P2 ;  selection precedence (P = label or unique lhs)
#   %prefer compose P1 over P2 ; composition precedence
#   # comment
# ---------------------------------------------------------------------------


class _RuleDecl:
    __slots__ = ("line", "label", "lhs", "rhs", "assoc")

    def __init__(self, line: int | None, label: str | None, lhs: str, rhs: tuple[str, ...], assoc: str | None = None):
        self.line = line
        self.label = label
        self.lhs = lhs
        self.rhs = rhs
        self.assoc = assoc


class _Decls:
    """Declarations with their source lines; a line is None for a declaration made from code."""

    __slots__ = ("tokens", "skip", "start", "rules", "assocs", "prefers")

    def __init__(self):
        self.tokens: list[tuple[int | None, str, str]] = []
        self.skip: tuple[int | None, str] | None = None
        self.start: tuple[int | None, str] | None = None
        self.rules: list[_RuleDecl] = []
        self.assocs: list[tuple[int | None, str, str]] = []  # (line, reference, direction)
        self.prefers: list[tuple[int | None, str, str, str]] = []


def _scan(source: str) -> _Decls:
    decls = _Decls()
    pending = ""
    pending_line: int | None = None

    def close_statement(text: str, line: int) -> None:
        text = text.strip()
        if text:
            _parse_statement(text, line, decls)

    for lineno, raw in enumerate(source.splitlines(), 1):
        head = raw.lstrip()
        if head.startswith("%token"):
            m = _TOKEN_LINE.match(raw)
            if not m:
                raise GrammarError("malformed %token line", lineno, len(raw) - len(head) + 1)
            decls.tokens.append((lineno, m.group(1), m.group(2)))
            continue
        if head.startswith("%skip"):
            m = _SKIP_LINE.match(raw)
            if not m:
                raise GrammarError("malformed %skip line", lineno, len(raw) - len(head) + 1)
            if decls.skip is not None:
                raise GrammarError("duplicate %skip declaration", lineno)
            decls.skip = (lineno, m.group(1))
            continue
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if line.lstrip().startswith("%start"):
            words = line.split()
            if len(words) != 2 or not _NAME_RE.match(words[1]):
                raise GrammarError("malformed %start line", lineno)
            if decls.start is not None:
                raise GrammarError("duplicate %start declaration", lineno)
            decls.start = (lineno, words[1])
            continue
        if not pending.strip():
            pending_line = lineno
        pending += " " + line
        while ";" in pending:
            stmt, _, pending = pending.partition(";")
            close_statement(stmt, pending_line or lineno)
            pending_line = lineno
    if pending.strip():
        raise GrammarError("declaration not terminated by ';'", pending_line)
    return decls


def _parse_statement(text: str, line: int, decls: _Decls) -> None:
    words = text.split()
    if words[0] == "%prefer":
        if len(words) != 5 or words[1] not in ("select", "compose") or words[3] != "over":
            raise GrammarError("malformed %prefer declaration", line)
        decls.prefers.append((line, words[1], words[2], words[4]))
        return
    assoc = None
    if words[0] == "%assoc":
        if len(words) < 3 or words[1] not in _ASSOC_DIRECTIONS:
            raise GrammarError("malformed %assoc declaration", line)
        assoc = words[1]
        text = text.split(None, 2)[2]
    if text.startswith("%"):
        raise GrammarError(f"unknown directive {text.split()[0]!r}", line)
    head, sep, tail = text.partition("::=")
    if not sep:
        raise GrammarError("expected '::=' in production", line)
    head = head.strip()
    label = None
    if head.startswith("["):
        close = head.find("]")
        if close < 0:
            raise GrammarError("unterminated production label", line)
        label = head[1:close].strip()
        if not _NAME_RE.match(label):
            raise GrammarError(f"bad production label {label!r}", line)
        head = head[close + 1 :].strip()
    if not _NAME_RE.match(head):
        raise GrammarError(f"bad production left-hand side {head!r}", line)
    rhs = tuple(tail.split())
    for name in rhs:
        if not _NAME_RE.match(name):
            raise GrammarError(f"bad symbol name {name!r} in production", line)
    decls.rules.append(_RuleDecl(line, label, head, rhs, assoc))


def _check_writable(pattern: str, owner: str, line: int | None) -> None:
    """Reject a pattern that ``grammar_to_text`` could not write between slashes."""
    if not re.fullmatch(_REGEX_BODY, pattern) or "".join(pattern.splitlines()) != pattern:
        raise GrammarError(f"pattern of {owner} has an unescaped '/' or a line break", line)


def _check_name(name: str, what: str) -> None:
    """Reject a name that ``grammar_to_text`` could not write for the text parser to read back."""
    if not _NAME_RE.match(name):
        raise GrammarError(f"bad {what} {name!r}")


def _assemble(decls: _Decls, evaluators: Mapping[str, Callable] | None) -> Grammar:
    seen_tokens: dict[str, int] = {}
    for line, name, _pattern in decls.tokens:
        if name in seen_tokens:
            raise GrammarError(f"duplicate token name {name!r}", line)
        seen_tokens[name] = line

    nonterminal_names: list[str] = []
    for rule in decls.rules:
        if rule.lhs in seen_tokens:
            raise GrammarError(f"{rule.lhs!r} is declared both as a token and a nonterminal", rule.line)
        if rule.lhs not in nonterminal_names:
            nonterminal_names.append(rule.lhs)

    symbols: dict[str, Symbol] = {}
    next_id = 0
    for _line, name, _pattern in decls.tokens:
        symbols[name] = Symbol(next_id, name, TERMINAL)
        next_id += 1
    for name in nonterminal_names:
        symbols[name] = Symbol(next_id, name, NONTERMINAL)
        next_id += 1

    token_defs = []
    for line, name, pattern in decls.tokens:
        try:
            regex = re.compile(pattern)
        except re.error as exc:
            raise GrammarError(f"bad regex for token {name}: {exc}", line) from None
        _check_writable(pattern, f"token {name!r}", line)
        token_defs.append(TokenDef(symbols[name], pattern, regex))

    labels: set[str] = set()
    productions: list[Production] = []
    assoc: dict[int, str] = {}
    for pid, rule in enumerate(decls.rules):
        rhs_syms = []
        for name in rule.rhs:
            sym = symbols.get(name)
            if sym is None:
                raise GrammarError(f"unknown symbol {name!r}", rule.line)
            rhs_syms.append(sym)
        if rule.label is not None:
            if rule.label in labels:
                raise GrammarError(f"duplicate production label {rule.label!r}", rule.line)
            labels.add(rule.label)
        productions.append(Production(pid, symbols[rule.lhs], tuple(rhs_syms), rule.label))
        if rule.assoc is not None:
            assoc[pid] = rule.assoc

    if decls.start is None:
        raise GrammarError("start symbol missing: add a %start declaration")
    start_line, start_name = decls.start
    start = symbols.get(start_name)
    if start is None or start.is_terminal or start.id not in {p.lhs.id for p in productions}:
        raise GrammarError(f"start symbol {start_name!r} has no productions", start_line)

    resolve = _resolver(productions)
    for line, ref, direction in decls.assocs:
        assoc[resolve(ref, line)] = direction
    selection: list[tuple[int, int]] = []
    composition: list[tuple[int, int]] = []
    for line, kind, first, second in decls.prefers:
        pair = (resolve(first, line), resolve(second, line))
        (selection if kind == "select" else composition).append(pair)

    custom: dict[int, Callable] = {}
    for ref, fn in (evaluators or {}).items():
        custom[resolve(ref)] = fn

    skip = decls.skip[1] if decls.skip is not None else DEFAULT_SKIP
    if decls.skip is not None:
        try:
            re.compile(skip)
        except re.error as exc:
            raise GrammarError(f"bad %skip regex: {exc}", decls.skip[0]) from None
        _check_writable(skip, "%skip", decls.skip[0])

    constraints = ConstraintSet(
        associativity=assoc,
        selection=tuple(selection),
        composition=tuple(composition),
        custom=custom,
    )
    return Grammar(token_defs, productions, start, constraints, skip)


def parse_grammar_text(source: str, evaluators: Mapping[str, Callable] | None = None) -> Grammar:
    """Parse grammar text into a validated :class:`Grammar`.

    ``evaluators`` optionally maps production references (label, or unique lhs
    name) to custom constraint predicates; the text format itself has no
    syntax for attaching code.
    """
    return _assemble(_scan(source), evaluators)


def make_grammar(
    tokens: Sequence[tuple[str, str]],
    rules: Sequence[tuple],
    start: str,
    *,
    skip: str = DEFAULT_SKIP,
    assoc: Sequence[tuple[str, str]] = (),
    select: Sequence[tuple[str, str]] = (),
    compose: Sequence[tuple[str, str]] = (),
    evaluators: Mapping[str, Callable] | None = None,
) -> Grammar:
    """Programmatic grammar construction mirroring the text format.

    ``rules`` entries are ``(lhs, rhs_names)`` or ``(lhs, rhs_names, label)``.
    ``assoc`` pairs a production reference with a direction; ``select`` and
    ``compose`` pair production references (preferred first).
    """
    decls = _Decls()
    for name, pattern in tokens:
        _check_name(name, "token name")
        decls.tokens.append((None, name, pattern))
    _check_name(start, "start symbol")
    decls.skip = (None, skip)
    decls.start = (None, start)
    for entry in rules:
        lhs, rhs = entry[0], tuple(entry[1])
        label = entry[2] if len(entry) > 2 else None
        _check_name(lhs, "nonterminal name")
        if label is not None:
            _check_name(label, "production label")
        decls.rules.append(_RuleDecl(None, label, lhs, rhs))
    decls.assocs = [(None, ref, direction) for ref, direction in assoc]
    decls.prefers = [(None, "select", a, b) for a, b in select] + [(None, "compose", a, b) for a, b in compose]
    return _assemble(decls, evaluators)


def grammar_to_text(grammar: Grammar) -> str:
    """Serialize a grammar back to the text format (lossless round-trip).

    Raises :class:`GrammarError` when the text could not be read back: a
    token name, nonterminal name or production label is not a name of the
    text format, a token or ``%skip`` pattern holds an unescaped ``/`` or a
    line break, or a ``%prefer`` declaration names an unlabelled production
    whose left-hand side names others too. A grammar built by
    ``parse_grammar_text`` or ``make_grammar`` is always writable.
    """
    for sym in grammar.symbols.values():
        _check_name(sym.name, "token name" if sym.is_terminal else "nonterminal name")
    for p in grammar.productions:
        if p.label is not None:
            _check_name(p.label, "production label")
    lines = []
    for td in grammar.token_defs:
        _check_writable(td.pattern, f"token {td.symbol.name!r}", None)
        lines.append(f"%token {td.symbol.name} /{td.pattern}/")
    _check_writable(grammar.skip_pattern, "%skip", None)
    lines.append(f"%skip /{grammar.skip_pattern}/")
    lines.append(f"%start {grammar.start.name}")
    for p in grammar.productions:
        prefix = ""
        direction = grammar.constraints.associativity.get(p.id)
        if direction is not None:
            prefix = f"%assoc {direction} "
        label = f"[{p.label}] " if p.label is not None else ""
        lines.append(f"{prefix}{label}{p} ;")

    resolve = _resolver(grammar.productions)

    def ref(pid: int) -> str:
        p = grammar.productions[pid]
        if p.label is not None:
            return p.label
        try:
            if resolve(p.lhs.name) == pid:
                return p.lhs.name
        except GrammarError:
            pass
        raise GrammarError(f"production {pid} ({p}) needs a [label] for a %prefer declaration to name it")

    for a, b in grammar.constraints.selection:
        lines.append(f"%prefer select {ref(a)} over {ref(b)} ;")
    for a, b in grammar.constraints.composition:
        lines.append(f"%prefer compose {ref(a)} over {ref(b)} ;")
    return "\n".join(lines) + "\n"
