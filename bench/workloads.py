"""The benchmark's four workloads: grammars, seeded inputs and output checks.

Each workload has a grammar, a generator that turns a seeded ``random.Random``
into one input of a fixed size and shape, and a checker that compares what
the parser produced with an answer computed here, from the generated pieces
alone. Expected trees use the canonical tuple form shared by
``fence.canonical_tree`` and ``fence.oracle``: ``("t", symbol, start, end,
lexeme)`` for tokens and ``("n", symbol, start, end, production id,
children)`` for everything else.

Nothing in this module imports the chart or the forest expander: the expected
answers are built by hand from the inputs, so a fault in either layer shows
as a mismatch instead of agreeing with itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

LR_CHAIN = r"""
%token plus /\+/
%token minus /-/
%token int /[0-9]+/
%token semi /;/
%start S
[stmt] S ::= E semi ;
[add] E ::= E plus T ;
[term] E ::= T ;
[operand] T ::= Sign int ;
[pos] Sign ::= ;
[neg] Sign ::= minus ;
"""

PREC_ARITH = r"""
%token plus /\+/
%token times /\*/
%token int /[0-9]+/
%start E
%assoc left [add] E ::= E plus E ;
%assoc left [mul] E ::= E times E ;
[lit] E ::= int ;
%prefer compose mul over add ;
"""

AMBIG_COUNT = r"""
%token plus /\+/
%token int /[0-9]+/
%start E
[add] E ::= E plus E ;
[lit] E ::= int ;
"""

# The running example's units, repeated: Integer, Real and Point overlap, so
# every unit forks the lattice twice. The grammar settles the fork inside
# `&...&`; selection precedence settles the one inside `/.../`.
LEX_LATTICE = r"""
%token Integer /(-|\+)?[0-9]+/
%token Real /(-|\+)?[0-9]+\.[0-9]+/
%token Point /\./
%token Slash /\//
%token Ampersand /\&/
%start L
[more] L ::= L U ;
[one] L ::= U ;
[unit] U ::= A B ;
[amp] A ::= Ampersand Real Ampersand ;
[slash] B ::= Slash Num Slash ;
[real] Num ::= Real ;
[split] Num ::= Integer Point Integer ;
%prefer select real over split ;
"""


@dataclass(frozen=True)
class Token:
    symbol: str
    start: int
    end: int
    lexeme: str

    def leaf(self) -> tuple:
        return ("t", self.symbol, self.start, self.end, self.lexeme)


@dataclass(frozen=True)
class Instance:
    """One generated input: its text, its tokens as laid out, and its size."""

    text: str
    tokens: tuple[Token, ...]
    size: int


def layout(pieces: list[tuple[str | None, str]], size: int) -> Instance:
    """Concatenate (symbol, lexeme) pieces; a None symbol is skipped whitespace."""
    tokens = []
    offset = 0
    for symbol, lexeme in pieces:
        if symbol is not None:
            tokens.append(Token(symbol, offset, offset + len(lexeme), lexeme))
        offset += len(lexeme)
    return Instance("".join(lexeme for _s, lexeme in pieces), tuple(tokens), size)


def _operand(rng: random.Random) -> str:
    return str(rng.randint(1, 999))


def node(symbol: str, pid: int, children: tuple) -> tuple:
    return ("n", symbol, children[0][2], children[-1][3], pid, children)


# -- lr-chain -------------------------------------------------------------------


def gen_lr_chain(rng: random.Random, size: int) -> Instance:
    """A sum of ``size`` operands; one operand in each block of four is negated."""
    negated = set()
    for block in range(0, size, 4):
        negated.add(block + rng.randrange(min(4, size - block)))
    pieces: list[tuple[str | None, str]] = []
    for i in range(size):
        if i:
            pieces.append(("plus", "+"))
        if i in negated:
            pieces.append(("minus", "-"))
        pieces.append(("int", _operand(rng)))
    pieces.append(("semi", ";"))
    return layout(pieces, size)


def expect_lr_chain(inst: Instance, pids: dict[str, int], left_deep: bool = True) -> tuple:
    """The one tree: ``S(E semi)`` over a left-deep chain of signed operands.

    ``left_deep=False`` builds the right-deep chain instead, which is wrong
    and exists so that the self-test can show the checker rejecting it.
    """
    terms: list[tuple] = []
    plus_leaves: list[tuple] = []
    sign = None
    for tok in inst.tokens[:-1]:
        if tok.symbol == "minus":
            sign = node("Sign", pids["neg"], (tok.leaf(),))
        elif tok.symbol == "int":
            if sign is None:
                sign = ("n", "Sign", tok.start, tok.start, pids["pos"], ())
            terms.append(("n", "T", sign[2], tok.end, pids["operand"], (sign, tok.leaf())))
            sign = None
        else:
            plus_leaves.append(tok.leaf())
    if left_deep:
        expr = node("E", pids["term"], (terms[0],))
        for plus, term in zip(plus_leaves, terms[1:]):
            expr = node("E", pids["add"], (expr, plus, term))
    else:
        expr = node("E", pids["term"], (terms[-1],))
        for plus, term in zip(reversed(plus_leaves), reversed(terms[:-1])):
            expr = node("E", pids["add"], (node("E", pids["term"], (term,)), plus, expr))
    return node("S", pids["stmt"], (expr, inst.tokens[-1].leaf()))


# -- prec-arith -----------------------------------------------------------------


def gen_prec_arith(rng: random.Random, size: int) -> Instance:
    """``size`` operands joined by a shuffled, even mix of ``*`` and ``+``."""
    ops = ["*"] * ((size - 1) // 2) + ["+"] * (size - 1 - (size - 1) // 2)
    rng.shuffle(ops)
    pieces: list[tuple[str | None, str]] = [("int", _operand(rng))]
    for op in ops:
        pieces.append(("times" if op == "*" else "plus", op))
        pieces.append(("int", _operand(rng)))
    return layout(pieces, size)


def expect_prec_arith(inst: Instance, pids: dict[str, int], tighter: str = "times") -> tuple:
    """Precedence climbing: the ``tighter`` operator first, both left-associative.

    The grammar makes products bind tighter; ``tighter="plus"`` builds sums
    first, which puts an ``add`` under a ``mul`` and exists for the self-test.
    """
    looser = "plus" if tighter == "times" else "times"
    label = {"plus": "add", "times": "mul"}
    toks = inst.tokens

    def operand(i: int) -> tuple:
        return node("E", pids["lit"], (toks[i].leaf(),))

    def level(i: int, op: str, inner: Callable[[int], tuple[tuple, int]]) -> tuple[tuple, int]:
        left, i = inner(i)
        while i < len(toks) and toks[i].symbol == op:
            right, nxt = inner(i + 1)
            left = node("E", pids[label[op]], (left, toks[i].leaf(), right))
            i = nxt
        return left, i

    def tight(i: int) -> tuple[tuple, int]:
        return level(i, tighter, lambda j: (operand(j), j + 1))

    tree, end = level(0, looser, tight)
    if end != len(toks):
        raise ValueError("operands and operators do not alternate")
    return tree


# -- ambig-count ----------------------------------------------------------------


def gen_ambig_count(rng: random.Random, size: int) -> Instance:
    """``size`` operands joined by ``+``."""
    pieces: list[tuple[str | None, str]] = []
    for i in range(size):
        if i:
            pieces.append(("plus", "+"))
        pieces.append(("int", _operand(rng)))
    return layout(pieces, size)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


# -- lex-lattice ----------------------------------------------------------------


def _real(rng: random.Random) -> str:
    return f"{rng.randint(1, 999)}.{rng.randint(1, 999)}"


def gen_lex_lattice(rng: random.Random, size: int) -> Instance:
    """``size`` units ``&a.b& /c.d/`` separated by single spaces.

    The pieces record the intended reading: a Real inside both delimiters.
    """
    pieces: list[tuple[str | None, str]] = []
    for i in range(size):
        if i:
            pieces.append((None, " "))
        pieces.append(("Ampersand", "&"))
        pieces.append(("Real", _real(rng)))
        pieces.append(("Ampersand", "&"))
        pieces.append((None, " "))
        pieces.append(("Slash", "/"))
        pieces.append(("Real", _real(rng)))
        pieces.append(("Slash", "/"))
    return layout(pieces, size)


def expect_lex_lattice(inst: Instance, pids: dict[str, int], reading: str = "real") -> tuple:
    """A left-deep list of units, each ``A(& Real &) B(/ Num(Real) /)``.

    ``reading="split"`` reads the slashed number as ``Integer Point Integer``,
    the reading selection precedence drops; it exists for the self-test.
    """
    toks = inst.tokens
    units = []
    for i in range(0, len(toks), 6):
        amp1, real1, amp2, slash1, real2, slash2 = toks[i : i + 6]
        if reading == "real":
            num = node("Num", pids["real"], (real2.leaf(),))
        else:
            whole, frac = real2.lexeme.split(".")
            p = real2.start + len(whole)
            num = node(
                "Num",
                pids["split"],
                (
                    ("t", "Integer", real2.start, p, whole),
                    ("t", "Point", p, p + 1, "."),
                    ("t", "Integer", p + 1, real2.end, frac),
                ),
            )
        a = node("A", pids["amp"], (amp1.leaf(), real1.leaf(), amp2.leaf()))
        b = node("B", pids["slash"], (slash1.leaf(), num, slash2.leaf()))
        units.append(node("U", pids["unit"], (a, b)))
    tree = node("L", pids["one"], (units[0],))
    for unit in units[1:]:
        tree = node("L", pids["more"], (tree, unit))
    return tree


# -- observation and checks -----------------------------------------------------


@dataclass(frozen=True)
class Observed:
    """What one operation produced, reduced to the facts the checks compare."""

    total: int
    saturated: bool
    trees: tuple | None  # the canonical trees, read only when total is 1
    root_spans: tuple[tuple[int, int], ...]
    tokens: int


def observe(fence, grammar, la, egraph, counts) -> Observed:
    """Read an operation's lattice, forest and tree count through ``fence``'s public queries."""
    trees = tuple(fence.enumerate_trees(egraph, grammar, 2)) if counts.total == 1 else None
    spans = tuple((egraph.nodes[r].start, egraph.nodes[r].end) for r in egraph.roots)
    return Observed(counts.total, counts.saturated, trees, spans, len(la.nodes))


def _one_tree(obs: Observed, expected: tuple) -> str | None:
    if obs.total != 1 or obs.saturated:
        return f"expected exactly one tree, counted {obs.total}"
    if obs.trees != (expected,):
        return "the tree differs from the expected one"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    grammar: str
    size: int  # the benchmark's input size
    tiny: int  # the size of the oracle cross-check and self-test instances
    generate: Callable[[random.Random, int], Instance]
    check: Callable[[Instance, dict[str, int], Observed], str | None]

    def instance(self, seed: int, index: int | str, size: int | None = None) -> Instance:
        """The input named by (seed, index), at the benchmark's size unless ``size`` is given."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return self.generate(rng, self.size if size is None else size)


def check_lr_chain(inst: Instance, pids: dict[str, int], obs: Observed) -> str | None:
    return _one_tree(obs, expect_lr_chain(inst, pids))


def check_prec_arith(inst: Instance, pids: dict[str, int], obs: Observed) -> str | None:
    return _one_tree(obs, expect_prec_arith(inst, pids))


def check_ambig_count(inst: Instance, pids: dict[str, int], obs: Observed) -> str | None:
    want = catalan(inst.size - 1)
    if obs.total != want or obs.saturated:
        return f"expected Catalan({inst.size - 1}) = {want} trees, counted {obs.total}"
    whole = (inst.tokens[0].start, inst.tokens[-1].end)
    if not obs.root_spans or any(span != whole for span in obs.root_spans):
        return f"a root does not span the input {whole}"
    return None


def check_lex_lattice(inst: Instance, pids: dict[str, int], obs: Observed) -> str | None:
    if obs.tokens != 12 * inst.size:
        return f"expected {12 * inst.size} lattice tokens, got {obs.tokens}"
    return _one_tree(obs, expect_lex_lattice(inst, pids))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lr-chain", LR_CHAIN, 150, 5, gen_lr_chain, check_lr_chain),
        Workload("prec-arith", PREC_ARITH, 40, 5, gen_prec_arith, check_prec_arith),
        Workload("ambig-count", AMBIG_COUNT, 10, 5, gen_ambig_count, check_ambig_count),
        Workload("lex-lattice", LEX_LATTICE, 160, 2, gen_lex_lattice, check_lex_lattice),
    )
}


def production_ids(grammar) -> dict[str, int]:
    """Production ids by label; every production of the benchmark's grammars has one."""
    return {p.label: p.id for p in grammar.productions}
