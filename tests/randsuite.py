"""Seeded random grammar/input generator for the oracle equivalence suites.

Instances are deliberately skewed toward the hard cases: epsilon productions,
nullable chains, unit cycles, duplicated right-hand sides (selection fodder),
self-nesting productions (ambiguity), and lexically overlapping token sets.
Instances whose oracle run would blow the bounds are skipped and replaced, so
a fixed number of verified instances is always reached deterministically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from fence import (
    OracleLimitError,
    build_ela_graph,
    enumerate_trees,
    expand_forest,
    oracle_filter,
    oracle_parse_all,
    parse_grammar_text,
    run_chart,
    tokenize,
)
from fence.grammar import Grammar
from fence.lexgraph import TokenizationError
from fence.oracle import OracleBounds

MAX_INPUT_TOKENS = 12
MAX_ORACLE_TREES = 1500
BOUNDS = OracleBounds(max_paths=400, max_depth=60, max_work=150_000)

_PLAIN_TOKENS = [("ta", "a", "a"), ("tb", "b", "b"), ("tc", "c", "c"), ("td", "d", "d")]
_OVERLAP_TOKENS = [("tx", "x", "x"), ("ty", "y", "y"), ("txy", "xy", "xy"), ("tyx", "yx", "yx")]
# two definitions matching the same lexeme; every "k" is a two-way token fork
_TWIN_TOKENS = [("kw", "k", "k"), ("word", "[kw]", "k"), ("tw", "w", "w")]


@dataclass
class Instance:
    seed: int
    grammar: Grammar
    constrained: Grammar
    samples: dict[str, str]
    inputs: list[str]


def _build_text(rng: random.Random, constrained: bool) -> tuple[str, dict[str, str]]:
    roll = rng.random()
    if roll < 0.2:
        tokens = list(_OVERLAP_TOKENS)
    elif roll < 0.35:
        tokens = list(_TWIN_TOKENS)
    else:
        tokens = list(_PLAIN_TOKENS)
    rng.shuffle(tokens)
    tokens = tokens[: rng.randint(2, len(tokens))]
    samples = {name: sample for name, _pat, sample in tokens}
    terminal_names = [name for name, _pat, _s in tokens]

    nts = ["S", "A", "B", "C", "D", "F"][: rng.randint(1, 6)]
    rules: list[tuple[str, list[str]]] = []

    def random_rhs() -> list[str]:
        length = rng.choices([0, 1, 2, 3], weights=[12, 30, 36, 22])[0]
        pool = terminal_names + nts
        return [rng.choice(pool) for _ in range(length)]

    for nt in nts:
        rules.append((nt, random_rhs()))
    while len(rules) < rng.randint(len(nts), 10):
        rules.append((rng.choice(nts), random_rhs()))
    if len(nts) >= 2 and rng.random() < 0.35 and len(rules) < 9:
        a, b = rng.sample(nts, 2)
        rules.append((a, [b]))
        rules.append((b, [a]))
    if rng.random() < 0.35 and len(rules) < 10:
        lhs, rhs = rng.choice(rules)
        rules.append((lhs, list(rhs)))
    if rng.random() < 0.4 and len(rules) < 10:
        nt = rng.choice(nts)
        rules.append((nt, [nt, nt]))

    lines = [f"%token {name} /{pattern}/" for name, pattern, _s in tokens]
    lines.append("%start S")
    decls = []
    for i, (lhs, rhs) in enumerate(rules):
        decls.append((f"p{i}", lhs, rhs))
        lines.append(f"[p{i}] {lhs} ::= {' '.join(rhs)} ;")

    if constrained:
        candidates = [label for label, _lhs, rhs in decls if len(rhs) >= 2]
        for label in rng.sample(candidates, min(len(candidates), rng.randint(0, 2))):
            direction = rng.choice(["left", "right", "none"])
            for i, line in enumerate(lines):
                if line.startswith(f"[{label}]"):
                    lines[i] = f"%assoc {direction} {line}"
        by_lhs: dict[str, list[str]] = {}
        for label, lhs, _rhs in decls:
            by_lhs.setdefault(lhs, []).append(label)
        competing = [labels for labels in by_lhs.values() if len(labels) >= 2]
        for _ in range(rng.randint(0, 2)):
            if not competing:
                break
            labels = rng.choice(competing)
            a, b = sorted(rng.sample(labels, 2))
            lines.append(f"%prefer select {a} over {b} ;")
        if len(decls) >= 2:
            for _ in range(rng.randint(0, 2)):
                a, b = sorted(rng.sample([d[0] for d in decls], 2))
                lines.append(f"%prefer compose {a} over {b} ;")

    return "\n".join(lines) + "\n", samples


def _sample_input(g: Grammar, samples: dict[str, str], rng: random.Random) -> str | None:
    """Random derivation of the start symbol, bounded; None when it balloons."""

    budget = [MAX_INPUT_TOKENS]

    def expand(sym_id: int, depth: int) -> list[str] | None:
        if depth > 8:
            return None
        prods = list(g.productions_by_lhs[sym_id])
        rng.shuffle(prods)
        for p in prods:
            parts: list[str] = []
            ok = True
            saved = budget[0]
            for s in p.rhs:
                if s.is_terminal:
                    if budget[0] <= 0:
                        ok = False
                        break
                    budget[0] -= 1
                    parts.append(samples[s.name])
                else:
                    sub = expand(s.id, depth + 1)
                    if sub is None:
                        ok = False
                        break
                    parts.extend(sub)
            if ok:
                return parts
            budget[0] = saved
        return None

    parts = expand(g.start.id, 0)
    return None if parts is None else "".join(parts)


def make_instance(seed: int) -> Instance | None:
    """One verified-buildable instance, or None when the draw is degenerate."""
    rng = random.Random(seed)
    text, samples = _build_text(rng, constrained=False)
    rng2 = random.Random(seed)
    ctext, _ = _build_text(rng2, constrained=True)
    try:
        g = parse_grammar_text(text)
        gc = parse_grammar_text(ctext)
    except Exception:
        return None
    inputs: list[str] = []
    for _ in range(3):
        sample = _sample_input(g, samples, rng)
        if sample and sample not in inputs:
            inputs.append(sample)
    alphabet = sorted({ch for s in samples.values() for ch in s})
    for _ in range(2):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        if s not in inputs:
            inputs.append(s)
    if not inputs:
        return None
    return Instance(seed, g, gc, samples, inputs)


def _pipeline_trees(g: Grammar, text: str) -> frozenset:
    from fence import parse_text

    outcome = parse_text(g, text)
    if not outcome.accepted:
        return frozenset()
    return frozenset(enumerate_trees(outcome.egraph, g, 10**6))


def _unfiltered_chart_trees(g: Grammar, la) -> frozenset:
    """Trees of the enforcing expansion of the chart that enforces nothing."""
    eg = expand_forest(g, run_chart(g, build_ela_graph(la)))
    return frozenset(enumerate_trees(eg, g, 10**6)) if eg.roots else frozenset()


def oracle_trees(g: Grammar, text: str) -> tuple | None:
    """(lattice, oracle tree set) of an input the suite can check, else None.

    Inputs that do not tokenize, or whose trees the oracle cannot enumerate
    within ``BOUNDS`` and ``MAX_ORACLE_TREES``, are skipped.
    """
    try:
        la = tokenize(g, text)
        base = oracle_parse_all(g, la, BOUNDS)
    except (TokenizationError, OracleLimitError):
        return None
    return (la, base) if len(base) <= MAX_ORACLE_TREES else None


def check_instance(inst: Instance) -> tuple[int, int]:
    """Compare pipeline and oracle over every input; returns (checked, skipped).

    Raises AssertionError with a reproducible seed on any mismatch.
    """
    checked = skipped = 0
    g, gc = inst.grammar, inst.constrained
    for text in inst.inputs:
        ground = oracle_trees(g, text)
        if ground is None:
            skipped += 1
            continue
        # Unconstrained ground truth; production ids coincide between the
        # two grammar variants, so one enumeration serves both checks.
        la, base = ground
        expected_constrained = oracle_filter(base, gc, la)
        assert _pipeline_trees(g, text) == base, (
            f"unconstrained pipeline/oracle mismatch: seed={inst.seed} input={text!r}"
        )
        assert _pipeline_trees(gc, text) == expected_constrained, (
            f"constrained pipeline/oracle mismatch: seed={inst.seed} input={text!r}"
        )
        if la.nodes:
            assert _unfiltered_chart_trees(gc, la) == expected_constrained, (
                f"constrained expansion of the unfiltered chart/oracle mismatch: seed={inst.seed} input={text!r}"
            )
        checked += 2
    return checked, skipped


def run_suite(n_instances: int, start_seed: int = 0) -> tuple[int, int, int]:
    """Run until ``n_instances`` instances verified; returns (instances, checks, skips)."""
    done = checks = skips = 0
    seed = start_seed
    while done < n_instances:
        inst = make_instance(seed)
        seed += 1
        if inst is None:
            continue
        c, s = check_instance(inst)
        if c == 0:
            continue
        done += 1
        checks += c
        skips += s
    return done, checks, skips
