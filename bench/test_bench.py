"""Self-test of the benchmark: its checks pass right answers and reject wrong ones.

Run from the repository root with ``python3 -m pytest -q bench``. Each
workload runs at a tiny size; each checker then gets a deliberately wrong
answer of the kind its workload invites and must reject it, which shows that
no check passes vacuously.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fence  # noqa: E402
import workloads as W  # noqa: E402
from run import LAYER_CALLS, ORACLE_INSTANCES, Bench, intercepted, pipeline_module  # noqa: E402

SEEDS = (1, 2, 3)


def parsed(name: str, seed: int):
    """The workload's tiny instance for ``seed``, with what the program made of it."""
    w = W.WORKLOADS[name]
    grammar = fence.parse_grammar_text(w.grammar)
    inst = w.instance(seed, "self-test", w.tiny)
    outcome = fence.parse_text(grammar, inst.text)
    obs = W.observe(fence, grammar, outcome.la, outcome.egraph, fence.tree_counts(outcome.egraph))
    return w, W.production_ids(grammar), inst, obs


def productions_under(tree: tuple, parent: int) -> set[int]:
    """Production ids of the direct children of every node built by ``parent``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[0] == "n":
            if node[4] == parent:
                found.update(c[4] for c in node[5] if c[0] == "n")
            stack.extend(node[5])
    return found


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_checker_accepts_the_program_output(name, seed):
    w, pids, inst, obs = parsed(name, seed)
    assert w.check(inst, pids, obs) is None


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_oracle_cross_check_passes(name):
    bench = Bench(fence, W.WORKLOADS[name], seed=1)
    bench.oracle_cross_check()
    assert (bench.tally.attempted, bench.tally.failed) == (ORACLE_INSTANCES, 0), bench.tally.reasons


@pytest.mark.parametrize("seed", SEEDS)
def test_lr_chain_rejects_a_right_deep_chain(seed):
    w, pids, inst, obs = parsed("lr-chain", seed)
    wrong = W.expect_lr_chain(inst, pids, left_deep=False)
    assert wrong != W.expect_lr_chain(inst, pids)
    assert w.check(inst, pids, dataclasses.replace(obs, trees=(wrong,))) is not None


@pytest.mark.parametrize("seed", SEEDS)
def test_prec_arith_rejects_an_add_under_a_mul(seed):
    w, pids, inst, obs = parsed("prec-arith", seed)
    wrong = W.expect_prec_arith(inst, pids, tighter="plus")
    assert pids["add"] in productions_under(wrong, pids["mul"])
    assert pids["add"] not in productions_under(W.expect_prec_arith(inst, pids), pids["mul"])
    assert w.check(inst, pids, dataclasses.replace(obs, trees=(wrong,))) is not None


@pytest.mark.parametrize("delta", (-1, 1))
def test_ambig_count_rejects_a_count_off_by_one(delta):
    w, pids, inst, obs = parsed("ambig-count", 1)
    assert obs.total == W.catalan(inst.size - 1)
    assert w.check(inst, pids, dataclasses.replace(obs, total=obs.total + delta)) is not None


def test_ambig_count_rejects_a_root_short_of_the_input():
    w, pids, inst, obs = parsed("ambig-count", 1)
    start, end = obs.root_spans[0]
    short = obs.root_spans[:-1] + ((start, end - 1),)
    assert w.check(inst, pids, dataclasses.replace(obs, root_spans=short)) is not None


@pytest.mark.parametrize("seed", SEEDS)
def test_lex_lattice_rejects_split_in_place_of_real(seed):
    w, pids, inst, obs = parsed("lex-lattice", seed)
    wrong = W.expect_lex_lattice(inst, pids, reading="split")
    assert pids["split"] in productions_under(wrong, pids["slash"])
    assert w.check(inst, pids, dataclasses.replace(obs, trees=(wrong,))) is not None


def test_lex_lattice_rejects_a_wrong_token_count():
    w, pids, inst, obs = parsed("lex-lattice", 1)
    assert obs.tokens == 12 * inst.size
    assert w.check(inst, pids, dataclasses.replace(obs, tokens=obs.tokens - 1)) is not None


def test_an_exception_counts_the_operation_as_failed():
    bench = Bench(fence, W.WORKLOADS["lr-chain"], seed=1)
    unparsable = dataclasses.replace(bench.pool[0], text="1 ? 2")
    assert bench.tally.record(unparsable, bench.operation(unparsable)) is False
    assert (bench.tally.attempted, bench.tally.failed) == (1, 1)


def test_traced_layers_are_the_calls_parse_text_makes():
    w = W.WORKLOADS["lex-lattice"]
    grammar = fence.parse_grammar_text(w.grammar)
    module = pipeline_module(fence)
    originals = {name: getattr(module, name) for name in LAYER_CALLS}
    seen = []

    def hook(name, call):
        seen.append(name)
        return call()

    with intercepted(module, LAYER_CALLS, hook):
        outcome = fence.parse_text(grammar, w.instance(1, "self-test", w.tiny).text)
    assert seen == list(LAYER_CALLS)
    assert fence.tree_counts(outcome.egraph).total == 1
    assert {name: getattr(module, name) for name in LAYER_CALLS} == originals
