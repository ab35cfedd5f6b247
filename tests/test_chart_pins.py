"""Chart outputs pinned to digests: core and node numbering, handle counts and diagnostics stay fixed.

These digests were taken from the chart with one set of stores per core, so
a change to how the chart keeps its handles, waits, predictions or nodes
that moves a node id, changes a core's handle count or preceding and
following lists, or changes a byte of a lattice document or of a rejection
diagnostic fails here.
"""

import hashlib
import json

import pytest

import randsuite

from fence import build_ela_graph, parse_text, run_chart
from fence.chart import igraph_document
from fence.elagraph import ela_document
from fence.lexgraph import serialize_la_graph
from fence.pipeline import explain_rejection
from helpers import AMBIG_INPUT, AMBIG_NUMBERS, ARITH, ARITH_LEFT, UNAMBIGUOUS_CHAIN, UNIT_LIST, chain, grammar

ARTIFACTS = ("lattice", "ela", "igraph", "explain")

HELPER_CASES = {
    "ARITH": (ARITH, [chain(k) for k in range(1, 8)] + ["1+", "+1", "1 1"]),
    "ARITH_LEFT": (ARITH_LEFT, [chain(k) for k in range(1, 8)] + ["1++1", "1+"]),
    # a chain of three or more operands derives E, but no derivation is non-associative
    "ARITH_NONE": (ARITH.replace("[add] E", "%assoc none [add] E"), [chain(k) for k in range(1, 6)]),
    "AMBIG_NUMBERS": (AMBIG_NUMBERS, [AMBIG_INPUT, "&-1.5& /+3.25/", "&1& /1/", "&1.5&", "/2.5/"]),
    "UNIT_LIST": (UNIT_LIST, ["&1.5& /2.5/", "&1.5& /2.5/ &3.0& /4.25/ &-1.0& /+7.75/", "/2.5/", "&1.5& /2.5"]),
    "UNAMBIGUOUS_CHAIN": (UNAMBIGUOUS_CHAIN, ["1;", "1+1+1;", "1+1+", "1+;", ";"]),
}

EXPECTED_HELPERS = {
    "ARITH": {
        "lattice": "ad508853f1d56166f0421c3e545535ee82e594faa66d6d1c9663aef843805e60",
        "ela": "84d56c6b27074f790dfa797bc622f13d2b4f669636820813e39c3952753b0ec7",
        "igraph": "2a770a47e2734d2817c2bff75a79a1e692c486f610eb4579ba3dcf18d6f0927c",
        "explain": "2dc7d784b292c580d16d9a2c653b5d096d5fe70753971e7b16e371c9fa7aabae",
    },
    "ARITH_LEFT": {
        "lattice": "e4175194719007c96f6f71de065e3378fb4acee15405dc594a99562273b11a6c",
        "ela": "b4e5da7c03f7c1783c3888fae6fd1d59a1f88f0bd3cab0969395753bf0c3fbc3",
        "igraph": "cd00f36dcf55e0453a89b81753e71ac951903b1403e05fa8efbebd3c39d82a85",
        "explain": "f9ed7d254a3e6aecf42e956b331076274da31418594b7a89b8e8c2906a28cef7",
    },
    "ARITH_NONE": {
        "lattice": "1ae5a3daa52246147da8661b0b78e5f2e3a4c6c6d9d12b96cbdc1efc032c6ff1",
        "ela": "adfacb495feac7dcbdb522507f44cb28bc411a4dcb9d903ba3062a7a3383452f",
        "igraph": "d127d5edbe3a7128b6f2d3489ed9777bb7ed45a1b0f987c77bdc875b0fdb901e",
        "explain": "1a79974ff365698960ee36891aee8178c3fd003c1e99308b2c89ac2ccdd577de",
    },
    "AMBIG_NUMBERS": {
        "lattice": "90607c652d7326020b7051071b4fbc25de8829aa5c501209f718b5aca1dbe071",
        "ela": "9333443bbe3760bc54c3cabb623c457e129ef717c5414b0a31da712ed3226959",
        "igraph": "c9ddbe606078fd505b3655bc014a5bfae456d43ff7633354610366659938cda5",
        "explain": "3c964b188eb2c010aa468122a7a80fe9b8bcf7a40aa6c10130e0ff0aeddf5e87",
    },
    "UNIT_LIST": {
        "lattice": "46d513f549310b0764af65af0cf578ddd222b2e75b903e3beb4099cec650a9a4",
        "ela": "5d2ba921769c6ea50a0142c9c74b29f211bfeee6cb076817814d7a125f16451f",
        "igraph": "ea32b17047f69478cdfc0de5578886651397e29abed236d1b1f4b6d9a52bc74d",
        "explain": "30154ed249640f07172cfbdb4c9c63603f994f6f54f1b1bd50fdab631a48ad81",
    },
    "UNAMBIGUOUS_CHAIN": {
        "lattice": "8d1bc42b337e6920b6d9dcc591e0292f4851fc2ad3aba6507f3c2394b538e4a2",
        "ela": "1611d9e7aa6e50da76f8ef0c5c981b097c1a7536c9567ea08f289c014b87ba65",
        "igraph": "cb062e4e62da272a9501aa5432917c6030dfaa52130ff440cbbe83f73d87999b",
        "explain": "e4d9179b75efbd38eee64727b6ad18b16da05a97627e98b06491f84480716f8e",
    },
}
EXPECTED_RANDOM = {
    "lattice": "6730b58d611775310067343b155cdd4b47a2988d2e19e4b6e1f41c82aee782b8",
    "ela": "a2c909f0aadd503f2a2a17054759aa985eaf4c8db12d688f302c81365032dbd2",
    "igraph": "357286e6718d553d183b35568e05ea48fa2aa3d479a1592e6f8f8b17e58094cc",
    "explain": "4a4bce94d03f10fc1dc6b9d3241209b406d551b4bab9666ca978b809882f788e",
}


class Digests:
    """One running sha256 per artifact over a sequence of parse outcomes."""

    def __init__(self):
        self.hashes = {name: hashlib.sha256() for name in ARTIFACTS}

    def add(self, label: str, g, outcome) -> None:
        parts = {name: label for name in ARTIFACTS}
        if outcome.la is not None:
            parts["lattice"] += json.dumps(serialize_la_graph(outcome.la, g), sort_keys=True)
        if outcome.chart is not None:
            parts["ela"] += json.dumps(ela_document(outcome.chart, g), sort_keys=True)
            parts["igraph"] += json.dumps(igraph_document(outcome.chart, g), sort_keys=True)
        if not outcome.accepted:
            parts["explain"] += explain_rejection(outcome)
        for name in ARTIFACTS:
            self.hashes[name].update(parts[name].encode() + b"\0")

    def add_unfiltered(self, label: str, g, la) -> None:
        """The graph before any chart runs, then the unfiltered chart over the same lattice."""
        before = json.dumps(ela_document(build_ela_graph(la), g), sort_keys=True)
        ig = run_chart(g, build_ela_graph(la))
        after = json.dumps(ela_document(ig, g), sort_keys=True)
        self.hashes["ela"].update((label + before + after).encode() + b"\0")
        self.hashes["igraph"].update((label + json.dumps(igraph_document(ig, g), sort_keys=True)).encode() + b"\0")

    def hexdigests(self) -> dict[str, str]:
        return {name: h.hexdigest() for name, h in self.hashes.items()}


def add_outcomes(digests: Digests, g, text: str, label: str = "") -> None:
    """The outcomes of ``text`` under ``g`` with and without enforcement, and the unfiltered chart."""
    label += repr(text)
    for enforce in (True, False):
        outcome = parse_text(g, text, enforce_constraints=enforce)
        digests.add(f"{label} enforce={enforce}:", g, outcome)
    if outcome.la is not None and outcome.la.nodes:
        digests.add_unfiltered(f"{label} unfiltered:", g, outcome.la)


@pytest.mark.parametrize("name", list(HELPER_CASES))
def test_helper_grammar_charts_match_their_pinned_digests(name):
    source, inputs = HELPER_CASES[name]
    g = grammar(source)
    digests = Digests()
    for text in inputs:
        add_outcomes(digests, g, text)
    assert digests.hexdigests() == EXPECTED_HELPERS[name]


def test_random_suite_charts_match_their_pinned_digests():
    digests = Digests()
    for seed in range(50):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for variant, g in (("plain", inst.grammar), ("constrained", inst.constrained)):
            for text in inst.inputs:
                add_outcomes(digests, g, text, f"{seed} {variant} ")
    assert digests.hexdigests() == EXPECTED_RANDOM
