"""Lattice outputs pinned to digests: token numbering, spans, links and every document byte stay fixed.

These digests were taken from the lattice that stored one ``TokenNode``
record per token, so a change to how the lattice is stored or built that
moves a token id, drops or adds a token, or changes a byte of a
``serialize_la_graph`` document fails here. The inputs are those of the
forest pins.
"""

import hashlib
import json

import pytest

import randsuite

from fence import tokenize
from fence.lexgraph import TokenizationError, load_la_graph, serialize_la_graph
from helpers import grammar
from test_forest_pins import HELPER_CASES

ARTIFACTS = ("document", "tokens")

EXPECTED_HELPERS = {
    "ARITH": {
        "document": "be69d9bc8f26d98017553433723d4e911a9cac69b26d688d242a683bdff0470d",
        "tokens": "ddbedc8c897af1cd61a9c00705db21f26ea900e27df9385c04b81cdbad23476b",
    },
    "ARITH_LEFT": {
        "document": "cfcad15912a2d6561a6784529fe8b000049f3d30a3aaa76d612c7bee682ed60b",
        "tokens": "fce8495aadd3bf4f698f0c19496248d0f02ea4557c933fe75af140ac030a66b4",
    },
    "AMBIG_NUMBERS": {
        "document": "bc0cb9841b9e1bdb7d245d47a7dccdf7357d7ed8bc55035a0b1155ef2626a7d7",
        "tokens": "a7c495e787c684cfc50098f0c60cb6a9456032dd00477840b8f1fb75a164eac0",
    },
    "UNIT_LIST": {
        "document": "31f4e1233b32d08658514ee3b146edfe17049bd2b2f570ef132c9998a88204d2",
        "tokens": "baa874360ba0a8f7af51ac8c984dbb9c7e8fa056498ba9a79ef2edea43b1e643",
    },
    "EVALUATOR": {
        "document": "78023fbafaab8e440b72c7d775110d60c09cc8fde404eaf44293e159b3258969",
        "tokens": "2546aa1e0a474fa26007252a9ae4e9ffbff8c7316648231f675c36446d8de375",
    },
}
EXPECTED_RANDOM = {
    "document": "191f70fb22e9994d235de47ad55377606c063086a3d08528cab6fee662eaae7b",
    "tokens": "cea935794c73fc9db420d82464169ccedd7d06cbee61d71590707be1ebff4e72",
}


class Digests:
    """One running sha256 per artifact over a sequence of lattices, lexical rejections included."""

    def __init__(self):
        self.hashes = {name: hashlib.sha256() for name in ARTIFACTS}

    def add(self, g, text: str, label: str = "") -> None:
        parts = {name: label + repr(text) for name in ARTIFACTS}
        try:
            la = tokenize(g, text)
        except TokenizationError as exc:
            parts = {name: part + f" lexical {exc.furthest}" for name, part in parts.items()}
        else:
            doc = serialize_la_graph(la, g)
            assert load_la_graph(doc, g) == la
            parts["document"] += json.dumps(doc, sort_keys=True)
            parts["tokens"] += json.dumps(
                [[tuple(t) for t in la.nodes], la.starting, sorted(la.next_position.items()), la.content_start]
            )
        for name in ARTIFACTS:
            self.hashes[name].update(parts[name].encode() + b"\0")

    def hexdigests(self) -> dict[str, str]:
        return {name: h.hexdigest() for name, h in self.hashes.items()}


@pytest.mark.parametrize("name", list(HELPER_CASES))
def test_helper_grammar_lattices_match_their_pinned_digests(name):
    source, evaluators, inputs = HELPER_CASES[name]
    g = grammar(source, evaluators=evaluators) if evaluators else grammar(source)
    digests = Digests()
    for text in inputs:
        digests.add(g, text)
    assert digests.hexdigests() == EXPECTED_HELPERS[name]


def test_random_suite_lattices_match_their_pinned_digests():
    digests = Digests()
    for seed in range(50):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for variant, g in (("plain", inst.grammar), ("constrained", inst.constrained)):
            for text in inst.inputs:
                digests.add(g, text, f"{seed} {variant} ")
    assert digests.hexdigests() == EXPECTED_RANDOM
