"""Forest outputs pinned to digests: node numbering, alternative order and every byte stay fixed.

Criterion 10 compares two runs of the same code. These digests were taken
from the tuple-per-node forest, so a change to how the forest is stored or
built that moves a node id, reorders alternatives or changes a byte of a
document, a DOT file, an enumeration or a count fails here.
"""

import hashlib
import json

import pytest

import randsuite

from fence import build_ela_graph, expand_forest, parse_text, run_chart, tokenize
from fence.enforce import egraph_document, egraph_to_dot, enumerate_trees, tree_counts
from fence.lexgraph import TokenizationError
from helpers import AMBIG_INPUT, AMBIG_NUMBERS, ARITH, ARITH_LEFT, UNIT_LIST, chain, grammar

ARTIFACTS = ("document", "dot", "trees", "counts")

# (grammar text, evaluators, inputs); the evaluator rejects alternatives, so
# its forests go through the compaction of unreachable nodes
SMALL_ASSOCIATIVE = "%token a /a/\n%start S\n[dup] S ::= S S ;\n[one] S ::= a ;\n"
HELPER_CASES = {
    "ARITH": (ARITH, None, [chain(k) for k in range(1, 8)] + ["1+", "+1"]),
    "ARITH_LEFT": (ARITH_LEFT, None, [chain(k) for k in range(1, 8)] + ["1++1"]),
    "AMBIG_NUMBERS": (AMBIG_NUMBERS, None, [AMBIG_INPUT, "&-1.5& /+3.25/", "&1& /1/"]),
    "UNIT_LIST": (UNIT_LIST, None, ["&1.5& /2.5/", "&1.5& /2.5/ &3.0& /4.25/ &-1.0& /+7.75/", "/2.5/"]),
    "EVALUATOR": (SMALL_ASSOCIATIVE, {"dup": lambda v: v.children[0].end - v.start <= v.end - v.children[1].start},
                  ["a", "aa", "aaa", "aaaaa", "aaaaaaa"]),
}

EXPECTED_HELPERS = {
    "ARITH": {
        "document": "aa3bf6ac24ec6d9cdca813b845b33b5772d39e4e794f003a7472b6361d037dbb",
        "dot": "bb912229c2532ee0faba5b2ac1a7ba7145bcaff61ea1bb156c3e40c9f4835499",
        "trees": "17e00a1ed3314f0d45ff09dae110984927367e726ac2de54373045f6718994e7",
        "counts": "cf663478c1fa5513a2766fc24fb2dda19fb7e6d5fd4e4b3f9611b2a0273bf78f",
    },
    "ARITH_LEFT": {
        "document": "b10fa137819d80a03f24f9a45ba6c0c1d0d0fe5823f4df50a36be3fdfe89a1e7",
        "dot": "6cdd47750918edd7345d1a6396258fd6a9f8f77169ec35dd3f86cea44cd0cdbb",
        "trees": "00d86f5f8d73f16e722e6b0309a497aa5ea64a8648fff89b294cc7b698ae1f66",
        "counts": "e5c5ffa1f2295caa1145f36d975187f69744412ea95b75d008dbc68ca52f8df0",
    },
    "AMBIG_NUMBERS": {
        "document": "e454efa7287c4f15120a438505680853470f0a9e197f5dd65de7521f56d3d3c1",
        "dot": "b0e296b5cdc3ca2a2d4a3bca11766f4aa6b7db1b37d294c4c101bba5c0bf9de5",
        "trees": "173cc3e35869f3cfd1a9ce8e84e0a225f1baedaef0253c02d8dd936c90211491",
        "counts": "6694ce5dd92b45b999c22c95eab4bc9bec2320c8c6f5dfbc3744043cbede78ff",
    },
    "UNIT_LIST": {
        "document": "45bc1c25d2c0db985442e096c5ad97efbf678ba6aefd76d3faac07ac578abd3f",
        "dot": "778e010a224055cb043fa28999da2e952757a89e2dfccf3f7dfd43223d07f705",
        "trees": "5e6ebd87307995c336f96e282be3695452cbae90cdc639a31b4ef1f1ed4279e9",
        "counts": "ac4ff51f04cec53e78bbb4745d50e0f14b7b88f75e7d7c33bf74ef062868a8ad",
    },
    "EVALUATOR": {
        "document": "feb1d77f662dffc18f450de8ca4fd66638a49e26c2e57f8fd66659ccea841b76",
        "dot": "6ab29971ba55c0f6ee0180822f7eb4996af4cba70714dcc95d68a4a0e2b2d98d",
        "trees": "00ef25aebd5ade528254609b497c4ea76fbed8d837d7058d5cc32fc41d6c9393",
        "counts": "2c450307cc11633d4d3fa5fe26696c5ddb95b822c5b1d7e4d247010b2f31687c",
    },
}
EXPECTED_RANDOM = {
    "document": "8b8645af7b10d2448f63baf71e87b01250d6b38254a0d1a7c363a281e197a2cb",
    "dot": "0422edd2017d57c0fbfd92b9b591e20972a5b26c1058f1adccd4d7da5538b148",
    "trees": "5ff5222046b7077ab5db4c41b91ed61b3d6ce02bdc7e2a6cf05c15f287e7eebc",
    "counts": "c25bcdcb5fdc8ac4111aad04efad9a7b81ca5166efe1919ade37da5d2a575488",
}


class Digests:
    """One running sha256 per artifact over a sequence of forests, rejections included."""

    def __init__(self):
        self.hashes = {name: hashlib.sha256() for name in ARTIFACTS}

    def add(self, label: str, g, eg) -> None:
        parts = {name: label for name in ARTIFACTS}
        if eg is not None:
            counts = tree_counts(eg)
            parts["document"] += json.dumps(egraph_document(eg, g), sort_keys=True)
            parts["dot"] += egraph_to_dot(eg, g)
            parts["trees"] += json.dumps(enumerate_trees(eg, g, 50))
            parts["counts"] += json.dumps([counts.total, sorted(counts.per_root.items()), counts.saturated])
        for name in ARTIFACTS:
            self.hashes[name].update(parts[name].encode() + b"\0")

    def hexdigests(self) -> dict[str, str]:
        return {name: h.hexdigest() for name, h in self.hashes.items()}


def add_forests(digests: Digests, g, text: str, label: str = "") -> None:
    """The forests of ``text`` under ``g``: parsed with and without enforcement, and the unfiltered chart enforced."""
    label += repr(text)
    for enforce in (True, False):
        digests.add(f"{label} enforce={enforce}:", g, parse_text(g, text, enforce_constraints=enforce).egraph)
    try:
        la = tokenize(g, text)
    except TokenizationError:
        return
    if la.nodes:
        digests.add(f"{label} unfiltered:", g, expand_forest(g, run_chart(g, build_ela_graph(la))))


@pytest.mark.parametrize("name", list(HELPER_CASES))
def test_helper_grammar_forests_match_their_pinned_digests(name):
    source, evaluators, inputs = HELPER_CASES[name]
    g = grammar(source, evaluators=evaluators) if evaluators else grammar(source)
    digests = Digests()
    for text in inputs:
        add_forests(digests, g, text)
    assert digests.hexdigests() == EXPECTED_HELPERS[name]


def test_random_suite_forests_match_their_pinned_digests():
    digests = Digests()
    for seed in range(50):
        inst = randsuite.make_instance(seed)
        if inst is None:
            continue
        for variant, g in (("plain", inst.grammar), ("constrained", inst.constrained)):
            for text in inst.inputs:
                add_forests(digests, g, text, f"{seed} {variant} ")
    assert digests.hexdigests() == EXPECTED_RANDOM
