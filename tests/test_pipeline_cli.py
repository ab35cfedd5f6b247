"""Pipeline sessions, rejection diagnostics, and the command-line driver."""

import json
import time

import pytest

from fence import TokenizationError, enumerate_trees, oracle_parse_all, pipeline, tokenize
from fence.chart import run_chart
from fence.cli import _dumps, main
from fence.pipeline import explain_rejection, parse_text
from helpers import AMBIG_INPUT, AMBIG_NUMBERS, ARITH, ARITH_LEFT, catalan, chain, grammar


@pytest.fixture()
def numbers_grammar_file(tmp_path):
    path = tmp_path / "numbers.fence"
    path.write_text(AMBIG_NUMBERS)
    return str(path)


@pytest.fixture()
def arith_grammar_file(tmp_path):
    path = tmp_path / "arith.fence"
    path.write_text(ARITH)
    return str(path)


# -- pipeline --------------------------------------------------------------


def test_accept_outcome_keeps_intermediates():
    g = grammar(AMBIG_NUMBERS)
    outcome = parse_text(g, AMBIG_INPUT)
    assert outcome.accepted
    assert outcome.la is not None and outcome.ela is not None
    assert outcome.igraph is not None and len(outcome.egraph.roots) == 1
    # one graph: the extended graph the chart filled
    assert outcome.ela is outcome.igraph is outcome.chart


def test_an_accepted_outcome_is_explained_as_accepted():
    outcome = parse_text(grammar(AMBIG_NUMBERS), AMBIG_INPUT)
    assert outcome.accepted
    assert explain_rejection(outcome) == "input accepted"


def test_lexical_rejection():
    g = grammar(AMBIG_NUMBERS)
    outcome = parse_text(g, "&5.2@")
    assert not outcome.accepted and outcome.failure == "lexical"
    assert outcome.furthest == 4
    assert "offset 4" in explain_rejection(outcome)


def test_parse_rejection_diagnostics():
    g = grammar(AMBIG_NUMBERS)
    outcome = parse_text(g, "&&")
    assert outcome.failure == "parse"
    text = explain_rejection(outcome)
    assert "offset 2" in text
    assert "token spans" in text  # nothing nonterminal ever reduced
    assert "Ampersand" in text


def test_partial_parse_lists_largest_nonterminal_spans():
    g = grammar(AMBIG_NUMBERS)
    outcome = parse_text(g, "&5.2&")  # A parses, E never completes
    assert outcome.failure == "parse"
    text = explain_rejection(outcome)
    assert "nonterminal" in text and "A [0,5)" in text


def test_no_parse_names_what_the_furthest_core_expects():
    lines = explain_rejection(parse_text(grammar(ARITH), "1+")).splitlines()
    assert lines[:2] == ["no parse: input tokenizes up to offset 2", "expected one of {int} at offset 2"]
    # the second & sits where only a Real can continue the predicted A
    text = explain_rejection(parse_text(grammar(AMBIG_NUMBERS), "&&"))
    assert "expected one of {Real} at offset 1" in text
    # a core several terminals could continue lists them sorted by name
    chain = grammar("%token plus /\\+/\n%token int /[0-9]+/\n%token semi /;/\n%start S\n"
                    "S ::= E semi ;\nE ::= E plus int ;\nE ::= int ;\n")
    assert "expected one of {plus, semi} at offset 3" in explain_rejection(parse_text(chain, "1+1"))


def test_derived_but_pruned_is_not_reported_as_no_parse(tmp_path, capsys):
    source = ARITH_LEFT.replace("%assoc left", "%assoc none")
    g = grammar(source)
    outcome = parse_text(g, "1+1+1")
    assert outcome.failure == "parse"
    assert not outcome.igraph.starting and not outcome.egraph.roots
    text = explain_rejection(outcome)
    assert "no parse" not in text
    assert "constraints removed every derivation" in text and "E [0,5)" in text
    # a genuine no-derivation input keeps the plain diagnostic
    text = explain_rejection(parse_text(g, "1+"))
    assert text.startswith("no parse: input tokenizes up to offset 2")
    assert "constraints" not in text
    path = tmp_path / "arith.fence"
    path.write_text(source)
    assert main(["parse", "--grammar", str(path), "--text", "1+1+1"]) == 1
    assert "derived but pruned" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, text",
    [
        # only left nesting derives the chain, and right associativity forbids it
        ("%token plus /\\+/\n%token int /[0-9]+/\n%start E\n"
         "%assoc right [add] E ::= E plus int ;\n[lit] E ::= int ;\n", "1+1+1"),
        (ARITH_LEFT.replace("%assoc left", "%assoc none"), "1+1+1"),
        ("%token plus /\\+/\n%token int /[0-9]+/\n%start S\n[top] S ::= E ;\n"
         "[add] E ::= E plus E ;\n[lit] E ::= int ;\n%prefer compose top over add ;\n", "1+1"),
    ],
    ids=["assoc-right", "assoc-none", "compose"],
)
def test_a_derivation_the_chart_pruned_is_reported_as_pruned(source, text):
    g = grammar(source)
    assert parse_text(g, text, enforce_constraints=False).accepted
    outcome = parse_text(g, text)
    assert outcome.failure == "parse" and not outcome.egraph.roots
    # the chart that ran blocked the derivation, and the outcome keeps it
    assert outcome.chart.filtered and not outcome.chart.starting
    assert outcome.ela is outcome.igraph is outcome.chart
    message = explain_rejection(outcome)
    assert message.startswith("derived but pruned") and "no parse" not in message


def test_the_outcome_keeps_the_chart_that_ran(tmp_path, capsys, monkeypatch):
    source = ARITH_LEFT.replace("%assoc left", "%assoc none")
    path = tmp_path / "none.fence"
    path.write_text(source)
    assert main(["parse", "--grammar", str(path), "--dump-ig", "--text", "1+1+1"]) == 1
    out, err = capsys.readouterr()
    # the dump counts the pops of the enforcing chart, not of the diagnostic's re-run
    assert json.loads(out)["stats"]["agendaPops"] == 5
    assert err.splitlines() == [
        "derived but pruned: the input derives the start symbol, but the constraints removed every derivation",
        "derived roots:",
        "  E [0,5)",
    ]
    outcome = parse_text(grammar(source), "1+1+1")
    runs = []
    monkeypatch.setattr(pipeline, "run_chart", lambda *args: runs.append(args) or run_chart(*args))
    assert outcome.ela is outcome.igraph is outcome.chart and not runs
    assert explain_rejection(outcome) == err.rstrip("\n")
    assert len(runs) == 1 and outcome.chart.agenda_pops == 5 and not outcome.chart.starting


def test_a_no_parse_diagnostic_does_not_depend_on_the_chart_that_ran():
    g = grammar(ARITH_LEFT)
    for text in ("1+1+", "1++1", "+1"):
        outcome = parse_text(g, text)
        assert outcome.chart.filtered
        message = explain_rejection(outcome)
        assert message.startswith("no parse") and "expected one of {int}" in message
        assert message == explain_rejection(parse_text(g, text, enforce_constraints=False))


def test_empty_input_acceptance_depends_on_nullable_start():
    nullable = grammar("%token a /a/\n%start S\nS ::= ;\nS ::= a ;\n")
    outcome = parse_text(nullable, "  ")
    assert outcome.accepted
    assert len(outcome.egraph.roots) == 1
    strict = grammar("%token a /a/\n%start S\nS ::= a ;\n")
    assert not parse_text(strict, "").accepted


@pytest.mark.parametrize("text, furthest", [("", None), ("  ", None), ("x", 0), ("  x", 2)])
def test_a_grammar_without_tokens_agrees_with_the_oracle(text, furthest):
    g = grammar("%start S\nS ::= ;\n")
    outcome = parse_text(g, text)
    try:
        truth = oracle_parse_all(g, tokenize(g, text))
    except TokenizationError as exc:
        assert (outcome.failure, outcome.furthest) == ("lexical", exc.furthest) == ("lexical", furthest)
        return
    assert outcome.accepted and furthest is None
    assert frozenset(enumerate_trees(outcome.egraph, g, 10)) == truth == {("n", "S", len(text), len(text), 0, ())}


# -- CLI -------------------------------------------------------------------


def test_count_on_running_example(numbers_grammar_file, capsys):
    code = main(["parse", "--grammar", numbers_grammar_file, "--text", AMBIG_INPUT, "--count"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_rejection_exit_code(numbers_grammar_file, capsys):
    code = main(["parse", "--grammar", numbers_grammar_file, "--text", "&&"])
    assert code == 1
    err = capsys.readouterr().err
    assert "offset 2" in err


def test_count_on_a_rejected_input_prints_zero(numbers_grammar_file, capsys):
    code = main(["parse", "--grammar", numbers_grammar_file, "--text", "&&", "--count"])
    assert code == 1
    printed = capsys.readouterr()
    assert printed.out == "0\n"
    assert "offset 2" in printed.err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--text", "&", "--enumerate", "0"], "fence: error: --enumerate requires a limit >= 1"),
        ([], "one of the arguments --input --text is required"),
        (["--text", "&", "--input", "x"], "not allowed with argument"),
        (["--text", "&", "--format", "xml"], "invalid choice: 'xml'"),
        (["--input", "no-such-file"], "fence: error: "),
    ],
    ids=["enumerate-zero", "no-input", "two-inputs", "bad-format", "missing-input-file"],
)
def test_usage_errors_exit_with_status_2(numbers_grammar_file, capsys, args, message):
    assert main(["parse", "--grammar", numbers_grammar_file, *args]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert message in printed.err


def test_ambiguous_count(arith_grammar_file, capsys):
    code = main(["parse", "--grammar", arith_grammar_file, "--text", "1+1+1", "--count"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_count_of_a_thirty_operand_sum(arith_grammar_file, capsys):
    started = time.perf_counter()
    code = main(["parse", "--grammar", arith_grammar_file, "--text", chain(30), "--count"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1002242216651368" == str(catalan(29))
    assert time.perf_counter() - started < 10.0


def test_a_saturated_count_says_so_on_stderr(arith_grammar_file, capsys):
    # Catalan(39) is about 1.7e21 trees, past the 10^18 cap
    assert main(["parse", "--grammar", arith_grammar_file, "--text", chain(40), "--count"]) == 0
    printed = capsys.readouterr()
    assert printed.out == "1000000000000000000\n"
    assert len(printed.err.splitlines()) == 1 and "saturated" in printed.err
    assert main(["parse", "--grammar", arith_grammar_file, "--text", chain(30), "--count"]) == 0
    assert capsys.readouterr().err == ""


def test_usage_errors_exit_2(numbers_grammar_file, capsys):
    assert main(["parse", "--grammar", numbers_grammar_file]) == 2
    assert main(["parse", "--grammar", "/nonexistent", "--text", "x"]) == 2
    assert (
        main(["parse", "--grammar", numbers_grammar_file, "--text", "&", "--enumerate", "0"]) == 2
    )
    capsys.readouterr()


def test_grammar_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.fence"
    bad.write_text("%token a /a/\nS ::= a ;\n")
    assert main(["parse", "--grammar", str(bad), "--text", "a"]) == 2
    assert "start symbol missing" in capsys.readouterr().err


def test_default_output_is_the_forest_document(numbers_grammar_file, capsys):
    code = main(["parse", "--grammar", numbers_grammar_file, "--text", AMBIG_INPUT])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"nodes", "roots", "treeCounts"}
    assert len(doc["roots"]) == 1


def test_enumerate_output(arith_grammar_file, capsys):
    code = main(
        ["parse", "--grammar", arith_grammar_file, "--text", "1+1+1", "--enumerate", "5"]
    )
    assert code == 0
    trees = json.loads(capsys.readouterr().out)
    assert len(trees) == 2
    assert all(t["symbol"] == "E" for t in trees)


def test_dot_output(numbers_grammar_file, capsys):
    code = main(["parse", "--grammar", numbers_grammar_file, "--text", AMBIG_INPUT, "--format", "dot"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and "shape=box" in out


def test_dumps_are_emitted_in_pipeline_order(numbers_grammar_file, capsys):
    code = main(
        [
            "parse", "--grammar", numbers_grammar_file, "--text", AMBIG_INPUT,
            "--dump-la", "--dump-ela", "--dump-ig", "--count",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    decoder = json.JSONDecoder()
    docs = []
    pos = 0
    while True:
        stripped = out[pos:].lstrip()
        if not stripped or not stripped.startswith(("{", "[")):
            break
        doc, consumed = decoder.raw_decode(stripped)
        docs.append(doc)
        pos = len(out) - len(stripped) + consumed
    assert len(docs) == 3
    la_doc, ela_doc, ig_doc = docs
    assert {"input", "nodes", "starting"} <= la_doc.keys()
    assert {"cores", "nodes"} <= ela_doc.keys()
    assert all(c["handleCount"] > 0 for c in ela_doc["cores"][:1])  # chart has run
    assert {"nodes", "starting", "stats"} <= ig_doc.keys()
    assert out.rstrip().endswith("1")  # the count comes last


def test_the_chart_dump_lists_each_nodes_productions(tmp_path, capsys):
    path = tmp_path / "arith.fence"
    path.write_text(ARITH_LEFT)
    assert main(["parse", "--grammar", str(path), "--text", "1+1+1", "--dump-ig", "--count"]) == 0
    out = capsys.readouterr().out
    nodes = json.loads(out[: out.rindex("}") + 1])["nodes"]
    g = grammar(ARITH_LEFT)
    add, lit = g.by_label["add"].id, g.by_label["lit"].id
    # add is blocked as a right operand, so only the left-nested sums are built
    assert [(n["start"], n["end"], n["productions"]) for n in nodes if n["symbol"] == "E"] == [
        (0, 1, [lit]), (0, 3, [add]), (0, 5, [add]), (2, 3, [lit]), (4, 5, [lit])
    ]
    assert all("productions" not in n for n in nodes if n["symbol"] in ("int", "plus"))


def test_dumps_available_even_on_rejection(numbers_grammar_file, capsys):
    code = main(["parse", "--grammar", numbers_grammar_file, "--text", "&&", "--dump-la"])
    assert code == 1
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert len(doc["nodes"]) == 2


def test_input_file_source(numbers_grammar_file, tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_text(AMBIG_INPUT)
    code = main(["parse", "--grammar", numbers_grammar_file, "--input", str(src), "--count"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


def test_help_documents_every_flag(capsys):
    assert main(["parse", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--grammar", "--input", "--text", "--count", "--enumerate",
                 "--format", "--dump-la", "--dump-ela", "--dump-ig"):
        assert flag in out


def test_repeated_runs_are_byte_identical(numbers_grammar_file, capsys):
    outs = []
    for _ in range(2):
        assert main(["parse", "--grammar", numbers_grammar_file, "--text", AMBIG_INPUT]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_json_output_matches_json_dumps_at_any_depth():
    shallow = [
        {},
        [],
        {"nodes": [{"id": 0, "lexeme": "5.2", "children": []}], "roots": [0]},
        [{"a": None, "b": True, "c": False, "d": 1.5, "e": "x\"\u00e9\n"}, [[], {}]],
        {1: "int key", None: "null key"},
        ("tuple", 3),
        "scalar",
    ]
    for doc in shallow:
        assert _dumps(doc) == json.dumps(doc, indent=2)
    deep = []
    inner = deep
    for _ in range(4999):
        inner.append([])
        inner = inner[0]
    lines = _dumps(deep).split("\n")
    assert lines[:2] == ["[", "  ["] and lines[4999] == "  " * 4999 + "[]"
    assert lines[-2:] == ["  ]", "]"] and len(lines) == 2 * 4999 + 1
