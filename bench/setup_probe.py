"""Set-up time of one fresh interpreter: import, compile a grammar, parse once.

Usage: python3 -I bench/setup_probe.py SRC_DIR GRAMMAR_TEXT WARMUP_TEXT

Prints the seconds from the first statement of this script to the end of the
warm-up parse, so the interpreter's own start is excluded while every module
``fence`` imports is counted. Nothing but built-in modules is imported before
the clock starts.
"""

import time

started = time.perf_counter()

import sys  # noqa: E402  (built in; already loaded by the interpreter)

sys.path.insert(0, sys.argv[1])

import fence  # noqa: E402

grammar = fence.parse_grammar_text(sys.argv[2])
outcome = fence.parse_text(grammar, sys.argv[3])
total = fence.tree_counts(outcome.egraph).total
elapsed = time.perf_counter() - started
if total < 1:
    sys.exit("the warm-up sentence was rejected")
print(repr(elapsed))
