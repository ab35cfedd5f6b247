"""Run one workload of the fence benchmark and print its metrics as JSON.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy. One operation is
``fence.parse_text(grammar, text)`` followed by ``fence.tree_counts(...)``.
Operations run one at a time in a closed loop over a pool of seeded inputs
of one size and shape, in whole rounds until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: the median operation time, the
median ``tracemalloc`` peak of one operation (a separate pass), and the
median set-up time of several fresh interpreters. ``--trace 1`` runs the
same operations with the calls ``parse_text`` makes into each layer
intercepted, records a span around each call, and reports per-layer times,
the counters the layers return, and per-layer peak memory. Every operation's output is checked against an answer computed by
``workloads.py``, and a few tiny instances against ``fence.oracle``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details and spans go
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from workloads import WORKLOADS, Instance, Workload, observe, production_ids

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

POOL = 6  # inputs per round; every round parses each of them once
MEMORY_INPUTS = 3  # pool inputs measured under tracemalloc
ORACLE_INSTANCES = 3  # tiny instances compared with fence.oracle per run
SETUP_PROBES = 15  # fresh interpreters timed per run, after one discarded
COMPILES = 21  # grammar compilations timed per traced run
PROBE_TIMEOUT = 60
MB = 1e6
REF_ITERATIONS = 14_000
REF_SECONDS = 0.004  # the reference loop's time at the reference speed

# The calls ``parse_text`` makes, by the name it looks them up under in its
# own module, and the layer each one is.
LAYER_CALLS = {
    "tokenize": "lexgraph",
    "build_ela_graph": "elagraph",
    "run_chart": "chart",
    "expand_forest": "enforce",
}


def metric_units() -> dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def load_fence():
    """Import the checkout's own ``fence``; exit with status 2 when it is absent."""
    if not (SRC / "fence" / "__init__.py").is_file():
        print(f"run.py: no fence package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fence

    if Path(fence.__file__).resolve().parent != SRC / "fence":
        print(f"run.py: imported fence from {fence.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return fence


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, inst: Instance, reason: str | None) -> bool:
        self.attempted += 1
        if reason is None:
            return True
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{inst.text[:40]!r}...: {reason}")
        return False


def rounds(pool: list[Instance], seconds: float):
    """Yield the pool's inputs in whole rounds until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    while True:
        yield from enumerate(pool)
        if time.perf_counter() >= deadline:
            return


def reference_loop() -> float:
    """Seconds that a fixed piece of pure-Python work takes right now.

    The work resembles the parser's own: tuple keys, dictionary lookups and
    inserts, and small allocations that are freed when the loop returns. It
    runs twice and the second time counts, because the first pays for fresh
    memory when the process has just released some. The collector is off
    meanwhile, so the time does not depend on how many objects the process
    holds.
    """
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            index: dict[tuple[int, int], list] = {}
            for i in range(REF_ITERATIONS):
                key = (i % 97, i % 89)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = bucket = []
                bucket.append((i, key))
            elapsed = time.perf_counter() - t0
            del index
        return elapsed
    finally:
        gc.enable()


class Scaler:
    """Scales wall times to the reference speed.

    The machine's speed drifts by a factor of up to about 1.8 over spans of
    seconds to minutes (it shows on a pure-Python loop and in CPU time
    alike), so raw medians of whole runs move with it. The reference loop
    runs before the first measurement and after each one; a measurement is
    multiplied by ``REF_SECONDS`` over the mean of the loop's times on either
    side of it. The loop always runs right after ``gc.collect()``, with
    nothing of the measured call alive, so its time does not depend on what
    ``fence`` allocates or keeps.
    """

    def __init__(self):
        gc.collect()
        self.loops = [reference_loop()]

    def factor(self) -> float:
        """The factor for the measurement just taken; runs the loop after it.

        The caller has released everything the measured call returned.
        """
        gc.collect()
        self.loops.append(reference_loop())
        return REF_SECONDS * 2 / (self.loops[-2] + self.loops[-1])


@contextmanager
def intercepted(module, names, hook):
    """Route the calls ``module``'s own code makes to ``names`` through ``hook``.

    Inside the block, a call to ``names[k]`` from ``module`` becomes
    ``hook(name, call)``, where ``call()`` makes the original call. This
    measures a function's internal steps without copying its sequence of
    calls. A name the module no longer has ends the run.
    """
    missing = [name for name in names if not callable(getattr(module, name, None))]
    if missing:
        sys.exit(f"run.py: {module.__name__} no longer calls {', '.join(missing)}; update LAYER_CALLS")
    originals = {name: getattr(module, name) for name in names}

    def routed(name, func):
        def call(*args, **kwargs):
            return hook(name, lambda: func(*args, **kwargs))

        return call

    for name, func in originals.items():
        setattr(module, name, routed(name, func))
    try:
        yield
    finally:
        for name, func in originals.items():
            setattr(module, name, func)


class Bench:
    def __init__(self, fence, workload: Workload, seed: int):
        self.fence = fence
        self.w = workload
        self.seed = seed
        self.grammar = fence.parse_grammar_text(workload.grammar)
        self.pids = production_ids(self.grammar)
        self.pool = [workload.instance(seed, i) for i in range(POOL)]
        self.tally = Tally()
        self.detail: dict[str, list[float]] = {}  # unscaled figures for the result file

    def check(self, inst: Instance, la, egraph, counts) -> str | None:
        obs = observe(self.fence, self.grammar, la, egraph, counts)
        return self.w.check(inst, self.pids, obs)

    def operation(self, inst: Instance) -> str | None:
        """One untimed, checked operation; returns the failure reason or None."""
        try:
            outcome = self.fence.parse_text(self.grammar, inst.text)
            return self.check(inst, outcome.la, outcome.egraph, self.fence.tree_counts(outcome.egraph))
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    # -- correctness against the oracle -------------------------------------------

    def oracle_cross_check(self) -> None:
        fence = self.fence
        for i in range(ORACLE_INSTANCES):
            inst = self.w.instance(self.seed, f"oracle-{i}", self.w.tiny)
            try:
                outcome = fence.parse_text(self.grammar, inst.text)
                counts = fence.tree_counts(outcome.egraph)
                ours = set(fence.enumerate_trees(outcome.egraph, self.grammar, 10_000))
                la = fence.tokenize(self.grammar, inst.text)
                truth = fence.oracle_filter(fence.oracle_parse_all(self.grammar, la), self.grammar, la)
                if ours != truth or counts.total != len(truth):
                    reason = f"pipeline gives {counts.total} trees, oracle {len(truth)}, sets differ"
                else:
                    reason = self.check(inst, outcome.la, outcome.egraph, counts)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            self.tally.record(inst, reason)

    # -- end-to-end pass ----------------------------------------------------------

    def timed(self, seconds: float) -> tuple[list[float], list[float]]:
        """Scaled operation times (ms) and scaled set-up times (s).

        The set-up probes are spread over the window, between operations, so
        that they meet the same changes in machine speed as the operations.
        """
        fence = self.fence
        times: list[float] = []
        raw: list[float] = []
        setup: list[float] = []
        self.setup_probe()  # writes the bytecode caches; not counted
        self.tally.record(self.pool[0], self.operation(self.pool[0]))  # warm-up
        scaler = Scaler()
        start = time.perf_counter()
        for _i, inst in rounds(self.pool, seconds):
            if len(setup) < SETUP_PROBES and time.perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
                probe = self.setup_probe()
                setup.append(probe * scaler.factor())
            try:
                t0 = time.perf_counter()
                outcome = fence.parse_text(self.grammar, inst.text)
                counts = fence.tree_counts(outcome.egraph)
                t1 = time.perf_counter()
                reason = self.check(inst, outcome.la, outcome.egraph, counts)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            outcome = counts = None
            factor = scaler.factor()  # collects first, so the next operation starts clean
            if self.tally.record(inst, reason):
                times.append((t1 - t0) * 1e3 * factor)
                raw.append((t1 - t0) * 1e3)
        while len(setup) < SETUP_PROBES:
            probe = self.setup_probe()
            setup.append(probe * scaler.factor())
        self.detail = {"unscaled_ms": raw, "reference_loop_s": scaler.loops}
        return times, setup

    def peak_mb(self) -> list[float]:
        fence = self.fence
        peaks = []
        for inst in self.pool[:MEMORY_INPUTS]:
            outcome = counts = None
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                outcome = fence.parse_text(self.grammar, inst.text)
                counts = fence.tree_counts(outcome.egraph)
                peak = (tracemalloc.get_traced_memory()[1] - base) / MB
                reason = self.check(inst, outcome.la, outcome.egraph, counts)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            finally:
                tracemalloc.stop()
            if self.tally.record(inst, reason):
                peaks.append(peak)
        return peaks

    def setup_probe(self) -> float:
        """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
        warmup = self.w.instance(self.seed, "warm-up", self.w.tiny).text
        cmd = [sys.executable, "-I", str(ROOT / "bench" / "setup_probe.py"), str(SRC), self.w.grammar, warmup]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        return float(done.stdout)

    # -- traced pass ----------------------------------------------------------------

    def traced(self, seconds: float) -> tuple[dict, list[dict], float]:
        """Per-layer metrics, the spans behind them, and the traced operation p50 (ms).

        Each operation is the same ``parse_text`` + ``tree_counts`` as in the
        timed pass; the layer spans come from intercepting the calls that
        ``parse_text`` makes, and the counts from the outcome it returns.
        """
        fence = self.fence
        spans: list[dict] = []
        compile_ms = []
        scaler = Scaler()
        for k in range(COMPILES):
            t0 = time.perf_counter_ns()
            fence.parse_grammar_text(self.w.grammar)
            t1 = time.perf_counter_ns()
            factor = scaler.factor()
            spans.append({"op": f"compile-{k}", "name": "grammar.compile", "parent": None,
                          "start_ns": t0, "end_ns": t1, "scale": factor})
            compile_ms.append((t1 - t0) / 1e6 * factor)

        calls: list[tuple[str, int, int]] = []  # (layer, start_ns, end_ns) of the current operation

        def span(name, call):
            t0 = time.perf_counter_ns()
            try:
                return call()
            finally:
                calls.append((LAYER_CALLS[name], t0, time.perf_counter_ns()))

        layer_ms: dict[str, list[float]] = {name: [] for name in (*LAYER_CALLS.values(), "enforce.count")}
        op_ms: list[float] = []
        counts_by_input: dict[int, dict] = {}
        self.tally.record(self.pool[0], self.operation(self.pool[0]))  # warm-up
        with intercepted(pipeline_module(fence), LAYER_CALLS, span):
            for op_id, (i, inst) in enumerate(rounds(self.pool, seconds)):
                calls.clear()
                try:
                    t0 = time.perf_counter_ns()
                    outcome = fence.parse_text(self.grammar, inst.text)
                    t1 = time.perf_counter_ns()
                    counts = fence.tree_counts(outcome.egraph)
                    t2 = time.perf_counter_ns()
                    reason = self.check(inst, outcome.la, outcome.egraph, counts)
                    if reason is None and i not in counts_by_input:
                        counts_by_input[i] = layer_counts(outcome)
                except Exception as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                outcome = counts = None
                factor = scaler.factor()
                if not self.tally.record(inst, reason):
                    continue
                calls.append(("enforce.count", t1, t2))
                spans.append({"op": op_id, "name": "operation", "parent": None,
                              "start_ns": t0, "end_ns": t2, "scale": factor})
                for name, start, end in calls:
                    spans.append({"op": op_id, "name": name, "parent": "operation", "start_ns": start, "end_ns": end})
                    layer_ms[name].append((end - start) / 1e6 * factor)
                op_ms.append((t2 - t0) / 1e6 * factor)

        metrics = {
            "grammar.compile_ms": compile_ms,
            "lexgraph.ms": layer_ms["lexgraph"],
            "elagraph.ms": layer_ms["elagraph"],
            "chart.ms": layer_ms["chart"],
            "enforce.ms": layer_ms["enforce"],
            "enforce.count_ms": layer_ms["enforce.count"],
        }
        for name in next(iter(counts_by_input.values()), {}):
            metrics[name] = [c[name] for c in counts_by_input.values()]
        metrics.update(self.layer_peaks())
        return metrics, spans, median(op_ms)

    def layer_peaks(self) -> dict[str, list[float]]:
        """Peak traced memory of the chart and expansion calls, above their start."""
        fence = self.fence
        peaks: dict[str, list[float]] = {"chart.peak_mb": [], "enforce.peak_mb": []}
        current: dict[str, float] = {}

        def peak_of(name, call):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return call()
            finally:
                current[f"{LAYER_CALLS[name]}.peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MB

        with intercepted(pipeline_module(fence), ("run_chart", "expand_forest"), peak_of):
            for inst in self.pool[:MEMORY_INPUTS]:
                current.clear()
                gc.collect()
                tracemalloc.start()
                try:
                    outcome = fence.parse_text(self.grammar, inst.text)
                    reason = self.check(inst, outcome.la, outcome.egraph, fence.tree_counts(outcome.egraph))
                except Exception as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                finally:
                    tracemalloc.stop()
                outcome = None
                if self.tally.record(inst, reason):
                    for name in peaks:
                        peaks[name].append(current[name])
        return peaks


def pipeline_module(fence):
    """The module whose globals ``parse_text`` looks its layer calls up in."""
    return sys.modules[fence.parse_text.__module__]


def layer_counts(outcome) -> dict:
    """The counters the layers' returned objects carry, and two ratios over them."""
    la, ela, ig, eg = outcome.la, outcome.ela, outcome.igraph, outcome.egraph
    forest_keys = {(r.start, r.end, r.symbol_id) for r in eg.nodes}
    useful = sum(1 for n in ig.nodes if (n.start, n.end, n.symbol_id) in forest_keys)
    kept = sum(1 for r in eg.nodes if r.children is not None and r.start != r.end)
    return {
        "lexgraph.tokens": len(la.nodes),
        "elagraph.cores": len(ela.cores),
        "chart.pops": ig.agenda_pops,
        "chart.handles": ig.handle_count,
        "chart.nodes": len(ig.nodes),
        "chart.useful_ratio": useful / len(ig.nodes),
        "enforce.constructions": eg.constructions,
        "enforce.kept_ratio": kept / eg.constructions,
        "enforce.forest_nodes": len(eg.nodes),
    }


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    fence = load_fence()
    workload = WORKLOADS[args.workload]
    bench = Bench(fence, workload, args.seed)
    print(f"{workload.name}: size {workload.size}, pool of {POOL} inputs, seed {args.seed}")
    bench.oracle_cross_check()

    spans: list[dict] = []
    if args.trace:
        samples, spans, traced_op_ms = bench.traced(args.seconds)
        print(f"traced operation p50: {traced_op_ms} ms")
    else:
        parse_ms, setup_s = bench.timed(args.seconds)
        samples = {"parse_ms.p50": parse_ms, "peak_mb": bench.peak_mb(), "setup_s": setup_s}
        print(f"timed operations: {len(parse_ms)}, unscaled p50: {median(bench.detail['unscaled_ms'])} ms")

    units = metric_units()
    metrics = {}
    for name, values in samples.items():
        # Counts and ratios take the lower median, a value one input really had.
        value = statistics.median_low(values) if values and units[name] in ("count", "ratio") else median(values)
        if value is not None:
            metrics[name] = {"value": value, "unit": units[name]}
    tally = bench.tally
    correct = tally.failed == 0 and len(metrics) == len(samples)
    print(f"{workload.name}: attempted {tally.attempted}, failed {tally.failed}")
    for reason in tally.reasons:
        print(f"  failed: {reason}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": workload.name, "seed": args.seed, "samples": samples, **bench.detail,
              "failures": tally.reasons}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)

    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
