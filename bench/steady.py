"""Steadiness of the benchmark: repeat it and show how far its figures move.

Usage:
    python3 bench/steady.py [--runs 10] [--seconds S] [--workload NAME ...]
                            [--save NAME] [--against NAME] [--skip-counts]

For each workload, runs ``bench/run.py --trace 0`` once per seed (seeds 1 to
``--runs``) and prints, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median, next to the bound in
``BENCHMARK.json``. Every spread but that of ``setup_s`` should stay below
a third of its bound.

``--save NAME`` keeps the set's values in ``bench/out/steady-NAME.json``;
``--against NAME`` compares this set's medians with a saved set's and shows
how far each moved in its worse direction, which should stay within the
bound. ``--skip-counts`` leaves out the last step: ``--trace 1`` on seed 1
four times, twice under a random ``PYTHONHASHSEED``, then under ``0`` and
``4242``, showing whether every per-layer count is identical across the
four. Exits with status 1 when a run is not correct, the share of failed
operations differs between runs, a count differs, a spread reaches a third
of its bound, or a median moved past its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
OUT = ROOT / "bench" / "out"
COUNTS = (
    "lexgraph.tokens",
    "elagraph.cores",
    "chart.pops",
    "chart.handles",
    "chart.nodes",
    "enforce.constructions",
    "enforce.forest_nodes",
)


def run(workload: str, seed: int, seconds: int, trace: int, hashseed: str | None = None) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--save", metavar="NAME", help="keep this set's values under NAME")
    parser.add_argument("--against", metavar="NAME", help="compare medians with the set saved as NAME")
    parser.add_argument("--skip-counts", action="store_true", help="leave out the PYTHONHASHSEED count check")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    earlier = json.loads((OUT / f"steady-{args.against}.json").read_text()) if args.against else {}

    ok = True
    found: dict[str, dict[str, list[float]]] = {}
    print(f"{'workload':<12} {'metric':<13} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
          f"{'moved':>7} {'bound':>6}")
    for workload in args.workload or names:
        values = found[workload] = {name: [] for name in metrics}
        failed_shares = set()
        started = time.perf_counter()
        for seed in range(1, args.runs + 1):
            result = run(workload, seed, args.seconds, 0)
            ok &= result["correct"]
            failed_shares.add(result["failed"] / result["attempted"])
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        ok &= len(failed_shares) == 1
        for name, vals in values.items():
            bound = metrics[name]["bound"]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            # Set-up time is gated on the shift of its median (--against) only:
            # each probe is a separate interpreter, which the speed scaling
            # brackets from outside, and its run medians spread 8-9%.
            steady = name == "setup_s" or spread < bound / 3
            marks = [] if steady else ["spread not below a third of the bound"]
            moved = ""
            if name in earlier.get(workload, {}):
                before = statistics.median(earlier[workload][name])
                shift = (statistics.median(vals) - before) / before
                if metrics[name]["better"] == "higher":
                    shift = -shift
                moved = f"{shift:>+7.2%}"
                if shift > bound:
                    marks.append("median moved past the bound")
            ok &= not marks
            print(f"{workload:<12} {name:<13} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.2%} "
                  f"{moved:>7} {bound:>6}" + "".join(f"  <- {m}" for m in marks))
        per_run = (time.perf_counter() - started) / args.runs
        print(f"{workload:<12} failed share {sorted(failed_shares)}, {per_run:.1f} s per run")
    if args.save:
        OUT.mkdir(exist_ok=True)
        (OUT / f"steady-{args.save}.json").write_text(json.dumps(found, indent=1) + "\n")

    if not args.skip_counts:
        print("\nper-layer counts, seed 1, under PYTHONHASHSEED random, 0 and 4242")
        for workload in args.workload or names:
            seen = [run(workload, 1, 1, 1, hashseed)["metrics"] for hashseed in (None, None, "0", "4242")]
            for name in COUNTS:
                got = [m[name]["value"] for m in seen]
                same = len(set(got)) == 1
                ok &= same
                print(f"{workload:<12} {name:<22} {got[0]:>12g} {'identical' if same else f'DIFFERS {got}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
