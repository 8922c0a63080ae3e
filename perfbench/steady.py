"""Steadiness check of the benchmark over several workload seeds.

    python3 perfbench/steady.py --workloads cphase_lossy small_sweeps --seeds 10
    python3 perfbench/steady.py --workloads all --seeds 10 --trace 1

Runs ``run.py`` once per seed and workload; ``all`` means the workloads
listed in BENCHMARK.json. With ``--trace 0`` it prints,
for each end-to-end metric, the median and the spread: the distance
between the first and third quartile as a share of the median. A spread
of a metric other than ``setup_s`` above a third of the metric's bound in
BENCHMARK.json is flagged. ``--against FILE`` also compares each median
with the one saved in FILE by an earlier call, and flags a metric whose
median got worse by more than its bound. With ``--trace 1`` it checks
that the exact counts repeat across seeds. Exit status 1 means a flag
was raised or a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from layers import EXACT_COUNTS
from workloads import BENCH, OUT, ROOT

RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["all"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", help="medians saved by an earlier call")
    args = parser.parse_args()
    gated = [w["name"] for w in spec["workloads"]]
    names = gated if args.workloads == ["all"] else args.workloads
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(open(args.against).read()) if args.against else {}

    flagged = False
    medians: dict[str, dict[str, float]] = {}
    for workload in names:
        results = [run_once(workload, args.first_seed + i, args.seconds, args.trace)
                   for i in range(args.seeds)]
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            print(f"{workload}: a run was not correct")
            flagged = True
        series = {name: [r["metrics"][name]["value"] for r in results]
                  for name in results[0]["metrics"]}
        if args.trace:
            for name in EXACT_COUNTS:
                same = len(set(series[name])) == 1
                flagged |= not same
                print(f"{workload:20s} {name:30s} {series[name][0]:>10g}"
                      f"  {'repeats' if same else 'DIFFERS: ' + str(series[name])}")
            continue
        medians[workload] = {}
        for name, values in series.items():
            median = statistics.median(values)
            medians[workload][name] = median
            bound = bounds[name]["bound"]
            s = spread(values)
            note = ""
            if name != "setup_s" and s > bound / 3:
                note, flagged = "  SPREAD ABOVE BOUND/3", True
            before = earlier.get(workload, {}).get(name)
            if before is not None:
                worse = (median - before) / before
                if bounds[name]["better"] == "higher":
                    worse = -worse
                note += f"  vs earlier {worse:+.3f}"
                if worse > bound:
                    note, flagged = note + " WORSE THAN BOUND", True
            print(f"{workload:20s} {name:20s} median {median:10.5g}  spread {s:.4f}"
                  f"  bound {bound}{note}")
    if medians:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"steady-{'-'.join(names)}-from{args.first_seed}.json"
        path.write_text(json.dumps(medians, indent=1) + "\n")
        print(f"medians saved to {path.relative_to(ROOT)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
