"""End-to-end benchmark of the tlrsim command line.

Run from the repository root:

    python3 perfbench/run.py --workload cphase_lossy --seed 7 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` launches every invocation as a cold ``python -m tlrsim``
subprocess, one after another, and reports the end-to-end metrics.
``--trace 1`` replays the workload in-process at ``--jobs 1`` under the
span tracer in ``layers.py`` and reports the per-layer metrics. Every
output is checked against ``perfbench/reference`` (see NOTES.md). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment record and each metric with its unit.

The benchmark sets no BLAS or OpenMP thread variable. It records the ones
it finds, so a change of thread policy inside tlrsim shows in the numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    INVOCATION_TIMEOUT_S,
    OUT,
    REFERENCE,
    ROOT,
    SRC,
    WORKLOAD_CONFIGS,
    Invocation,
    Tally,
    another_pass,
    check_output,
    child_env,
    config_hashes,
    config_path,
    invocations,
    setup_invocation,
)

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "1/s",
    "trajectories_per_s": "1/s",
}

# every variable that sets a BLAS or OpenMP pool size, recorded as found
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)



# ------------------------------------------------------------ subprocess runs


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str


def run_cli(argv: tuple[str, ...], env: dict[str, str]) -> Outcome:
    """One cold ``python -m tlrsim`` process; rusage covers its pool workers."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "stdout", "w+b") as out, open(OUT / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tlrsim", *argv], cwd=ROOT, env=env, stdout=out, stderr=err
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=proc.returncode,
        stdout=text,
    )


def run_checked(inv: Invocation, seed: int, env: dict[str, str], tally: Tally) -> Outcome:
    """Run ``inv`` and count it failed on a non-zero exit or a wrong output."""
    outcome = run_cli(inv.argv, env)
    if outcome.code != 0:
        error = f"{inv.argv[0]} exited {outcome.code}"
    else:
        error = check_output(inv, outcome.stdout, seed)
    tally.record(error)
    return outcome


def measure_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Cold-start metrics over as many serial passes as fit in ``seconds``."""
    started = time.perf_counter()
    env = child_env()
    tally = Tally()
    run_checked(setup_invocation(workload), seed, env, tally)  # warm-up: bytecode, page cache
    setup = [run_checked(setup_invocation(workload), seed, env, tally).wall_s
             for _ in range(SETUP_REPEATS)]

    passes = invocations(workload, seed)
    walls, cpus, rsss, pass_times = [], [], [], []
    outputs: dict[str, str] = {}
    while another_pass(started, seconds, pass_times):
        pass_start = time.perf_counter()
        wall = cpu = rss = 0.0
        for inv in passes:
            outcome = run_checked(inv, seed, env, tally)
            wall += outcome.wall_s
            cpu += outcome.cpu_s
            rss = max(rss, outcome.rss_mb)
            outputs[inv.kind] = outcome.stdout
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        pass_times.append(time.perf_counter() - pass_start)

    wall_s = statistics.median(walls)
    points = sum(inv.points for inv in passes)
    trajectories = sum(inv.trajectories for inv in passes)
    values = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "points_per_s": points / wall_s,
        "trajectories_per_s": trajectories / wall_s,
    }
    detail = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "setup_samples_s": setup,
        "config_hash": config_hashes(outputs),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, tally, detail


# ------------------------------------------------------------ environment


def _blas_threads() -> int | str:
    """Pool size OpenBLAS chose in this interpreter, read from the library."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return int(func())
    return "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(workload: str, seed: int, hashes: dict[str, str]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    names = sorted(set(THREAD_VARS) | {k for k in os.environ if k.endswith("_NUM_THREADS")})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_vars": {name: os.environ.get(name, "unset") for name in names},
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "config_file_sha256": hashlib.sha256(Path(config_path(workload)).read_bytes()).hexdigest(),
        "config_hash": hashes,
    }


# ------------------------------------------------------------ entry point


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        import layers

        metrics, tally, detail = layers.measure_layers(workload, seed, seconds)
    else:
        metrics, tally, detail = measure_end_to_end(workload, seed, seconds)
    env = environment(workload, seed, detail.pop("config_hash", {}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "detail": detail, "first_error": tally.first_error}
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in detail.items():
        if not isinstance(value, (list, dict)):
            print(f"  {key:34s} {value}")
    for metric, entry in metrics.items():
        print(f"  {metric:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_rate':34s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} invocations failed)")
    if tally.first_error:
        print(f"  first failure: {tally.first_error}")
    return result


def record_reference(seed: int) -> None:
    """Write perfbench/reference from the current tree, at the default seed."""
    env = child_env()
    kinds = {}
    for workload in WORKLOAD_CONFIGS:
        for inv in invocations(workload, seed):
            kinds.setdefault(inv.kind, inv)
    REFERENCE.mkdir(exist_ok=True)
    for kind, inv in kinds.items():
        outcome = run_cli(inv.argv, env)
        if outcome.code != 0:
            raise SystemExit(f"reference run of {kind} exited {outcome.code}")
        (REFERENCE / f"{kind}.txt").write_text(outcome.stdout)
        print(f"wrote reference/{kind}.txt")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_CONFIGS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="rewrite the reference outputs from this tree at the default seed, then exit",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    if not (SRC / "tlrsim" / "cli.py").is_file():
        print(f"error: no tlrsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(DEFAULT_SEED)
        return 0
    seed = args.seed % 2**64  # tlrsim seeds are unsigned 64-bit

    if args.workload != "all":
        result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_CONFIGS:
        result = run_workload(workload, seed, args.seconds, bool(args.trace))
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{workload}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
