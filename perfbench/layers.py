"""Per-layer metrics of tlrsim from a traced in-process run.

The tracer wraps public functions of each ``tlrsim`` module from outside
the package: a wrapper records one span (name, start, end, parent span,
request, failed) per call and keeps it in memory. Every module attribute
that names a wrapped function is patched, so calls through an imported
name (``detector.propagator``, ``sweeps.render_csv``) are seen too.
``uninstall`` restores the originals.

A request is one CLI invocation, run in-process through
``tlrsim.cli.main``. A layer's self time is its span's duration minus the
time of its child spans. An exception that passes through a wrapper marks
the span failed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import workloads

# (module, attribute) pairs that get a span; "Class.method" patches the class
TARGETS = (
    ("tlrsim.cli", "main"),
    ("tlrsim.config", "load_config"),
    ("tlrsim.device", "fjs_derive"),
    ("tlrsim.lindblad", "propagator"),
    ("tlrsim.lindblad", "Liouvillian.matrix"),
    ("tlrsim.lindblad", "propagate_schedule"),
    ("tlrsim.lindblad", "monte_carlo_quasistatic"),
    ("tlrsim.lindblad", "monte_carlo_scalar"),
    ("tlrsim.lindblad", "substream_rng"),
    ("tlrsim.qcore", "DensityMatrix.__init__"),
    ("tlrsim.protocols", "cphase_spin_echo_error"),
    ("tlrsim.protocols", "transfer_gate_error"),
    ("tlrsim.detector", "detection_efficiency"),
    ("tlrsim.validate", "run_validation"),
    ("tlrsim.sweeps", "run_transfer_sweep"),
    ("tlrsim.sweeps", "run_cphase_sweep"),
    ("tlrsim.sweeps", "run_detector_sweep"),
    ("tlrsim.sweeps", "render_csv"),
)

SWEEP_RUNS = ("sweeps.run_transfer_sweep", "sweeps.run_cphase_sweep", "sweeps.run_detector_sweep")
POINTS = (
    "protocols.cphase_spin_echo_error",
    "protocols.transfer_gate_error",
    "detector.detection_efficiency",
)

# counts that must repeat exactly across passes, runs and seeds
EXACT_COUNTS = (
    "lindblad.propagator_calls",
    "lindblad.propagator_distinct",
    "qcore.density_matrix_calls",
    "lindblad.substream_rng_calls",
    "detector.checkpoints",
)

IMPORT_MODULES = {"cli.import_s": "tlrsim.cli", "lindblad.import_s": "tlrsim.lindblad",
                  "detector.import_s": "tlrsim.detector"}
IMPORT_REPEATS = 3


def _span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('tlrsim.')}.{attr}"


class Tracer:
    """Spans around the ``targets`` while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []  # (name, start, end, parent, request, failed)
        self.details: dict[int, object] = {}  # span index -> what the call produced
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("tlrsim")]
        for module_name, attr in self.targets:
            owner = importlib.import_module(module_name)
            *classes, name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, name)
            wrapper = self._wrap(_span_name(module_name, attr), original)
            if classes:
                self._patch(owner, name, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, details = self.spans, self._stack, self.details
        keep = _DETAILS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request, failed)
            if keep is not None:
                details[index] = keep(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# what to keep from a call for the counts computed after the run
_DETAILS = {
    "lindblad.propagator": lambda args, result: (args[0], args[1]),
    "detector.detection_efficiency": lambda args, result: len(result.time_series),
    "validate.run_validation": lambda args, result: len(result),
}


def _self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, *_rest) in enumerate(spans)]


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls, total and self time of one traced pass."""
    spans = tracer.spans
    own = _self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for (name, start, end, *_), s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + end - start
        self_s[name] = self_s.get(name, 0.0) + s

    def of(table, *names):
        return sum(table.get(n, 0) for n in names)

    # sweep points are the protocol calls made directly by a run_*_sweep
    point_sum = sum(
        end - start
        for name, start, end, parent, *_ in spans
        if name in POINTS and parent >= 0 and spans[parent][0] in SWEEP_RUNS
    )

    def kept(name):
        return [d for i, d in tracer.details.items() if spans[i][0] == name]

    generators = kept("lindblad.propagator")
    from tlrsim.lindblad import Liouvillian  # the original, unwrapped method

    distinct = {
        hashlib.sha256(Liouvillian.matrix(liou).tobytes() + struct.pack("<d", duration)).digest()
        for liou, duration in generators
    }
    propagator_calls = of(calls, "lindblad.propagator")
    return {
        "cli.self_s": of(self_s, "cli.main"),
        "config.load_s": of(total, "config.load_config"),
        "device.fjs_derive_s": of(total, "device.fjs_derive"),
        "lindblad.propagator_calls": propagator_calls,
        "lindblad.propagator_distinct": len(distinct),
        "lindblad.propagator_distinct_ratio": len(distinct) / propagator_calls
        if propagator_calls else 0.0,
        "lindblad.propagator_s": of(total, "lindblad.propagator"),
        "lindblad.propagator_dim_max": max((liou.space.dim**2 for liou, _ in generators),
                                           default=0),
        "lindblad.matrix_calls": of(calls, "lindblad.Liouvillian.matrix"),
        "lindblad.matrix_s": of(total, "lindblad.Liouvillian.matrix"),
        "lindblad.schedule_s": of(self_s, "lindblad.propagate_schedule"),
        "lindblad.mc_loop_s": of(self_s, "lindblad.monte_carlo_quasistatic",
                                 "lindblad.monte_carlo_scalar"),
        "lindblad.substream_rng_calls": of(calls, "lindblad.substream_rng"),
        "lindblad.substream_rng_s": of(total, "lindblad.substream_rng"),
        "qcore.density_matrix_calls": of(calls, "qcore.DensityMatrix.__init__"),
        "qcore.density_matrix_s": of(total, "qcore.DensityMatrix.__init__"),
        "protocols.cphase_point_s": of(self_s, "protocols.cphase_spin_echo_error"),
        "protocols.transfer_point_s": of(total, "protocols.transfer_gate_error"),
        "detector.point_s": of(total, "detector.detection_efficiency"),
        "detector.checkpoints": sum(kept("detector.detection_efficiency")),
        "validate.run_s": of(total, "validate.run_validation"),
        "validate.checks": sum(kept("validate.run_validation")),
        "sweeps.run_s": of(total, *SWEEP_RUNS),
        "sweeps.dispatch_s": of(total, *SWEEP_RUNS) - point_sum,
        "sweeps.point_sum_s": point_sum,
        "sweeps.render_csv_s": of(total, "sweeps.render_csv"),
        "trace.failures": sum(1 for span in spans if span[5]),
    }


def import_times() -> dict[str, float]:
    """Cumulative import time of tlrsim modules in fresh interpreters."""
    samples: dict[str, list[float]] = {metric: [] for metric in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tlrsim.cli"],
            cwd=workloads.ROOT, env=workloads.child_env(), capture_output=True, text=True,
            timeout=workloads.INVOCATION_TIMEOUT_S, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            _, cum, package = line.split("|")
            if cum.strip().isdigit():  # skip the column header
                cumulative[package.strip()] = int(cum) * 1e-6
        for metric, module in IMPORT_MODULES.items():
            samples[metric].append(cumulative[module])
    return {metric: statistics.median(values) for metric, values in samples.items()}


def _call_cli(inv: workloads.Invocation, out: Path) -> tuple[int, str, float]:
    from tlrsim import cli

    start = time.perf_counter()
    try:
        code = cli.main([*inv.argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    elapsed = time.perf_counter() - start
    return code, out.read_text() if out.exists() else "", elapsed


def _replay(invs, seed, tally, tracer=None, expected=None) -> tuple[list[str], float]:
    """Run ``invs`` in-process, checked; return their outputs and total time.

    ``expected`` holds outputs the invocations must reproduce byte for byte.
    """
    outputs, elapsed = [], 0.0
    for request, inv in enumerate(invs):
        out = workloads.OUT / f"inprocess-{request}.txt"
        out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.request = request
            tracer.install()
        try:
            code, text, seconds = _call_cli(inv, out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if code != 0:
            error = f"{inv.argv[0]} returned {code}"
        elif expected is not None and text != expected[request]:
            error = f"{' '.join(inv.argv)}: output bytes differ from the untraced --jobs 1 run"
        else:
            error = workloads.check_output(inv, text, seed)
        tally.record(error)
        outputs.append(text)
        elapsed += seconds
    return outputs, elapsed


def measure_layers(workload: str, seed: int, seconds: float):
    """Traced and untraced in-process passes of ``workload`` at ``--jobs 1``."""
    sys.path.insert(0, str(workloads.SRC))
    workloads.OUT.mkdir(exist_ok=True)
    tally = workloads.Tally()
    invs = workloads.invocations(workload, seed)
    # the worker pool is timed on the lossy sweep only: on two CPUs its
    # BLAS oversubscription is too erratic for an end-to-end workload
    pool_inv = workloads.invocations(workload, seed, jobs=2)[0] if workload == "cphase_lossy" else None

    started = time.perf_counter()
    imports = import_times()
    _replay(invs, seed, tally)  # warm-up: imports, lazy scipy modules
    passes, spans, pass_times = [], [], []
    while workloads.another_pass(started, seconds, pass_times):
        pass_start = time.perf_counter()
        plain, untraced_s = _replay(invs, seed, tally)
        tracer = Tracer()
        _, traced_s = _replay(invs, seed, tally, tracer, expected=plain)
        metrics = span_metrics(tracer)
        metrics["trace.untraced_s"] = untraced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        if pool_inv is not None:
            pool = Tracer(targets=(("tlrsim.sweeps", "run_cphase_sweep"),))
            _replay([pool_inv], seed, tally, pool, expected=plain)
            pool_s = pool.spans[0][2] - pool.spans[0][1]
            metrics["sweeps.pool_jobs2_s"] = pool_s
            metrics["sweeps.pool_efficiency"] = metrics["sweeps.point_sum_s"] / (2 * pool_s)
        else:
            metrics["sweeps.pool_jobs2_s"] = 0.0
            metrics["sweeps.pool_efficiency"] = 0.0
        passes.append(metrics)
        spans = tracer.spans
        pass_times.append(time.perf_counter() - pass_start)

    for name in EXACT_COUNTS + ("lindblad.propagator_dim_max", "validate.checks"):
        if len({m[name] for m in passes}) != 1:
            tally.record(f"{name} changed between passes: {[m[name] for m in passes]}")
    values = {
        name: passes[0][name] if _unit(name) == "count" else statistics.median(m[name] for m in passes)
        for name in passes[0]
    }
    values.update(imports)

    fields = ("name", "start", "end", "parent", "request", "failed")
    with open(workloads.OUT / f"spans-{workload}-seed{seed}.jsonl", "w") as f:
        for span, own in zip(spans, _self_times(spans)):
            f.write(json.dumps({**dict(zip(fields, span)), "self": own}) + "\n")

    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in sorted(values.items())}
    detail = {
        "passes": len(passes),
        "spans_last_pass": len(spans),
        "config_hash": workloads.config_hashes({inv.kind: text for inv, text in zip(invs, plain)}),
    }
    return metrics, tally, detail


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"
