"""Measurement loop, metrics and provenance of one benchmark run.

``run_workload`` sets the workload up several times, then repeats whole
passes over its operations until the next pass would overrun the
measuring time.  Every reported time is divided by the host speed factor
measured around it (``reference_slice``).  With ``trace`` set it instead
runs each pass twice: once untraced, keeping every result, and once with
spans recorded around the calls into each layer, requiring the traced
results to reproduce the untraced ones to the bit.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads
from orbitconics.errors import OrbitConicsError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Median time of ``reference_slice`` on the 2-core x86_64 host the README's
#: numbers come from; a host speed factor of 1 means that speed.
REFERENCE_SLICE_S = 1.2e-3
#: Operation time between two speed measurements, and slices per measurement.
CALIBRATE_EVERY_S = 0.1
SLICES = 3
_REFERENCE_MATRIX = np.array([[2.0, 0.3], [0.3, 1.0]])


@dataclass(frozen=True)
class _ReferencePoint:
    x: float
    y: float


def reference_slice() -> float:
    """Host speed factor now: the time of a fixed piece of work over REFERENCE_SLICE_S.

    The work uses no orbitconics code, only the kinds of work the library
    does (small numpy solves, frozen dataclasses, float math), so a commit
    cannot change it.  The speed of a shared host drifts by about 20% over
    10-30 s; every time the benchmark reports is divided by the factor
    measured just before and just after it, which cancels that drift.
    """
    start = perf_counter()
    total = 0.0
    for i in range(100):
        w, v = np.linalg.eigh(_REFERENCE_MATRIX + i * 1e-3)
        p = _ReferencePoint(float(w[0]), float(v[0, 1]))
        total += math.hypot(p.x + math.sqrt(i + 1.0), p.y)
    return (perf_counter() - start) / REFERENCE_SLICE_S


def host_speed() -> float:
    """Median speed factor of SLICES reference slices."""
    return statistics.median(reference_slice() for _ in range(SLICES))


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(args: dict, removed_env: list[str]) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "args": args,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "removed_env": removed_env,
    }


def fresh_import() -> None:
    """Import the package and its CLI in a fresh interpreter: the import floor."""
    subprocess.run([sys.executable, "-c", "import orbitconics.cli"], check=True)


class Tally:
    """Times and outcomes of every operation run, by kind.

    ``times`` are divided by the host speed factor; ``raw_times`` are not.
    ``by_op`` holds each operation's divided times, one per pass.
    """

    def __init__(self):
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.by_op: dict[int, list[float]] = {}
        self.passes: list[float] = []
        self.speeds: list[float] = []
        self.samples = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.misses: dict[str, int] = {}

    def time(self, op, raw: float, speed: float) -> float:
        self.raw_times.append(raw)
        self.times.append(raw / speed)
        self.speeds.append(speed)
        self.by_kind.setdefault(op.kind, []).append(raw / speed)
        self.by_op.setdefault(id(op), []).append(raw / speed)
        self.samples += op.samples
        return raw / speed

    def record(self, op, result) -> None:
        if isinstance(result, OrbitConicsError):
            misses = [f"raised {type(result).__name__}"]
        elif isinstance(result, Exception):
            misses = [f"raised untyped {type(result).__name__}: {result}"]
            self.incorrect.append(f"{op.kind}: {misses[0]}")
        else:
            misses = op.check(result)
        if misses:
            self.failed += 1
            for miss in misses:
                key = f"{op.kind}: {miss.split(': ')[0]}"
                self.misses[key] = self.misses.get(key, 0) + 1
            if op.claimed:
                self.incorrect.append(f"{op.kind}: {misses[0]}")


def _execute(fn):
    """Run one operation; an exception it raises becomes its result.

    The benchmark must keep running past a failing operation: a typed
    library error is a failure, any other exception also makes the run
    incorrect.
    """
    try:
        return fn()
    except Exception as exc:
        return exc


def measure(work, seconds: float, tracer=None):
    """Closed-loop passes over the workload until the next pass would overrun ``seconds``.

    Returns the tally and, for a traced run, the summed times of the
    plain and the traced in-process replays.
    """
    tally = Tally()
    replay_time = {"plain": 0.0, "traced": 0.0}
    start = perf_counter()
    last_pass = 0.0
    while not tally.passes or perf_counter() - start + last_pass <= seconds:
        pass_start = perf_counter()
        pass_time, replays, segment = 0.0, [], []
        speed_before = host_speed()
        for op in work.ops:
            t0 = perf_counter()
            result = _execute(op.run)
            elapsed = perf_counter() - t0
            segment.append((op, elapsed))
            if tracer is not None and op.traced:
                replays.append((op, op.digest(result)))
            tally.record(op, result)
            if tracer is not None and op.traced:
                if op.replay is not op.run:
                    t0 = perf_counter()
                    _execute(op.replay)
                    elapsed = perf_counter() - t0
                replay_time["plain"] += elapsed
            if sum(raw for _, raw in segment) >= CALIBRATE_EVERY_S or op is work.ops[-1]:
                speed_after = host_speed()
                speed = 0.5 * (speed_before + speed_after)
                pass_time += sum(tally.time(o, raw, speed) for o, raw in segment)
                segment, speed_before = [], speed_after
        if replays:
            with tracer.patched():
                for op, digest in replays:
                    t0 = perf_counter()
                    result = tracer.call(f"op:{op.kind}", _execute, op.replay)
                    replay_time["traced"] += perf_counter() - t0
                    if op.digest(result) != digest:
                        tally.incorrect.append(f"{op.kind}: traced replay diverged")
        tally.passes.append(pass_time)
        last_pass = perf_counter() - pass_start
    return tally, replay_time


def probe_envelope(small: bool, report: dict) -> float:
    """Run the defect probe once, spans apart from the workload's; returns its failed share.

    The probe's triangles (``workloads.envelope``) are the same for every
    seed and workload, so its failure count depends only on the library.
    Its misses and the layers' exceptions by type go into ``report``.
    """
    ops = workloads.envelope(small)
    tally, tracer = Tally(), tracing.Tracer()
    with tracer.patched():
        for op in ops:
            tally.record(op, tracer.call(f"op:{op.kind}", _execute, op.run))
    report["envelope"] = {"ops": len(ops), "failed": tally.failed, "misses": tally.misses,
                          "layer_failures": tracer.layer_metrics()[1]}
    return tally.failed / len(ops)


def setup(name: str, seed: int, small: bool):
    """Set the workload up SETUP_REPEATS times; returns the last one and every time.

    One set-up is a fresh interpreter importing the package, building the
    seeded inputs, and the workload's warm-up calls.  Its time is divided
    by the mean host speed factor measured before and after it.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        speed_before = host_speed()
        start = perf_counter()
        fresh_import()
        work = workloads.WORKLOADS[name](seed, small)
        work.warmup()
        elapsed = perf_counter() - start
        times.append(elapsed / (0.5 * (speed_before + host_speed())))
    return work, times


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
                 removed_env=()) -> tuple[dict, dict]:
    """One benchmark run: (result object printed last, detailed report)."""
    work, setup_times = setup(name, seed, small)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        with tracer.patched():
            tracer.call("probe", workloads.probe)
    tally, replay_time = measure(work, seconds, tracer)
    attempted = len(tally.times)
    # percentiles across inputs: each operation's median over the passes, so
    # a burst of host noise in one pass does not move them
    op_medians = [statistics.median(v) for v in tally.by_op.values()]
    report = {
        "workload": name,
        "provenance": provenance(
            {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
             "small": small}, list(removed_env)),
        "passes": len(tally.passes),
        "ops": attempted,
        "tail": {"pct": work.tail_pct, "operations": len(op_medians),
                 "beyond": int(len(op_medians) * (100.0 - work.tail_pct) / 100.0)},
        "op_median_ms": {k: 1e3 * statistics.median(v) for k, v in tally.by_kind.items()},
        "host_speed": {"median": statistics.median(tally.speeds), "min": min(tally.speeds),
                       "max": max(tally.speeds)},
        "raw_op_p50_ms": 1e3 * statistics.median(tally.raw_times),
        "misses": tally.misses,
        "incorrect": tally.incorrect[:20],
    }
    if name == "cli":
        report["cli"] = {f"cli_{kind.split()[1]}_s": (statistics.median(v), "s")
                         for kind, v in tally.by_kind.items()}
    if tracer is not None:
        metrics, report["layer_failures"] = tracer.layer_metrics()
        for key, (useful, tried) in work.waste.items():
            metrics[key] = (useful / tried if tried else 0.0, "frac")
            report[key.replace("useful_ratio", "attempts")] = tried
        metrics["trace.overhead_frac"] = (replay_time["traced"] / replay_time["plain"] - 1.0, "frac")
        metrics["envelope.failed_frac"] = (probe_envelope(small, report), "frac")
        workloads.OUT.mkdir(exist_ok=True)
        spans_file = workloads.OUT / f"spans-{name}.csv"
        tracer.write(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(tally.passes), "s"),
            "samples_per_s": (tally.samples / sum(tally.times), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(op_medians), "ms"),
            "op_tail_ms": (1e3 * percentile(op_medians, work.tail_pct), "ms"),
            "peak_rss_mb": (peak_rss_mb(children=name == "cli"), "MB"),
        }
    result = {
        "correct": not tally.incorrect,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report
