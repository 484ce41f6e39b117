"""Benchmark entry point: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweeps|scalar|cli --seed N --seconds S --trace 0|1

The run pins BLAS/OpenMP to one thread, itself and its children to one
CPU, and removes every ORBITCONICS_* variable from its own and its
children's environment before numpy or the package is imported, so
every commit runs the library defaults.  It
prints one line per metric, a JSON report (provenance, failures by
kind, per-subcommand CLI times), and last the JSON result object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweeps", "scalar", "cli")


def pin_environment() -> list[str]:
    """Pin threads and CPU, drop ORBITCONICS_*, put src/ on the path; returns dropped names."""
    removed = sorted(k for k in os.environ if k.startswith("ORBITCONICS_"))
    for key in removed:
        del os.environ[key]
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the benchmark and its children, so the host-speed slices
        # run on the core that runs the operations they are divided into
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return removed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbitconics" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no orbitconics sources under {SRC}; run from a full checkout\n")
        return 2
    removed = pin_environment()
    import harness  # imports numpy, so only after the environment is pinned

    result, report = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), removed_env=removed)
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in report.get("cli", {}).items():
        print(f"{name:42s} {value:.6g} {unit}")
    print(f"{'failed / attempted':42s} {result['failed']} / {result['attempted']}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
