"""cascadeq benchmark: one seeded workload per process, in-process CLI and library calls.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classical-k10 --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's operations for at most ``--seconds`` of
measurement (always at least one round), checks every output against the
independent reference, and prints one JSON object as the last line: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of BENCHMARK.json. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_BATCH = 5  # set-ups per batch: one batch first, then one after an operation
SETUP_EVERY_S = 3.0  # that ends at least this long after the last batch
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "stage_a_s": "s", "stage_b_s": "s"}
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_program():
    """Fresh import of cascadeq from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "cascadeq" or n.startswith("cascadeq.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cascadeq")
    importlib.import_module("cascadeq.cli")
    if pathlib.Path(pkg.__file__).resolve().parent != ROOT / "src" / "cascadeq":
        raise ImportError(f"cascadeq imported from {pkg.__file__}, not from this checkout")
    return pkg


class SetUps:
    """Timed set-ups: a fresh import of cascadeq plus the workload's input generation.

    One batch runs before the first operation, and one after each operation
    that ends at least ``SETUP_EVERY_S`` after the last batch. So setup_s is
    taken over the same stretch of the run as the stages, and a burst of host
    speed at the start of a run cannot decide it.
    """

    def __init__(self, make_workload):
        self.make_workload = make_workload
        self.times: list[float] = []
        self.last = 0.0

    def batch(self):
        """Run ``SETUP_BATCH`` set-ups; return the last one's program and workload."""
        for _ in range(SETUP_BATCH):
            started = time.perf_counter()
            pkg = _import_program()
            workload = self.make_workload()
            self.times.append(time.perf_counter() - started)
        self.last = time.perf_counter()
        return pkg, workload

    def between_operations(self):
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.batch()


def _machine() -> dict:
    import numpy as np

    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    # glibc _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {level: libc.sysconf(code) for level, code in (("L1d", 188), ("L2", 191), ("L3", 194))}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # single-threaded kernels, one process per workload; set before numpy is imported
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import reference
    import tracing
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "cascadeq" / "__init__.py").is_file():
        print(f"error: no cascadeq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setups = SetUps(lambda: WORKLOADS[args.workload](args.seed, workdir))
        pkg, workload = setups.batch()
        reference.self_check(args.seed)
        workload.prepare()
        tracer = tracing.Tracer(enabled=bool(args.trace))
        if args.trace:
            tracer.install()
        # a fresh import would drop the traced wrappers, so a traced run sets up once
        ledger = Ledger(tracer, between=None if args.trace else setups.between_operations)

        stages: dict[str, list[float]] = {"stage_a_s": [], "stage_b_s": []}
        rounds: list[float] = []
        layers: list[dict[str, float]] = []
        measuring = time.perf_counter()
        while True:
            started = time.perf_counter()
            for stage, samples in workload.round(ledger, pkg).items():
                stages[stage].extend(samples)
            rounds.append(time.perf_counter() - started)
            spans = tracer.take()
            if args.trace:
                layers.append(tracing.layer_metrics(spans))
            # start another round only if it can end inside the measuring window
            if time.perf_counter() - measuring + rounds[-1] > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": statistics.median(r[name] for r in layers), "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            # median pass: the host runs Python-heavy code up to 1.6x faster, or
            # slower, for a second or two at a time, and a mean takes in every burst
            **{stage: statistics.median(samples) for stage, samples in stages.items()},
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print("machine: " + json.dumps(_machine(), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
          f"setups={len(setups.times)} "
          f"round_s={statistics.median(rounds):.4f} "
          + " ".join(f"{stage}={[round(s, 4) for s in samples]}" for stage, samples in stages.items()))
    print(json.dumps({"correct": ledger.wrong == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
