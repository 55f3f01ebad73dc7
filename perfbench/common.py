"""Pieces every workload shares: metric tables, the ledger, clocks and inputs."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: End-to-end metrics (printed with ``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "requests_per_s": "1/s",
    "rows_per_s": "rows/s",
    "samples_per_s": "samples/s",
    "p50_ms": "ms",
    "recall_at_10": "ratio",
    "overlap_at_10": "ratio",
}

#: Per-layer metrics (printed with ``--trace 1``): name -> unit.
PER_LAYER = {
    "errors.validate_us": "us",
    "resilience.admit_us": "us",
    "catalog.acquire_us": "us",
    "metrics.record_us": "us",
    "gateway.self_us": "us",
    "store.score_us": "us",
    "model.score_us": "us",
    "topk.recommend_us": "us",
    "topk.mask_select_us": "us",
    "topk.rows": "count",
    "store.items_scored": "count",
    "workers.roundtrip_ms": "ms",
    "workers.ipc_ms": "ms",
    "workers.start_s": "s",
    "retrieval.shortlist_us": "us",
    "retrieval.rescore_us": "us",
    "retrieval.candidates": "count",
    "retrieval.build_s": "s",
    "batches.sample_ms": "ms",
    "model.forward_ms": "ms",
    "core.propagate_ms": "ms",
    "autograd.backward_ms": "ms",
    "optim.step_ms": "ms",
    "optim.rows_touched": "count",
    "eval.validate_s": "s",
    "data.generate_s": "s",
    "persist.save_s": "s",
    "persist.load_s": "s",
    "catalog.cold_start_s": "s",
    "request.p99_ms": "ms",
    "request.samples": "count",
}

#: Set-ups per run; ``setup_s`` and the set-up layer times are their medians.
SETUPS = 3
#: Top-k width of every request.
K = 10
#: Throughput is the median rate over this many equal slices of the run.
SLICES = 10

#: The fixed scenario population behind the gateway, refresh and training
#: workloads (each takes its own prefix slice).  Its digest is in README.md.
POPULATION = dict(
    num_users=20_000,
    num_items=10_000,
    num_behaviors=80_000,
    num_communities=40,
    block_size=20_000,
    seed=2021,
)

clock = time.perf_counter


def scenario_population(**overrides):
    """Generate the benchmark's scenario population (deterministic)."""
    from repro.data.scenario import ScenarioConfig, generate_population

    return generate_population(ScenarioConfig(**{**POPULATION, **overrides}))


@dataclass
class Ledger:
    """Operations attempted and failed in one run, plus failed checks.

    A typed serving error fails its operation; a wrong output fails its
    operation and also makes the run incorrect.  Whole-run checks that
    are not tied to one operation only make the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)

    def error(self, what: str, operations: int = 1) -> None:
        self.failed += operations
        self.note(what)

    def wrong(self, what: str, operations: int = 1) -> None:
        self.failed += operations
        self.correct = False
        self.note(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.correct = False
            self.note(what)

    def note(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def sliced_rate(ends: Sequence[float], began: float, finished: float, weights: Optional[Sequence[float]] = None) -> float:
    """Median over ``SLICES`` equal slices of ``[began, finished]`` of work done per second.

    An operation belongs to the slice in which it ended.  The median keeps a
    burst of interference from another process from moving the figure.
    """
    ends = np.asarray(ends, dtype=np.float64)
    weights = np.ones(ends.size) if weights is None else np.asarray(weights, dtype=np.float64)
    width = (finished - began) / SLICES
    slot = np.minimum(((ends - began) / width).astype(np.int64), SLICES - 1)
    return median(np.bincount(slot, weights=weights, minlength=SLICES)[:SLICES] / width)


def peak_rss_mib() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def backdate(directory: Path, seconds: float = 3600.0) -> None:
    """Set the mtime of everything under ``directory`` ``seconds`` in the past.

    A catalog re-reads an artifact's content token on every access while
    the file is younger than its grace period; serving measured right
    after publishing would time that window instead of the steady state.
    """
    then = time.time() - seconds
    for path in [directory, *directory.rglob("*")]:
        os.utime(path, (then, then))


def per_op(summary: Dict[str, Dict[str, float]], name: str, key: str, operations: int, scale: float) -> float:
    """A span total divided by the operation count, in ``scale`` units of ns."""
    if name not in summary or operations <= 0:
        return 0.0
    return summary[name][key] / operations / scale


def layer_metrics(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 for a layer the workload does not exercise."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(thread_vars: Sequence[str]) -> Dict[str, object]:
    """What a reader needs to compare two runs: CPUs, versions, thread pins."""
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in thread_vars},
    }


@dataclass
class Outcome:
    """What a workload hands back to the launcher."""

    ledger: Ledger
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    details: Dict[str, object]


def record_verification(ledger: Ledger, wrong: np.ndarray, problems: List[str]) -> None:
    """Fail (and mark incorrect) every request whose response was wrong."""
    for problem in problems:
        ledger.note(problem)
    if wrong.any():
        ledger.wrong(f"{int(wrong.sum())} responses failed the oracle check", int(wrong.sum()))
