#!/usr/bin/env python3
"""The repository's benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload online-gateway --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and serves the ``repro`` package
under ``src/``.  With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric; with ``--trace 1`` the same run is traced and the metrics are the
per-layer ones.  The lines before it describe the machine and the run.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools are pinned to one thread before numpy is imported, in
#: this process and in every worker it spawns (they inherit the variables):
#: a default pool of ``nproc`` threads per process makes timings depend on
#: what else the machine runs.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "online-gateway": "wl_gateway",
    "refresh-pool": "wl_refresh",
    "retrieval-1m": "wl_retrieval",
    "train-gbgcn": "wl_train",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import importlib

    import common
    from spans import SpanRecorder

    workload = importlib.import_module(WORKLOADS[args.workload])
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": common.environment(THREAD_VARS)}), flush=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder() if args.trace else None
    try:
        outcome = workload.run(args.seed, args.seconds, workdir, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if recorder is not None:
        recorder.save(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.npz")

    ledger = outcome.ledger
    for problem in ledger.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"details": outcome.details}), flush=True)
    table = common.PER_LAYER if args.trace else common.END_TO_END
    values = outcome.per_layer if args.trace else outcome.end_to_end
    if set(values) != set(table):
        raise RuntimeError(f"{args.workload} reported {sorted(values)}, expected {sorted(table)}")
    result = {
        "correct": bool(ledger.correct),
        "attempted": int(ledger.attempted),
        "failed": int(ledger.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in table.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if ledger.correct and ledger.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
