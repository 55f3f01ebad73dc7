"""refresh-pool: recompute every user's top-k list through a ``WorkerPool``.

One refresh is one ``top_k_many`` call over all users in batch-256
blocks, fanned out to ``nproc`` spawn workers that memory-map one GBGCN
dir-layout artifact; no resilience policy, so workers take the gateway's
bare branch.  The catalog is large enough that scoring, masking and
selection over whole blocks dominate.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from multiprocessing import resource_tracker

import numpy as np

import layers
import oracle
from spans import summarize
from common import (
    K,
    SETUPS,
    Ledger,
    Outcome,
    backdate,
    clock,
    layer_metrics,
    median,
    peak_rss_mib,
    process_peak_rss_mib,
    scenario_population,
)

SLICE = dict(num_users=4096, num_items=8000)
MODEL = ("gbgcn", "GBGCN")
EMBEDDING_DIM = 16
BLOCK = 256
#: First request id of the traced run's per-block probe.
PROBE = 1 << 20


def setup(workdir, seed: int):
    """Dataset, one published GBGCN artifact and a started worker pool."""
    from repro.models import ModelSettings, build_model
    from repro.persist import save_model
    from repro.serving import WorkerPool

    phases = {}
    began = clock()
    dataset = scenario_population().to_dataset(**SLICE)
    phases["data.generate_s"] = clock() - began
    stem, name = MODEL
    model = build_model(name, dataset, ModelSettings(embedding_dim=EMBEDDING_DIM), rng=np.random.default_rng(seed))
    started = clock()
    save_model(model, workdir / f"{stem}.npyd", layout="dir")
    phases["persist.save_s"] = clock() - started
    backdate(workdir)
    workers = len(os.sched_getaffinity(0))
    pool = WorkerPool(workdir, dataset, workers=workers, default_model=stem, default_k=K)
    started = clock()
    try:
        pool.start()
    except BaseException:
        pool.stop()
        raise
    phases["workers.start_s"] = clock() - started
    phases["setup_s"] = clock() - began
    return dataset, model, pool, phases


def run(seed: int, seconds: float, workdir, recorder) -> Outcome:
    from repro.serving import CatalogError, ServingError, ServingUnavailableError, WorkerPoolError

    if recorder is not None:
        from repro.core.gbgcn import GBGCN

        layers.install_serving(recorder, (GBGCN,))

    phases = []
    state = None
    try:
        for index in range(SETUPS):
            if state is not None:
                state[2].stop()
            state = None  # the previous set-up is torn down before the next
            gc.collect()
            directory = workdir / f"setup-{index}"
            directory.mkdir()
            state = setup(directory, seed)
            phases.append(state[3])
        dataset, model, pool, _ = state
        blocks = [np.arange(start, min(start + BLOCK, dataset.num_users)) for start in range(0, dataset.num_users, BLOCK)]

        ledger = Ledger()
        refreshes, outputs = [], []
        began = clock()
        stop = began + seconds
        while clock() < stop:
            if recorder is not None:
                recorder.request_id = len(refreshes)
            started = clock()
            try:
                results = pool.top_k_many(blocks, k=K)
            except (ServingError, ServingUnavailableError, CatalogError, WorkerPoolError) as error:
                results = None
                ledger.error(f"refresh {len(refreshes)}: {type(error).__name__}: {error}", len(blocks))
            refreshes.append(clock() - started)
            outputs.append(results)
            ledger.attempted += len(blocks)
        if recorder is not None:
            recorder.request_id = -1
        rss = peak_rss_mib() + sum(process_peak_rss_mib(child.pid) for child in multiprocessing.active_children())

        probe = probe_layers(recorder, workdir, dataset, pool, blocks, outputs, ledger) if recorder is not None else {}
    finally:
        if state is not None:
            state[2].stop()
        # The pool's queues started multiprocessing's resource tracker; stop
        # it and wait for it, so the run leaves no process behind.
        resource_tracker._resource_tracker._stop()

    recall, overlap = verify(ledger, dataset, model, outputs)
    durations = np.asarray(refreshes)
    ok = np.asarray([result is not None for result in outputs])
    rows = dataset.num_users
    end_to_end = {
        "setup_s": median(p["setup_s"] for p in phases),
        "peak_rss_mib": rss,
        "requests_per_s": median(len(blocks) / durations[ok]),
        "rows_per_s": median(rows / durations[ok]),
        "samples_per_s": median(rows / durations[ok]),
        "p50_ms": median(durations[ok]) * 1e3,
        "recall_at_10": recall,
        "overlap_at_10": overlap,
    }
    details = {"refreshes": len(refreshes), "blocks_per_refresh": len(blocks), "workers": pool.workers}
    per_layer = {}
    if recorder is not None:
        per_layer = layer_metrics(
            {
                **probe,
                "workers.start_s": median(p["workers.start_s"] for p in phases),
                "data.generate_s": median(p["data.generate_s"] for p in phases),
                "persist.save_s": median(p["persist.save_s"] for p in phases),
                "request.p99_ms": float(np.percentile(durations, 99) * 1e3),
                "request.samples": len(refreshes),
            }
        )
        details["layer_self_sum_us"] = layers.layer_self_sum_us(recorder, PROBE + np.arange(len(blocks)))
    details["end_to_end"] = end_to_end
    return Outcome(ledger, end_to_end, per_layer, details)


def probe_layers(recorder, workdir, dataset, pool, blocks, outputs, ledger):
    """Per-block layer times: one synchronous pool round trip per block, then
    the same block through an in-process catalog and gateway like a worker's.

    Probe requests are numbered from ``PROBE`` so that the serving layer
    metrics are per block and leave out the refresh loop's spans.
    """
    from repro.serving import ModelCatalog, ServingGateway

    recorder.request_id = -2
    began = clock()
    catalog = ModelCatalog(workdir / f"setup-{SETUPS - 1}", dataset)
    gateway = ServingGateway(catalog, default_model=MODEL[0])
    catalog.warm_all()
    load_seconds = layers.setup_span_seconds(recorder, "persist.load", -2)
    cold_start = clock() - began
    reference = next((result for result in outputs if result is not None), None)
    requests = PROBE + np.arange(len(blocks))
    for index, block in enumerate(blocks):
        recorder.request_id = int(requests[index])
        remote = pool.top_k(block, k=K)
        local = gateway.top_k(block, k=K)
        recorder.request_id = -1
        same = all(
            np.array_equal(a.items, b.items) and np.array_equal(a.scores, b.scores)
            for a, b in [(remote, local)] + ([(remote, reference[index])] if reference is not None else [])
        )
        ledger.check(same, f"block {index}: pool and in-process answers differ")
    metrics = layers.serving_metrics(recorder, requests)
    summary = summarize(recorder, requests=requests)
    roundtrip = summary["workers.roundtrip"]["inclusive_ns"] / len(blocks) / 1e6
    in_process = summary["gateway"]["inclusive_ns"] / len(blocks) / 1e6
    metrics.update(
        {
            "workers.roundtrip_ms": roundtrip,
            "workers.ipc_ms": roundtrip - in_process,
            "persist.load_s": load_seconds,
            "catalog.cold_start_s": cold_start,
        }
    )
    return metrics


def verify(ledger, dataset, model, outputs):
    """First refresh against the oracle; every later one bitwise equal to it.

    Returns the mean ``(recall, overlap)`` of the first refresh's lists.
    """
    served = [index for index, result in enumerate(outputs) if result is not None]
    if not served:
        return 0.0, 0.0
    first = outputs[served[0]]
    users = np.concatenate([result.users for result in first])
    items = np.vstack([result.items for result in first])
    scores = np.vstack([result.scores for result in first])
    if not np.array_equal(users, np.arange(dataset.num_users)):
        ledger.wrong("refresh did not answer every user in order", len(first))
        return 0.0, 0.0
    observed = oracle.observed_sets(dataset.behaviors, dataset.num_users)
    model.eval()
    user_factors, item_factors = model.scoring_factors()

    def references(unique_users):
        for start in range(0, unique_users.size, BLOCK):
            block = unique_users[start : start + BLOCK]
            rows = oracle.brute_force_scores(user_factors, item_factors, block)
            for row, user in zip(rows, block):
                yield row, observed[int(user)]

    wrong, recall, overlap, problems = oracle.verify_responses(
        users, items, scores, np.ones(users.size, dtype=bool), references, K
    )
    for problem in problems:
        ledger.note(problem)
    # A block fails when one of its lists is wrong or differs from the first refresh.
    first_wrong = np.add.reduceat(wrong, np.arange(0, users.size, BLOCK)) > 0
    for index in served:
        differs = np.asarray(
            [not (np.array_equal(a.items, b.items) and np.array_equal(a.scores, b.scores)) for a, b in zip(first, outputs[index])]
        )
        failed = int((first_wrong | differs).sum())
        if failed:
            ledger.wrong(f"refresh {index}: {failed} blocks failed the oracle check or differ from the first", failed)
    return float(recall.mean()), float(overlap.mean())
