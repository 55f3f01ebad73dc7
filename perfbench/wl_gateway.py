"""online-gateway: one closed-loop client sending batch-1 ``ServingGateway.top_k``.

Three dir-layout artifacts (MF, GBGCN-pretrain, GBGCN) sit in a warm
``ModelCatalog`` behind a gateway with an armed ``ResiliencePolicy``.
Users are Zipf-skewed; each round sends one request to each model, in a
seeded order, so every run serves the three models in equal shares.
"""

from __future__ import annotations

import gc

import numpy as np

import layers
import oracle
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
    record_verification,
    scenario_population,
    sliced_rate,
)

SLICE = dict(num_users=8192, num_items=1000)
#: Catalog name (artifact stem) -> registry model name.
MODELS = {"mf": "MF", "gbgcn-pretrain": "GBGCN-pretrain", "gbgcn": "GBGCN"}
EMBEDDING_DIM = 16
#: Zipf exponent of user activity in the request stream.
USER_EXPONENT = 1.1
#: Requests drawn per refill of the stream.
CHUNK = 3 * 8192


def setup(workdir, seed: int):
    """Dataset, three published artifacts, a warm catalog and an armed gateway."""
    from repro.models import ModelSettings, build_model
    from repro.persist import save_model
    from repro.serving import ModelCatalog, ResiliencePolicy, ServingGateway

    phases = {}
    began = clock()
    dataset = scenario_population().to_dataset(**SLICE)
    phases["data.generate_s"] = clock() - began
    models = {}
    saving = 0.0
    for index, (stem, name) in enumerate(MODELS.items()):
        model = build_model(
            name, dataset, ModelSettings(embedding_dim=EMBEDDING_DIM), rng=np.random.default_rng([seed, index])
        )
        started = clock()
        save_model(model, workdir / f"{stem}.npyd", layout="dir")
        saving += clock() - started
        models[stem] = model
    phases["persist.save_s"] = saving
    backdate(workdir)
    catalog = ModelCatalog(workdir, dataset)
    started = clock()
    catalog.warm_all()
    phases["catalog.cold_start_s"] = clock() - started
    # Deadline and admission budget far above what one client can reach:
    # the armed path runs on every request and nothing is ever shed.
    policy = ResiliencePolicy(deadline_seconds=30.0, max_inflight=64, max_inflight_per_model=64)
    gateway = ServingGateway(catalog, policy=policy)
    phases["setup_s"] = clock() - began
    return dataset, models, gateway, phases


def request_stream(seed: int, num_users: int):
    """Endless ``(user array of one, model index)`` requests.

    Users are Zipf-skewed over a seeded ranking; every three consecutive
    requests go to the three models in a seeded order.
    """
    rng = np.random.default_rng([seed, 1 << 16])
    user_of_rank = rng.permutation(num_users).astype(np.int64)
    weights = np.arange(1, num_users + 1, dtype=np.float64) ** -USER_EXPONENT
    weights /= weights.sum()
    while True:
        users = user_of_rank[rng.choice(num_users, size=CHUNK, p=weights)]
        rounds = np.argsort(rng.random((CHUNK // 3, 3)), axis=1).ravel()
        for index in range(CHUNK):
            yield users[index : index + 1], int(rounds[index])


def run(seed: int, seconds: float, workdir, recorder) -> Outcome:
    from repro.persist.errors import ArtifactError
    from repro.serving import CatalogError, ServingError, ServingUnavailableError

    if recorder is not None:
        from repro.core.gbgcn import GBGCN
        from repro.core.pretrain import GBGCNPretrainModel
        from repro.models.mf import MatrixFactorization

        layers.install_serving(recorder, (MatrixFactorization, GBGCN, GBGCNPretrainModel))

    phases, load_seconds = [], []
    state = None
    for index in range(SETUPS):
        state = None  # the previous set-up is torn down before the next
        gc.collect()
        if recorder is not None:
            recorder.request_id = -2 - index
        directory = workdir / f"setup-{index}"
        directory.mkdir()
        state = setup(directory, seed)
        phases.append(state[3])
        if recorder is not None:
            load_seconds.append(layers.setup_span_seconds(recorder, "persist.load", -2 - index))
            recorder.request_id = -1
    dataset, models, gateway, _ = state
    names = list(MODELS)

    ledger = Ledger()
    stream = request_stream(seed, dataset.num_users)
    latencies, ends, keys, items, scores, served = [], [], [], [], [], []
    empty = np.full(K, -1, dtype=np.int64), np.full(K, -np.inf)
    began = clock()
    stop = began + seconds
    op = 0
    while clock() < stop:
        for _ in range(3):  # whole rounds: one request per model
            users, model_index = next(stream)
            model = names[model_index]
            if recorder is not None:
                recorder.request_id = op
            started = clock()
            try:
                result = gateway.top_k(users, k=K, model=model)
                response, ok = (result.items[0], result.scores[0]), True
            except (ServingError, ServingUnavailableError, CatalogError, ArtifactError) as error:
                response, ok = empty, False
                ledger.error(f"{model} user {users[0]}: {type(error).__name__}: {error}")
            finished = clock()
            latencies.append(finished - started)
            ends.append(finished)
            keys.append(model_index * dataset.num_users + int(users[0]))
            items.append(response[0])
            scores.append(response[1])
            served.append(ok)
            op += 1
    finished = clock()
    if recorder is not None:
        recorder.request_id = -1
    rss = peak_rss_mib()
    ledger.attempted = op

    observed = oracle.observed_sets(dataset.behaviors, dataset.num_users)
    factors = []
    for stem in names:
        model = models[stem]
        model.eval()
        factors.append(model.scoring_factors())

    def references(unique_keys):
        for key in unique_keys:
            model_index, user = divmod(int(key), dataset.num_users)
            user_factors, item_factors = factors[model_index]
            yield oracle.brute_force_scores(user_factors, item_factors, [user])[0], observed[user]

    wrong, recall, overlap, problems = oracle.verify_responses(
        np.asarray(keys), np.vstack(items), np.vstack(scores), np.asarray(served), references, K
    )
    record_verification(ledger, wrong, problems)
    good = np.asarray(served) & ~wrong

    end_to_end = {
        "setup_s": median(p["setup_s"] for p in phases),
        "peak_rss_mib": rss,
        "requests_per_s": sliced_rate(ends, began, finished),
        "rows_per_s": sliced_rate(ends, began, finished),
        "samples_per_s": sliced_rate(ends, began, finished),
        "p50_ms": median(latencies) * 1e3,
        "recall_at_10": float(recall[good].mean()) if good.any() else 0.0,
        "overlap_at_10": float(overlap[good].mean()) if good.any() else 0.0,
    }
    details = {"requests": op, "distinct_requests": int(np.unique(keys).size), "models": names}
    per_layer = {}
    if recorder is not None:
        per_layer = layers.serving_metrics(recorder, np.arange(op))
        per_layer.update(
            {
                "data.generate_s": median(p["data.generate_s"] for p in phases),
                "persist.save_s": median(p["persist.save_s"] for p in phases),
                "persist.load_s": median(load_seconds),
                "catalog.cold_start_s": median(p["catalog.cold_start_s"] for p in phases),
                "request.p99_ms": float(np.percentile(latencies, 99) * 1e3),
                "request.samples": op,
            }
        )
        per_layer = layer_metrics(per_layer)
        details["layer_self_sum_us"] = layers.layer_self_sum_us(recorder, np.arange(op))
    details["end_to_end"] = end_to_end
    return Outcome(ledger, end_to_end, per_layer, details)
