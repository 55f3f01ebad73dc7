"""train-gbgcn: the paper's two-stage GBGCN training on a scenario slice.

One round runs ``train_gbgcn_with_pretraining`` (Adam pre-training, then
SGD fine-tuning under the double-pairwise loss, validating every epoch),
then ``save_model``/``load_model`` of the result and a full-ranking test
evaluation.  Rounds repeat with the same seed until the run's time is
spent, so every round does the same work and reaches the same model.
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
    clock,
    layer_metrics,
    median,
    peak_rss_mib,
    scenario_population,
)

SLICE = dict(num_users=3000, num_items=1000, max_behaviors=12_000)
EMBEDDING_DIM = 16
PRETRAIN_EPOCHS = 2
FINETUNE_EPOCHS = 3
BATCH_SIZE = 1024


class StepClock:
    """A batch iterator that times each training step from outside the trainer.

    A step runs from asking for its batch to asking for the next one, so it
    covers sampling the batch, the forward pass, backward and the optimizer
    step.  Set ``recorder`` to stamp traced spans with the step index.
    """

    def __init__(self, inner, stage: str, log: list, recorder=None) -> None:
        self.inner = inner
        self.stage = stage
        self.log = log
        self.recorder = recorder

    def __iter__(self):
        batches = iter(self.inner)
        while True:
            asked = clock()
            if self.recorder is not None:
                self.recorder.request_id = len(self.log)
            try:
                batch = next(batches)
            except StopIteration:
                if self.recorder is not None:
                    self.recorder.request_id = -1
                return
            sampled = clock()
            yield batch
            self.log.append((self.stage, sampled - asked, clock() - asked, len(batch)))


def setup():
    """The training slice, its leave-one-out split and the evaluator."""
    from repro.data import leave_one_out_split
    from repro.eval import FullRankingEvaluator

    began = clock()
    dataset = scenario_population().to_dataset(**SLICE)
    split = leave_one_out_split(dataset, seed=1)
    generated = clock() - began
    evaluator = FullRankingEvaluator(split)
    return split, evaluator, {"data.generate_s": generated, "setup_s": clock() - began}


def run(seed: int, seconds: float, workdir, recorder) -> Outcome:
    import repro.persist as persist
    from repro.core import GBGCNConfig
    from repro.core.gbgcn import GBGCN
    from repro.training import TrainingSettings, pipeline

    if recorder is not None:
        layers.install_training(recorder)

    phases = []
    state = None
    for _ in range(SETUPS):
        state = None  # the previous set-up is torn down before the next
        gc.collect()
        state = setup()
        phases.append(state[2])
    split, evaluator, _ = state

    steps: list = []
    build_iterator = pipeline.build_batch_iterator

    def timed_iterator(model, *args, **kwargs):
        stage = "finetune" if isinstance(model, GBGCN) else "pretrain"
        return StepClock(build_iterator(model, *args, **kwargs), stage, steps, recorder)

    pipeline.build_batch_iterator = timed_iterator
    config = GBGCNConfig(embedding_dim=EMBEDDING_DIM)
    settings = TrainingSettings(
        num_epochs=FINETUNE_EPOCHS,
        pretrain_epochs=PRETRAIN_EPOCHS,
        batch_size=BATCH_SIZE,
        validate_every=1,
        seed=seed,
    )
    train_rows = len(split.train.behaviors)

    ledger = Ledger()
    rounds = []
    began = clock()
    stop = began + seconds
    try:
        while clock() < stop:
            first_step = len(steps)
            started = clock()
            model, finetune, pretrain = pipeline.train_gbgcn_with_pretraining(
                split, config=config, settings=settings, evaluator=evaluator, rng=np.random.default_rng(seed)
            )
            trained = clock() - started
            ledger.attempted += len(steps) - first_step
            path = workdir / f"round-{len(rounds)}.npyd"
            started = clock()
            persist.save_model(model, path, dataset=split.train, layout="dir")
            saved = clock() - started
            loaded = persist.load_model(path, split.train)
            loaded_at = clock()
            test = evaluator.evaluate_test(model)
            rounds.append(
                {
                    "seconds": trained,
                    "steps": steps[first_step:],
                    "save_s": saved,
                    "load_s": loaded_at - started - saved,
                    "recall": test.metrics[f"Recall@{K}"],
                    "losses": (pretrain.losses(), finetune.losses()),
                    "model": model,
                    "loaded": loaded,
                }
            )
            if len(rounds) > 1:
                rounds[-2].pop("model")
                rounds[-2].pop("loaded")
    finally:
        pipeline.build_batch_iterator = build_iterator
    rss = peak_rss_mib()

    recall_at_10, overlap_at_10 = check(ledger, split, rounds)
    finetune_steps = [entry[2] for entry in steps if entry[0] == "finetune"]
    end_to_end = {
        "setup_s": median(p["setup_s"] for p in phases),
        "peak_rss_mib": rss,
        "requests_per_s": median(len(r["steps"]) / r["seconds"] for r in rounds),
        "rows_per_s": median(sum(s[3] for s in r["steps"]) / sum(s[2] for s in r["steps"]) for r in rounds),
        "samples_per_s": median(sum(s[3] for s in r["steps"]) / r["seconds"] for r in rounds),
        "p50_ms": median(finetune_steps) * 1e3,
        "recall_at_10": recall_at_10,
        "overlap_at_10": overlap_at_10,
    }
    details = {
        "rounds": len(rounds),
        "steps_per_round": len(rounds[0]["steps"]),
        "train_behaviors": train_rows,
        "test_users": len(split.test),
    }
    per_layer = {}
    if recorder is not None:
        step_seconds = [entry[2] for entry in steps]
        per_layer = layers.training_metrics(recorder, len(steps))
        per_layer.update(
            {
                "batches.sample_ms": float(np.mean([entry[1] for entry in steps])) * 1e3,
                "data.generate_s": median(p["data.generate_s"] for p in phases),
                "persist.save_s": median(r["save_s"] for r in rounds),
                "persist.load_s": median(r["load_s"] for r in rounds),
                "request.p99_ms": float(np.percentile(step_seconds, 99) * 1e3),
                "request.samples": len(steps),
            }
        )
        per_layer = layer_metrics(per_layer)
        details["layer_self_sum_ms"] = layers.layer_self_sum_us(recorder, np.arange(len(steps))) / 1e3
        details["mean_step_ms"] = float(np.mean(step_seconds)) * 1e3
    details["end_to_end"] = end_to_end
    return Outcome(ledger, end_to_end, per_layer, details)


def check(ledger: Ledger, split, rounds) -> tuple:
    """Loss, recall and round-trip checks; returns ``(recall_at_10, overlap_at_10)``."""
    for index, entry in enumerate(rounds):
        for stage, losses in zip(("pre-training", "fine-tuning"), entry["losses"]):
            ledger.check(bool(np.all(np.isfinite(losses))), f"round {index}: {stage} loss is not finite: {losses}")
            ledger.check(losses[-1] < losses[0], f"round {index}: {stage} loss did not fall: {losses}")
        ledger.check(entry["recall"] == rounds[0]["recall"], f"round {index} reached another Recall@{K}")
    last = rounds[-1]
    model, loaded = last["model"], last["loaded"]
    users = np.asarray(sorted(split.test), dtype=np.int64)
    positives = np.asarray([split.test[int(user)].item for user in users], dtype=np.int64)
    observed = oracle.observed_sets(split.full.behaviors, split.full.num_users)
    model.eval()
    rows = np.asarray(model.score_all_items(users), dtype=np.float64)
    loaded.eval()
    loaded_rows = np.asarray(loaded.score_all_items(users), dtype=np.float64)
    ledger.check(rows.tobytes() == loaded_rows.tobytes(), "scores after save_model/load_model differ from the trained model's")

    ranks = oracle.held_out_ranks(rows, positives, observed, users)
    recall = float(np.mean(ranks < K))
    ledger.check(recall == last["recall"], f"Recall@{K} recomputed from score rows is {recall}, evaluator says {last['recall']}")
    chance = oracle.random_recall_at_k(split.full.num_items, observed, users, positives, K)
    ledger.check(recall > chance, f"Recall@{K} {recall} does not beat a random ranking's {chance}")

    user_factors, item_factors = model.scoring_factors()
    overlaps = []
    for row, user, loaded_row in zip(oracle.brute_force_scores(user_factors, item_factors, users), users, loaded_rows):
        exact = oracle.exact_top_k(row, observed[int(user)], K)
        served = oracle.exact_top_k(loaded_row, observed[int(user)], K)
        overlaps.append(np.isin(exact, served).mean() if exact.size else 1.0)
    return recall, float(np.mean(overlaps))
