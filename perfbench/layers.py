"""Which public functions the traced run wraps, and the per-layer metrics they give.

Each span name is one layer.  Serving per-layer times are per operation
(one request, or one pool block): a layer's self time is what it spent
outside the traced layers it called, and ``store``/``model``/``topk`` are
also reported inclusive, as their names in README.md say.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from common import per_op
from spans import SpanRecorder, summarize


def _rows(args, kwargs, result) -> int:
    return int(np.asarray(result.items).shape[0])


def _size(args, kwargs, result) -> int:
    return int(np.asarray(result).size)


def _candidates(args, kwargs, result) -> int:
    return int(sum(len(shortlist) for shortlist in result))


def _rows_touched(args, kwargs, result) -> int:
    from repro.autograd.sparse_grad import RowSparseGrad

    rows = 0
    for parameter in args[0].parameters:
        grad = parameter.grad
        if isinstance(grad, RowSparseGrad):
            rows += int(np.asarray(grad.indices).size)
        elif grad is not None:
            rows += int(np.asarray(grad).shape[0]) if np.ndim(grad) else 1
    return rows


def install_serving(recorder: SpanRecorder, model_classes: Iterable[type]) -> None:
    """Wrap the serving stack's layer boundaries (gateway down to the model)."""
    import repro.persist
    from repro.models.base import RecommenderModel
    from repro.serving import gateway, topk
    from repro.serving.catalog import ModelCatalog
    from repro.serving.metrics import MetricsRegistry
    from repro.serving.resilience import AdmissionController, CircuitBreaker, ResilienceState
    from repro.serving.retrieval import RetrievalIndex
    from repro.serving.store import EmbeddingStore
    from repro.serving.workers import WorkerPool

    recorder.install(gateway.ServingGateway, "top_k", "gateway")
    recorder.install(gateway, "validate_user_ids", "errors.validate")
    recorder.install(topk, "validate_user_ids", "errors.validate")
    # Admission hands back a release closure; trace that call too.
    acquire = AdmissionController.acquire

    def acquire_traced_release(self, *args, **kwargs):
        return recorder.wrap("resilience", acquire(self, *args, **kwargs))

    recorder.replace(AdmissionController, "acquire", acquire_traced_release)
    recorder.install(AdmissionController, "acquire", "resilience")
    for method in ("admit", "record_success"):
        recorder.install(CircuitBreaker, method, "resilience")
    for method in ("breaker", "remember_last_good"):
        recorder.install(ResilienceState, method, "resilience")
    for method in ("recommender", "store", "entry"):
        recorder.install(ModelCatalog, method, "catalog")
    recorder.install(MetricsRegistry, "record_request", "metrics")
    recorder.install(topk.TopKRecommender, "recommend", "topk", count=_rows)
    recorder.install(EmbeddingStore, "score_all_items", "store", count=_size)
    recorder.install(EmbeddingStore, "scores", "store", count=_size)
    recorder.install(RecommenderModel, "score_all_items", "model")
    for cls in model_classes:
        recorder.install(cls, "score_batch", "model")
    recorder.install(RetrievalIndex, "shortlist", "retrieval", count=_candidates)
    recorder.install(repro.persist, "load_model", "persist.load")
    recorder.install(WorkerPool, "top_k", "workers.roundtrip")
    recorder.install(WorkerPool, "top_k_many", "workers.refresh")


def serving_metrics(recorder: SpanRecorder, requests: np.ndarray) -> Dict[str, float]:
    """Per-operation serving layer metrics over the spans of ``requests``."""
    summary = summarize(recorder, requests=requests)
    operations = len(requests)
    us = 1e3

    def own(name):
        return per_op(summary, name, "self_ns", operations, us)

    def inclusive(name):
        return per_op(summary, name, "inclusive_ns", operations, us)

    metrics = {
        "errors.validate_us": own("errors.validate"),
        "resilience.admit_us": own("resilience"),
        "catalog.acquire_us": own("catalog"),
        "metrics.record_us": own("metrics"),
        "gateway.self_us": own("gateway"),
        "store.score_us": inclusive("store"),
        "model.score_us": inclusive("model"),
        "topk.recommend_us": inclusive("topk"),
        "topk.mask_select_us": own("topk"),
        "topk.rows": recorder.count_total("topk", requests) / operations,
        "store.items_scored": recorder.count_total("store", requests) / operations,
    }
    if summary.get("retrieval", {}).get("calls", 0):
        metrics["retrieval.shortlist_us"] = inclusive("retrieval")
        metrics["retrieval.rescore_us"] = own("topk") + inclusive("store")
        metrics["retrieval.candidates"] = recorder.count_total("retrieval", requests) / operations
    return metrics


def layer_self_sum_us(recorder: SpanRecorder, requests: np.ndarray) -> float:
    """Summed self time of every traced layer, per operation (µs)."""
    summary = summarize(recorder, requests=requests)
    return sum(entry["self_ns"] for entry in summary.values()) / len(requests) / 1e3


def setup_span_seconds(recorder: SpanRecorder, name: str, setup_request: int) -> float:
    """Inclusive seconds of ``name`` spans stamped with one set-up's request id."""
    summary = summarize(recorder, requests=np.asarray([setup_request]))
    return summary.get(name, {}).get("inclusive_ns", 0.0) / 1e9


def install_training(recorder: SpanRecorder) -> None:
    """Wrap the training layers: model forward, propagation, backward, optimizer, eval."""
    from repro.autograd.tensor import Tensor
    from repro.core.gbgcn import GBGCN
    from repro.core.pretrain import GBGCNPretrainModel
    from repro.core.propagation import CrossViewPropagation, InViewPropagation
    from repro.eval.full_ranking import FullRankingEvaluator
    from repro.optim import SGD, Adam
    from repro.training import trainer

    for cls in (GBGCN, GBGCNPretrainModel):
        recorder.install(cls, "batch_loss", "model.forward")
    for cls in (InViewPropagation, CrossViewPropagation):
        recorder.install(cls, "forward", "core.propagate")
    recorder.install(Tensor, "backward", "autograd.backward")
    for cls in (SGD, Adam):
        recorder.install(cls, "step", "optim.step", count=_rows_touched)
    recorder.install(trainer, "clip_grad_norm", "optim.step")
    recorder.install(FullRankingEvaluator, "evaluate_validation", "eval.validate")


def training_metrics(recorder: SpanRecorder, steps: int) -> Dict[str, float]:
    """Per-step training layer metrics over spans of steps ``0..steps-1``."""
    summary = summarize(recorder, requests=np.arange(steps))
    ms = 1e6
    validation = summarize(recorder).get("eval.validate", {"calls": 0, "inclusive_ns": 0.0})
    return {
        "model.forward_ms": per_op(summary, "model.forward", "inclusive_ns", steps, ms),
        "core.propagate_ms": per_op(summary, "core.propagate", "inclusive_ns", steps, ms),
        "autograd.backward_ms": per_op(summary, "autograd.backward", "inclusive_ns", steps, ms),
        "optim.step_ms": per_op(summary, "optim.step", "inclusive_ns", steps, ms),
        "optim.rows_touched": recorder.count_total("optim.step", np.arange(steps)) / steps,
        "eval.validate_s": validation["inclusive_ns"] / max(validation["calls"], 1) / 1e9,
    }
