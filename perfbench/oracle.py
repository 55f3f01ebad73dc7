"""Reference answers for the benchmark, computed apart from the serving code.

Nothing here imports ``repro.serving``: observed sets come straight from a
dataset's behaviors, reference scores are a plain ``U @ V.T`` over the
factors a model exposes, and a top-k response is judged by properties any
correct answer has, not by replaying the program's own selection code.

Tolerance: a score agrees with its reference when they differ by at most
``RTOL`` times the reference's magnitude, plus ``ATOL`` so that scores
near 0 can agree.
The dense GEMM, the per-row rescore and the model's own score path add the
same terms in different orders, so they may differ by a few ULPs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

RTOL = 1e-9
ATOL = 1e-12


def observed_sets(behaviors: Iterable, num_users: int) -> List[np.ndarray]:
    """Sorted item IDs each user has interacted with, as initiator or participant."""
    seen: List[set] = [set() for _ in range(num_users)]
    for behavior in behaviors:
        item = int(behavior.item)
        seen[int(behavior.initiator)].add(item)
        for participant in behavior.participants:
            seen[int(participant)].add(item)
    return [np.asarray(sorted(items), dtype=np.int64) for items in seen]


def brute_force_scores(user_factors: np.ndarray, item_factors: np.ndarray, users: Sequence[int]) -> np.ndarray:
    """``(len(users), num_items)`` reference scores: ``U[users] @ V.T``."""
    users = np.asarray(users, dtype=np.int64)
    return np.asarray(user_factors, dtype=np.float64)[users] @ np.asarray(item_factors, dtype=np.float64).T


def tolerance(reference) -> np.ndarray:
    """Largest allowed gap between a score and its reference."""
    return RTOL * np.abs(reference) + ATOL


def exact_top_k(oracle_row: np.ndarray, observed: np.ndarray, k: int, floor: float = -np.inf) -> np.ndarray:
    """Best ``k`` unobserved items by oracle score (score descending, then item ID).

    ``floor`` is a shortcut for very long rows: only items scoring at least
    ``floor`` are ranked, which is exact whenever ``k`` such items exist.
    """
    candidates = np.flatnonzero(oracle_row >= floor) if np.isfinite(floor) else np.arange(oracle_row.size)
    candidates = candidates[~np.isin(candidates, observed)]
    order = np.lexsort((candidates, -oracle_row[candidates]))
    return candidates[order[:k]]


def check_top_k(
    items: np.ndarray,
    scores: np.ndarray,
    oracle_row: np.ndarray,
    observed: np.ndarray,
    k: int,
    exhaustive: bool = True,
) -> List[str]:
    """Every way one user's top-k response breaks the contract (empty when it holds).

    The response is ``items``/``scores`` of width ``k``, padded with -1 /
    -inf when fewer than ``k`` items are recommendable.  With
    ``exhaustive`` the response must be a true top-k over the whole
    unobserved catalog; without it (approximate retrieval) the returned
    items must still be valid, unobserved, correctly scored and ordered.
    """
    items = np.asarray(items)
    scores = np.asarray(scores, dtype=np.float64)
    if items.shape != (k,) or scores.shape != (k,):
        return [f"shape {items.shape}/{scores.shape}, expected ({k},)"]
    problems: List[str] = []
    returned = items >= 0
    count = int(returned.sum())
    if not np.all(returned[:count]):
        problems.append("padding is not confined to the tail")
    if np.any(np.isfinite(scores[~returned])):
        problems.append("padded slots carry finite scores")
    chosen = items[returned]
    num_items = oracle_row.size
    if np.any(chosen >= num_items):
        return problems + [f"items out of range [0, {num_items})"]
    if np.unique(chosen).size != chosen.size:
        problems.append("duplicate items")
    if np.any(np.isin(chosen, observed)):
        problems.append(f"observed items returned: {sorted(set(chosen.tolist()) & set(observed.tolist()))[:5]}")
    got = scores[returned]
    if np.any(np.diff(got) > 0):
        problems.append("scores are not non-increasing")
    reference = oracle_row[chosen]
    if np.any(np.abs(got - reference) > tolerance(reference)):
        worst = int(np.argmax(np.abs(got - reference)))
        problems.append(f"score of item {int(chosen[worst])} is {got[worst]!r}, oracle {reference[worst]!r}")
    recommendable = num_items - observed.size
    if exhaustive:
        if count != min(k, recommendable):
            problems.append(f"{count} items returned, {min(k, recommendable)} recommendable")
        if count:
            rest = np.ones(num_items, dtype=bool)
            rest[observed] = False
            rest[chosen] = False
            kth = got[-1]
            if rest.any() and np.max(oracle_row[rest]) > kth + tolerance(kth):
                better = int(np.flatnonzero(rest)[np.argmax(oracle_row[rest])])
                problems.append(f"item {better} scores above the k-th returned score but was not returned")
    elif count > recommendable:
        problems.append(f"{count} items returned, only {recommendable} recommendable")
    return problems


def recall_and_overlap(items: np.ndarray, scores: np.ndarray, exact: np.ndarray, oracle_row: np.ndarray) -> tuple:
    """``(recall, overlap)`` of one response against the exact top list.

    ``overlap`` is the share of ``exact`` that the response returned.
    ``recall`` also credits a returned item tied with the exact k-th score
    within tolerance, so a different pick among tied items is not a miss.
    """
    if exact.size == 0:
        return 1.0, 1.0
    returned = items[items >= 0]
    overlap = np.isin(exact, returned).sum() / exact.size
    kth = oracle_row[exact[-1]]
    hits = int(np.sum(scores[: returned.size] >= kth - tolerance(kth)))
    return min(hits, exact.size) / exact.size, float(overlap)


def held_out_ranks(score_rows: np.ndarray, positives: np.ndarray, observed: Dict[int, np.ndarray], users: np.ndarray) -> np.ndarray:
    """Rank of each user's held-out item among its unobserved items (ties count against it)."""
    ranks = np.empty(users.size, dtype=np.int64)
    for row, user in enumerate(users):
        scores = score_rows[row]
        positive = int(positives[row])
        valid = np.ones(scores.size, dtype=bool)
        valid[observed[int(user)]] = False
        valid[positive] = True
        target = scores[positive]
        ranks[row] = int(np.sum((scores > target) & valid)) + int(np.sum((scores == target) & valid)) - 1
    return ranks


def random_recall_at_k(num_items: int, observed: Dict[int, np.ndarray], users: np.ndarray, positives: np.ndarray, k: int) -> float:
    """Expected Recall@k of a uniformly random ranking of each user's candidates."""
    total = 0.0
    for user, positive in zip(users, positives):
        seen = observed[int(user)]
        candidates = num_items - seen.size + int(np.isin(positive, seen))
        total += min(1.0, k / max(candidates, 1))
    return total / max(users.size, 1)


def verify_responses(
    keys: np.ndarray,
    items: np.ndarray,
    scores: np.ndarray,
    served: np.ndarray,
    references: Callable[[np.ndarray], Iterable[Tuple[np.ndarray, np.ndarray]]],
    k: int,
    exhaustive: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[str]]:
    """Check every served response against the oracle.

    ``keys[i]`` names what request ``i`` asked for (same key, same answer);
    ``items``/``scores`` are the ``(n, k)`` responses and ``served`` marks
    the requests that returned one.  ``references(unique_keys)`` yields
    ``(oracle_row, observed)`` per key, in order.  The first response of
    each key is checked with :func:`check_top_k`; every later one must be
    bitwise equal to it.

    Returns per-request ``(wrong, recall, overlap)`` arrays (only served
    requests are meaningful) and the first problems found.
    """
    keys = np.asarray(keys)
    served_ops = np.flatnonzero(served)
    unique, first_position = np.unique(keys[served_ops], return_index=True)
    first_ops = served_ops[first_position]
    key_wrong = np.zeros(unique.size, dtype=bool)
    key_recall = np.zeros(unique.size)
    key_overlap = np.zeros(unique.size)
    problems: List[str] = []
    for slot, (op, (row, observed)) in enumerate(zip(first_ops, references(unique))):
        found = check_top_k(items[op], scores[op], row, observed, k, exhaustive)
        chosen = items[op][items[op] >= 0]
        floor = float(np.min(row[chosen])) if not found and chosen.size == k else -np.inf
        exact = exact_top_k(row, observed, k, floor)
        key_recall[slot], key_overlap[slot] = recall_and_overlap(items[op], scores[op], exact, row)
        if found:
            key_wrong[slot] = True
            if len(problems) < 5:
                problems.append(f"request {int(op)} (key {int(unique[slot])}): " + "; ".join(found))
    slot_of = np.searchsorted(unique, keys[served_ops])
    first_of = first_ops[slot_of]
    same = np.all(items[served_ops] == items[first_of], axis=1) & np.all(
        scores[served_ops].view(np.int64) == scores[first_of].view(np.int64), axis=1
    )
    if not np.all(same) and len(problems) < 5:
        problems.append(f"{int((~same).sum())} responses differ from an earlier answer to the same request")
    wrong = np.zeros(keys.size, dtype=bool)
    recall = np.zeros(keys.size)
    overlap = np.zeros(keys.size)
    wrong[served_ops] = key_wrong[slot_of] | ~same
    recall[served_ops] = key_recall[slot_of]
    overlap[served_ops] = key_overlap[slot_of]
    return wrong, recall, overlap, problems
