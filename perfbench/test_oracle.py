"""The oracle flags every way a top-k response can be wrong, and accepts right ones.

Run with ``python3 -m pytest perfbench``.
"""

from collections import namedtuple

import numpy as np
import pytest

import oracle

Behavior = namedtuple("Behavior", "initiator item participants")
K = 4


@pytest.fixture
def case():
    """Three users over 12 items, with the true top-4 of user 0."""
    rng = np.random.default_rng(7)
    users, items = rng.normal(size=(3, 5)), rng.normal(size=(12, 5))
    behaviors = [Behavior(0, 3, (1,)), Behavior(2, 5, ()), Behavior(1, 7, (0, 2))]
    observed = oracle.observed_sets(behaviors, 3)
    row = oracle.brute_force_scores(users, items, [0])[0]
    top = oracle.exact_top_k(row, observed[0], K)
    return row, observed[0], top, row[top]


def test_observed_sets_cover_initiators_and_participants():
    behaviors = [Behavior(0, 3, (1,)), Behavior(2, 5, ()), Behavior(1, 7, (0, 2)), Behavior(0, 3, ())]
    observed = oracle.observed_sets(behaviors, 4)
    assert [o.tolist() for o in observed] == [[3, 7], [3, 7], [5, 7], []]


def test_brute_force_is_the_inner_product():
    users, items = np.arange(6.0).reshape(2, 3), np.eye(3)
    assert np.array_equal(oracle.brute_force_scores(users, items, [1, 0]), users[[1, 0]])


def test_exact_top_k_breaks_ties_by_item_id_and_skips_observed():
    row = np.asarray([1.0, 3.0, 3.0, 2.0, 5.0])
    assert oracle.exact_top_k(row, np.asarray([4]), 3).tolist() == [1, 2, 3]
    assert oracle.exact_top_k(row, np.asarray([4]), 3, floor=2.5).tolist() == [1, 2]


def test_a_correct_response_passes(case):
    row, observed, top, scores = case
    assert oracle.check_top_k(top, scores, row, observed, K) == []
    assert oracle.recall_and_overlap(top, scores, top, row) == (1.0, 1.0)


def test_rounding_within_tolerance_passes(case):
    row, observed, top, scores = case
    assert oracle.check_top_k(top, scores * (1 + 1e-12), row, observed, K) == []


def test_flags_an_observed_item(case):
    row, observed, top, scores = case
    items = top.copy()
    items[-1] = observed[0]
    found = oracle.check_top_k(items, row[items], row, observed, K)
    assert any("observed" in problem for problem in found)


def test_flags_a_wrong_order(case):
    row, observed, top, scores = case
    items, got = top[[1, 0, 2, 3]], scores[[1, 0, 2, 3]]
    assert any("non-increasing" in problem for problem in oracle.check_top_k(items, got, row, observed, K))


def test_flags_a_missing_better_item(case):
    row, observed, top, scores = case
    unreturned = np.setdiff1d(np.setdiff1d(np.arange(row.size), top), observed)
    worse = unreturned[np.argmin(row[unreturned])]
    items = np.append(top[:-1], worse)
    found = oracle.check_top_k(items, row[items], row, observed, K)
    assert any("not returned" in problem for problem in found)
    # Approximate retrieval may miss it; the overlap metric then shows it.
    assert oracle.check_top_k(items, row[items], row, observed, K, exhaustive=False) == []
    assert oracle.recall_and_overlap(items, row[items], top, row)[1] == (K - 1) / K


def test_flags_wrong_scores_duplicates_range_and_shape(case):
    row, observed, top, scores = case
    assert any("oracle" in p for p in oracle.check_top_k(top, scores + 1e-6, row, observed, K))
    duplicated = np.append(top[:-1], top[0])
    assert any("duplicate" in p for p in oracle.check_top_k(duplicated, row[duplicated], row, observed, K))
    outside = np.append(top[:-1], row.size)
    assert any("range" in p for p in oracle.check_top_k(outside, scores, row, observed, K))
    assert any("shape" in p for p in oracle.check_top_k(top[:-1], scores[:-1], row, observed, K))


def test_padding_only_when_the_catalog_runs_out(case):
    row, observed, top, scores = case
    items, got = top.copy(), scores.copy()
    items[-1], got[-1] = -1, -np.inf
    assert any("recommendable" in p for p in oracle.check_top_k(items, got, row, observed, K))
    everything_seen = np.setdiff1d(np.arange(row.size), top[:3])
    assert oracle.check_top_k(items, got, row, everything_seen, K) == []


def test_verify_responses_fails_wrong_and_changed_answers(case):
    row, observed, top, scores = case
    bad = top[[1, 0, 2, 3]]
    items = np.vstack([top, top, bad, top])
    got = np.vstack([scores, scores, row[bad], np.nextafter(scores, np.inf)])
    keys = np.asarray([0, 0, 1, 0])

    def references(unique_keys):
        for _ in unique_keys:
            yield row, observed

    wrong, recall, overlap, problems = oracle.verify_responses(
        keys, items, got, np.asarray([True, True, True, True]), references, K
    )
    assert wrong.tolist() == [False, False, True, True]
    assert recall[0] == overlap[0] == 1.0
    assert problems


def test_held_out_ranks_and_chance():
    rows = np.asarray([[0.1, 0.9, 0.5, 0.5], [0.3, 0.2, 0.1, 0.0]])
    observed = {0: np.asarray([1]), 1: np.asarray([0, 1])}
    ranks = oracle.held_out_ranks(rows, np.asarray([2, 1]), observed, np.asarray([0, 1]))
    # User 0: item 1 is observed, item 3 ties the positive (counted against it).
    # User 1: the positive is observed but still ranked; item 0 is observed.
    assert ranks.tolist() == [1, 0]
    chance = oracle.random_recall_at_k(4, observed, np.asarray([0, 1]), np.asarray([2, 1]), 2)
    assert chance == pytest.approx((2 / 3 + 2 / 3) / 2)
