"""Span recording and self time on synthetic span trees.

Run with ``python3 -m pytest perfbench``.
"""

import types

import numpy as np

from spans import SpanRecorder, self_times, summarize


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # 0: [0, 100) is the root; its children 1: [10, 30) and 2: [20, 50)
    # overlap, and 3: [90, 120) ends after it.  4: [12, 18) is a grandchild,
    # under 1, and must not count against the root.
    start = np.asarray([0, 10, 20, 90, 12])
    end = np.asarray([100, 30, 50, 120, 18])
    parent = np.asarray([-1, 0, 0, 0, 1])
    own = self_times(start, end, parent)
    # Root: children cover [10, 50) and [90, 100) -> 50 of 100.
    assert own.tolist() == [50, 14, 30, 30, 6]


def test_self_time_of_disjoint_children_and_leaves():
    start = np.asarray([0, 5, 40, 45])
    end = np.asarray([80, 15, 60, 50])
    parent = np.asarray([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [50, 10, 15, 5]


def test_recorder_builds_the_tree_and_summarizes_it():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    namespace = types.SimpleNamespace(leaf=lambda: None)

    def inner():
        namespace.leaf()
        return 1

    def outer():
        namespace.inner()
        return namespace.inner()

    namespace.inner, namespace.outer = inner, outer
    recorder.install(namespace, "leaf", "leaf")
    recorder.install(namespace, "inner", "inner", count=lambda args, kwargs, result: result)
    recorder.install(namespace, "outer", "outer")
    recorder.request_id = 7
    assert namespace.outer() == 1
    recorder.request_id = -1
    namespace.leaf()

    arrays = recorder.arrays()
    names = [recorder.names[i] for i in arrays["name_id"]]
    assert names == ["outer", "inner", "leaf", "inner", "leaf", "leaf"]
    assert arrays["parent"].tolist() == [-1, 0, 1, 0, 3, -1]
    assert arrays["request"].tolist() == [7, 7, 7, 7, 7, -1]
    summary = summarize(recorder, requests=np.asarray([7]))
    assert summary["outer"] == {"calls": 1, "inclusive_ns": 90.0, "self_ns": 30.0}
    assert summary["inner"] == {"calls": 2, "inclusive_ns": 60.0, "self_ns": 40.0}
    assert summary["leaf"]["calls"] == 2
    assert recorder.count_total("inner", [7]) == 2

    recorder.uninstall()
    assert namespace.inner is inner and namespace.outer is outer


def test_nested_calls_of_one_name_count_once_inclusive():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    namespace = types.SimpleNamespace()

    def recurse(depth):
        return recurse_traced(depth - 1) if depth else 0

    namespace.recurse = recurse
    recorder.install(namespace, "recurse", "recurse")
    recurse_traced = namespace.recurse
    recurse_traced(2)
    summary = summarize(recorder)
    assert summary["recurse"]["calls"] == 3
    assert summary["recurse"]["inclusive_ns"] == 50.0
    assert summary["recurse"]["self_ns"] == 50.0


def test_uninstall_restores_inherited_methods():
    class Base:
        def score(self):
            return "base"

    class Child(Base):
        pass

    recorder = SpanRecorder()
    recorder.install(Child, "score", "score")
    assert Child().score() == "base" and len(recorder.start) == 1
    recorder.uninstall()
    assert "score" not in Child.__dict__ and Child().score() == "base"


def test_save_writes_every_span(tmp_path):
    recorder = SpanRecorder()
    namespace = types.SimpleNamespace(f=lambda: None)
    recorder.install(namespace, "f", "f")
    namespace.f()
    namespace.f()
    recorder.save(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert saved["names"].tolist() == ["f"] and saved["start_ns"].size == 2
