"""Self-time arithmetic, coverage and wrapper fidelity of the tracer."""

import threading

import numpy as np
import pytest

from tracer import Spans, Tracer, covered_time, coverage, layer_totals, self_times


def _spans(rows, names=("session.bfs", "a", "b")):
    """rows: (name, start, end, parent position)."""
    return Spans(
        list(names),
        np.array([names.index(r[0]) for r in rows]),
        np.array([r[1] for r in rows], dtype=float),
        np.array([r[2] for r in rows], dtype=float),
        np.array([r[3] for r in rows]),
        np.zeros(len(rows), dtype=np.int64),
    )


def test_nested_children_are_not_double_counted():
    # root [0,10] > a [1,5] > b [2,4]: root covers 4, a covers 2
    spans = _spans([("session.bfs", 0, 10, -1), ("a", 1, 5, 0), ("b", 2, 4, 1)])
    assert self_times(spans).tolist() == [6.0, 2.0, 2.0]


def test_overlapping_children_count_their_union_once():
    # children [1,4], [3,6] (overlap 1) and [8,9] under [0,10]: union 6
    spans = _spans([
        ("session.bfs", 0, 10, -1), ("a", 1, 4, 0), ("b", 3, 6, 0), ("a", 8, 9, 0),
    ])
    assert covered_time(spans.start, spans.end, spans.parent)[0] == pytest.approx(6.0)
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_children_are_clipped_to_their_parent():
    # a child that outlives its parent only covers the parent's part
    spans = _spans([("session.bfs", 0, 10, -1), ("a", 9, 12, 0), ("b", -2, 1, 0)])
    assert self_times(spans)[0] == pytest.approx(8.0)


def test_groups_do_not_leak_into_each_other():
    # two roots; the second root's child starts before the first root ends
    spans = _spans([
        ("session.bfs", 0, 10, -1), ("a", 0, 2, 0),
        ("session.bfs", 5, 20, -1), ("b", 5, 15, 2), ("a", 6, 7, 3),
    ])
    assert self_times(spans).tolist() == pytest.approx([8.0, 2.0, 5.0, 9.0, 1.0])


def test_self_times_match_a_brute_force_union():
    rng = np.random.default_rng(7)
    rows = [("session.bfs", 0.0, 100.0, -1)]
    for _ in range(40):
        lo = rng.uniform(-5, 100)
        rows.append(("a", lo, lo + rng.uniform(0, 20), int(rng.integers(0, len(rows)))))
    spans = _spans(rows)
    grid = np.linspace(-10, 130, 140_001)
    step = grid[1] - grid[0]
    for i, (_, lo, hi, _) in enumerate(rows):
        inside = (grid >= lo) & (grid < hi)
        covered = np.zeros_like(inside)
        for c_lo, c_hi in [(r[1], r[2]) for r in rows if r[3] == i]:
            covered |= (grid >= c_lo) & (grid < c_hi)
        expect = (inside & ~covered).sum() * step
        assert self_times(spans)[i] == pytest.approx(expect, abs=3 * step)


def test_coverage_is_covered_share_of_root_time():
    spans = _spans([
        ("session.bfs", 0, 10, -1), ("a", 1, 4, 0), ("b", 3, 6, 0),
        ("session.bfs", 10, 20, -1), ("a", 10, 20, 3),
        ("a", 30, 40, -1),  # not a root span: outside the coverage base
    ])
    assert coverage(spans) == pytest.approx((5.0 + 10.0) / 20.0)


def test_layer_totals_count_calls_and_self_time():
    spans = _spans([("session.bfs", 0, 10, -1), ("a", 1, 4, 0), ("a", 5, 6, 0)])
    totals = layer_totals(spans)
    assert totals["a"] == (2, pytest.approx(4.0))
    assert totals["session.bfs"] == (1, pytest.approx(6.0))
    assert totals["b"] == (0, 0.0)


def test_reentry_into_the_same_layer_records_one_span():
    tracer = Tracer()

    def inner(n):
        return outer(n - 1) if n else 0

    outer = tracer.wrap(inner, "a")
    tracer.active = True
    outer(3)
    assert layer_totals(tracer.spans())["a"][0] == 1


def test_spans_keep_parents_per_thread():
    tracer = Tracer()
    tracer.active = True
    leaf = tracer.wrap(lambda: None, "b")
    root = tracer.wrap(lambda: leaf(), "session.bfs")
    worker = threading.Thread(target=root)
    root()
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    spans = tracer.spans()
    roots = spans.of("session.bfs")
    leaves = spans.of("b")
    assert sorted(spans.parent[leaves].tolist()) == sorted(roots.tolist())
    assert (spans.parent[roots] == -1).all()


def test_install_wraps_classes_and_importers_then_restores():
    from repro.bfs import bfs_1d, bfs_2d, bottom_up, level_sync
    from repro.runtime.comm import Communicator

    before_cls = Communicator.__dict__["exchange"]
    before_fn = bfs_2d.bottom_up_level_2d
    before_unique = bfs_1d.segmented_unique
    tracer = Tracer()
    with tracer.installed():
        assert Communicator.__dict__["exchange"] is not before_cls
        # the importer's own name is replaced, not just the defining module's
        assert bfs_2d.bottom_up_level_2d is bottom_up.bottom_up_level_2d
        assert bfs_2d.bottom_up_level_2d is not before_fn
        assert bfs_1d.segmented_unique is level_sync.segmented_unique
        assert bfs_1d.segmented_unique is not before_unique
    assert Communicator.__dict__["exchange"] is before_cls
    assert bfs_2d.bottom_up_level_2d is before_fn
    assert bfs_1d.segmented_unique is before_unique


def test_traced_run_leaves_exchange_off_instances_and_results_unchanged():
    from repro import BfsSession, GraphSpec, build_graph
    from repro.observability.digest import result_digests

    graph = build_graph(GraphSpec(n=400, k=6.0, seed=3))
    session = BfsSession(graph, (4, 4))
    plain = result_digests(session.bfs(0))["combined"]
    tracer = Tracer()
    with tracer.installed():
        traced = session.bfs(0)
        assert "exchange" not in vars(session._engine.comm)
    assert result_digests(traced)["combined"] == plain
    totals = layer_totals(tracer.spans())
    assert totals["runtime.comm.exchange_arrays"][0] > 0
    assert totals["runtime.comm.exchange"][0] == 0
