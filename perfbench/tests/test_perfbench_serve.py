"""Oracle checks and rates of the serving workload, on hand-made replies."""

import pytest

from repro import GraphSpec, build_graph
from repro.server.protocol import QueryReply
from workloads import Oracle, ServeRun, Tally, check_serve


@pytest.fixture(scope="module")
def oracle():
    return Oracle(build_graph(GraphSpec(n=300, k=6.0, seed=1)))


def _ok(oracle, source):
    return QueryReply(ok=True, result={"levels_digest": oracle(source)[0]})


def test_only_correct_replies_count_in_the_closed_loop_rates(oracle):
    wrong = QueryReply(ok=True, result={"levels_digest": "0" * 64})
    refused = QueryReply(ok=False, error="overloaded", error_code="overloaded")
    run = ServeRun(
        closed=[(3, _ok(oracle, 3)), (4, wrong), (5, refused), (6, None)],
        closed_rounds=[(0.0, 0.25), (1.0, 1.25)],
    )
    tally = Tally()
    metrics = check_serve(run, oracle, tally)
    assert metrics["serve_qps"] == pytest.approx(1 / 0.5)
    assert metrics["host_teps"] == pytest.approx(oracle(3)[1] / 0.5)
    assert (tally.attempted, tally.mismatches, tally.errors) == (4, 1, 2)


def test_a_failed_open_loop_query_misses_every_latency_limit(oracle):
    run = ServeRun(
        open_sources=[3, 4], open_replies=[_ok(oracle, 3), None],
        open_due=[0.0, 0.0], open_done=[0.1, 0.2], closed_rounds=[(0.0, 1.0)],
    )
    metrics = check_serve(run, oracle, Tally())
    assert metrics["serve_p50_ms"] == pytest.approx(100.0)
    assert metrics["serve_p99_ms"] == float("inf")
