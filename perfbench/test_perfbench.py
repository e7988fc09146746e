"""Self-tests of the benchmark's own machinery:

    python3 -m pytest perfbench -q
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from planted import planted_partition  # noqa: E402
from speed import REFERENCE_S, Gauge  # noqa: E402
from tracing import Span, SpanTree, Tracer, covered, install, percentile  # noqa: E402


# ---------------------------------------------------------------- generator


def test_generator_is_deterministic_per_seed():
    a, b = planted_partition(7), planted_partition(7)
    assert a.edge_list_text() == b.edge_list_text()
    assert a.communities_text() == b.communities_text()
    assert planted_partition(8).edge_list_text() != a.edge_list_text()


def test_generator_shape():
    g = planted_partition(3, n=200, m=1000, k=10, p_intra=0.9)
    assert len(g.edges) == 1000
    assert len(set(g.edges)) == 1000
    assert all(u < v for u, v in g.edges)
    assert g.community_count == 10
    assert np.bincount(g.labels).tolist() == [20] * 10
    assert g.is_connected()
    assert 0.85 < g.intra_share() < 0.98


def test_set_up_writes_byte_identical_files(tmp_path):
    from run import digest, set_up

    first = digest(set_up(5, tmp_path / "inputs").files)
    assert digest(set_up(5, tmp_path / "inputs").files) == first
    assert digest(set_up(6, tmp_path / "inputs").files) != first


# -------------------------------------------------------------------- speed


def test_gauge_factor_is_reference_over_mean_kernel_time():
    g = Gauge()
    with pytest.raises(ValueError):
        g.factor()
    g.measure(runs=2)
    assert len(g.times) == 2
    g.times = [0.01, 0.02, 0.06]
    assert g.factor() == pytest.approx(REFERENCE_S / 0.03)


def test_pointer_chase_table_is_one_cycle():
    import speed

    table = np.frombuffer(speed._CHASE, dtype=np.int32)
    assert np.array_equal(np.sort(table), np.arange(len(table)))
    i, steps = speed._CHASE[0], 1
    while i != 0:
        i = speed._CHASE[i]
        steps += 1
    assert steps == len(table)


# --------------------------------------------------------------- percentile


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(range(99), 90)  # 9.9 samples beyond p90
    with pytest.raises(ValueError):
        percentile(range(39), 75)
    assert percentile(range(100), 90) == pytest.approx(np.percentile(range(100), 90))
    assert percentile(range(40), 75) == pytest.approx(np.percentile(range(40), 75))


def test_percentile_median_needs_no_tail():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([4, 1, 2, 3], 50) == 2.5


# ------------------------------------------------------------ span arithmetic


def span(id, parent, thread, wall, cpu, name="x.y"):
    s = Span(id, name, parent, thread, wall[0], cpu[0])
    s.wall1, s.cpu1 = wall[1], cpu[1]
    return s


def test_covered_merges_overlaps_and_clips():
    assert covered([(10, 40), (30, 70)], 0, 100) == 60
    assert covered([(10, 20), (12, 15)], 0, 100) == 10
    assert covered([(-5, 5), (95, 120)], 0, 100) == 10
    assert covered([], 0, 100) == 0


def test_self_time_on_a_two_thread_nested_tree():
    # thread A: root [0, 100] holds child [10, 40], which holds leaf [15, 25];
    # thread B: worker [30, 70] runs for root on another thread.
    root = span(1, 0, "A", (0, 100), (0, 50), "cli.main")
    child = span(2, 1, "A", (10, 40), (10, 35), "metrics.louvain")
    leaf = span(3, 2, "A", (15, 25), (15, 25), "metrics.modularity")
    worker = span(4, 1, "B", (30, 70), (0, 35), "baselines.l_spar")
    tree = SpanTree([root, child, leaf, worker])

    # children cover [10, 70] of the root: the overlap is counted once
    assert tree.self_wall(root) == 100 - 60
    # only same-thread children use the root thread's CPU
    assert tree.self_cpu(root) == 50 - 25
    assert tree.self_wall(child) == 30 - 10
    assert tree.self_cpu(child) == 25 - 10
    assert tree.self_wall(worker) == 40
    assert tree.self_cpu(worker) == 35

    busy, wait = tree.layer_times()
    assert busy == {"cli": 25, "metrics": 15 + 10, "baselines": 35}
    assert wait == {"cli": 40 - 25, "metrics": (20 - 15) + 0, "baselines": 5}


def test_pool_spans_are_parented_to_the_calling_span():
    tracer = Tracer()
    work = tracer.traced(lambda x: x * x, "metrics.square")
    with tracer.span("cli.main") as main:
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(work, range(4))) == [0, 1, 4, 9]
    squares = [s for s in tracer.spans if s.name == "metrics.square"]
    assert len(squares) == 4
    assert {s.parent for s in squares} == {main.id}
    assert any(s.thread != threading.get_ident() for s in squares)
    tree = SpanTree(tracer.spans)
    assert 0 <= tree.self_wall(main) <= main.wall


def test_counts_are_charged_to_the_innermost_span():
    tracer = Tracer()
    tracer.count("ignored")  # nothing open: not recorded
    with tracer.span("agent.train_step") as outer:
        tracer.count("nnet.Tensor")
        with tracer.span("qmodel.q_forward") as inner:
            tracer.count("nnet.Tensor")
            tracer.count("nnet.Tensor")
    assert outer.counts == {"nnet.Tensor": 1}
    assert inner.counts == {"nnet.Tensor": 2}
    assert SpanTree(tracer.spans).subtree_counts(outer)["nnet.Tensor"] == 3


def test_install_wraps_names_where_callers_look_them_up_and_uninstall_restores():
    from prunerl import cli, graph, metrics, rewards

    originals = (metrics.pagerank, rewards.pagerank, cli.pagerank, graph.Graph.copy)
    tracer = Tracer()
    install(tracer)
    try:
        assert rewards.pagerank is metrics.pagerank is cli.pagerank
        assert metrics.pagerank is not originals[0]
        g = graph.Graph(3, [(0, 1), (1, 2)])
        rewards.PagerankReward(g)
        g.copy()
        g.prune_edge(0)
    finally:
        tracer.uninstall()
    assert (metrics.pagerank, rewards.pagerank, cli.pagerank, graph.Graph.copy) == originals
    assert [s.name for s in tracer.spans] == ["metrics.pagerank", "graph.copy"]
