import random

import pytest

from graphlets import (
    SamplerParams,
    connected_graph_count,
    parse_graph_file,
    sample_all,
    sample_run,
    sample_size,
)
from graphlets.graphs import Graph, edge_key
from graphlets.sampling import _below, run_seed

from oracles import (
    check_graphlet,
    enumerate_walk_size_sequences,
    neighbour_sets,
    reference_sample_run,
)
from synth import random_connected_graph

K2 = parse_graph_file("t k2\nv 0\nv 1\ne 0 1")[0]
TRIANGLE = parse_graph_file("t tri\nv 0\nv 1\nv 2\ne 0 1\ne 0 2\ne 1 2")[0]
PATH3 = parse_graph_file("t p3\nv 0\nv 1\nv 2\ne 0 1\ne 1 2")[0]


def test_single_edge_dead_ends_after_one_step():
    trace = sample_run(K2, SamplerParams(runs=1, max_edges=3, seed=5), 0)
    assert [g.n_edges for g in trace.graphlets] == [1]
    assert trace.dead_end


def test_triangle_consumes_all_edges_in_three_steps():
    for i in range(20):
        trace = sample_run(TRIANGLE, SamplerParams(runs=20, max_edges=3, seed=i), i)
        assert [g.n_edges for g in trace.graphlets] == [1, 2, 3]
        assert not trace.dead_end


def test_two_edge_path_always_exhausts_by_step_two():
    # independent oracle: every reachable choice sequence stops at 2 edges
    assert enumerate_walk_size_sequences(PATH3, 3) == {2}
    for i in range(50):
        trace = sample_run(PATH3, SamplerParams(runs=50, max_edges=3, seed=9), i)
        assert [g.n_edges for g in trace.graphlets] == [1, 2]
        assert trace.dead_end


def test_k2_all_runs_identical_single_graphlet():
    traces = sample_all(K2, SamplerParams(runs=5, max_edges=1, seed=1))
    assert len(traces) == 5
    for t in traces:
        assert len(t.graphlets) == 1
        assert t.graphlets[0].edges == ((0, 1),)
        assert not t.dead_end


def test_triangle_size_two_graphlets_are_paths():
    for t in sample_all(TRIANGLE, SamplerParams(runs=10, max_edges=2, seed=3)):
        two = t.graphlets[1]
        assert sorted(len(ns) for ns in neighbour_sets(two)) == [1, 1, 2]


def test_fixed_inputs_reproduce_identical_traces():
    params = SamplerParams(runs=8, max_edges=4, alpha=0.5, seed=42)
    g = random_connected_graph("fix", 12, 6, random.Random(0))
    assert sample_all(g, params) == sample_all(g, params)


def test_run_rng_is_a_stable_pure_derivation():
    # A run draws from Random(run_seed(seed, graph id, run index)); the
    # seed is a pinned digest of those three values and nothing else.
    assert run_seed(7, "g1", 3) == run_seed(7, "g1", 3) == 6691655844890566861
    assert len({run_seed(7, "g1", 3), run_seed(7, "g1", 4),
                run_seed(7, "g2", 3), run_seed(8, "g1", 3)}) == 4


def test_direct_draw_equals_randrange():
    # The walk makes its bounded draws without randrange's wrapper; on
    # this interpreter they must consume the stream exactly as it does.
    for seed in range(50):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 301):
            assert _below(ours.getrandbits, n) == ref.randrange(n), (seed, n)
            assert ours.random() == ref.random(), (seed, n)


def _check_trace_structure(graph, trace, max_edges):
    prev_edges = set()
    for step, glet in enumerate(trace.graphlets, start=1):
        assert glet.n_edges == step
        assert glet.n_nodes <= step + 1
        check_graphlet(glet)
        p = trace.order[: glet.n_nodes]  # parent node of each local node
        assert len(set(p)) == glet.n_nodes
        parent_edges = {edge_key(p[u], p[v]) for u, v in glet.edges}
        assert prev_edges <= parent_edges
        assert len(parent_edges - prev_edges) == 1
        prev_edges = parent_edges
        # inherited structure and labels agree with the parent graph
        for (u, v), idx in zip(glet.edges, range(glet.n_edges)):
            assert edge_key(p[u], p[v]) in graph.edge_index
            if graph.edge_labels is not None:
                assert glet.edge_labels[idx] == graph.edge_label(p[u], p[v])
        if graph.node_labels is not None:
            assert glet.node_labels == tuple(graph.node_labels[x] for x in p)
    assert trace.dead_end == (len(trace.graphlets) < max_edges)


def test_trace_structure_on_random_graphs():
    rng = random.Random(11)
    for i in range(40):
        g = random_connected_graph(f"g{i}", rng.randint(2, 25), rng.randint(0, 12),
                                   rng, labeled=(i % 3 == 0))
        params = SamplerParams(runs=4, max_edges=rng.randint(1, 8), seed=i)
        for trace in sample_all(g, params):
            _check_trace_structure(g, trace, params.max_edges)


def _label_variants(g):
    """g with node and edge labels, node labels only, edge labels only, none."""
    return [
        g,
        Graph(g.id, g.n_nodes, g.edges, g.node_labels, None),
        Graph(g.id, g.n_nodes, g.edges, None, g.edge_labels),
        Graph(g.id, g.n_nodes, g.edges),
    ]


def test_traces_equal_reference_sampler():
    rng = random.Random(17)
    dead = full = 0
    for i in range(30):
        g = random_connected_graph(f"g{i}", rng.randint(2, 16), rng.randint(0, 8),
                                   rng, labeled=True)
        if i % 3 == 0:  # an isolated node: walks starting there take no step
            g = Graph(g.id, g.n_nodes + 1, g.edges, g.node_labels + ("A",),
                      g.edge_labels)
        for variant in _label_variants(g):
            for alpha in (0.0, 0.5, 1.0):
                params = SamplerParams(runs=4, max_edges=rng.randint(1, 14),
                                       alpha=alpha, seed=i)
                for r, trace in enumerate(sample_all(variant, params)):
                    order, graphlets, dead_end = reference_sample_run(variant, params, r)
                    assert trace.order == order
                    assert trace.graphlets == graphlets
                    assert trace.dead_end == dead_end
                    dead += dead_end
                    full += not dead_end
    assert dead and full


def test_no_dead_ends_when_components_have_enough_edges():
    rng = random.Random(13)
    for i in range(20):
        n = rng.randint(8, 20)
        g = random_connected_graph(f"g{i}", n, n // 2, rng)  # connected, >= n-1 edges
        max_edges = rng.randint(1, min(8, g.n_edges))
        for trace in sample_all(g, SamplerParams(runs=6, max_edges=max_edges, seed=i)):
            assert not trace.dead_end
            assert len(trace.graphlets) == max_edges


def test_alpha_extremes_still_valid():
    g = random_connected_graph("g", 10, 5, random.Random(4))
    for alpha in (0.0, 1.0):
        params = SamplerParams(runs=3, max_edges=5, alpha=alpha, seed=2)
        for trace in sample_all(g, params):
            _check_trace_structure(g, trace, 5)


def test_run_offset_shifts_streams():
    params = SamplerParams(runs=2, max_edges=3, seed=0)
    g = random_connected_graph("g", 15, 10, random.Random(8))
    plain = sample_all(g, params)
    shifted = sample_all(g, params, run_offset=2)
    assert plain == [sample_run(g, params, 0), sample_run(g, params, 1)]
    assert shifted == [sample_run(g, params, 2), sample_run(g, params, 3)]


def test_edgeless_graph_rejected():
    g = parse_graph_file("t lone\nv 0")[0]
    with pytest.raises(ValueError, match="no edges"):
        sample_run(g, SamplerParams(runs=1, max_edges=1), 0)


def test_param_validation():
    valid = SamplerParams(runs=1, max_edges=1)
    for bad in ({"runs": 0}, {"max_edges": 0}, {"alpha": 1.5}, {"seed": -1}):
        fields = {**valid._asdict(), **bad}
        # a call, _make, and _replace on valid parameters all run the checks
        for build in (lambda: SamplerParams(**fields), lambda: valid._replace(**bad),
                      lambda: SamplerParams._make(fields.values())):
            with pytest.raises(ValueError):
                build()
    with pytest.raises(ValueError):
        sample_run(K2, SamplerParams(runs=1, max_edges=1), -1)


def test_sample_size_published_values():
    assert sample_size(1, 0.1, 0.1) == 600
    assert sample_size(5, 0.1, 0.1) == 1154
    assert sample_size(2322, 0.05, 0.05) == 1289987


def test_sample_size_validation():
    for bad in ((0, 0.1, 0.1), (1, 0.0, 0.1), (1, 1.5, 0.1), (1, 0.1, 0.0), (1, 0.1, 1.0)):
        with pytest.raises(ValueError):
            sample_size(*bad)


def test_connected_graph_count_table():
    assert [connected_graph_count(t) for t in range(1, 11)] == [
        1, 1, 3, 5, 12, 30, 79, 227, 710, 2322,
    ]
    assert connected_graph_count(4) == 5
    assert connected_graph_count(7) == 79
    assert connected_graph_count(10) == 2322
    for bad in (0, 11):
        with pytest.raises(ValueError):
            connected_graph_count(bad)
