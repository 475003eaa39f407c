import random
from collections import Counter

import pytest

from graphlets import (
    Embedding,
    GraphFormatError,
    SamplerParams,
    build_vocabulary,
    embed_graph_stats,
    finalize_embeddings,
    hash_code,
    parse_graph_file,
    read_embeddings,
    resolve_hash_function,
    sample_all,
    sample_run,
    write_embeddings,
    write_vocabulary,
)
from graphlets import embedding, hashing, sampling

from synth import random_connected_graph

K2 = parse_graph_file("t k2\nv 0\nv 1\ne 0 1")[0]
TRIANGLE = parse_graph_file("t tri\nv 0\nv 1\nv 2\ne 0 1\ne 0 2\ne 1 2")[0]


def test_embed_k2_single_code():
    counts = embed_graph_stats(K2, SamplerParams(runs=5, max_edges=1, seed=0), "degree")[0]
    assert counts == {"1|degree|1,1||": 5}


def test_embed_triangle_two_sizes():
    params = SamplerParams(runs=10, max_edges=2, seed=0)
    counts = embed_graph_stats(TRIANGLE, params, "degree")[0]
    assert counts == {"1|degree|1,1||": 10, "2|degree|1,1,2||": 10}


def test_embed_triangle_min_edges_three():
    counts = embed_graph_stats(
        TRIANGLE, SamplerParams(runs=10, max_edges=3, seed=0), "degree", min_edges=3
    )[0]
    assert counts == {"3|degree|2,2,2||": 10}


def test_total_counts_without_dead_ends():
    rng = random.Random(41)
    for i in range(10):
        n = rng.randint(10, 18)
        g = random_connected_graph(f"g{i}", n, n, rng)  # ~2n edges, well above budget
        max_edges = rng.randint(2, 6)
        min_edges = rng.randint(1, max_edges)
        params = SamplerParams(runs=7, max_edges=max_edges, seed=i)
        counts, dead = embed_graph_stats(g, params, "auto", min_edges)
        assert dead == 0
        assert sum(counts.values()) == 7 * (max_edges - min_edges + 1)


def test_dead_ends_reduce_totals_exactly():
    # one isolated edge: every run stops after one step
    counts, dead = embed_graph_stats(
        K2, SamplerParams(runs=4, max_edges=3, seed=1), "degree", 1
    )
    assert dead == 4
    assert sum(counts.values()) == 4


def test_min_edges_validation():
    params = SamplerParams(runs=1, max_edges=2, seed=0)
    with pytest.raises(ValueError):
        embed_graph_stats(K2, params, "degree", min_edges=3)
    with pytest.raises(ValueError):
        embed_graph_stats(K2, params, "degree", min_edges=0)


def test_build_vocabulary_sorts_and_dedupes():
    vocab = build_vocabulary([{"b": 1}, {"a": 2, "b": 1}])
    assert vocab == ("a", "b")
    shuffled = build_vocabulary([{"a": 2, "b": 1}, {"b": 1}])
    assert shuffled == vocab
    with pytest.raises(ValueError):
        build_vocabulary([{}, {}])


def test_finalize_alignment_and_oov():
    vocab = ("a", "b")
    embs = finalize_embeddings(
        [("g0", {"a": 3}), ("g1", {}), ("g2", {"c": 1})], vocab
    )
    assert embs[0].counts == (3, 0) and embs[0].oov_count == 0
    assert embs[1].counts == (0, 0)
    assert embs[2].counts == (0, 0) and embs[2].oov_count == 1
    assert [e.graph_id for e in embs] == ["g0", "g1", "g2"]


def test_triangle_histogram_invariant_under_node_permutation():
    # saturating budget on a fully forced graph: exact histogram equality
    permuted = parse_graph_file("t tri\nv 0\nv 1\nv 2\ne 1 2\ne 0 2\ne 0 1")[0]
    params = SamplerParams(runs=30, max_edges=3, seed=9)
    assert (embed_graph_stats(TRIANGLE, params, "degree")[0]
            == embed_graph_stats(permuted, params, "degree")[0])


def test_reachable_code_sets_invariant_under_permutation():
    rng = random.Random(42)
    g = random_connected_graph("g", 7, 3, rng)
    relabel = {old: new for new, old in enumerate(rng.sample(range(7), 7))}
    edges = tuple(sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in g.edges))
    h = type(g)("g", 7, edges)
    params = SamplerParams(runs=3000, max_edges=2, seed=5)
    keys_g = set(embed_graph_stats(g, params, "degree")[0])
    keys_h = set(embed_graph_stats(h, params, "degree")[0])
    assert keys_g == keys_h


def test_vocab_and_embedding_files_round_trip(tmp_path):
    maps = [
        ("g0", embed_graph_stats(TRIANGLE, SamplerParams(runs=6, max_edges=3, seed=3),
                                 "degree")[0]),
        ("g1", embed_graph_stats(K2, SamplerParams(runs=6, max_edges=1, seed=3),
                                 "degree")[0]),
    ]
    vocab = build_vocabulary([m for _, m in maps])
    embs = finalize_embeddings(maps, vocab)

    vpath, epath = tmp_path / "vocab.txt", tmp_path / "emb.tsv"
    write_vocabulary(vocab, str(vpath))
    assert tuple(vpath.read_text().splitlines()) == vocab
    assert vpath.read_text().count("\n") == len(vocab)

    write_embeddings(embs, str(epath))
    header = epath.read_text().splitlines()[0]
    assert header.split("\t")[0] == "graph_id"
    assert header.split("\t")[1:] == [f"bin{i}" for i in range(len(vocab))]
    ids, rows = read_embeddings(str(epath))
    assert ids == ["g0", "g1"]
    assert [tuple(r) for r in rows] == [e.counts for e in embs]


def test_read_embeddings_rejects_a_repeated_id_and_a_short_row(tmp_path):
    path = tmp_path / "emb.tsv"
    for text, message in (("graph_id\tbin0\ng0\t1\ng1\t2\ng0\t3\n",
                           "line 4: duplicate graph id 'g0'"),
                          ("graph_id\tbin0\tbin1\ng0\t1\t2\n\ng1\t3\n",
                           "line 4: row width mismatch for 'g1'")):
        path.write_text(text)
        with pytest.raises(GraphFormatError) as err:
            read_embeddings(str(path))
        assert str(err.value) == message


def test_normalized_rows_sum_to_one(tmp_path):
    embs = [Embedding("g0", (2, 2)), Embedding("g1", (0, 0))]
    path = tmp_path / "norm.tsv"
    write_embeddings(embs, str(path), normalize=True)
    _, rows = read_embeddings(str(path))
    assert rows[0] == [0.5, 0.5]
    assert rows[1] == [0, 0]


def test_code_keys_carry_resolved_function():
    params = SamplerParams(runs=2, max_edges=3, seed=2)
    counts = embed_graph_stats(TRIANGLE, params, "auto")[0]
    for key in counts:
        t, fn = key.split("|")[:2]
        assert fn == "degree" and 1 <= int(t) <= 3  # auto resolves by size


def _reference_counts(graph, params, fn, min_edges=1, run_offset=0):
    """Per-run sample_run + hash_code: what embed_graph_stats must count."""
    want: Counter[str] = Counter()
    dead = 0
    for i in range(params.runs):
        trace = sample_run(graph, params, run_offset + i)
        dead += trace.dead_end
        for g in trace.graphlets[min_edges - 1 :]:
            want[hash_code(g, fn)] += 1
    return dict(want), dead


def _fresh_table(monkeypatch):
    monkeypatch.setattr(sampling, "_STATES", {})


def test_large_budgets_equal_per_run_reference_across_table_clears(monkeypatch):
    # A cap of a few states drops every state, with its steps and codes,
    # at nearly every run boundary of these embeds; the counts must not
    # move, and the states may pass the cap by at most one run's steps.
    _fresh_table(monkeypatch)
    cap = 2
    monkeypatch.setattr(sampling, "STATE_CAP", cap)
    built = []
    add_step = sampling._add_step

    def counting_add_step(*args):
        built.append(args)
        return add_step(*args)

    monkeypatch.setattr(sampling, "_add_step", counting_add_step)
    wide = random_connected_graph("wide", 14, 6, random.Random(5))
    labelled = random_connected_graph("lab", 14, 6, random.Random(5), labeled=True)
    for graph, params, fn, offset in (
        (TRIANGLE, SamplerParams(runs=2 * 1000 + 7, max_edges=2, seed=3), "degree", 5),
        (wide, SamplerParams(runs=200, max_edges=5, seed=3), "auto", 0),
        (labelled, SamplerParams(runs=200, max_edges=6, seed=3), "auto", 0),
    ):
        built.clear()
        counts, dead = embed_graph_stats(graph, params, fn, 1, offset)
        assert len(built) > 100  # the states were rebuilt many times
        assert len(sampling._STATES) <= cap + params.max_edges
        assert (counts, dead) == _reference_counts(graph, params, fn, 1, offset)


def test_each_state_is_hashed_once(monkeypatch):
    # The embed's speed rests on this: an unlabelled topology is hashed
    # once per hash function while its state lives, however often the
    # walks meet it.
    _fresh_table(monkeypatch)
    calls = []
    real = embedding._measure_key

    def spy(fn, g):
        calls.append((fn, g))
        return real(fn, g)

    monkeypatch.setattr(embedding, "_measure_key", spy)
    g = random_connected_graph("g", 16, 8, random.Random(23))
    params = SamplerParams(runs=300, max_edges=6, seed=4)
    min_edges = 3
    embed_graph_stats(g, params, "auto", min_edges)
    met = {s for t in sample_all(g, params) for s in t.graphlets[min_edges - 1 :]}
    assert len(met) > 50
    resolved = {(resolve_hash_function("auto", s.n_edges), s) for s in met}
    assert len(calls) == len(met) and set(calls) == resolved
    embed_graph_stats(g, params, "auto", min_edges)  # a second embed of the same graph
    assert len(calls) == len(met)
    embed_graph_stats(g, params, "core", min_edges)  # a second hash function
    assert len(calls) == 2 * len(met)
    embed_graph_stats(g, params, "core", min_edges)
    assert len(calls) == 2 * len(met)


def test_each_labelled_state_measures_its_topology_once(monkeypatch):
    # A labelled graphlet's code is built per step, but the measure key
    # of its topology is computed once per hash function while the state
    # lives, and from the unlabelled topology itself.
    _fresh_table(monkeypatch)
    calls = []
    real = embedding._measure_key

    def spy(fn, g):
        calls.append((fn, g))
        return real(fn, g)

    monkeypatch.setattr(embedding, "_measure_key", spy)
    g = random_connected_graph("g", 16, 8, random.Random(23), labeled=True)
    params = SamplerParams(runs=300, max_edges=6, seed=4)
    min_edges = 3
    counts = embed_graph_stats(g, params, "auto", min_edges)
    assert counts == _reference_counts(g, params, "auto", min_edges)
    met = {s for t in sample_all(g, params) for s in t.graphlets[min_edges - 1 :]}
    topologies = {s._replace(node_labels=None, edge_labels=None) for s in met}
    assert len(topologies) > 50
    resolved = {(resolve_hash_function("auto", s.n_edges), s) for s in topologies}
    assert len(calls) == len(topologies) and set(calls) == resolved
    embed_graph_stats(g, params, "auto", min_edges)  # a second embed of the same graph
    assert len(calls) == len(topologies)
    embed_graph_stats(g, params, "core", min_edges)  # a second hash function
    assert len(calls) == 2 * len(topologies)
    assert set(calls[len(topologies):]) == {("core", s) for s in topologies}


def test_labelled_and_unlabelled_embeds_share_each_state_entry(monkeypatch):
    # One entry per walk state serves a graph with labels and without:
    # each topology's measures are computed once per hash function.
    _fresh_table(monkeypatch)
    calls = []
    real = hashing._numerators

    def spy(fn, g):
        calls.append((fn, g))
        return real(fn, g)

    monkeypatch.setattr(hashing, "_numerators", spy)
    labelled = random_connected_graph("g", 16, 8, random.Random(23), labeled=True)
    bare = labelled._replace(node_labels=None, edge_labels=None)
    params = SamplerParams(runs=300, max_edges=6, seed=4)
    got = [embed_graph_stats(labelled, params, "auto"), embed_graph_stats(bare, params, "auto")]
    met = {s for t in sample_all(bare, params) for s in t.graphlets}
    assert len(met) > 50
    assert len(calls) == len(met)
    assert set(calls) == {(resolve_hash_function("auto", s.n_edges), s) for s in met}
    assert got == [_reference_counts(g, params, "auto") for g in (labelled, bare)]


def test_transition_table_never_changes_counts(monkeypatch):
    rng = random.Random(41)
    target = random_connected_graph("target", 14, 6, rng)
    others = [random_connected_graph(f"o{i}", 12, 5, rng) for i in range(4)]
    labelled = random_connected_graph("lab", 12, 5, rng, labeled=True)
    params = SamplerParams(runs=30, max_edges=6, seed=2)
    _fresh_table(monkeypatch)
    fresh = embed_graph_stats(target, params, "auto")
    assert fresh == _reference_counts(target, params, "auto")
    for g in others:  # after other graphs
        embed_graph_stats(g, params, "auto")
    assert embed_graph_stats(target, params, "auto") == fresh
    embed_graph_stats(target, params, "core")  # after another hash function
    assert embed_graph_stats(target, params, "auto") == fresh
    embed_graph_stats(labelled, params, "auto")  # after labelled inputs
    assert embed_graph_stats(target, params, "auto") == fresh
    assert embed_graph_stats(labelled, params, "auto") == \
        _reference_counts(labelled, params, "auto")
