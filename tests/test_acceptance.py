"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s``). Long-running criteria are
marked slow and enabled with ``--runslow``."""

import random
import time
from itertools import combinations

import numpy as np
import pytest

from graphlets import (
    Graph,
    RankingPair,
    SamplerParams,
    collision_report,
    connected_graph_count,
    embed_graph_stats,
    enumerate_connected,
    hash_code,
    is_isomorphic,
    kernel_matrix,
    loo_knn_accuracy,
    rho_score,
    sample_all,
    sample_size,
)
from graphlets.audit import audit_code
from graphlets.cli import main
from graphlets.graphs import edge_key
from graphlets.hashing import HASH_FUNCTIONS
from graphlets.kernels import KernelSpec
from graphlets import build_vocabulary, finalize_embeddings, save_graphs, save_manifest

from oracles import flood_fill_components, kernel_value
from synth import (
    permute_graphlet,
    random_connected_graph,
    random_graphlet,
    two_class_dataset,
)


def _criterion(n, ok, detail=""):
    print(f"[criterion {n:>2}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


SAMPLE_SIZE_TABLE = {
    1: (600, 738, 2397, 2952),
    2: (600, 738, 2397, 2952),
    3: (877, 1016, 3506, 4061),
    4: (1154, 1293, 4615, 5170),
    5: (2125, 2263, 8497, 9051),
    6: (4620, 4759, 18478, 19033),
    7: (11413, 11551, 45649, 46204),
    8: (31930, 32069, 127718, 128273),
    9: (98888, 99027, 395550, 396105),
    10: (322359, 322497, 1289433, 1289987),
}
EPS_DELTA = ((0.1, 0.1), (0.1, 0.05), (0.05, 0.1), (0.05, 0.05))


def test_criterion_01_sample_size_table():
    start = time.perf_counter()
    mismatches = []
    for t, expected in SAMPLE_SIZE_TABLE.items():
        a = connected_graph_count(t)
        got = tuple(sample_size(a, eps, delta) for eps, delta in EPS_DELTA)
        if got != expected:
            mismatches.append((t, got, expected))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        not mismatches and elapsed < 1.0,
        f"40/40 walk budgets exact in {elapsed:.3f}s; mismatches={mismatches}",
    )


COLLISIONS = {
    "degree": (0, 0, 0, 0, 2, 11, 44),
    "betweenness": (0, 0, 0, 0, 0, 0, 1),
    "core": (0, 0, 1, 2, 7, 22, 68),
    "clustering": (0, 0, 1, 3, 7, 18, 50),
}
E_F_4DP = {
    "core": ("0.0000", "0.0000", "0.3333", "0.2000", "0.1061", "0.0506", "0.0221"),
    "degree": ("0.0000", "0.0000", "0.0000", "0.0000", "0.0303", "0.0253", "0.0143"),
    "clustering": ("0.0000", "0.0000", "0.3333", "0.3000", "0.1061", "0.0414", "0.0162"),
}
E_F_5DP_BETWEENNESS = (
    "0.00000", "0.00000", "0.00000", "0.00000", "0.00000", "0.00000", "0.00032",
)
GRAPH_COUNTS = (1, 1, 3, 5, 12, 30, 79)
PAIR_COUNTS = (0, 0, 3, 10, 66, 435, 3081)


def test_criterion_02_collision_table_to_seven():
    start = time.perf_counter()
    problems = []
    for fn, expected in COLLISIONS.items():
        for idx, t in enumerate(range(1, 8)):
            r = collision_report(fn, t, keep_pairs=False)
            if (r.n_graphs, r.n_pairs, r.n_collisions) != (
                GRAPH_COUNTS[idx], PAIR_COUNTS[idx], expected[idx]
            ):
                problems.append((fn, t, r.n_graphs, r.n_pairs, r.n_collisions))
            published = (
                E_F_5DP_BETWEENNESS[idx] if fn == "betweenness" else E_F_4DP[fn][idx]
            )
            digits = 5 if fn == "betweenness" else 4
            if f"{float(r.e_f):.{digits}f}" != published:
                problems.append((fn, t, "e_f", float(r.e_f), published))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        not problems and elapsed < 120.0,
        f"published collision table reproduced for t=1..7 x 4 functions "
        f"in {elapsed:.1f}s; problems={problems}",
    )


def test_criterion_02_collision_table_t8():
    start = time.perf_counter()
    expected = {"betweenness": 5, "core": 211, "degree": 167, "clustering": 157}
    problems = []
    for fn, n_coll in expected.items():
        r = collision_report(fn, 8, keep_pairs=False)
        if (r.n_graphs, r.n_pairs, r.n_collisions) != (227, 25651, n_coll):
            problems.append((fn, r.n_graphs, r.n_pairs, r.n_collisions))
    r = collision_report("betweenness", 8, keep_pairs=False)
    if f"{float(r.e_f):.5f}" != "0.00019":
        problems.append(("betweenness e_f", float(r.e_f)))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        not problems and elapsed < 900.0,
        f"t=8 collision counts reproduced in {elapsed:.1f}s; problems={problems}",
    )


@pytest.mark.slow
def test_criterion_02_slow_collision_table_t9():
    start = time.perf_counter()
    expected = {"degree": 604, "core": 687, "clustering": 537, "betweenness": 27}
    problems = []
    for fn, n_coll in expected.items():
        r = collision_report(fn, 9, keep_pairs=False)
        if (r.n_graphs, r.n_collisions) != (710, n_coll):
            problems.append((fn, r.n_graphs, r.n_collisions))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        not problems and elapsed < 900.0,
        f"t=9 collision counts reproduced in {elapsed:.1f}s; problems={problems}",
    )


@pytest.mark.slow
def test_criterion_02_slow_collision_table_t10():
    start = time.perf_counter()
    expected = {"degree": 2145, "core": 2290, "clustering": 1907, "betweenness": 108}
    problems = []
    for fn, n_coll in expected.items():
        r = collision_report(fn, 10, keep_pairs=False)
        if (r.n_graphs, r.n_collisions) != (2322, n_coll):
            problems.append((fn, r.n_graphs, r.n_collisions))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        not problems and elapsed < 900.0,
        f"t=10 collision counts reproduced in {elapsed:.1f}s; problems={problems}",
    )


def test_criterion_03_hash_invariance_1000_trials():
    rng = random.Random(303)
    mismatches = 0
    for labeled in (False, True):
        trials = [
            (random_graphlet(rng, max_edges=8, labeled=labeled),)
            for _ in range(1000)
        ]
        for (g,) in trials:
            pg = permute_graphlet(g, rng)
            for fn in HASH_FUNCTIONS:
                if hash_code(g, fn) != hash_code(pg, fn):
                    mismatches += 1
    _criterion(
        3,
        mismatches == 0,
        f"1000 labelled + 1000 unlabelled permutation trials x "
        f"{len(HASH_FUNCTIONS)} hash functions: {mismatches} mismatches",
    )


def test_criterion_04_oracle_soundness_to_six():
    rng = random.Random(404)
    misses = 0
    pair_mismatches = []
    for t in range(1, 7):
        reps = enumerate_connected(t)
        for g in reps:
            pg = permute_graphlet(g, rng)
            if not is_isomorphic(g, pg):
                misses += 1
            for fn in HASH_FUNCTIONS:
                if hash_code(g, fn) != hash_code(pg, fn):
                    misses += 1
        index = {g: i for i, g in enumerate(reps)}
        for fn in HASH_FUNCTIONS:
            persisted = {
                (index[a], index[b])
                for a, b in collision_report(fn, t).colliding_pairs
            }
            brute = {
                (i, j)
                for i, j in combinations(range(len(reps)), 2)
                if audit_code(reps[i], fn, t) == audit_code(reps[j], fn, t)
            }
            if persisted != brute:
                pair_mismatches.append((fn, t))
    _criterion(
        4,
        misses == 0 and not pair_mismatches,
        f"relabeled-class code misses={misses}, "
        f"collision-set mismatches={pair_mismatches} (t<=6)",
    )


def _union_graph(graph_id, blocks):
    """Disjoint union of connected blocks as one multi-component graph."""
    edges = []
    offset = 0
    for block in blocks:
        edges.extend((u + offset, v + offset) for u, v in block.edges)
        offset += block.n_nodes
    return Graph(graph_id, offset, tuple(sorted(edges)))


def test_criterion_05_sampler_structure_100_graphs():
    rng = random.Random(505)
    bad = []
    checked = 0
    for i in range(100):
        if i % 3 == 0:  # some multi-component graphs, dead ends expected
            blocks = [
                random_connected_graph("b0", rng.randint(2, 12), rng.randint(0, 4), rng),
                random_connected_graph("b1", rng.randint(2, 12), rng.randint(0, 4), rng),
            ]
            g = _union_graph(f"g{i}", blocks)
        else:
            g = random_connected_graph(f"g{i}", rng.randint(2, 30), rng.randint(0, 15), rng)
        max_edges = rng.randint(1, 8)
        params = SamplerParams(runs=4, max_edges=max_edges, seed=i)
        for trace in sample_all(g, params):
            prev = set()
            for step, glet in enumerate(trace.graphlets, start=1):
                checked += 1
                p = trace.order[: glet.n_nodes]
                parent_edges = {edge_key(p[u], p[v]) for u, v in glet.edges}
                ok = (
                    glet.n_edges == step
                    and flood_fill_components(glet.n_nodes, glet.edges) == 1
                    and prev <= parent_edges
                    and len(parent_edges) == step
                    and all(edge_key(*e) in g.edge_index for e in parent_edges)
                )
                if not ok:
                    bad.append((g.id, step))
                prev = parent_edges
    # saturated-budget count identity on graphs with enough edges everywhere
    sum_bad = []
    for i in range(30):
        n = rng.randint(8, 24)
        g = random_connected_graph(f"s{i}", n, n, rng)  # 2n-1 edges, connected
        max_edges = rng.randint(1, min(8, g.n_edges))
        min_edges = rng.randint(1, max_edges)
        params = SamplerParams(runs=6, max_edges=max_edges, seed=1000 + i)
        counts, dead = embed_graph_stats(g, params, "auto", min_edges)
        if dead or sum(counts.values()) != 6 * (max_edges - min_edges + 1):
            sum_bad.append(g.id)
    _criterion(
        5,
        not bad and not sum_bad,
        f"{checked} trace snapshots structurally sound; "
        f"count identity holds on 30 saturated graphs "
        f"(bad={bad[:3]}, sum_bad={sum_bad[:3]})",
    )


def test_criterion_06_thread_count_never_changes_bytes(tmp_path):
    rng = random.Random(606)
    graphs, entries = [], []
    from graphlets import ManifestEntry

    for i in range(50):
        graphs.append(
            random_connected_graph(f"g{i}", rng.randint(6, 16), rng.randint(0, 8), rng)
        )
        entries.append(ManifestEntry(f"g{i}", "c" + str(i % 3), "unsplit"))
    gpath = str(tmp_path / "ds.graphs")
    mpath = str(tmp_path / "ds.manifest")
    save_graphs(graphs, gpath)
    save_manifest(entries, mpath)

    blobs = {}
    for threads in ("1", "8"):
        out = tmp_path / f"out{threads}"
        assert main(["embed", "--graphs", gpath, "--manifest", mpath,
                     "--T", "4", "--M", "20", "--seed", "11",
                     "--threads", threads, "--out", str(out)]) == 0
        assert main(["kernel", "--embeddings", str(out / "embeddings.tsv"),
                     "--manifest", mpath, "--kind", "hist-int", "--out", str(out)]) == 0
        assert main(["audit", "--hash", "degree", "--t", "5", "--out", str(out)]) == 0
        blobs[threads] = tuple(
            (out / name).read_bytes()
            for name in ("vocabulary.txt", "embeddings.tsv", "kernel.txt",
                         "audit-degree-t5.tsv")
        )
    _criterion(
        6,
        blobs["1"] == blobs["8"],
        "embedding, kernel, and audit outputs byte-identical for "
        "--threads 1 vs 8 on a 50-graph dataset",
    )


def _normalized_hist(counts):
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}


@pytest.mark.slow
def test_criterion_07_statistical_convergence():
    graph = random_connected_graph("stat", 20, 15, random.Random(99))
    assert graph.n_edges >= 4
    runs = sample_size(5, 0.05, 0.05)
    assert runs == 5170
    successes = 0
    for rep in range(20):
        hists = []
        for phase in (0, 1):
            params = SamplerParams(
                runs=runs, max_edges=4, seed=7000 + 2 * rep + phase
            )
            hists.append(_normalized_hist(
                embed_graph_stats(graph, params, "degree", min_edges=4)[0]))
        keys = set(hists[0]) | set(hists[1])
        l1 = sum(abs(hists[0].get(k, 0.0) - hists[1].get(k, 0.0)) for k in keys)
        if l1 <= 0.1:
            successes += 1
    _criterion(
        7,
        successes >= 18,
        f"L1 distance of size-4 histograms <= 0.1 in {successes}/20 repetitions "
        f"(M=5170, eps=delta=0.05)",
    )


def test_criterion_08_kernel_correctness():
    rng = random.Random(808)
    X = [[rng.randint(0, 30) for _ in range(24)] for _ in range(50)]
    eig_min = float(np.linalg.eigvalsh(kernel_matrix(X, KernelSpec("dot"))).min())
    problems = []
    if eig_min < -1e-8:
        problems.append(f"dot gram eig_min={eig_min}")
    hist = KernelSpec("hist_intersection")
    rbf = KernelSpec("rbf", gamma=0.01)
    cos = KernelSpec("cosine")
    for _ in range(1000):
        x = [rng.randint(0, 30) for _ in range(8)]
        y = [rng.randint(0, 30) for _ in range(8)]
        k = {spec.kind: kernel_matrix([x, y], spec)[0, 1] for spec in (hist, rbf, cos)}
        for spec in (hist, rbf, cos):
            if k[spec.kind] != kernel_matrix([y, x], spec)[0, 1]:
                problems.append(("asymmetry", spec.kind))
        for spec in (hist, cos):
            if k[spec.kind] != kernel_value(x, y, spec):
                problems.append(("reference", spec.kind))
        if not (k[hist.kind] <= min(sum(x), sum(y))):
            problems.append("hist bound")
        if not (0.0 < k[rbf.kind] <= 1.0):
            problems.append("rbf bound")
        if not (0.0 <= k[cos.kind] <= 1.0):
            problems.append("cosine bound")
    _criterion(
        8,
        not problems,
        f"dot gram eig_min={eig_min:.2e} >= -1e-8; symmetry and bounds on "
        f"1000 random pairs; problems={problems[:3]}",
    )


def test_criterion_09_two_class_smoke_classification(tmp_path):
    rng = random.Random(909)
    graphs, entries = two_class_dataset(60, rng)
    params = SamplerParams(runs=300, max_edges=5, alpha=0.5, seed=42)
    maps = [(g.id, embed_graph_stats(g, params, "auto", min_edges=1)[0]) for g in graphs]
    vocab = build_vocabulary([m for _, m in maps])
    embeddings = finalize_embeddings(maps, vocab)
    vectors = [e.counts for e in embeddings]
    labels = [e.class_label for e in entries]
    K = kernel_matrix(vectors, KernelSpec("hist_intersection"))
    accuracy = loo_knn_accuracy(K, labels, 5)

    # the exported precomputed-kernel file is validated structurally
    from graphlets import write_precomputed_kernel

    kpath = tmp_path / "kernel.txt"
    write_precomputed_kernel(K, labels, str(kpath))
    lines = kpath.read_text().splitlines()
    structure_ok = len(lines) == 120 and all(
        len(line.split(" ")) == 2 + 120 for line in lines
    )
    sym_ok = all(
        lines[i].split(" ")[2 + j].split(":")[1]
        == lines[j].split(" ")[2 + i].split(":")[1]
        for i, j in [(0, 5), (3, 77), (40, 119)]
    )
    _criterion(
        9,
        accuracy >= 0.95 and structure_ok and sym_ok,
        f"leave-one-out hist-int 5-NN accuracy {accuracy:.3f} on 60+60 "
        f"cycle/star graphs (t=1..5); kernel export structure ok={structure_ok and sym_ok}",
    )


def test_criterion_10_rho_metric_exact():
    values = (
        rho_score(RankingPair(1, 1)),
        rho_score(RankingPair(2, 1)),
        rho_score(RankingPair(4, 4)),
    )
    _criterion(10, values == (1.0, 0.75, 0.25), f"rho values {values}")
