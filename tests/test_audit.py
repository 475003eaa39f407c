import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from graphlets import (
    Graphlet,
    HASH_FUNCTIONS,
    collision_report,
    enumerate_connected,
    format_report,
    is_isomorphic,
    parse_graph_file,
    resolve_hash_function,
    write_report,
)
from graphlets.audit import audit_code
from graphlets.hashing import degree_values

from oracles import check_graphlet, isomorphic_by_permutation
from synth import EDGE_ALPHABET, NODE_ALPHABET, permute_graphlet, random_graphlet

TRIANGLE = Graphlet(3, ((0, 1), (0, 2), (1, 2)))
PATH3 = Graphlet(4, ((0, 1), (1, 2), (2, 3)))
STAR3 = Graphlet(4, ((0, 1), (0, 2), (0, 3)))


def test_enumeration_counts_up_to_six():
    assert [len(enumerate_connected(t)) for t in range(1, 7)] == [1, 1, 3, 5, 12, 30]


def test_enumerated_graphs_are_valid_and_connected():
    for t in range(1, 7):
        for g in enumerate_connected(t):
            check_graphlet(g)
            assert g.n_edges == t


def test_three_edge_classes_are_path_star_triangle():
    vectors = {tuple(sorted(degree_values(g))) for g in enumerate_connected(3)}
    assert vectors == {(1, 1, 2, 2), (1, 1, 1, 3), (2, 2, 2)}


def test_enumerated_classes_pairwise_non_isomorphic():
    for t in range(1, 6):
        reps = enumerate_connected(t)
        for a, b in combinations(reps, 2):
            assert not is_isomorphic(a, b)


def test_isomorphic_relabeling_detected():
    permuted = Graphlet(3, ((0, 1), (0, 2), (1, 2)))
    assert is_isomorphic(TRIANGLE, permuted)
    assert not is_isomorphic(PATH3, STAR3)


def test_same_degree_sequence_non_isomorphic_pair():
    # two five-edge graphs sharing degree vector [1,2,2,2,3]:
    # a 4-cycle with a tail vs a triangle with a 2-edge tail
    tadpole41 = Graphlet(5, ((0, 1), (0, 3), (1, 2), (2, 3), (3, 4)))
    tadpole32 = Graphlet(5, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4)))
    degrees = [sorted(degree_values(g)) for g in (tadpole41, tadpole32)]
    assert degrees == [[1, 2, 2, 2, 3]] * 2
    assert not is_isomorphic(tadpole41, tadpole32)


def test_oracle_reflexive_symmetric_and_relabel_invariant():
    rng = random.Random(31)
    for trial in range(60):
        g = random_graphlet(rng, max_edges=7, labeled=trial % 3 == 0)
        h = permute_graphlet(g, rng)
        other = random_graphlet(rng, max_edges=7, labeled=trial % 3 == 0)
        assert is_isomorphic(g, g)
        assert is_isomorphic(g, h) and is_isomorphic(h, g)
        assert is_isomorphic(g, other) == is_isomorphic(other, g)


def _shuffled(g, rng, nodes):
    """g with its node labels (nodes) or its edge labels shuffled."""
    labels = list((g.node_labels if nodes else g.edge_labels) or ())
    rng.shuffle(labels)
    if nodes:
        return Graphlet(g.n_nodes, g.edges, tuple(labels), g.edge_labels)
    return Graphlet(g.n_nodes, g.edges, g.node_labels, tuple(labels))


def _one_label_changed(g, rng, nodes):
    """g with one node label (nodes) or one edge label swapped for another."""
    labels = list(g.node_labels if nodes else g.edge_labels)
    i = rng.randrange(len(labels))
    alphabet = NODE_ALPHABET if nodes else EDGE_ALPHABET
    labels[i] = next(a for a in alphabet if a != labels[i])
    if nodes:
        return Graphlet(g.n_nodes, g.edges, tuple(labels), g.edge_labels)
    return Graphlet(g.n_nodes, g.edges, g.node_labels, tuple(labels))


def _union(g, h):
    """Disjoint union of two unlabelled graphlets, h's nodes after g's."""
    shifted = tuple((u + g.n_nodes, v + g.n_nodes) for u, v in h.edges)
    return Graphlet(g.n_nodes + h.n_nodes, g.edges + shifted)


def test_oracle_equals_permutation_search_on_small_graphlets():
    rng, flip = random.Random(43), random.Random(44)
    pairs = []
    for trial in range(200):
        labeled = trial % 2 == 0
        g = random_graphlet(rng, max_edges=6, labeled=labeled)
        h = permute_graphlet(g, rng)
        pairs.append((g, h))  # permuted copy
        pairs.append((g, random_graphlet(rng, max_edges=6, labeled=labeled)))
        if labeled:  # same structure and label multisets, maybe moved labels
            pairs.append((g, _shuffled(h, rng, nodes=True)))
            pairs.append((g, _shuffled(h, rng, nodes=False)))
            # same structure, label multisets differ by one node or one edge
            pairs.append((g, _one_label_changed(h, flip, nodes=True)))
            pairs.append((g, _one_label_changed(h, flip, nodes=False)))
    # distinct classes with equal degree sequences, plain and labelled alike
    for t in range(1, 7):
        for a, b in combinations(enumerate_connected(t), 2):
            if sorted(degree_values(a)) == sorted(degree_values(b)):
                pairs.append((a, permute_graphlet(b, rng)))
                la = Graphlet(a.n_nodes, a.edges, ("A",) * a.n_nodes, ("x",) * t)
                lb = Graphlet(b.n_nodes, b.edges, ("A",) * b.n_nodes, ("x",) * t)
                pairs.append((la, permute_graphlet(lb, rng)))
    # disconnected inputs: the search places every component's nodes
    for trial in range(30):
        a = _union(random_graphlet(rng, max_edges=2), random_graphlet(rng, max_edges=2))
        b = _union(random_graphlet(rng, max_edges=2), random_graphlet(rng, max_edges=2))
        pairs += [(a, permute_graphlet(a, rng)), (a, b)]
    outcomes = Counter()
    for a, b in pairs:
        expected = isomorphic_by_permutation(a, b)
        assert is_isomorphic(a, b) == expected, (a, b)
        assert is_isomorphic(b, a) == expected, (b, a)
        outcomes[expected] += 1
    assert outcomes[True] >= 250 and outcomes[False] >= 250, outcomes


def test_oracle_respects_labels():
    a = Graphlet(2, ((0, 1),), node_labels=("C", "N"))
    b = Graphlet(2, ((0, 1),), node_labels=("C", "C"))
    c = Graphlet(2, ((0, 1),), node_labels=("N", "C"))
    assert not is_isomorphic(a, b)
    assert is_isomorphic(a, c)
    with pytest.raises(ValueError, match="labelled"):
        is_isomorphic(a, Graphlet(2, ((0, 1),)))


def test_oracle_size_guard():
    big = Graphlet(13, tuple((i, i + 1) for i in range(12)))
    with pytest.raises(ValueError, match="12 nodes"):
        is_isomorphic(big, big)


def test_enumeration_range_guard():
    for bad in (0, 11):
        with pytest.raises(ValueError):
            enumerate_connected(bad)


def test_collision_counts_small_sizes():
    # (fn, t) -> (n_graphs, n_pairs, n_collisions)
    expected = {
        ("degree", 4): (5, 10, 0),
        ("degree", 5): (12, 66, 2),
        ("core", 3): (3, 3, 1),
        ("core", 4): (5, 10, 2),
        ("clustering", 3): (3, 3, 1),
        ("clustering", 4): (5, 10, 3),
        ("betweenness", 5): (12, 66, 0),
    }
    for (fn, t), (n, pairs, collisions) in expected.items():
        r = collision_report(fn, t)
        assert (r.n_graphs, r.n_pairs, r.n_collisions) == (n, pairs, collisions), (fn, t)


def test_clustering_t3_rate_is_one_third():
    r = collision_report("clustering", 3)
    assert r.e_f == Fraction(1, 3)
    assert len(r.colliding_pairs) == 1
    a, b = r.colliding_pairs[0]
    assert not is_isomorphic(a, b)


def test_colliding_pairs_agree_with_pairwise_key_equality():
    for fn in ("degree", "core", "clustering", "betweenness"):
        for t in (4, 5):
            r = collision_report(fn, t)
            reps = enumerate_connected(t)
            brute = {
                (i, j)
                for i, j in combinations(range(len(reps)), 2)
                if audit_code(reps[i], fn, t) == audit_code(reps[j], fn, t)
            }
            index = {g: i for i, g in enumerate(reps)}
            got = {(index[a], index[b]) for a, b in r.colliding_pairs}
            assert got == brute, (fn, t)


def test_auto_resolves_in_reports():
    assert collision_report("auto", 3).fn == "degree"
    assert collision_report("auto", 5).fn == "betweenness"


def test_select_hash_function_over_measured_reports():
    # HASH_FUNCTIONS is cheapest first, so min() breaks E(f) ties toward
    # the cheaper measure: degree (0 collisions) up to t=4, betweenness
    # (0, 0, 1, 5 against degree's 2, 11, 44, 167) from t=5 to t=8
    for t in range(1, 9):
        best = min(HASH_FUNCTIONS,
                   key=lambda fn: collision_report(fn, t, keep_pairs=False).e_f)
        assert resolve_hash_function("auto", t) == best, t


def test_report_file_format(tmp_path):
    r = collision_report("clustering", 3)
    path = tmp_path / "report.tsv"
    write_report(r, str(path))
    text = path.read_text()
    header, row = text.splitlines()[:2]
    assert header.split("\t") == [
        "fn", "t", "n_graphs", "n_pairs", "n_collisions", "e_f", "e_f_5dp"]
    assert row.split("\t") == ["clustering", "3", "3", "3", "1", "1/3", "0.33333"]
    # the appended colliding-pair blocks parse back as graphs
    blocks = text.split("# colliding pair 0")[1]
    pair_graphs = parse_graph_file(blocks)
    assert len(pair_graphs) == 2
    assert {g.n_edges for g in pair_graphs} == {3}


def test_format_report_zero_collisions():
    out = format_report(collision_report("degree", 4))
    assert "\t0\t0\t0.00000" in out


def test_full_audit_report_bytes_are_pinned():
    # every function's report at t = 1..8, colliding-pair blocks included,
    # so the representative each class keeps is pinned too
    text = "".join(
        format_report(collision_report(fn, t))
        for fn in HASH_FUNCTIONS
        for t in range(1, 9)
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "bee29a920f6156917259bb68347dbba16d72b1fe8cf935e77f8a5d657ef6f247"
    )


def test_representatives_up_to_t9_are_pinned():
    # every class's kept representative and their order, not only those
    # that appear in colliding pairs (1,068 lines)
    text = "".join(f"{t}\t{g.n_nodes}\t{g.edges}\n"
                   for t in range(1, 10) for g in enumerate_connected(t))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "4ba8b772f3d1cca36f87eff34900b83feaab40c84c298292f05b330e96cf6e27"
    )
