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
from graphlets import audit
from graphlets.audit import (_child, _children, _codes, _finer_codes, _profile, _relabelled_key,
                             _same_class, audit_code)
from graphlets.graphs import adjacency_lists
from graphlets.hashing import measure_values

from oracles import (
    check_graphlet,
    isomorphic_by_permutation,
    reference_audit_key,
    single_edge_extensions,
)
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
    vectors = {tuple(sorted(measure_values(g, "degree"))) for g in enumerate_connected(3)}
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
    degrees = [sorted(measure_values(g, "degree")) for g in (tadpole41, tadpole32)]
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
            if sorted(measure_values(a, "degree")) == sorted(measure_values(b, "degree")):
                pairs.append((a, permute_graphlet(b, rng)))
                la = Graphlet(a.n_nodes, a.edges, ("A",) * a.n_nodes, ("x",) * t)
                lb = Graphlet(b.n_nodes, b.edges, ("A",) * b.n_nodes, ("x",) * t)
                pairs.append((la, permute_graphlet(lb, rng)))
    # disconnected inputs: the search places every component's nodes
    for trial in range(30):
        a = _union(random_graphlet(rng, max_edges=2), random_graphlet(rng, max_edges=2))
        b = _union(random_graphlet(rng, max_edges=2), random_graphlet(rng, max_edges=2))
        pairs += [(a, permute_graphlet(a, rng)), (a, b)]
    # the empty graphlet is isomorphic to itself only
    pairs += [(Graphlet(0, ()), Graphlet(0, ())), (Graphlet(0, ()), Graphlet(1, ()))]
    outcomes = Counter()
    for a, b in pairs:
        expected = isomorphic_by_permutation(a, b)
        assert is_isomorphic(a, b) == expected, (a, b)
        assert is_isomorphic(b, a) == expected, (b, a)
        outcomes[expected] += 1
    assert outcomes[True] >= 250 and outcomes[False] >= 250, outcomes


def test_extensions_are_every_single_edge_child_in_order():
    for t in range(1, 8):
        for parent in enumerate_connected(t):
            children = [_child(parent, u, v) for u, v, _ in _children(parent)]
            assert children == single_edge_extensions(parent), parent


def _edge_key(g):
    """The relabelled edge key of g, computed from g alone."""
    return _relabelled_key(_codes(adjacency_lists(g.n_nodes, g.edges)), g.edges)


def test_child_keys_derived_from_the_parent_equal_keys_from_the_child():
    children = 0
    for t in range(1, 8):
        for parent in enumerate_connected(t):
            for u, v, code in _children(parent):
                child = _child(parent, u, v)
                assert code == _codes(adjacency_lists(child.n_nodes, child.edges)), (parent, u, v)
                key = _relabelled_key(code, parent.edges + ((u, v),))
                assert key == _edge_key(child), (parent, u, v)
                children += 1
    assert children > 1500, children


@pytest.mark.parametrize("top", [6, pytest.param(7, marks=pytest.mark.slow)])
def test_children_with_one_key_are_isomorphic(top):
    # every child the extension step yields from every representative up
    # to t=top, keyed per size as the enumeration keys it (the finer key
    # only when the key by codes is new): each is isomorphic to the first
    # child with its key
    merged = Counter()
    for t in range(1, top + 1):
        first = {}
        for parent in enumerate_connected(t):
            for u, v, code in _children(parent):
                child, edges = _child(parent, u, v), parent.edges + ((u, v),)
                for kind, ranked_by in (("codes", code), ("finer", _finer_codes(code, edges))):
                    key = (kind, _relabelled_key(ranked_by, edges))
                    if key in first:
                        assert isomorphic_by_permutation(first[key], child), (first[key], child)
                        merged[kind] += 1
                        break
                    first[key] = child
    assert merged["codes"] > 500 and merged["finer"] > 20, merged


def test_key_is_the_edge_set_renumbered_by_rank():
    # bit 16 * a + b stands for edge (a, b), set both ways round, of g
    # with its nodes renumbered, so no two edges share a bit up to 16 nodes
    rng = random.Random(59)
    graphlets = [random_graphlet(rng, max_edges=11) for _ in range(200)]
    graphlets.append(Graphlet(12, tuple(combinations(range(12), 2))[1:]))
    for g in graphlets:
        key = _edge_key(g)
        bits = [i for i in range(key.bit_length()) if key >> i & 1]
        assert all(key >> ((i & 15) << 4 | i >> 4) & 1 for i in bits), g
        edges = tuple(sorted((i >> 4, i & 15) for i in bits if i >> 4 < i & 15))
        assert len(edges) == g.n_edges, g
        assert is_isomorphic(Graphlet(g.n_nodes, edges), g), g


def _sorted_tuple_signatures(g):
    """Per node: degree, label and the sorted tuple of neighbour degrees."""
    nbrs = [[] for _ in range(g.n_nodes)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    labels = g.node_labels or ("",) * g.n_nodes
    return [(len(a), labels[u], tuple(sorted(len(nbrs[w]) for w in a)))
            for u, a in enumerate(nbrs)]


def test_integer_signatures_split_nodes_as_sorted_tuples_do():
    rng = random.Random(53)
    graphlets = [random_graphlet(rng, max_edges=10, labeled=trial % 2 == 0)
                 for trial in range(300)]
    star = Graphlet(12, tuple((0, v) for v in range(1, 12)))
    near_complete = Graphlet(12, tuple(combinations(range(12), 2))[1:])  # K12 minus (0, 1)
    graphlets += [star, near_complete]
    # one bijection between the two signature sets over every node of
    # every graphlet, so they split nodes alike within and across graphlets
    to_tuple, to_int = {}, {}
    for g in graphlets:
        for new, old in zip(_profile(g).sig, _sorted_tuple_signatures(g)):
            assert to_tuple.setdefault(new, old) == old, (g, new, old)
            assert to_int.setdefault(old, new) == new, (g, new, old)
    assert max(old[0] for old in to_int) == 11
    assert len(to_int) > 250, len(to_int)


def test_enumeration_to_t9_runs_few_searches(monkeypatch):
    # children a relabelled edge key recognises need no search, and a
    # child alone in its bucket needs none either: 216 searches to t=9
    # with the finer key, 843 with the key by codes alone, and 8,378
    # without a key
    searches = 0

    def counting(p1, p2):
        nonlocal searches
        searches += 1
        return _same_class(p1, p2)

    monkeypatch.setattr(audit, "_same_class", counting)
    enumerate_connected.cache_clear()
    try:
        assert len(enumerate_connected(9)) == 710  # builds every smaller size too
    finally:
        enumerate_connected.cache_clear()
    assert 0 < searches < 1000, searches


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


@pytest.mark.parametrize("t", [5, 6, 7, 8, 9])
def test_integer_report_keys_group_as_fraction_keys_do(t):
    reps = enumerate_connected(t)
    for fn in HASH_FUNCTIONS:
        groups, reference = {}, {}
        for i, g in enumerate(reps):
            groups.setdefault(audit_code(g, fn, t), []).append(i)
            reference.setdefault(reference_audit_key(g, fn, t), []).append(i)
        assert sorted(groups.values()) == sorted(reference.values()), (fn, t)


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


@pytest.mark.slow
def test_representatives_of_t10_are_pinned():
    # the 2,322 classes with 10 edges, in the line format of the t<=9 pin
    text = "".join(f"10\t{g.n_nodes}\t{g.edges}\n" for g in enumerate_connected(10))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "07a05e71f0d6d8bb7a0f999ac8fe5436f781e87e895f4ae58c847999b0f337eb"
    )
