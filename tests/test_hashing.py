import random
from fractions import Fraction

import pytest

from graphlets import (
    GraphFormatError,
    Graphlet,
    enumerate_connected,
    hash_code,
    is_isomorphic,
    resolve_hash_function,
)
from graphlets.graphs import adjacency_lists
from graphlets.hashing import (HASH_FUNCTIONS, _codes, _finer_codes, _relabelled_key,
                               measure_values)

from oracles import (
    betweenness_all_pairs,
    betweenness_by_path_enumeration,
    clustering_by_triple_scan,
    core_by_threshold,
    reference_code_key,
)
from synth import permute_graphlet, random_connected_graph, random_graphlet

TRIANGLE = Graphlet(3, ((0, 1), (0, 2), (1, 2)))
PATH2 = Graphlet(3, ((0, 1), (1, 2)))
PATH3 = Graphlet(4, ((0, 1), (1, 2), (2, 3)))
STAR3 = Graphlet(4, ((0, 1), (0, 2), (0, 3)))
PAW = Graphlet(4, ((0, 1), (0, 2), (0, 3), (1, 2)))  # triangle plus pendant at 0
K2 = Graphlet(2, ((0, 1),))


def _sorted(g, fn):
    """The canonical vector a code's topology part is built from."""
    return sorted(measure_values(g, fn))


def test_degree_vector_examples():
    assert _sorted(TRIANGLE, "degree") == [2, 2, 2]
    assert _sorted(PATH2, "degree") == [1, 1, 2]
    assert _sorted(STAR3, "degree") == [1, 1, 1, 3]


def test_betweenness_vector_examples():
    # expected values frozen from the path-enumeration oracle (per node)
    assert betweenness_by_path_enumeration(PATH2) == [0, 2, 0]
    assert betweenness_by_path_enumeration(PATH3) == [0, 4, 4, 0]
    assert _sorted(TRIANGLE, "betweenness") == [0, 0, 0]
    assert _sorted(PATH2, "betweenness") == [0, 0, 2]
    assert _sorted(PATH3, "betweenness") == [0, 0, 4, 4]


def test_core_vector_examples():
    assert sorted(core_by_threshold(TRIANGLE)) == [2, 2, 2]
    assert sorted(core_by_threshold(PATH2)) == [1, 1, 1]
    assert _sorted(TRIANGLE, "core") == [2, 2, 2]
    assert _sorted(PATH2, "core") == [1, 1, 1]
    assert _sorted(K2, "core") == [1, 1]


def test_clustering_vector_examples():
    assert _sorted(TRIANGLE, "clustering") == [1, 1, 1]
    assert _sorted(PATH2, "clustering") == [0, 0, 0]
    assert _sorted(PAW, "clustering") == [0, Fraction(1, 3), 1, 1]
    assert sorted(clustering_by_triple_scan(PAW)) == [0, Fraction(1, 3), 1, 1]


def test_measures_agree_with_oracles_on_random_graphlets():
    rng = random.Random(21)
    for _ in range(100):
        g = random_graphlet(rng, max_edges=7)
        assert measure_values(g, "betweenness") == betweenness_by_path_enumeration(g)
        assert measure_values(g, "betweenness") == betweenness_all_pairs(g)
        assert _sorted(g, "core") == sorted(core_by_threshold(g))
        assert _sorted(g, "clustering") == sorted(clustering_by_triple_scan(g))
        # per node too: labelled codes order nodes by their values
        assert measure_values(g, "core") == core_by_threshold(g)
        assert measure_values(g, "clustering") == clustering_by_triple_scan(g)


def test_brandes_betweenness_equals_references_on_all_classes_to_eight():
    # core and clustering too, per node on every class
    for t in range(1, 9):
        for g in enumerate_connected(t):
            expected = betweenness_by_path_enumeration(g)
            assert betweenness_all_pairs(g) == expected
            assert measure_values(g, "betweenness") == expected, (t, g.edges)
            assert measure_values(g, "core") == core_by_threshold(g), (t, g.edges)
            assert measure_values(g, "clustering") == clustering_by_triple_scan(g), (t, g.edges)


def test_brandes_betweenness_equals_all_pairs_on_larger_graphlets():
    # core too
    rng = random.Random(23)
    for _ in range(200):
        g = random_graphlet(rng, max_edges=16)
        assert measure_values(g, "betweenness") == betweenness_all_pairs(g), g.edges
        assert measure_values(g, "core") == core_by_threshold(g), g.edges


def test_fractional_measures_stay_exact():
    rng = random.Random(22)
    for _ in range(50):
        g = random_graphlet(rng, max_edges=6)
        assert all(isinstance(v, Fraction) for v in _sorted(g, "betweenness"))
        assert all(isinstance(v, Fraction) for v in _sorted(g, "clustering"))


def test_format_value():
    # a value in a key prints as an integer when integral (Fraction(4, 1)
    # as '4'), otherwise as reduced num/den, and reads back exactly
    for n_edges in range(1, 6):
        for g in enumerate_connected(n_edges):
            for fn in HASH_FUNCTIONS:
                topo = hash_code(g, fn).split("|")[2].split(",")
                values = [Fraction(v) for v in _sorted(g, fn)]
                assert [Fraction(t) for t in topo] == values
                for t, v in zip(topo, values):
                    plain = str(v.numerator)
                    assert t == (plain if v.denominator == 1
                                 else f"{plain}/{v.denominator}"), (fn, g.edges)


def test_code_keys_equal_the_fraction_path():
    # Codes are printed from integer numerators over one common
    # denominator; they must equal the former keys, printed from the
    # references' int and Fraction values.
    graphlets = [g for t in range(1, 9) for g in enumerate_connected(t)]
    rng = random.Random(31)
    graphlets += [random_graphlet(rng, max_edges=8, labeled=i % 2 == 0) for i in range(500)]
    for g in graphlets:
        for fn in HASH_FUNCTIONS:
            assert hash_code(g, fn) == reference_code_key(g, fn), (fn, g)


def test_hash_code_key_grammar():
    assert hash_code(TRIANGLE, "degree") == "3|degree|2,2,2||"
    assert hash_code(K2, "degree") == "1|degree|1,1||"
    # rationals print num/den, integral ones (here 0 and 1) plainly
    assert hash_code(PAW, "clustering") == "4|clustering|0,1/3,1,1||"


def test_hand_built_graphlet_labels_with_key_separators_rejected():
    # the first two would otherwise hash to '1|degree|1,1|a,b,c|'
    for node_labels, edge_labels in ((("a,b", "c"), None),
                                     (("a", "b,c"), None),
                                     (("a", "b"), ("x|y",))):
        g = Graphlet(2, ((0, 1),), node_labels, edge_labels)
        with pytest.raises(GraphFormatError, match=r"^label .* contains"):
            hash_code(g, "degree")
        with pytest.raises(GraphFormatError, match=r"^label .* contains"):
            is_isomorphic(g, g)
    # labels that are not one per node and one per edge would otherwise
    # hash to a truncated code ('1|degree|1,1|a|' for the first)
    for n_nodes, node_labels, edge_labels in ((2, ("a",), None),
                                              (2, ("a", "b", "c"), None),
                                              (2, None, ("x", "y")),
                                              (2, ("a", "b"), ()),
                                              (3, ("a", "b", "c", "d"), ("x", "y"))):
        edges = ((0, 1),) if n_nodes == 2 else ((0, 1), (1, 2))
        g = Graphlet(n_nodes, edges, node_labels, edge_labels)
        with pytest.raises(GraphFormatError, match="label count mismatch"):
            hash_code(g, "degree")
        with pytest.raises(ValueError, match="label count mismatch"):
            is_isomorphic(g, g)


def test_labeled_node_part_is_storage_order_independent():
    a = Graphlet(2, ((0, 1),), node_labels=("C", "N"), edge_labels=("1",))
    b = Graphlet(2, ((0, 1),), node_labels=("N", "C"), edge_labels=("1",))
    assert hash_code(a, "degree") == hash_code(b, "degree")
    assert hash_code(a, "degree") == "1|degree|1,1|C,N|1"


def test_label_tied_nodes_do_not_break_invariance():
    # both endpoints tie on (degree, label); edge signatures must not
    # depend on which one happens to be stored first
    base = Graphlet(3, ((0, 1), (1, 2)),
                    node_labels=("A", "B", "A"), edge_labels=("p", "q"))
    rng = random.Random(5)
    for _ in range(20):
        assert hash_code(permute_graphlet(base, rng), "degree") == hash_code(base, "degree")


def test_permutation_invariance_random_quick():
    rng = random.Random(23)
    for trial in range(200):
        g = random_graphlet(rng, max_edges=8, labeled=trial % 2 == 0)
        pg = permute_graphlet(g, rng)
        for fn in HASH_FUNCTIONS + ("auto",):
            assert hash_code(g, fn) == hash_code(pg, fn), (g, pg, fn)


def test_node_labels_only_graphlets_hash():
    g = Graphlet(3, ((0, 1), (1, 2)), node_labels=("A", "B", "C"))
    assert hash_code(g, "degree") == "2|degree|1,1,2|A,C,B|"


def _ranked(code):
    """(node -> rank, rank -> node) in (code, node) order, as the relabelled key ranks."""
    order = sorted(range(len(code)), key=lambda u: (code[u], u))
    return {u: r for r, u in enumerate(order)}, order


def test_equal_keys_map_one_edge_set_onto_the_other_up_to_16_nodes():
    # no oracle (it stops at 12 nodes): when two graphlets share a key,
    # u -> order2[rank1[u]] must carry g1's edges onto g2's, ties or not
    rng = random.Random(61)
    first = {}
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 16)
        g = random_connected_graph("g", n, rng.randint(0, n), rng)
        for h in [Graphlet(n, g.edges)] + [permute_graphlet(Graphlet(n, g.edges), rng)
                                           for _ in range(3)]:
            code = _codes(adjacency_lists(h.n_nodes, h.edges))
            for kind, ranked_by in (("codes", code), ("finer", _finer_codes(code, h.edges))):
                key = (kind, _relabelled_key(ranked_by, h.edges))
                if key not in first:
                    first[key] = (h, ranked_by)
                    continue
                g1, by1 = first[key]
                rank1, _ = _ranked(by1)
                _, order2 = _ranked(ranked_by)
                image = {tuple(sorted((order2[rank1[u]], order2[rank1[v]]))) for u, v in g1.edges}
                assert image == set(h.edges), (kind, g1, h)
                checked += 1
    assert checked > 800, checked


def test_the_key_aliases_above_16_nodes():
    # ranks have 4 bits: the 17th node's edge to the hub reads as edge (1, 0)
    stars = [Graphlet(n, tuple((0, v) for v in range(1, n))) for n in (16, 17)]
    keys = [_relabelled_key(_codes(adjacency_lists(g.n_nodes, g.edges)), g.edges) for g in stars]
    assert keys[0] == keys[1]


def test_resolve_auto_threshold():
    assert resolve_hash_function("auto", 4) == "degree"
    assert resolve_hash_function("auto", 5) == "betweenness"
    assert resolve_hash_function("core", 9) == "core"
    with pytest.raises(ValueError, match="unknown hash function"):
        resolve_hash_function("md5", 3)


def test_select_hash_function_argmin_and_tiebreak():
    # tie at size 4: degree and betweenness both separate all 5 classes,
    # and auto keeps the cheaper one (HASH_FUNCTIONS is cheapest first)
    four = enumerate_connected(4)
    for fn in ("degree", "betweenness"):
        assert len({hash_code(g, fn) for g in four}) == len(four)
    assert HASH_FUNCTIONS.index("degree") < HASH_FUNCTIONS.index("betweenness")
    assert resolve_hash_function("auto", 4) == "degree"
    # argmin at size 5: these pairs share a degree code, betweenness
    # separates them, and auto switches to betweenness
    pairs = [
        (Graphlet(5, ((0, 1), (0, 2), (0, 3), (1, 2), (3, 4))),
         Graphlet(5, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4)))),
        (Graphlet(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5))),
         Graphlet(6, ((0, 1), (0, 2), (0, 3), (1, 4), (4, 5)))),
    ]
    for a, b in pairs:
        assert hash_code(a, "degree") == hash_code(b, "degree")
        assert hash_code(a, "auto") != hash_code(b, "auto")
    assert resolve_hash_function("auto", 5) == "betweenness"
