import io
import os
import pickle
import random

import pytest

from graphlets import (
    Graph,
    GraphFormatError,
    parse_graph_file,
    parse_manifest,
    read_embeddings,
    resolve_manifest,
    serialize_graph,
    serialize_graphs,
)
from graphlets import cli
from graphlets.graphs import _write

from synth import random_connected_graph


def test_parse_minimal_unlabeled():
    graphs = parse_graph_file("t g0\nv 0\nv 1\ne 0 1")
    assert len(graphs) == 1
    g = graphs[0]
    assert g.id == "g0"
    assert g.n_nodes == 2
    assert g.edges == ((0, 1),)
    assert g.node_labels is None and g.edge_labels is None
    assert g.adjacency == ((1,), (0,))


def test_parse_minimal_labeled():
    g = parse_graph_file("t g0\nv 0 C\nv 1 N\ne 0 1 1")[0]
    assert g.node_labels == ("C", "N")
    assert g.edge_labels == ("1",)
    assert g.edge_label(1, 0) == "1"


def test_self_loop_reports_line():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph_file("t g0\nv 0\ne 0 0")


def test_duplicate_edge_rejected_either_orientation():
    with pytest.raises(GraphFormatError, match="duplicate edge"):
        parse_graph_file("t g0\nv 0\nv 1\ne 0 1\ne 1 0")


def test_dangling_endpoint():
    with pytest.raises(GraphFormatError, match="undeclared node"):
        parse_graph_file("t g0\nv 0\nv 1\ne 0 2")


def test_mixed_node_labels_rejected():
    with pytest.raises(GraphFormatError, match="mixed node labelling"):
        parse_graph_file("t g0\nv 0 C\nv 1\ne 0 1")


def test_mixed_edge_labels_rejected():
    with pytest.raises(GraphFormatError, match="mixed edge labelling"):
        parse_graph_file("t g0\nv 0\nv 1\nv 2\ne 0 1 a\ne 1 2")


def test_node_labels_with_key_separators_rejected():
    # "a,b"+"c" and "a"+"b,c" would share the node-label field "a,b,c"
    for label in ("a,b", "b|c", ",", "|"):
        with pytest.raises(GraphFormatError, match=r"line 3: label .* contains"):
            parse_graph_file(f"t g0\nv 0 a\nv 1 {label}\ne 0 1")


def test_edge_labels_with_key_separators_rejected():
    for label in ("p|q", "p,q", "|", ","):
        with pytest.raises(GraphFormatError, match=r"line 6: label .* contains"):
            parse_graph_file(f"t g0\nv 0\nv 1\nv 2\ne 0 1 x\ne 1 2 {label}")


def test_validate_rejects_labels_with_key_separators():
    # built in code, the first two would both embed as {'1|degree|1,1|a,b,c|': 2}
    for node_labels, edge_labels in ((("a,b", "c"), None),
                                     (("a", "b,c"), None),
                                     (None, ("x|y",))):
        with pytest.raises(GraphFormatError, match=r"^label .* contains"):
            Graph("a", 2, ((0, 1),), node_labels, edge_labels)


def test_node_labels_without_edge_labels_is_fine():
    g = parse_graph_file("t g0\nv 0 C\nv 1 N\ne 0 1")[0]
    assert g.node_labels == ("C", "N")
    assert g.edge_labels is None


def test_noncontiguous_node_ids_rejected():
    with pytest.raises(GraphFormatError, match="contiguous"):
        parse_graph_file("t g0\nv 0\nv 2\ne 0 2")


def test_duplicate_graph_id_rejected():
    with pytest.raises(GraphFormatError, match="duplicate graph id"):
        parse_graph_file("t g0\nv 0\nv 1\ne 0 1\nt g0\nv 0\nv 1\ne 0 1")


def test_malformed_lines():
    for text in ("t g0\nv x\n", "t g0\nv 0\nz 1\n", "t\n", "t g0\ne 0 1\n"):
        with pytest.raises(GraphFormatError):
            parse_graph_file(text)


def test_comments_blank_lines_and_stream_input():
    text = "# header\n\nt g0\nv 0\nv 1\n# middle\ne 0 1\n"
    assert len(parse_graph_file(io.StringIO(text))) == 1


def test_serialize_single_edge_exact():
    g = parse_graph_file("t g0\nv 0\nv 1\ne 0 1")[0]
    assert serialize_graph(g) == "t g0\nv 0\nv 1\ne 0 1\n"


def test_serialize_triangle_edge_order():
    g = parse_graph_file("t tri\nv 0\nv 1\nv 2\ne 1 2\ne 0 2\ne 0 1")[0]
    lines = serialize_graph(g).splitlines()
    assert lines[-3:] == ["e 0 1", "e 0 2", "e 1 2"]


def test_serialize_parse_is_canonicalizing():
    noncanonical = "t g0\nv 1 B\nv 0 A\nv 2 C\ne 2 0 q\ne 0 1 p\n"
    once = serialize_graphs(parse_graph_file(noncanonical))
    twice = serialize_graphs(parse_graph_file(once))
    assert once == twice


def test_round_trip_random_graphs():
    rng = random.Random(1)
    for i in range(200):
        labeled = i % 2 == 0
        g = random_connected_graph(f"g{i}", rng.randint(2, 20), rng.randint(0, 10),
                                   rng, labeled=labeled)
        back = parse_graph_file(serialize_graph(g))[0]
        assert back == g


def test_degree_sum_equals_twice_edges():
    rng = random.Random(2)
    for i in range(100):
        g = random_connected_graph(f"g{i}", rng.randint(2, 30), rng.randint(0, 20), rng)
        assert sum(len(ns) for ns in g.adjacency) == 2 * g.n_edges


def test_validate_catches_direct_construction_errors():
    valid = Graph("ok", 2, ((0, 1),), ("A", "B"), ("x",))
    cases = [
        ("has no nodes", ("bad", 0, ())),
        ("self-loop", ("bad", 2, ((0, 0),))),
        ("duplicate edge", ("bad", 2, ((0, 1), (0, 1)))),
        ("out of range", ("bad", 2, ((0, 2),))),
        ("not sorted", ("bad", 3, ((1, 2), (0, 1)))),
        ("node label count", ("bad", 2, ((0, 1),), ("A",))),
        ("edge label count", ("bad", 2, ((0, 1),), None, ())),
        # an id serializes to a t line, and a manifest line names it
        ("graph id '' must be one token", ("", 2, ())),
        ("graph id 'a b' must be one token", ("a b", 2, ())),
        ("must be one token", ("a\nb", 2, ())),
        ("graph id ' a' must be one token", (" a", 2, ())),
        ("graph id '#x' must be one token", ("#x", 2, ())),
        ("graph id 7 must be one token", (7, 2, ())),
        # a label serializes into its v or e line, so it is one token too
        ("label 'a b' must be one token", ("bad", 2, ((0, 1),), ("a b", "B"))),
        ("label '' must be one token", ("bad", 2, ((0, 1),), ("A", ""))),
        ("label 'a b' must be one token", ("bad", 2, ((0, 1),), None, ("a b",))),
        ("label '' must be one token", ("bad", 2, ((0, 1),), None, ("",))),
    ]
    for match, fields in cases:
        fields += (None,) * (5 - len(fields))
        # a call, _make, and _replace on a valid graph all run the checks
        for build in (lambda: Graph(*fields), lambda: Graph._make(fields),
                      lambda: valid._replace(**dict(zip(Graph._fields, fields)))):
            with pytest.raises(GraphFormatError, match=match):
                build()
    assert valid.edge_label(1, 0) == "x"  # caches edge_index on the graph
    copy = pickle.loads(pickle.dumps(valid))  # how a --threads 2 pool ships graphs
    assert copy == valid and type(copy) is Graph
    assert copy.adjacency == ((1,), (0,)) and copy.edge_label(0, 1) == "x"


def test_write_replaces_the_file_whole_or_leaves_it_as_it_was(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")

    def failing(error):
        yield "new\n"
        raise error

    for error in (ValueError("partway"), KeyboardInterrupt()):
        with pytest.raises(type(error)):
            _write(str(path), failing(error))
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.txt"]  # and no temp file
    _write(str(path), iter(["a\n", "b\r\n"]))
    assert path.read_bytes() == b"a\nb\r\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    # a directory in the target's place: the error names the target, not the temp file
    target = tmp_path / "dir"
    target.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        _write(str(target), iter(["x\n"]))
    assert (info.value.filename, info.value.filename2) == (str(target), None)
    assert sorted(os.listdir(tmp_path)) == ["dir", "out.txt"]
    assert os.listdir(target) == []


def test_manifest_round_trip_and_errors():
    entries = parse_manifest("g0\tpos\ttrain\ng1\tneg\ttest\n")
    assert [e.graph_id for e in entries] == ["g0", "g1"]
    assert entries[0].split == "train"
    assert parse_manifest("g0\tpos\ttrain\r\ng1\tneg\ttest\r\n") == entries
    assert parse_manifest("g0\tpos\ttrain\rg1\tneg\ttest") == entries

    with pytest.raises(GraphFormatError, match="unknown split"):
        parse_manifest("g0\tpos\tvalidation\n")
    with pytest.raises(GraphFormatError, match="duplicate graph id"):
        parse_manifest("g0\tpos\ttrain\ng0\tneg\ttest\n")
    with pytest.raises(GraphFormatError, match="expected"):
        parse_manifest("g0 pos train\n")


def test_resolve_manifest_requires_every_id():
    graphs = parse_graph_file("t g0\nv 0\nv 1\ne 0 1")
    entries = parse_manifest("g0\tpos\ttrain\nmissing\tneg\ttest\n")
    with pytest.raises(GraphFormatError, match="missing"):
        resolve_manifest(entries, graphs)
    assert resolve_manifest(entries[:1], graphs)["g0"] is graphs[0]


PARSER_ERRORS = (  # (parser, input text, exact message)
    ("graph", "t\n", "line 1: expected: t <graph_id>"),
    ("graph", "t a b\n", "line 1: expected: t <graph_id>"),
    ("graph", "t g\nv 0\nt g\nv 0\n", "line 3: duplicate graph id 'g'"),
    ("graph", "t #x\nv 0\n",
     "line 1: graph id '#x' must be one token that does not start with '#'"),
    ("graph", "t g\nv 0\nt #\nv 0\n",
     "line 3: graph id '#' must be one token that does not start with '#'"),
    ("graph", "v 0\n", "line 1: node declared before any 't' line"),
    ("graph", "e 0 1\n", "line 1: edge declared before any 't' line"),
    ("graph", "t g\nv\n", "line 2: expected: v <node_id> [<label>]"),
    ("graph", "t g\nv 0 a b\n", "line 2: expected: v <node_id> [<label>]"),
    ("graph", "t g\nv 0\ne 0\n", "line 3: expected: e <u> <v> [<label>]"),
    ("graph", "t g\nv 0\nv 1\ne 0 1 a b\n", "line 4: expected: e <u> <v> [<label>]"),
    ("graph", "t g\nv x\n", "line 2: invalid node id 'x'"),
    ("graph", "t g\nv 0\nv 1\ne 0 y\n", "line 4: invalid edge endpoints"),
    ("graph", "t g\nv 0\nv 0\n", "line 3: duplicate node id 0"),
    ("graph", "t g\nv 0 a\nv 0 b|c\n", "line 3: duplicate node id 0"),
    ("graph", "t g\nv 0 a,b\n", "line 2: label 'a,b' contains ',' or '|'"),
    ("graph", "t g\nv 0\nv 1 a,b\n", "line 3: label 'a,b' contains ',' or '|'"),
    ("graph", "t g\nv 0\nv 1\ne 0 1 p|q\n", "line 4: label 'p|q' contains ',' or '|'"),
    ("graph", "t g\nv 0 C\nv 1\n", "line 3: mixed node labelling within one graph"),
    ("graph", "t g\nv 0\nv 1\nv 2\ne 0 1 a\ne 1 2\n",
     "line 6: mixed edge labelling within one graph"),
    ("graph", "t g\nv 0\ne 0 0\n", "line 3: self-loop at node 0"),
    ("graph", "t g\ne 3 3\n", "line 2: self-loop at node 3"),
    ("graph", "t g\nv 0\ne 0 2\n", "line 3: edge (0, 2) references an undeclared node"),
    ("graph", "t g\nv 0\ne 0 1 a|b\n", "line 3: edge (0, 1) references an undeclared node"),
    ("graph", "t g\nv 0\nv 1\ne 0 1\ne 1 0\n", "line 5: duplicate edge (1, 0)"),
    ("graph", "t g\nv 0\nv 1\ne 0 1\ne 1 0 a,b\n", "line 5: duplicate edge (1, 0)"),
    ("graph", "t g\nv 0\nv 1\ne 0 1 a\ne 0 1\n", "line 5: duplicate edge (0, 1)"),
    ("graph", "t g\nz 1\n", "line 2: unknown record type 'z'"),
    ("graph", "z\n", "line 1: unknown record type 'z'"),
    ("graph", "t g\n", "line 1: graph 'g' declares no nodes"),
    ("graph", "t g\nt h\nv 0\n", "line 1: graph 'g' declares no nodes"),
    ("graph", "t g\nt g\n", "line 1: graph 'g' declares no nodes"),
    ("graph", "# c\n\n  t g\nv 0\nv 2\n",
     "line 3: graph 'g': node ids must be contiguous 0..1"),
    ("graph", "t g\nv 0\nv 1\ne 0 1\nt h\nv 1\nt k\n",
     "line 5: graph 'h': node ids must be contiguous 0..0"),
    ("manifest", "g0 pos train\n",
     "line 1: expected: <graph_id><TAB><class_label><TAB><split>"),
    ("manifest", "g0\tpos\n", "line 1: expected: <graph_id><TAB><class_label><TAB><split>"),
    ("manifest", "g0\tpos\ttrain\textra\n",
     "line 1: expected: <graph_id><TAB><class_label><TAB><split>"),
    ("manifest", "g0\tpos\tvalidation\n", "line 1: unknown split 'validation'"),
    ("manifest", "# c\ng0\tpos\ttrain\n\ng0\tneg\ttest\n", "line 4: duplicate graph id 'g0'"),
    ("ranks", "q1 a,b\n", "line 1: expected: <query_id><TAB><item1,item2,...>"),
    ("ranks", "q1\t\n", "line 1: expected: <query_id><TAB><item1,item2,...>"),
    ("ranks", "q1\ta\tb\n", "line 1: expected: <query_id><TAB><item1,item2,...>"),
    ("ranks", "q1\ta,b\n# c\nq1\tb,a\n", "line 3: duplicate query id 'q1'"),
    ("embeddings", "", "line 1: expected the header graph_id, bin0, ..., bin<w-1> (tabs)"),
    ("embeddings", "# c\n\ngraph_id\tbin1\n",
     "line 3: expected the header graph_id, bin0, ..., bin<w-1> (tabs)"),
    ("embeddings", "# c\ngraph_id\tbin0\ng0\t1\n  \n# g0\t2\ng0\t3\n",
     "line 6: duplicate graph id 'g0'"),
    # only \n, \r\n and \r end a line: U+0085, U+2028, U+2029, \v and \f do not
    ("graph", "t g\nv 0 a\x85b\nv 1 c\ne 0 1\n", "line 2: expected: v <node_id> [<label>]"),
    ("graph", "t g\nv 0\fv 1\nv 2\n", "line 2: expected: v <node_id> [<label>]"),
    ("graph", "t g\rv 0\r\nv 0\n", "line 3: duplicate node id 0"),
    ("manifest", "g0\tpos\u2028\ttrain\r\ng0\tneg\ttest\r\n",
     "line 2: duplicate graph id 'g0'"),
    ("ranks", "q1\ta,b\u2029q2\tc\n", "line 1: expected: <query_id><TAB><item1,item2,...>"),
    ("embeddings", "graph_id\tbin0\ng0\t1\vg1\t2\n", "line 2: row width mismatch for 'g0'"),
)


def test_every_parser_error_message_is_pinned(tmp_path):
    path = tmp_path / "input.tsv"

    def from_file(read):
        def parse(text):
            path.write_text(text, encoding="utf-8")
            return read(str(path))
        return parse

    parsers = {"graph": parse_graph_file, "manifest": parse_manifest,
               "ranks": from_file(cli._read_rankings), "embeddings": from_file(read_embeddings)}
    for kind, text, message in PARSER_ERRORS:
        with pytest.raises(GraphFormatError) as info:
            parsers[kind](text)
        assert str(info.value) == message, (kind, text)
