r"""Attributed graph data model, validation, and transaction-file I/O.

A transaction file stores one or more graphs in a line-oriented text
format:

    t <graph_id>            starts a new graph; the id is one token that
                            does not start with ``#``
    v <node_id> [<label>]   node declaration, ids must cover 0..n-1
    e <u> <v> [<label>]     undirected edge between declared nodes
    # ...                   comment, ignored

Tokens are whitespace-separated. Graphs are simple and undirected:
self-loops and duplicate edges are rejected at parse time, as is mixed
labelling (some nodes labelled while others are not; same rule for
edges). Node and edge labels are opaque tokens compared by equality;
they may not contain ``,`` or ``|``, the separators of the hash-code
key.

A dataset manifest is a companion TSV with one
``<graph_id><TAB><class_label><TAB><split>`` line per graph, where
split is one of ``train``, ``valid``, ``test``, ``unsplit``.

Every input file is read by ``_read``; ``_records`` cuts it into records,
the lines (ended only by ``\n``, ``\r\n`` or ``\r``) that are neither blank
nor ``#`` comments, and ``_fields`` splits the TSV ones and checks their
width and first field. Every parse error names its line in the file, a
byte that is not UTF-8 included, and quotes input only through ``_echo``.
Every output file of the package is written by ``_write``, whole or not at all.
"""

from __future__ import annotations

import os
from collections import namedtuple
from contextlib import contextmanager, suppress
from functools import cached_property
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

SPLITS = ("train", "valid", "test", "unsplit")


class GraphFormatError(ValueError):
    """Malformed or inconsistent graph/manifest data."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalize an undirected edge to its (min, max) form."""
    return (u, v) if u < v else (v, u)


def adjacency_lists(
    n_nodes: int, edges: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuple of each node 0..n_nodes-1."""
    nbrs: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(ns)) for ns in nbrs)


class _Checked:
    """Base of a named tuple that checks its fields with ``_check`` on
    every construction: a call, ``_make``, ``_replace`` and unpickling."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)  # a bare named tuple's _make, and so _replace, skips __new__


class Graph(_Checked, namedtuple("Graph", "id n_nodes edges node_labels edge_labels",
                                 defaults=(None, None))):
    """Simple undirected graph with optional node/edge labels.

    Nodes are the integers ``0..n_nodes-1``. Edges are stored sorted as
    ``(u, v)`` pairs with ``u < v``. ``node_labels`` and ``edge_labels``
    are either None (unlabelled) or tuples aligned with node indices
    and ``edges`` respectively. Construction checks these invariants, the
    id rule and the label rule, raising GraphFormatError. ``adjacency`` and
    ``edge_index`` are cached in the graph's ``__dict__``.
    """

    def _check(self) -> None:
        _check_id(self.id)
        if self.n_nodes < 1:
            raise GraphFormatError(f"graph {self.id!r} has no nodes")
        prev = (-1, -1)  # edges are sorted, so a duplicate follows its twin
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"graph {self.id!r}: self-loop at node {u}")
            if not (0 <= u < v < self.n_nodes):
                raise GraphFormatError(
                    f"graph {self.id!r}: edge ({u}, {v}) out of range or unnormalized"
                )
            if (u, v) == prev:
                raise GraphFormatError(f"graph {self.id!r}: duplicate edge ({u}, {v})")
            if (u, v) < prev:
                raise GraphFormatError(f"graph {self.id!r}: edges not sorted")
            prev = (u, v)
        _check_labels(self, f"graph {self.id!r}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return adjacency_lists(self.n_nodes, self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def edge_label(self, u: int, v: int) -> str | None:
        if self.edge_labels is None:
            return None
        return self.edge_labels[self.edge_index[edge_key(u, v)]]


class Graphlet(NamedTuple):
    """Connected subgraph over local nodes 0..n_nodes-1.

    ``edges`` are sorted local ``(u, v)`` pairs with ``u < v``. Labels,
    when present, are aligned with the local nodes and with ``edges``.
    The sampler emits one per walk step; enumeration and the hash codes
    read the same fields.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    node_labels: tuple[str, ...] | None = None
    edge_labels: tuple[str, ...] | None = None

    @property
    def n_edges(self) -> int:
        return len(self.edges)


class ManifestEntry(NamedTuple):
    graph_id: str
    class_label: str
    split: str


def _echo(value: str | int | list) -> str:
    """repr(value) for an error message, cut after 60 characters and then
    ended by the size of value, so that no input makes a message long."""
    text = repr(value)
    if len(text) <= 60:
        return text
    size = f"{len(value)} items" if isinstance(value, list) else f"{len(str(value))} characters"
    return f"{text[:60]}... ({size})"


def _is_token(s: str) -> bool:
    """True if s is a string that is one token: not empty, no whitespace."""
    return str(s).split() == [s]


def _check_id(graph_id: str, line: int | None = None) -> None:
    """Raise GraphFormatError unless graph_id is one token that does not
    start with ``#``, which a manifest reads as a comment: the ids a ``t``
    line and a manifest line can both carry."""
    if not _is_token(graph_id) or graph_id.startswith("#"):
        raise GraphFormatError(
            f"graph id {_echo(graph_id)} must be one token that does not start with '#'", line
        )


def _check_label(label: str | None, line: int | None = None) -> None:
    if label is not None and not _is_token(label):  # a label is one token of its v or e line
        raise GraphFormatError(f"label {_echo(label)} must be one token", line)
    if label is not None and ("," in label or "|" in label):  # hash-code key separators
        raise GraphFormatError(f"label {_echo(label)} contains ',' or '|'", line)


def _check_labels(g: Graph | Graphlet, what: str = "graphlet") -> None:
    """Raise GraphFormatError unless g's labels, where present, are one
    per node and one per edge and pass ``_check_label``."""
    if g.node_labels is not None and len(g.node_labels) != g.n_nodes:
        raise GraphFormatError(f"{what}: node label count mismatch")
    if g.edge_labels is not None and len(g.edge_labels) != len(g.edges):
        raise GraphFormatError(f"{what}: edge label count mismatch")
    for label in (g.node_labels or ()) + (g.edge_labels or ()):
        _check_label(label)


def _read(path: str) -> str:
    """The text of a UTF-8 input file. A byte that is not UTF-8 raises a
    GraphFormatError naming its line, counted by ``_lines``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_lines(data[: exc.start].decode("utf-8")))
        bad = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise GraphFormatError(bad, line) from None


@contextmanager
def _staged(path: str) -> Iterator[str]:
    """A temp file name beside path, unique to this process, for a block that
    writes it and then replaces path with it. On any exception, KeyboardInterrupt
    included, the temp file is removed and path is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the target, not tmp
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _write(path: str, chunks: Iterable[str]) -> None:
    """Stream the chunks to path, replacing it whole or not at all (see ``_staged``)."""
    with _staged(path) as tmp:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)


def _lines(text: str) -> list[str]:
    r"""The lines of text. Only ``\n``, ``\r\n`` and ``\r`` end a line, so
    line numbers are the file's."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _records(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each of ``_lines`` that is neither blank nor a
    ``#`` comment."""
    for line_no, raw in enumerate(_lines(text), start=1):
        head = raw.lstrip()
        if head and not head.startswith("#"):
            yield line_no, raw


def _fields(records: Iterable[tuple[int, str]], width: int, usage: str,
            what: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tab-separated fields) of each record. One of another width raises
    ``usage.format(_echo(first field))``, a repeated first field ``duplicate <what>``."""
    seen: set[str] = set()
    for line_no, raw in records:
        fields = raw.split("\t")
        if len(fields) != width:
            raise GraphFormatError(usage.format(_echo(fields[0])), line_no)
        if fields[0] in seen:
            raise GraphFormatError(f"duplicate {what} {_echo(fields[0])}", line_no)
        seen.add(fields[0])
        yield line_no, fields


# record kind -> (allowed argument counts, usage, what it declares)
_RECORDS = {
    "t": ((1,), "t <graph_id>", "graph"),
    "v": ((1, 2), "v <node_id> [<label>]", "node"),
    "e": ((2, 3), "e <u> <v> [<label>]", "edge"),
}


def _add(items: dict, key, label: str | None, line: int, what: str, dup: str,
         ids: list[int]) -> None:
    """Record a node or edge of the graph in progress, checking its label;
    a repeated key raises the ``dup`` template filled with ``ids``."""
    if key in items:
        raise GraphFormatError(dup.format(*map(_echo, ids)), line)
    _check_label(label, line)
    if items and (label is None) != (next(iter(items.values())) is None):
        raise GraphFormatError(f"mixed {what} labelling within one graph", line)
    items[key] = label


def _finish(graph_id: str, line: int, nodes: dict, edges: dict) -> Graph:
    """The Graph of a finished ``t`` block; its checks report the ``t`` line."""
    if not nodes:
        raise GraphFormatError(f"graph {_echo(graph_id)} declares no nodes", line)
    n = len(nodes)
    if sorted(nodes) != list(range(n)):
        raise GraphFormatError(
            f"graph {_echo(graph_id)}: node ids must be contiguous 0..{n - 1}", line
        )
    ordered = sorted(edges)
    node_labels = tuple(nodes[i] for i in range(n))
    edge_labels = tuple(edges[e] for e in ordered)
    return Graph(graph_id, n, tuple(ordered),  # labelling is all or nothing
                 node_labels if None not in node_labels else None,
                 edge_labels if edges and None not in edge_labels else None)


def parse_graph_file(source: str | IO[str]) -> list[Graph]:
    """Parse a transaction file into a list of graphs, in file order."""
    text = source if isinstance(source, str) else source.read()
    graphs: list[Graph] = []
    seen_ids: set[str] = set()
    current = None  # (graph id, line of its 't' record, nodes, edges)
    for line_no, raw in _records(text):
        kind, *args = raw.split()
        if kind not in _RECORDS:
            raise GraphFormatError(f"unknown record type {_echo(kind)}", line_no)
        counts, usage, what = _RECORDS[kind]
        if current is None and kind != "t":
            raise GraphFormatError(f"{what} declared before any 't' line", line_no)
        if len(args) not in counts:
            raise GraphFormatError(f"expected: {usage}", line_no)
        if kind == "t":
            if current is not None:
                graphs.append(_finish(*current))
            _check_id(args[0], line_no)
            if args[0] in seen_ids:
                raise GraphFormatError(f"duplicate graph id {_echo(args[0])}", line_no)
            seen_ids.add(args[0])
            current = (args[0], line_no, {}, {})
            continue
        label = args[counts[0]] if len(args) > counts[0] else None
        try:
            ids = [int(token) for token in args[: counts[0]]]
        except ValueError:
            bad = f"invalid node id {_echo(args[0])}" if kind == "v" else "invalid edge endpoints"
            raise GraphFormatError(bad, line_no) from None
        _, _, nodes, edges = current
        if kind == "v":
            _add(nodes, ids[0], label, line_no, what, "duplicate node id {}", ids)
            continue
        u, v = ids
        if u == v:
            raise GraphFormatError(f"self-loop at node {_echo(u)}", line_no)
        if u not in nodes or v not in nodes:
            raise GraphFormatError(
                f"edge ({_echo(u)}, {_echo(v)}) references an undeclared node", line_no
            )
        _add(edges, edge_key(u, v), label, line_no, what, "duplicate edge ({}, {})", ids)
    if current is not None:
        graphs.append(_finish(*current))
    return graphs


def serialize_graph(g: Graph) -> str:
    """Canonical text form: nodes by index, edges by sorted endpoint pair."""
    nodes = [f"v {i}" for i in range(g.n_nodes)]
    edges = [f"e {u} {v}" for u, v in g.edges]
    if g.node_labels is not None:
        nodes = [f"{line} {label}" for line, label in zip(nodes, g.node_labels)]
    if g.edge_labels is not None:
        edges = [f"{line} {label}" for line, label in zip(edges, g.edge_labels)]
    return "\n".join([f"t {g.id}", *nodes, *edges]) + "\n"


def serialize_graphs(graphs: Iterable[Graph]) -> str:
    return "".join(serialize_graph(g) for g in graphs)


def load_graphs(path: str) -> list[Graph]:
    return parse_graph_file(_read(path))


def save_graphs(graphs: Iterable[Graph], path: str) -> None:
    _write(path, map(serialize_graph, graphs))


def parse_manifest(source: str | IO[str]) -> list[ManifestEntry]:
    """Parse a manifest TSV; graph ids must be unique."""
    text = source if isinstance(source, str) else source.read()
    entries = []
    usage = "expected: <graph_id><TAB><class_label><TAB><split>"
    for line_no, (graph_id, label, split) in _fields(_records(text), 3, usage, "graph id"):
        if split not in SPLITS:
            raise GraphFormatError(f"unknown split {_echo(split)}", line_no)
        entries.append(ManifestEntry(graph_id, label, split))
    return entries


def load_manifest(path: str) -> list[ManifestEntry]:
    return parse_manifest(_read(path))


def save_manifest(entries: Iterable[ManifestEntry], path: str) -> None:
    _write(path, (f"{e.graph_id}\t{e.class_label}\t{e.split}\n" for e in entries))


def resolve_manifest(
    entries: Sequence[ManifestEntry], graphs: Sequence[Graph]
) -> Mapping[str, Graph]:
    """Map manifest ids to graphs; every id must resolve."""
    by_id = {g.id: g for g in graphs}
    missing = [e.graph_id for e in entries if e.graph_id not in by_id]
    if missing:
        raise GraphFormatError(f"manifest ids not found in graph file: {_echo(missing)}")
    return by_id
