"""Histogram embeddings of graphs over a deterministic code vocabulary.

Every sampled graphlet of a graph is hashed to its code key string; the
per-graph histogram counts keys. The sampler's walk states are the only
cache: a state keeps one entry per hash function, its topology's
measure key (see :mod:`graphlets.hashing`), labelled graphlet or not.
An unlabelled graphlet is its state's topology, and the entry holds its
code; a labelled one's label signatures are added per step. The
vocabulary is the sorted tuple of all observed keys, so a key's
position is its bin index and never depends on graph processing order
or parallelism. Count vectors are then aligned to the vocabulary; keys
absent from it (a frozen vocabulary applied to new data) are dropped
and tallied in an ``oov_count`` diagnostic rather than raising.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .graphs import Graph, GraphFormatError, _echo, _fields, _read, _records, _write
from .hashing import _code, _measure_key, resolve_hash_function
from .hashing import hash_code  # noqa: F401  (not called here; the benchmark wraps the name)
from .sampling import SamplerParams, labelled_graphlets, walks
from .sampling import sample_all  # noqa: F401  (not called here; the benchmark wraps the name)

_FLOAT_MAX = sys.float_info.max  # the kernels compute in doubles


class Embedding(NamedTuple):
    """Histogram of one graph aligned to a vocabulary.

    ``oov_count`` tallies sampled codes that fell outside the
    vocabulary.
    """

    graph_id: str
    counts: tuple[int, ...]
    oov_count: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts)


def embed_graph_stats(
    graph: Graph,
    params: SamplerParams,
    fn: str = "auto",
    min_edges: int = 1,
    run_offset: int = 0,
) -> tuple[dict[str, int], int]:
    """Sample a graph and histogram its graphlet codes.

    Returns (code->count map, number of dead-end runs). Only graphlets
    with at least ``min_edges`` edges are hashed; the map sums to
    runs * (max_edges - min_edges + 1) when no run dead-ends. Only the
    current run's path is held, so memory does not grow with the
    budget. Each state's measure key lives and dies with the state. A
    ``Graph`` checked its labels, so codes do not.
    """
    if not 1 <= min_edges <= params.max_edges:
        raise ValueError(
            f"min_edges must be in 1..{params.max_edges}, got {min_edges}"
        )
    resolve_hash_function(fn, min_edges)  # reject an unknown name before sampling
    counts: Counter[str] = Counter()
    dead_ends = 0
    skip = min_edges - 1
    for order, path in walks(graph, params, run_offset):
        if len(path) < params.max_edges:
            dead_ends += 1
        graphlets = labelled_graphlets(graph, order, path)
        for (_, (topology, _, codes)), g in zip(path[skip:], graphlets[skip:]):
            entry = codes.get(fn)
            if entry is None:  # the one place a state misses
                resolved = resolve_hash_function(fn, topology.n_edges)
                entry = codes[fn] = _measure_key(resolved, topology)
            counts[entry[1] if g is topology else _code(g, entry)] += 1
    return dict(counts), dead_ends


def build_vocabulary(maps: Iterable[Mapping[str, int]]) -> tuple[str, ...]:
    """Union of all code keys, sorted lexicographically; position = bin."""
    keys: set[str] = set()
    for m in maps:
        keys.update(m)
    if not keys:
        raise ValueError("cannot build a vocabulary from empty code maps")
    return tuple(sorted(keys))


def finalize_embeddings(
    named_maps: Sequence[tuple[str, Mapping[str, int]]],
    vocab: Sequence[str],
) -> list[Embedding]:
    """Dense count vectors aligned to the vocabulary, in input order."""
    index = {key: i for i, key in enumerate(vocab)}
    out = []
    for graph_id, counts in named_maps:
        vec = [0] * len(vocab)
        oov = 0
        for key, c in counts.items():
            pos = index.get(key)
            if pos is None:
                oov += c
            else:
                vec[pos] = c
        out.append(Embedding(graph_id, tuple(vec), oov))
    return out


def write_vocabulary(vocab: Sequence[str], path: str) -> None:
    _write(path, (key + "\n" for key in vocab))


def write_embeddings(
    embeddings: Sequence[Embedding], path: str, normalize: bool = False
) -> None:
    """TSV: header ``graph_id<TAB>bin0...``, one row per graph.

    Rows hold integer counts, or L1-normalized frequencies (17
    significant digits) when ``normalize`` is set.
    """
    n_bins = len(embeddings[0].counts) if embeddings else 0

    def lines():
        yield "graph_id\t" + "\t".join(f"bin{i}" for i in range(n_bins)) + "\n"
        for emb in embeddings:
            if normalize:
                total = emb.total or 1  # an all-zero row stays all zeros
                cells = [f"{c / total:.17g}" for c in emb.counts]
            else:
                cells = [str(c) for c in emb.counts]
            yield emb.graph_id + "\t" + "\t".join(cells) + "\n"

    _write(path, lines())


def _parse_cell(cell: str, graph_id: str) -> float | int:
    try:
        value: float | int = int(cell)
    except ValueError:
        try:
            value = float(cell)
        except ValueError:  # no number at all, which the check below reports
            value = float("nan")
    if abs(value) <= _FLOAT_MAX:  # false for nan, inf and ints a double cannot hold
        return value
    raise ValueError(f"graph {_echo(graph_id)}: cell {_echo(cell)} is not a finite number")


def read_embeddings(path: str) -> tuple[list[str], list[list]]:
    """Read an embeddings TSV back into (graph ids, rows of finite numbers).

    A header other than the one ``write_embeddings`` writes, a row of
    another width and a repeated graph id are ``GraphFormatError``s
    naming their line.
    """
    records = _records(_read(path))
    at, header = next(records, (1, ""))  # the header is the first record
    width = header.count("\t")
    if width < 1 or header != "\t".join(["graph_id"] + [f"bin{i}" for i in range(width)]):
        raise GraphFormatError("expected the header graph_id, bin0, ..., bin<w-1> (tabs)", at)
    ids: list[str] = []
    rows: list[list] = []
    for _, (graph_id, *cells) in _fields(records, width + 1, "row width mismatch for {}",
                                         "graph id"):
        ids.append(graph_id)
        rows.append([_parse_cell(c, graph_id) for c in cells])
    return ids, rows
