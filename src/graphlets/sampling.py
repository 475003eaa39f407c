"""Random-walk graphlet sampler and sample-size bounds.

Each run performs a walk of up to ``max_edges`` steps over a graph:
starting from a uniformly chosen node, every step adds exactly one new
edge incident to the already-visited node set. The graphlet after step
k is the walk's first k edges, re-indexed to local nodes in visiting
order, so a run yields one connected graphlet per edge count 1..t_end.
The sampler keeps the local edges sorted as the walk grows and records
each step as a ``Graphlet`` (node count, sorted local edges, labels);
the walk's visiting order maps local nodes back to the parent graph.
Runs are mutually independent and fully reproducible: the random stream
of a run is derived only from (seed, graph id, run index), so results
never depend on scheduling or thread count.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from .graphs import Graph, Graphlet, edge_key

# Non-isomorphic connected simple graphs with 1..10 edges (OEIS A002905).
CONNECTED_GRAPH_COUNTS = (1, 1, 3, 5, 12, 30, 79, 227, 710, 2322)


def connected_graph_count(n_edges: int) -> int:
    """Count of isomorphism classes of connected graphs with n_edges edges."""
    if not 1 <= n_edges <= len(CONNECTED_GRAPH_COUNTS):
        raise ValueError(
            f"n_edges must be in 1..{len(CONNECTED_GRAPH_COUNTS)}, got {n_edges}"
        )
    return CONNECTED_GRAPH_COUNTS[n_edges - 1]


def sample_size(support_size: int, epsilon: float, delta: float) -> int:
    """Runs needed so the empirical class distribution is within epsilon
    (L1) of the true one with probability at least 1 - delta.

    Computes ceil(2 * (support_size * ln 2 + ln(1/delta)) / epsilon^2),
    and raises ValueError when that is not a finite number.
    """
    if support_size < 1:
        raise ValueError(f"support_size must be >= 1, got {support_size}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    try:
        bound = 2.0 * (support_size * math.log(2.0) + math.log(1.0 / delta))
        return math.ceil(bound / (epsilon * epsilon))
    except ArithmeticError:  # overflow, or epsilon^2 underflowing to 0
        raise ValueError("the walk budget is not a finite number") from None


@dataclass(frozen=True)
class SamplerParams:
    """Walk configuration.

    runs: number of independent walks.
    max_edges: edge budget per walk (walks may stop early at dead ends).
    alpha: probability of continuing from the walk frontier instead of
        restarting from a uniformly chosen eligible visited node.
    seed: master seed all per-run streams are derived from.
    """

    runs: int
    max_edges: int
    alpha: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.max_edges < 1:
            raise ValueError(f"max_edges must be >= 1, got {self.max_edges}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class RunTrace:
    """One walk: ``graphlets[i]`` is the graphlet with i+1 edges.

    ``order`` lists the parent-graph node behind each local node, so
    graphlet ``g`` covers parent nodes ``order[:g.n_nodes]``. dead_end
    is set when the walk stopped before exhausting its edge budget.
    """

    order: tuple[int, ...]
    graphlets: tuple[Graphlet, ...]
    dead_end: bool


def run_rng(seed: int, graph_id: str, run_index: int) -> random.Random:
    """Stable per-run generator derived from (seed, graph id, run index)."""
    key = f"{seed}\x1f{graph_id}\x1f{run_index}".encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def sample_run(graph: Graph, params: SamplerParams, run_index: int) -> RunTrace:
    """Execute one walk and return its per-size graphlets.

    At each step the eligible set holds every visited node that still
    has an unvisited incident edge, in visiting order. With probability
    alpha the walk continues from the current frontier node (when
    eligible); otherwise a node is drawn uniformly from the eligible
    set. The next edge is drawn uniformly among that node's unvisited
    incident edges, in adjacency order. The walk stops early when the
    eligible set empties.
    """
    if graph.n_edges == 0:
        raise ValueError(f"graph {graph.id!r} has no edges; cannot sample graphlets")
    if run_index < 0:
        raise ValueError("run_index must be nonnegative")
    rng = run_rng(params.seed, graph.id, run_index)
    adj = graph.adjacency
    node_labels = graph.node_labels

    start = rng.randrange(graph.n_nodes)
    order = [start]
    local = {start: 0}
    # Neighbours across the still unvisited edges of each visited node,
    # in adjacency order, and the visited nodes that have any, in
    # visiting order: the two lists the random draws index into.
    unvisited = {start: list(adj[start])}
    eligible = [start] if adj[start] else []
    loc_nodes = [node_labels[start]] if node_labels is not None else None
    loc_edges: list[tuple[int, int]] = []  # kept sorted
    loc_edge_labels: list[str] | None = [] if graph.edge_labels is not None else None
    frontier = start
    graphlets: list[Graphlet] = []

    for _ in range(params.max_edges):
        if not eligible:
            break
        if unvisited[frontier] and rng.random() < params.alpha:
            u = frontier
        else:
            u = eligible[rng.randrange(len(eligible))]
        candidates = unvisited[u]
        v = candidates[rng.randrange(len(candidates))]

        if v not in local:
            local[v] = len(order)
            order.append(v)
            unvisited[v] = list(adj[v])
            eligible.append(v)
            if loc_nodes is not None:
                loc_nodes.append(node_labels[v])  # type: ignore[index]
        candidates.remove(v)
        unvisited[v].remove(u)
        if not candidates:
            eligible.remove(u)
        if not unvisited[v]:
            eligible.remove(v)
        frontier = v

        e = edge_key(local[u], local[v])
        i = bisect_left(loc_edges, e)
        loc_edges.insert(i, e)
        if loc_edge_labels is not None:
            loc_edge_labels.insert(i, graph.edge_label(u, v))  # type: ignore[arg-type]
        graphlets.append(Graphlet(
            len(order),
            tuple(loc_edges),
            tuple(loc_nodes) if loc_nodes is not None else None,
            tuple(loc_edge_labels) if loc_edge_labels is not None else None,
        ))

    return RunTrace(tuple(order), tuple(graphlets), len(graphlets) < params.max_edges)


def sample_all(graph: Graph, params: SamplerParams, run_offset: int = 0) -> list[RunTrace]:
    """All runs for a graph, in run-index order.

    ``run_offset`` shifts the run indices (and hence the random
    streams), which lets callers schedule several independent batches
    against the same (seed, graph) without reusing randomness.
    """
    return [
        sample_run(graph, params, run_offset + i) for i in range(params.runs)
    ]
