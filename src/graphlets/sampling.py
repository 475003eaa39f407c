"""Random-walk graphlet sampler and sample-size bounds.

Each run performs a walk of up to ``max_edges`` steps over a graph:
starting from a uniformly chosen node, every step adds exactly one new
edge incident to the already-visited node set. The graphlet after step
k is the walk's first k edges, re-indexed to local nodes in visiting
order, so a run yields one connected graphlet per edge count 1..t_end;
the walk's visiting order maps local nodes back to the parent graph.

The walk is one loop over per-process walk states. A state is
``(graphlet, steps, codes)``: the local topology so far (an unlabelled
``Graphlet``), its steps (local edge -> the edge's position among the
next state's sorted edges, and the next state), and the embed's only
cache, codes (hash function -> the topology's measure key). A step is
one lookup in the current state's steps; a state is built only on a
miss, and states that different walks reach are merged by topology. A
run returns its visiting order and (position, state) path; labels are
laid on afterwards, node labels from the visiting order and edge labels
at each step's position. All states are dropped at a run boundary once
there are more than ``STATE_CAP``, and by ``clear_states``.

Runs are mutually independent and fully reproducible: the random stream
of a run is derived only from (seed, graph id, run index), so results
never depend on scheduling or thread count.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from collections import namedtuple
from typing import Iterator, NamedTuple

from .graphs import Graph, Graphlet, _Checked

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

    Computes ceil(2 * (support_size * ln 2 + ln(1/delta)) / epsilon^2);
    raises ValueError for an argument out of range and OverflowError when
    the result is not a finite number.
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
        raise OverflowError("the walk budget is not a finite number") from None


class SamplerParams(_Checked, namedtuple("SamplerParams", "runs max_edges alpha seed",
                                         defaults=(0.5, 0))):
    """Walk configuration.

    runs: number of independent walks.
    max_edges: edge budget per walk (walks may stop early at dead ends).
    alpha: probability of continuing from the walk frontier instead of
        restarting from a uniformly chosen eligible visited node.
    seed: master seed all per-run streams are derived from.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.max_edges < 1:
            raise ValueError(f"max_edges must be >= 1, got {self.max_edges}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


class RunTrace(NamedTuple):
    """One walk: ``graphlets[i]`` is the graphlet with i+1 edges.

    ``order`` lists the parent-graph node behind each local node, so
    graphlet ``g`` covers parent nodes ``order[:g.n_nodes]``. dead_end
    is set when the walk stopped before exhausting its edge budget.
    """

    order: tuple[int, ...]
    graphlets: tuple[Graphlet, ...]
    dead_end: bool


def run_seed(seed: int, graph_id: str, run_index: int) -> int:
    """Seed of one run's stream, derived from (seed, graph id, run index)."""
    key = f"{seed}\x1f{graph_id}\x1f{run_index}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def _below(getrandbits, n: int) -> int:
    """A uniform draw from range(n), made as ``Random.randrange(n)`` makes it."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


STATE_CAP = 1 << 14  # states kept; past it all are dropped at a run boundary
_ROOT = Graphlet(1, ())  # one node, no edge: where every walk starts
# Local topology -> its walk state (topology, steps, codes).
_STATES: dict[Graphlet, tuple[Graphlet, dict, dict]] = {}


def _state(g: Graphlet) -> tuple[Graphlet, dict, dict]:
    """The state of local topology ``g``, made on first sight."""
    state = _STATES.get(g)
    if state is None:
        state = _STATES[g] = (g, {}, {})
    return state


def clear_states() -> None:
    """Drop every walk state, and with them their steps and codes."""
    _STATES.clear()


def _add_step(state: tuple, lu: int, lv: int) -> tuple:
    """Step miss: (position, next state) of adding local edge (lu, lv), lu < lv."""
    g, steps, _ = state
    e = (lu, lv)
    pos = bisect_left(g.edges, e)
    nxt = Graphlet(max(g.n_nodes, lv + 1), g.edges[:pos] + (e,) + g.edges[pos:])
    steps[e] = out = (pos, _state(nxt))
    return out


def _walk(
    graph: Graph, params: SamplerParams, rng: random.Random
) -> tuple[list[int], list[tuple]]:
    """One walk drawn from ``rng``: visiting order, and the (position,
    state) of each step.

    At each step the eligible set holds every visited node that still
    has an unvisited incident edge, in visiting order. With probability
    alpha the walk continues from the current frontier node (when
    eligible); otherwise a node is drawn uniformly from the eligible
    set. The next edge is drawn uniformly among that node's unvisited
    incident edges, in adjacency order. The walk stops early when the
    eligible set empties. The bounded draws are ``_below``'s: the same
    stream as ``randrange``.
    """
    if len(_STATES) > STATE_CAP:
        _STATES.clear()
    state = _state(_ROOT)
    adj = graph.adjacency
    getrandbits = rng.getrandbits
    draw = rng.random
    alpha = params.alpha

    start = _below(getrandbits, graph.n_nodes)
    order = [start]
    local = {start: 0}
    # Neighbours across the still unvisited edges of each visited node,
    # in adjacency order, and the visited nodes that have any, in
    # visiting order: the two lists the random draws index into.
    unvisited = {start: list(adj[start])}
    eligible = [start] if adj[start] else []
    frontier = start
    path: list[tuple] = []

    for _ in range(params.max_edges):
        if not eligible:
            break
        if unvisited[frontier] and draw() < alpha:
            u = frontier
        else:
            u = eligible[_below(getrandbits, len(eligible))]
        candidates = unvisited[u]
        v = candidates.pop(_below(getrandbits, len(candidates)))

        lu = local[u]
        lv = local.get(v)
        if lv is None:
            lv = local[v] = len(order)
            order.append(v)
            unvisited[v] = list(adj[v])
            eligible.append(v)
        unvisited[v].remove(u)
        if not candidates:
            eligible.remove(u)
        if not unvisited[v]:
            eligible.remove(v)
        frontier = v

        if lu > lv:
            lu, lv = lv, lu
        step = state[1].get((lu, lv)) or _add_step(state, lu, lv)
        path.append(step)
        state = step[1]
    return order, path


def walks(
    graph: Graph, params: SamplerParams, run_offset: int = 0
) -> Iterator[tuple[list[int], list[tuple]]]:
    """(visiting order, [(position, state), ...]) of each run, in
    run-index order.

    One generator is reseeded per run; ``Random(x)`` and ``seed(x)``
    give the same stream, so each run draws from ``Random(run_seed(...))``.
    """
    if graph.n_edges == 0:
        raise ValueError(f"graph {graph.id!r} has no edges; cannot sample graphlets")
    if run_offset < 0:
        raise ValueError("run_index must be nonnegative")
    rng = random.Random()
    for run_index in range(run_offset, run_offset + params.runs):
        rng.seed(run_seed(params.seed, graph.id, run_index))
        yield _walk(graph, params, rng)


def labelled_graphlets(graph: Graph, order: list[int], path: list[tuple]) -> list[Graphlet]:
    """The run's graphlets carrying the graph's labels, one per step.

    Node labels follow the visiting order; each step's edge label is
    inserted at its local edge's position among the sorted edges. An
    unlabelled graph's graphlets are the states' own; no state keeps a labelled one.
    """
    node_labels, edge_labels = graph.node_labels, graph.edge_labels
    if node_labels is None and edge_labels is None:
        return [state[0] for _, state in path]
    nodes = tuple(node_labels[x] for x in order) if node_labels is not None else None
    edges: list[str] = []
    out = []
    for pos, (g, _, _) in path:
        if edge_labels is not None:
            a, b = g.edges[pos]
            edges.insert(pos, graph.edge_label(order[a], order[b]))  # type: ignore[arg-type]
        out.append(Graphlet(
            g.n_nodes,
            g.edges,
            nodes[: g.n_nodes] if nodes is not None else None,
            tuple(edges) if edge_labels is not None else None,
        ))
    return out


def sample_all(graph: Graph, params: SamplerParams, run_offset: int = 0) -> list[RunTrace]:
    """All runs for a graph, in run-index order (see ``_walk``).

    ``run_offset`` shifts the run indices (and hence the random
    streams), which lets callers schedule several independent batches
    against the same (seed, graph) without reusing randomness.
    """
    return [RunTrace(tuple(order), tuple(labelled_graphlets(graph, order, path)),
                     len(path) < params.max_edges)
            for order, path in walks(graph, params, run_offset)]


def sample_run(graph: Graph, params: SamplerParams, run_index: int) -> RunTrace:
    """The one run with index ``run_index``."""
    return sample_all(graph, params._replace(runs=1), run_index)[0]
