"""Permutation-invariant hash codes for graphlets.

Each code is built from one per-node topological measure (degree, core
number, local clustering coefficient, or betweenness centrality),
sorted into a canonical ascending vector. Fractional measures are kept
as exact rationals (betweenness as integer numerators over one common
denominator, clustering as triangle and triple counts), so codes never
depend on float formatting. Labelled
graphlets additionally carry node/edge label signatures ordered by the
measure-sorted node ranking. A code reads only a ``Graphlet``'s node
count, local edges and labels, so sampled and enumerated graphlets hash
alike. Nothing here is cached: ``_measure_key`` reads the topology,
``_code`` adds the labels, and the embed keeps either on a walk state.

``hash_code`` returns the code as its key string, which is also the
vocabulary entry and so the histogram bin:

    <t>|<fn>|<v1,v2,...>|<nodeLabels>|<edgeLabels>

with rationals serialized ``num/den`` (``den`` omitted when 1, as
``str`` prints a ``Fraction``) and the label fields empty for unlabelled
graphlets. Labels never hold ``,`` or ``|`` (a ``Graph`` rejects them,
``hash_code`` a hand-built ``Graphlet``'s), so label signatures never merge.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import Graphlet, _check_label, adjacency_lists

HASH_FUNCTIONS = ("degree", "core", "clustering", "betweenness")  # cheapest first
AUTO_THRESHOLD = 4  # auto: degree up to 4 edges, betweenness beyond


def resolve_hash_function(fn: str, n_edges: int) -> str:
    """Resolve 'auto' by graphlet size; validate explicit names."""
    if fn == "auto":
        return "degree" if n_edges <= AUTO_THRESHOLD else "betweenness"
    if fn not in HASH_FUNCTIONS:
        raise ValueError(f"unknown hash function {fn!r}")
    return fn


def degree_values(g: Graphlet) -> list[int]:
    """Per-node degrees, in node order."""
    return [len(ns) for ns in adjacency_lists(g.n_nodes, g.edges)]


def core_values(g: Graphlet) -> list[int]:
    """Per-node core numbers, in node order.

    Computed by peeling: at each level k, from 0 up, nodes of degree at
    most k are removed one at a time, their neighbours' degrees falling
    with them, until every node left has degree above k; the nodes
    removed at level k have core number k.
    """
    adj = adjacency_lists(g.n_nodes, g.edges)
    deg = [len(ns) for ns in adj]
    core = [0] * g.n_nodes
    left = set(range(g.n_nodes))
    k = 0
    while left:
        k = max(k, min(deg[u] for u in left))
        low = [u for u in left if deg[u] <= k]
        left.difference_update(low)
        while low:
            u = low.pop()
            core[u] = k
            for w in adj[u]:
                if w in left:
                    deg[w] -= 1
                    if deg[w] == k:
                        left.discard(w)
                        low.append(w)
    return core


def _clustering_terms(g: Graphlet) -> list[tuple[int, int]]:
    """Per-node local clustering coefficient as (triangles, triples),
    in node order; (0, 1) for nodes of degree < 2.

    A triangle through w is one edge (u, v) between two neighbours of w.
    """
    adj = [set(ns) for ns in adjacency_lists(g.n_nodes, g.edges)]
    triangles = [0] * g.n_nodes
    for u, v in g.edges:
        for w in adj[u] & adj[v]:
            triangles[w] += 1
    return [(t, len(ns) * (len(ns) - 1) // 2) if len(ns) > 1 else (0, 1)
            for t, ns in zip(triangles, adj)]


def clustering_values(g: Graphlet) -> list[Fraction]:
    """Per-node local clustering coefficients as exact rationals.

    Ratio of triangles through the node to triples centred on it;
    zero for nodes of degree < 2.
    """
    return [Fraction(t, triples) for t, triples in _clustering_terms(g)]


def betweenness_values(g: Graphlet) -> list[Fraction]:
    """Per-node betweenness centrality as exact rationals.

    See ``_betweenness_numerators``, whose integers these are over one
    common denominator.
    """
    num, den = _betweenness_numerators(g)
    return [Fraction(x, den) for x in num]


def _betweenness_numerators(g: Graphlet) -> tuple[list[int], int]:
    """Per-node betweenness as (numerators, one common denominator).

    Sum over ordered node pairs (s, t), s != t, excluding the node
    itself, of sigma_st(v) / sigma_st, where sigma counts shortest
    paths. Computed by Brandes' dependency accumulation in integers:
    for each source s, with L the lcm of its sigma values, A(w) =
    L / sigma_w + sum of A over w's BFS successors, and the dependency
    of s on v is sigma_v * (sum of A over v's successors) / L. The
    sources' dependencies are summed over the lcm of their L.
    """
    n = g.n_nodes
    adj = adjacency_lists(n, g.edges)
    per_source: list[tuple[int, list[int]]] = []  # (L, dependency numerators)
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        reached = [s]  # BFS order, by nondecreasing distance
        for u in reached:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    reached.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
        lcm = math.lcm(*(sigma[w] for w in reached))
        succ_sum = [0] * n
        for w in reversed(reached[1:]):
            a = lcm // sigma[w] + succ_sum[w]
            for v in adj[w]:
                if dist[v] == dist[w] - 1:
                    succ_sum[v] += a
        succ_sum[s] = 0  # paths from s do not pass through s
        per_source.append((lcm, [sigma[v] * succ_sum[v] for v in range(n)]))
    den = math.lcm(*(lcm for lcm, _ in per_source))
    num = [0] * n
    for lcm, deps in per_source:
        scale = den // lcm
        for v in range(n):
            num[v] += deps[v] * scale
    return num, den


_VALUE_FUNCTIONS = {
    "degree": degree_values,
    "core": core_values,
    "clustering": clustering_values,
    "betweenness": betweenness_values,
}


def measure_values(g: Graphlet, fn: str) -> list:
    """Unsorted per-node values for a resolved hash function."""
    return _VALUE_FUNCTIONS[fn](g)


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for num >= 0, den > 0, without the Fraction."""
    d = math.gcd(num, den)
    return str(num // d) if d == den else f"{num // d}/{den // d}"


def _measure_key(fn: str, g: Graphlet) -> tuple[tuple, str]:
    """Per-node sort keys in node order, and the sorted vector as a code prints it.

    Betweenness keys are the integer numerators over one common
    denominator, so they sort and tie as the exact values do.
    """
    if fn == "betweenness":
        num, den = _betweenness_numerators(g)
        return tuple(num), ",".join([_ratio(x, den) for x in sorted(num)])
    values = measure_values(g, fn)
    return tuple(values), ",".join(map(str, sorted(values)))


def _code(fn: str, g: Graphlet, measure: tuple[tuple, str]) -> str:
    """Code key of ``g`` under resolved ``fn`` from its ``_measure_key``; no label check."""
    values, topo_key = measure
    nodes, edges = g.node_labels, g.edge_labels
    node_key = edge_key = ""
    if nodes is not None or edges is not None:
        # Nodes are ordered by (measure value, node label); nodes that tie
        # on both are interchangeable, so edge signatures use the rank of
        # the (value, label) class rather than of the individual node,
        # which keeps codes identical across relabelings.
        keys = list(zip(values, nodes or ("",) * g.n_nodes))
        if nodes is not None:
            node_key = ",".join([lbl for _, lbl in sorted(keys)])
        if edges is not None:
            rank = {k: r for r, k in enumerate(sorted(set(keys)))}
            ends = [sorted((rank[keys[u]], rank[keys[v]])) for u, v in g.edges]
            edge_key = ",".join([lbl for _, lbl in sorted(zip(ends, edges))])
    return f"{g.n_edges}|{fn}|{topo_key}|{node_key}|{edge_key}"


def hash_code(g: Graphlet, fn: str = "auto") -> str:
    """Permutation-invariant code key of a graphlet under a hash function."""
    fn = resolve_hash_function(fn, g.n_edges)
    for label in (g.node_labels or ()) + (g.edge_labels or ()):
        _check_label(label)
    return _code(fn, g, _measure_key(fn, g))
