"""Permutation-invariant hash codes for graphlets.

Each code is built from one per-node topological measure (degree, core
number, local clustering coefficient, or betweenness centrality),
sorted into a canonical ascending vector. Fractional measures are kept
as exact rationals so codes never depend on float formatting. Labelled
graphlets additionally carry node/edge label signatures ordered by the
measure-sorted node ranking. A code reads only a ``Graphlet``'s node
count, local edges and labels, so sampled and enumerated graphlets hash
alike, and codes are cached on the (function, graphlet) pair until
``clear_caches``. On a cache miss, betweenness is computed as integer
numerators over one common denominator and printed without building
``Fraction``s, and a labelled graphlet takes its measure vector from a
cache keyed on its unlabelled topology.

``hash_code`` returns the code as its key string, which is also the
vocabulary entry and so the histogram bin:

    <t>|<fn>|<v1,v2,...>|<nodeLabels>|<edgeLabels>

with rationals serialized ``num/den`` (``den`` omitted when 1, as
``str`` prints a ``Fraction``) and the label fields empty for unlabelled
graphlets. Labels never contain ``,`` or ``|`` (a ``Graph`` rejects them
when built, and a code rejects them on a cache miss), so distinct label
signatures give distinct keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

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

    Computed by peeling a minimum-degree node at a time; the core
    number of a node is the largest minimum degree seen up to its
    removal.
    """
    adj = [set(ns) for ns in adjacency_lists(g.n_nodes, g.edges)]
    deg = {u: len(adj[u]) for u in range(g.n_nodes)}
    core = [0] * g.n_nodes
    k = 0
    while deg:
        u = min(deg, key=lambda x: (deg[x], x))
        k = max(k, deg[u])
        core[u] = k
        del deg[u]
        for w in adj[u]:
            if w in deg:
                deg[w] -= 1
                adj[w].discard(u)
    return core


def clustering_values(g: Graphlet) -> list[Fraction]:
    """Per-node local clustering coefficients as exact rationals.

    Ratio of triangles through the node to triples centred on it;
    zero for nodes of degree < 2.
    """
    adj = [set(ns) for ns in adjacency_lists(g.n_nodes, g.edges)]
    out: list[Fraction] = []
    for u in range(g.n_nodes):
        d = len(adj[u])
        if d < 2:
            out.append(Fraction(0))
            continue
        triangles = sum(1 for x, y in combinations(sorted(adj[u]), 2) if y in adj[x])
        out.append(Fraction(triangles, d * (d - 1) // 2))
    return out


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


# The labelled graphlets of one topology share its measure vector.
_topology_key = lru_cache(maxsize=1 << 16)(_measure_key)


@lru_cache(maxsize=1 << 18)
def _hash_code_cached(fn: str, g: Graphlet) -> str:
    for label in (g.node_labels or ()) + (g.edge_labels or ()):
        _check_label(label)
    labelled = g.node_labels is not None or g.edge_labels is not None
    if labelled:
        values, topo_key = _topology_key(fn, Graphlet(g.n_nodes, g.edges))
    else:
        values, topo_key = _measure_key(fn, g)

    node_label_key = edge_label_key = ""
    if labelled:
        # Nodes are ordered by (measure value, node label); nodes that tie
        # on both are interchangeable, so edge signatures use the rank of
        # the (value, label) class rather than of the individual node,
        # which keeps codes identical across relabelings.
        keys = list(zip(values, g.node_labels or ("",) * g.n_nodes))
        class_rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        if g.node_labels is not None:
            node_label_key = ",".join(lbl for _, lbl in sorted(keys))
        if g.edge_labels is not None:
            triples = []
            for (u, v), lbl in zip(g.edges, g.edge_labels):
                ru, rv = sorted((class_rank[keys[u]], class_rank[keys[v]]))
                triples.append((ru, rv, lbl))
            edge_label_key = ",".join(lbl for _, _, lbl in sorted(triples))
    return f"{g.n_edges}|{fn}|{topo_key}|{node_label_key}|{edge_label_key}"


def clear_caches() -> None:
    """Drop the cached codes and measure vectors (and their hit counts)."""
    _hash_code_cached.cache_clear()
    _topology_key.cache_clear()


def hash_code(g: Graphlet, fn: str = "auto") -> str:
    """Permutation-invariant code key of a graphlet under a hash function."""
    return _hash_code_cached(resolve_hash_function(fn, g.n_edges), g)
