"""Permutation-invariant hash codes for graphlets, and every per-node
invariant of a graphlet: the four measures, the neighbour-degree codes
(``_codes``) and the relabelled edge key (``_relabelled_key``). The
measures and the codes read neighbour lists (``adjacency_lists``), a
degree being a list's length, and ``_numerators`` builds them once per
call. Each code is built from one per-node topological measure (degree, core
number, local clustering coefficient, or betweenness centrality), sorted
into a canonical ascending vector. Every measure has one exact form,
``_numerators``: integer numerators in node order over one common
denominator (1 for degree and core), so codes never depend on float
formatting; ``measure_values`` is its ``Fraction`` view, and the only
code here that builds a ``Fraction`` or imports ``fractions``. Labelled
graphlets additionally carry node/edge label signatures ordered by the
measure-sorted node ranking. A code reads only a ``Graphlet``'s node
count, local edges and labels, so sampled and enumerated graphlets hash
alike. Nothing here is cached: ``_measure_key`` returns a topology's
entry, which the embed keeps on a walk state, and ``_code`` adds labels.

``hash_code`` returns the code as its key string, which is also the
vocabulary entry and so the histogram bin:

    <t>|<fn>|<v1,v2,...>|<nodeLabels>|<edgeLabels>

with rationals serialized ``num/den`` (``den`` omitted when 1, as
``str`` prints a ``Fraction``) and the label fields empty for unlabelled
graphlets. Labels are one per node and one per edge and never hold
``,`` or ``|`` (a ``Graph`` checks this, ``hash_code`` a hand-built
``Graphlet``), so label signatures are never truncated and never merge.
"""

from __future__ import annotations

import math

from .graphs import Graphlet, _check_labels, adjacency_lists

HASH_FUNCTIONS = ("degree", "core", "clustering", "betweenness")  # cheapest first
AUTO_THRESHOLD = 4  # auto: degree up to 4 edges, betweenness beyond


def resolve_hash_function(fn: str, n_edges: int) -> str:
    """Resolve 'auto' by graphlet size; validate explicit names."""
    if fn == "auto":
        return "degree" if n_edges <= AUTO_THRESHOLD else "betweenness"
    if fn not in HASH_FUNCTIONS:
        raise ValueError(f"unknown hash function {fn!r}")
    return fn


def _codes(adj) -> list[int]:
    """Per-node neighbour-degree codes of a graphlet, from its per-node
    neighbour collections (``adjacency_lists`` or the oracle's dicts).

    A node's code is the sum of ``16 ** len(adj[w])`` over its neighbours
    w: a base-16 numeral whose digit d counts the neighbours of degree
    d. Up to 16 nodes, degrees and digits are at most 15, so the code
    names the multiset of neighbour degrees exactly.
    """
    digit = [1 << 4 * len(ns) for ns in adj].__getitem__  # node -> 16 ** its degree
    return [sum(map(digit, ns)) for ns in adj]


# _EDGE_BITS[16 * a + b]: the key bits of edge (a, b) between renumbered nodes
_EDGE_BITS = [1 << (a << 4 | b) | 1 << (b << 4 | a) for a in range(16) for b in range(16)]


def _relabelled_key(code: list[int], edges) -> int:
    """The edge set after renumbering the nodes by code, as one int.

    The nodes are renumbered 0..n-1 in (code, index) order, and bit
    ``16 * r_u + r_v`` is set for each edge (u, v), both ways round. Up
    to 16 nodes this one int fixes the renumbered edge set, and with it
    the node count of a graphlet with edges: an isolated node's code is
    0, so the highest-numbered node has an edge. Two graphlets with one
    key are then isomorphic whatever the ties in the ranking: a tie only
    costs a hit. The key ignores labels. Above 16 nodes ranks overflow
    their 4 bits: graphlets of two classes can share a key, or the
    lookup in ``_EDGE_BITS`` fails, so callers must guard the node count.
    """
    order = sorted(range(len(code)), key=code.__getitem__)
    rank = sorted(range(len(order)), key=order.__getitem__)  # the inverse of order
    key = 0
    for u, v in edges:
        key |= _EDGE_BITS[rank[u] << 4 | rank[v]]
    return key


def _finer_codes(code: list[int], edges) -> list[int]:
    """Each node's code followed by the sum of its neighbours' codes, as
    one int. Up to 12 nodes a code is below ``16 ** 12``, so a sum over
    at most 11 neighbours is below ``2 ** 52`` and the two stay apart.
    Ranked by these, fewer nodes tie."""
    near = [0] * len(code)
    for u, v in edges:
        near[u] += code[v]
        near[v] += code[u]
    return [c << 52 | s for c, s in zip(code, near)]


def core_values(adj) -> list[int]:
    """Per-node core numbers, in node order, from ``adjacency_lists``.

    Computed by peeling by level: at level k, from 0 up, every node left
    whose remaining degree is at most k is removed, and its neighbours'
    degrees fall by one; k rises only when no such node is left. The
    nodes removed at level k have core number k.
    """
    deg = [len(ns) for ns in adj]
    core = [0] * len(adj)
    left = set(range(len(adj)))
    k = 0
    while left:
        low = [u for u in left if deg[u] <= k]
        if not low:
            k += 1
        left.difference_update(low)
        for u in low:
            core[u] = k
            for w in adj[u]:
                deg[w] -= 1
    return core


def _betweenness_numerators(adj) -> tuple[list[int], int]:
    """Per-node betweenness of ``adj`` as (numerators, one common denominator).

    Sum over ordered node pairs (s, t), s != t, excluding the node
    itself, of sigma_st(v) / sigma_st, where sigma counts shortest
    paths. Computed by Brandes' dependency accumulation in integers:
    for each source s, with L the lcm of its sigma values, A(w) =
    L / sigma_w + sum of A over w's BFS successors, and the dependency
    of s on v is sigma_v * (sum of A over v's successors) / L. Each
    source's numerators are added into one running sum, the sum and the
    source both rescaled to the lcm of the sum's denominator and L.
    """
    n = len(adj)
    num, den = [0] * n, 1
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
        total = math.lcm(den, lcm)
        up, scale = total // den, total // lcm
        num = [x * up + c * a * scale for x, c, a in zip(num, sigma, succ_sum)]
        den = total
    return num, den


def _numerators(fn: str, g: Graphlet) -> tuple[list[int], int]:
    """Per-node values of a resolved hash function as (integer
    numerators in node order, one common denominator).

    Degree and core are integers over 1. A clustering coefficient is
    triangles / triples, a triangle through w being one edge between two
    neighbours of w, and a node of degree < 2 has 0 triangles over 1
    triple; the numerators are triangles * (L / triples) over L, the lcm
    of the triple counts. Betweenness is ``_betweenness_numerators``.
    Over one denominator the numerators sort and tie as the values do.
    """
    adj = adjacency_lists(g.n_nodes, g.edges)
    if fn == "degree":
        return [len(ns) for ns in adj], 1
    if fn == "core":
        return core_values(adj), 1
    if fn == "betweenness":
        return _betweenness_numerators(adj)
    adj = [set(ns) for ns in adj]
    triangles = [0] * g.n_nodes
    for u, v in g.edges:
        for w in adj[u] & adj[v]:
            triangles[w] += 1
    triples = [len(ns) * (len(ns) - 1) // 2 or 1 for ns in adj]
    den = math.lcm(*triples)
    return [t * (den // p) for t, p in zip(triangles, triples)], den


def measure_values(g: Graphlet, fn: str) -> list:
    """Unsorted per-node values of a resolved hash function: ints for
    degree and core, exact ``Fraction``s for clustering and betweenness."""
    num, den = _numerators(fn, g)
    if fn in ("degree", "core"):
        return num
    from fractions import Fraction  # here only, so a CLI start does not load it
    return [Fraction(x, den) for x in num]


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for num >= 0, den > 0, without the Fraction."""
    d = math.gcd(num, den)
    return str(num // d) if d == den else f"{num // d}/{den // d}"


def _measure_key(fn: str, g: Graphlet) -> tuple[tuple, str]:
    """Per-node sort keys in node order (the ``_numerators``), and the
    code key of ``g`` under resolved ``fn`` with both label fields empty."""
    num, den = _numerators(fn, g)
    topo_key = ",".join([_ratio(x, den) for x in sorted(num)])
    return tuple(num), f"{g.n_edges}|{fn}|{topo_key}||"


def _code(g: Graphlet, entry: tuple[tuple, str]) -> str:
    """Code key of ``g`` from its topology's ``_measure_key`` entry; no label check."""
    values, key = entry
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
    return f"{key[:-1]}{node_key}|{edge_key}"  # key ends in its two empty label fields


def hash_code(g: Graphlet, fn: str = "auto") -> str:
    """Permutation-invariant code key of a graphlet under a hash function."""
    fn = resolve_hash_function(fn, g.n_edges)
    _check_labels(g)
    return _code(g, _measure_key(fn, g))
