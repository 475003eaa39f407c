"""Brute-force reference implementations.

Most of these deliberately avoid the algorithms used by the package
(BFS path counting, degeneracy peeling, walk simulation) so that
expected values in tests come from an independent route. The last
ones are the package's former straightforward implementations of
betweenness, the walk sampler, the code key built from ``Fraction``
values, k-NN neighbor ranking, the one-pair kernel and the audit's
extension step, kept as references that the faster replacements must
match exactly.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

from graphlets.graphs import Graphlet, edge_key
from graphlets.sampling import run_seed


def flood_fill_components(n_nodes, edges):
    """Component count by repeated flood fill."""
    adj = {u: set() for u in range(n_nodes)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    count = 0
    for s in range(n_nodes):
        if s in seen:
            continue
        count += 1
        stack = [s]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u] - seen)
    return count


def neighbour_sets(g):
    """Neighbour set of each node of a graphlet, from its edge list."""
    adj = [set() for _ in range(g.n_nodes)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def check_graphlet(g):
    """Raise AssertionError unless g is a well-formed graphlet: at least
    one edge, local edges in range, normalised, sorted and unique, one
    connected component, and labels aligned with nodes and edges."""
    n, edges = g.n_nodes, g.edges
    if not edges:
        raise AssertionError("graphlet has no edges")
    if not all(0 <= u < v < n for u, v in edges):
        raise AssertionError(f"local edges out of range or unnormalised: {edges}")
    if list(edges) != sorted(set(edges)):
        raise AssertionError(f"local edges not sorted and unique: {edges}")
    if flood_fill_components(n, edges) != 1:
        raise AssertionError(f"graphlet is not connected: {g}")
    if g.node_labels is not None and len(g.node_labels) != n:
        raise AssertionError("node label count mismatch")
    if g.edge_labels is not None and len(g.edge_labels) != len(edges):
        raise AssertionError("edge label count mismatch")
    return g


def isomorphisms_by_permutation(g1, g2):
    """Every bijection of g1's nodes onto g2's (as a tuple, node of g1 ->
    node of g2) that keeps node labels and maps every edge of g1 onto an
    edge of g2 with the same label, found by trying them all."""
    n = g1.n_nodes
    if n != g2.n_nodes or len(g1.edges) != len(g2.edges):
        return
    nl1 = g1.node_labels or (None,) * n
    nl2 = g2.node_labels or (None,) * n
    el1 = list(zip(g1.edges, g1.edge_labels or (None,) * len(g1.edges)))
    el2 = dict(zip(g2.edges, g2.edge_labels or (None,) * len(g2.edges)))
    for perm in permutations(range(n)):
        if all(nl1[u] == nl2[perm[u]] for u in range(n)) and all(
            edge_key(perm[u], perm[v]) in el2 and el2[edge_key(perm[u], perm[v])] == lbl
            for (u, v), lbl in el1
        ):
            yield perm


def isomorphic_by_permutation(g1, g2):
    """Isomorphism by trying every bijection of g1's nodes onto g2's."""
    return next(isomorphisms_by_permutation(g1, g2), None) is not None


def _all_simple_paths(adj, s, t):
    paths = []

    def walk(node, path):
        if node == t:
            paths.append(tuple(path))
            return
        for w in adj[node]:
            if w not in path:
                path.append(w)
                walk(w, path)
                path.pop()

    walk(s, [s])
    return paths


def betweenness_by_path_enumeration(g: Graphlet):
    """Betweenness from explicit enumeration of all simple paths.

    For each ordered pair, every simple path is generated, the shortest
    ones kept, and each interior node credited with the fraction of
    shortest paths running through it.
    """
    n = g.n_nodes
    adj = neighbour_sets(g)
    btw = [Fraction(0)] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = _all_simple_paths(adj, s, t)
            shortest = min(len(p) for p in paths)
            best = [p for p in paths if len(p) == shortest]
            for v in range(n):
                if v in (s, t):
                    continue
                through = sum(1 for p in best if v in p[1:-1])
                if through:
                    btw[v] += Fraction(through, len(best))
    return btw


def core_by_threshold(g: Graphlet):
    """Core numbers by testing each threshold c separately: iteratively
    delete nodes of degree < c and record who survives."""
    n = g.n_nodes
    adj = neighbour_sets(g)
    core = [0] * n
    for c in range(1, n + 1):
        alive = set(range(n))
        while True:
            doomed = {
                u for u in alive
                if sum(1 for w in adj[u] if w in alive) < c
            }
            if not doomed:
                break
            alive -= doomed
        for u in alive:
            core[u] = c
    return core


def clustering_by_triple_scan(g: Graphlet):
    """Clustering coefficients by scanning all node triples for triangles."""
    n = g.n_nodes
    edges = set(g.edges)
    adj = neighbour_sets(g)
    out = []
    for u in range(n):
        nbrs = adj[u]
        d = len(nbrs)
        if d < 2:
            out.append(Fraction(0))
            continue
        tri = 0
        for a, b, c in combinations(range(n), 3):
            if u not in (a, b, c):
                continue
            if (
                edge_key(a, b) in edges
                and edge_key(a, c) in edges
                and edge_key(b, c) in edges
            ):
                tri += 1
        out.append(Fraction(tri, d * (d - 1) // 2))
    return out


def enumerate_walk_size_sequences(graph, max_edges):
    """Every trace size-sequence reachable by some walk choice sequence.

    Mirrors the sampler's transition rule without probabilities: any
    start node, then at each step any visited node with an unvisited
    incident edge and any of its unvisited edges.
    """
    adj = graph.adjacency
    results = set()

    def step(order, visited_edges, depth):
        if depth == max_edges:
            results.add(depth)
            return
        moves = []
        for u in order:
            for w in adj[u]:
                if edge_key(u, w) not in visited_edges:
                    moves.append((u, w))
        if not moves:
            results.add(depth)
            return
        for u, w in moves:
            order2 = order if w in order else order + [w]
            step(order2, visited_edges | {edge_key(u, w)}, depth + 1)

    for start in range(graph.n_nodes):
        step([start], frozenset(), 0)
    return results


def betweenness_all_pairs(g: Graphlet):
    """Betweenness from all-pairs BFS distances and path counts.

    Sum over ordered node pairs (s, t), s != t, excluding the node
    itself, of sigma_st(v) / sigma_st, credited to every v with
    d(s, v) + d(v, t) = d(s, t). This is the package's former
    implementation, kept as the reference for its Brandes replacement.
    """
    n = g.n_nodes
    adj = neighbour_sets(g)
    INF = n + 1
    dist = [[INF] * n for _ in range(n)]
    sigma = [[0] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        sigma[s][s] = 1
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                for w in adj[u]:
                    if dist[s][w] == INF:
                        dist[s][w] = dist[s][u] + 1
                        nxt.append(w)
                    if dist[s][w] == dist[s][u] + 1:
                        sigma[s][w] += sigma[s][u]
            queue = nxt
    btw = [Fraction(0)] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            for v in range(n):
                if v == s or v == t:
                    continue
                if dist[s][v] + dist[v][t] == dist[s][t]:
                    btw[v] += Fraction(sigma[s][v] * sigma[v][t], sigma[s][t])
    return btw


def _snapshot(graph, order, local, walk_edges):
    loc_edges = sorted(edge_key(local[a], local[b]) for a, b in walk_edges)
    node_labels = None
    if graph.node_labels is not None:
        node_labels = tuple(graph.node_labels[p] for p in order)
    edge_labels = None
    if graph.edge_labels is not None:
        by_local = {
            edge_key(local[a], local[b]): graph.edge_label(a, b)
            for a, b in walk_edges
        }
        edge_labels = tuple(by_local[e] for e in loc_edges)
    return Graphlet(len(order), tuple(loc_edges), node_labels, edge_labels)


def reference_sample_run(graph, params, run_index):
    """The package's former sampler: (order, graphlets, dead_end) of one run.

    It rebuilds the eligible list from scratch, filters the chosen
    node's edges against a visited set, and re-sorts every walk edge
    into a fresh ``Graphlet`` at each step. Draws from the same per-run
    stream as ``sampling.sample_run``, so the two must agree exactly.
    """
    rng = random.Random(run_seed(params.seed, graph.id, run_index))
    adj = graph.adjacency
    start = rng.randrange(graph.n_nodes)
    order = [start]
    local = {start: 0}
    residual = {start: len(adj[start])}
    visited_edges = set()
    walk_edges = []
    frontier = start
    snaps = []
    for _ in range(params.max_edges):
        eligible = [w for w in order if residual[w] > 0]
        if not eligible:
            break
        if residual[frontier] > 0 and rng.random() < params.alpha:
            u = frontier
        else:
            u = eligible[rng.randrange(len(eligible))]
        candidates = [w for w in adj[u] if edge_key(u, w) not in visited_edges]
        v = candidates[rng.randrange(len(candidates))]
        visited_edges.add(edge_key(u, v))
        walk_edges.append((u, v))
        if v not in local:
            local[v] = len(order)
            order.append(v)
            residual[v] = len(adj[v])
        residual[u] -= 1
        residual[v] -= 1
        frontier = v
        snaps.append(_snapshot(graph, order, local, walk_edges))
    return tuple(order), tuple(snaps), len(snaps) < params.max_edges


def reference_values(g, fn):
    """Per-node values of a resolved hash function, in node order, from
    the references here, not from the package: degrees counted from the
    edge list, then ``core_by_threshold``, ``clustering_by_triple_scan``
    and ``betweenness_all_pairs`` (``Fraction`` for the last two)."""
    if fn == "degree":
        return [len(ns) for ns in neighbour_sets(g)]
    return {"core": core_by_threshold, "clustering": clustering_by_triple_scan,
            "betweenness": betweenness_all_pairs}[fn](g)


def reference_code_key(g, fn):
    """The package's former code key of a graphlet under a resolved hash
    function: the exact values (``reference_values``) sorted and printed
    with ``str``, labelled nodes ordered by (value, label) and edge
    labels by the ranks of those classes."""
    values = reference_values(g, fn)
    topo_key = ",".join(map(str, sorted(values)))
    node_label_key = edge_label_key = ""
    if g.node_labels is not None or g.edge_labels is not None:
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


def reference_audit_key(g, fn, n_edges):
    """The audit's former measurement key: the sorted exact values, the
    clustering coefficients divided by the node count and zero-filled on
    the left to width n_edges + 1 (``Fraction`` rows), from
    ``reference_values``."""
    values = reference_values(g, fn)
    if fn == "clustering":
        row = sorted(v / g.n_nodes for v in values)
        return tuple([0] * (n_edges + 1 - len(row)) + row)
    return tuple(sorted(values))


def reference_neighbor_order(sims, skip):
    """The package's former k-NN ranking of one kernel row: every index
    but ``skip``, by descending similarity, similarity ties in index
    order."""
    idx = [j for j in range(len(sims)) if j != skip]
    idx.sort(key=lambda j: (-sims[j], j))
    return idx


def reference_knn(K, labels, k):
    """(per-rank retrieval hits, leave-one-out k-NN accuracy) from one
    per-row sort each; label ties go to the smallest label."""
    hits = [0] * k
    correct = 0
    for i in range(len(K)):
        top = reference_neighbor_order(K[i], skip=i)[:k]
        for rank, j in enumerate(top):
            hits[rank] += labels[j] == labels[i]
        tally = Counter(labels[j] for j in top)
        best = max(tally.values())
        correct += min(lbl for lbl, c in tally.items() if c == best) == labels[i]
    return hits, correct / len(K)


def kernel_value(x, y, spec):
    """Kernel of one pair of vectors, straight from each kind's formula
    in plain floats: the pair reference for ``kernel_matrix``. Cosine
    with a zero-norm vector is 0."""
    if len(x) != len(y):
        raise ValueError(f"vector length mismatch: {len(x)} vs {len(y)}")
    x, y = [float(a) for a in x], [float(b) for b in y]
    if spec.kind == "dot":
        return sum(a * b for a, b in zip(x, y))
    if spec.kind == "hist_intersection":
        return sum(min(a, b) for a, b in zip(x, y))
    if spec.kind == "rbf":
        return math.exp(-spec.gamma * sum((a - b) ** 2 for a, b in zip(x, y)))
    nx, ny = math.sqrt(sum(a * a for a in x)), math.sqrt(sum(b * b for b in y))
    if nx == 0 or ny == 0:
        return 0.0
    return sum(a * b for a, b in zip(x, y)) / (nx * ny)


def single_edge_extensions(g):
    """Every graphlet g plus one edge, in enumeration order: each
    non-edge (u, v) in index order, then each new leaf (u, n). The
    reference the package's extension step must equal."""
    present = set(g.edges)
    out = []
    for u in range(g.n_nodes):
        for v in range(u + 1, g.n_nodes):
            if (u, v) not in present:
                out.append(Graphlet(g.n_nodes, tuple(sorted(present | {(u, v)}))))
    for u in range(g.n_nodes):
        out.append(Graphlet(g.n_nodes + 1, tuple(sorted(present | {(u, g.n_nodes)}))))
    return out
