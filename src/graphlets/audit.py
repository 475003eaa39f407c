"""Exhaustive enumeration of connected graphs by edge count, an exact
isomorphism oracle, and hash-function collision reports.

Collision measurement convention: feeding all class representatives of
one size through a hash table, every insertion that hits an occupied
slot counts as one collision, i.e. n_collisions = n_graphs - distinct
codes. Degree, core and betweenness codes are the exact sorted
per-node vectors. Clustering codes are the per-node coefficients
divided by the node count, compared as fixed-width rows of width t+1,
zero-filled on the left; that is how the reference measurements these
reports are validated against were taken. The embedding codes produced
by :mod:`graphlets.hashing` key on the exact vectors plus label
signatures and are at least as fine, so their real collision rate is
bounded by the reported one.

Enumeration dedupes each size's children against the kept
representatives of their signature bucket. One enumeration call builds
one oracle profile per graphlet (labelled adjacency, node signatures and
the search's placement order) and drops them all when it returns;
``is_isomorphic`` runs the same search on two fresh profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .graphs import Graph, Graphlet, serialize_graph
from .hashing import measure_values, resolve_hash_function

MAX_ORACLE_NODES = 12
MAX_ENUM_EDGES = 10


class _Profile(NamedTuple):
    """What the isomorphism search reads of one graphlet, built once."""

    adj: list[dict[int, str | None]]  # node -> {neighbour: edge label or None}
    sig: list[tuple]  # per node: degree, label, sorted neighbour degrees
    by_sig: dict[tuple, list[int]]  # signature -> nodes carrying it, ascending
    order: list[int]  # placement order of the search


def _profile(g: Graphlet) -> _Profile:
    n = g.n_nodes
    adj: list[dict[int, str | None]] = [{} for _ in range(n)]
    for (u, v), label in zip(g.edges, g.edge_labels or (None,) * g.n_edges):
        adj[u][v] = adj[v][u] = label
    labels = g.node_labels or ("",) * n
    sig = [(len(a), labels[u], tuple(sorted(len(adj[w]) for w in a)))
           for u, a in enumerate(adj)]
    by_sig: dict[tuple, list[int]] = {}
    for u, s in enumerate(sig):
        by_sig.setdefault(s, []).append(u)
    # Breadth-first from a maximum-degree node, so each node of its
    # component (after the first) touches a node placed before it.
    order = [max(range(n), key=lambda u: len(adj[u]))]  # max keeps the lowest of ties
    for u in order:
        order.extend(w for w in adj[u] if w not in order)
    order.extend(u for u in range(n) if u not in order)
    return _Profile(adj, sig, by_sig, order)


def _same_class(p1: _Profile, p2: _Profile) -> bool:
    """Backtracking search for a signature-preserving node mapping of
    p1's graphlet onto p2's that keeps adjacency and edge labels.
    The caller has checked sizes and the sorted signatures."""
    adj1, adj2, order = p1.adj, p2.adj, p1.order
    n = len(order)
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        x = order[i]
        for y in p2.by_sig[p1.sig[x]]:
            if used[y]:
                continue
            for p in order[:i]:  # a non-edge reads 0, unequal to every label and to None
                if adj1[x].get(p, 0) != adj2[y].get(mapping[p], 0):
                    break
            else:
                mapping[x] = y
                used[y] = True
                if extend(i + 1):
                    return True
                used[y] = False
        return False

    return extend(0)


def is_isomorphic(g1: Graphlet, g2: Graphlet) -> bool:
    """Exact isomorphism test by backtracking over signature-compatible
    node mappings; node/edge labels are respected when present."""
    if g1.n_nodes > MAX_ORACLE_NODES or g2.n_nodes > MAX_ORACLE_NODES:
        raise ValueError(f"isomorphism oracle is limited to {MAX_ORACLE_NODES} nodes")
    if (g1.node_labels is None, g1.edge_labels is None) != (
            g2.node_labels is None, g2.edge_labels is None):
        raise ValueError("cannot compare labelled with unlabelled graphlets")
    if g1.n_nodes != g2.n_nodes or g1.n_edges != g2.n_edges:
        return False
    p1, p2 = _profile(g1), _profile(g2)
    if sorted(p1.sig) != sorted(p2.sig):
        return False
    return _same_class(p1, p2)


def _extensions(g: Graphlet) -> list[Graphlet]:
    present = set(g.edges)
    out = []
    for u in range(g.n_nodes):
        for v in range(u + 1, g.n_nodes):
            if (u, v) not in present:
                out.append(
                    Graphlet(g.n_nodes, tuple(sorted(present | {(u, v)})))
                )
    for u in range(g.n_nodes):
        out.append(Graphlet(g.n_nodes + 1, tuple(sorted(present | {(u, g.n_nodes)}))))
    return out


@lru_cache(maxsize=None)
def enumerate_connected(n_edges: int) -> tuple[Graphlet, ...]:
    """One canonical representative per isomorphism class of connected
    simple graphs with exactly n_edges edges (grown by single-edge
    extension of the previous size, deduplicated with the oracle)."""
    if not 1 <= n_edges <= MAX_ENUM_EDGES:
        raise ValueError(f"enumeration supports 1..{MAX_ENUM_EDGES} edges, got {n_edges}")
    if n_edges == 1:
        return (Graphlet(2, ((0, 1),)),)
    reps: list[Graphlet] = []
    buckets: dict[tuple, list[_Profile]] = {}  # sorted signatures -> kept profiles
    for parent in enumerate_connected(n_edges - 1):
        for child in _extensions(parent):
            p = _profile(child)
            bucket = buckets.setdefault(tuple(sorted(p.sig)), [])
            if any(_same_class(p, seen) for seen in bucket):
                continue
            bucket.append(p)
            reps.append(child)
    return tuple(reps)


@dataclass(frozen=True)
class CollisionReport:
    """Collision statistics of one hash function at one graphlet size."""

    fn: str
    n_edges: int
    n_graphs: int
    n_pairs: int
    n_collisions: int
    e_f: Fraction
    colliding_pairs: tuple[tuple[Graphlet, Graphlet], ...]


def audit_code(g: Graphlet, fn: str, n_edges: int) -> tuple:
    """Measurement key used for collision counting (see module docs)."""
    values = measure_values(g, fn)
    if fn == "clustering":
        row = sorted(v / g.n_nodes for v in values)
        return tuple([0] * (n_edges + 1 - len(row)) + row)
    return tuple(sorted(values))


def collision_report(fn: str, n_edges: int, keep_pairs: bool = True) -> CollisionReport:
    """Hash every enumerated representative and report collisions.

    ``colliding_pairs`` lists, for inspection, every pair of distinct
    classes whose measurement keys coincide.
    """
    resolved = resolve_hash_function(fn, n_edges)
    reps = enumerate_connected(n_edges)
    groups: dict[tuple, list[int]] = {}
    for i, g in enumerate(reps):
        groups.setdefault(audit_code(g, resolved, n_edges), []).append(i)

    n = len(reps)
    n_pairs = n * (n - 1) // 2
    n_collisions = n - len(groups)
    pairs: list[tuple[Graphlet, Graphlet]] = []
    if keep_pairs:
        for members in sorted(m for m in groups.values() if len(m) > 1):
            pairs.extend((reps[i], reps[j]) for i, j in combinations(members, 2))
    e_f = Fraction(n_collisions, n_pairs) if n_pairs else Fraction(0)
    return CollisionReport(resolved, n_edges, n, n_pairs, n_collisions, e_f, tuple(pairs))


def format_report(report: CollisionReport) -> str:
    """TSV report plus the colliding pairs as graph transaction blocks."""
    lines = [
        "fn\tt\tn_graphs\tn_pairs\tn_collisions\te_f\te_f_5dp",
        "{}\t{}\t{}\t{}\t{}\t{}\t{:.5f}".format(
            report.fn,
            report.n_edges,
            report.n_graphs,
            report.n_pairs,
            report.n_collisions,
            report.e_f,
            float(report.e_f),
        ),
    ]
    for k, pair in enumerate(report.colliding_pairs):
        stem = f"{report.fn}-t{report.n_edges}-pair{k}"
        lines.append(f"# colliding pair {k}")
        for side, a in zip("ab", pair):
            g = Graph(f"{stem}-{side}", a.n_nodes, a.edges, a.node_labels, a.edge_labels)
            lines.append(serialize_graph(g).rstrip("\n"))
    return "\n".join(lines) + "\n"


def write_report(report: CollisionReport, path: str) -> str:
    """Write the formatted report to path and return its text."""
    text = format_report(report)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text
