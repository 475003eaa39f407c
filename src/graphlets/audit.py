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

Enumeration extends each representative of one size by every single
edge. A child whose relabelled edge key (its edges after renumbering
the nodes by signature rank, see ``_profile``) an earlier child of the
same size already had is isomorphic to that child and is dropped at
once; equal keys prove isomorphism, so the first child of each class
is still the one kept. The other children are deduped against the
kept representatives of their signature bucket. One enumeration call
keeps the keys and one oracle profile per kept graphlet (labelled
adjacency, node signatures and the search's placement order) and
drops them all when it returns; ``is_isomorphic`` runs the same search
on two fresh profiles.
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
    sig: list[tuple]  # per node: degree, label, neighbour-degree code
    by_sig: dict[tuple, list[int]]  # signature -> nodes carrying it, ascending
    order: list[int]  # placement order of the search


def _profile(g: Graphlet, seen: set[int] | None = None) -> _Profile | None:
    """The search's profile of g; with ``seen``, None if g's relabelled
    edge key is in it (else the key is added).

    A node's signature is (degree, label, code), the code being the sum
    of ``16 ** degree(w)`` over its neighbours w: a base-16 numeral whose
    digit d counts the neighbours of degree d. Up to ``MAX_ORACLE_NODES``
    = 12 nodes, degrees and digits are at most 11, so the code names the
    multiset of neighbour degrees exactly.

    The key renumbers the nodes 0..n-1 in (code, index) order, the code
    being an unlabelled node's whole signature, and sets bit
    ``16 * r_u + r_v`` for each edge (u, v), both ways round. Up to 16
    nodes this one int fixes the renumbered edge set, and with it the
    node count of a graphlet with edges: an isolated node's code is 0, so
    the highest-numbered node has an edge. Two graphlets with one
    key are then isomorphic whatever the ties in the ranking: a tie only
    costs a hit. The key ignores labels, so ``seen`` is for unlabelled
    graphlets. The signatures, adjacency, buckets and placement order
    are built only on a miss.
    """
    n, edges = g.n_nodes, g.edges
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    code = [0] * n
    for u, v in edges:
        code[u] += 1 << 4 * deg[v]
        code[v] += 1 << 4 * deg[u]
    if seen is not None:
        rank = [0] * n
        for r, u in enumerate(sorted(range(n), key=code.__getitem__)):
            rank[u] = r
        key = 0
        for u, v in edges:
            key |= 1 << (rank[u] << 4 | rank[v]) | 1 << (rank[v] << 4 | rank[u])
        if key in seen:
            return None
        seen.add(key)
    sig = list(zip(deg, g.node_labels or ("",) * n, code))
    adj: list[dict[int, str | None]] = [{} for _ in range(n)]
    for (u, v), label in zip(edges, g.edge_labels or (None,) * len(edges)):
        adj[u][v] = adj[v][u] = label
    by_sig: dict[tuple, list[int]] = {}
    for u, s in enumerate(sig):
        by_sig.setdefault(s, []).append(u)
    # Breadth-first from the lowest maximum-degree node, so each node of
    # its component (after the first) touches a node placed before it.
    order = [deg.index(max(deg))] if n else []
    placed = [u in order for u in range(n)]
    for u in order:
        for w in adj[u]:
            if not placed[w]:
                placed[w] = True
                order.append(w)
    order.extend(u for u in range(n) if not placed[u])
    return _Profile(adj, sig, by_sig, order)


def _same_class(p1: _Profile, p2: _Profile) -> bool:
    """Backtracking search for a signature-preserving node mapping of
    p1's graphlet onto p2's that keeps adjacency and edge labels. The
    caller has checked sizes and the sorted signatures."""
    adj1, adj2, order = p1.adj, p2.adj, p1.order
    n = len(order)
    mapping = [-1] * n
    used = [False] * n
    cands = [p2.by_sig[s] for s in p1.sig]

    def extend(i: int) -> bool:
        if i == n:
            return True
        x = order[i]
        for y in cands[x]:
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
    """g plus one edge: each non-edge (u, v) in index order, then each
    new leaf (u, n)."""
    n, present = g.n_nodes, set(g.edges)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    pairs += [(u, n) for u in range(n)]
    return [Graphlet(n + (v == n), tuple(sorted(present | {(u, v)}))) for u, v in pairs]


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
    seen: set[int] = set()  # relabelled edge keys of the children so far
    for parent in enumerate_connected(n_edges - 1):
        for child in _extensions(parent):
            p = _profile(child, seen)
            if p is None:
                continue
            bucket = buckets.setdefault(tuple(sorted(p.sig)), [])
            if any(_same_class(p, kept) for kept in bucket):
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
