"""Exhaustive enumeration of connected graphs by edge count, an exact
isomorphism oracle, and hash-function collision reports. Every graphlet
invariant they read, the relabelled edge key included, is in ``hashing``.

Collision measurement convention: feeding all class representatives of
one size through a hash table, every insertion that hits an occupied
slot counts as one collision, i.e. n_collisions = n_graphs - distinct
codes. Degree, core and betweenness codes are the exact sorted
per-node vectors. Clustering codes are the per-node coefficients
divided by the node count, compared as fixed-width rows of width t+1,
zero-filled on the left; that is how the reference measurements these
reports are validated against were taken. Every measure is read in the
one integer form of :mod:`graphlets.hashing`, integer numerators over
one common denominator, and the fractional ones group on that vector as
a code prints it, never on ``Fraction`` objects (see ``audit_code``).
A report builds its one ``Fraction``, ``e_f``, only when that is read.
The embedding codes produced by :mod:`graphlets.hashing`
key on the exact vectors plus label signatures and are at least as
fine, so their real collision rate is bounded by the reported one.

Enumeration extends each representative of one size by every single
edge. Each child's relabelled edge key (its edge set after renumbering
the nodes by neighbour-degree code, see ``hashing._relabelled_key``) is
taken from codes derived from the parent's (``_children``), before the
child is built. A child whose key an earlier child of the same size
already had is isomorphic to that child and is dropped at once; equal
keys prove isomorphism, so the first child of each class is still the
one kept. Only the other children are built, and each is deduped
against the kept representatives with the same sorted codes (an
unlabelled node's code fixes its degree, so this is its signature
bucket); a child alone in its bucket needs no search. One enumeration
call keeps the keys, the buckets and one oracle profile (labelled
adjacency, node signatures and the search's placement order) per
graphlet that took part in a search, and drops them all when it
returns; ``is_isomorphic`` runs the same search on two fresh profiles.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple

from .graphs import Graph, Graphlet, _check_labels, _write, adjacency_lists, serialize_graph
from .hashing import (_codes, _finer_codes, _numerators, _ratio, _relabelled_key, measure_values,
                      resolve_hash_function)

MAX_ORACLE_NODES = 12
MAX_ENUM_EDGES = 10


class _Profile(NamedTuple):
    """What the isomorphism search reads of one graphlet, built once."""

    adj: list[dict[int, str | None]]  # node -> {neighbour: edge label or None}
    sig: list[tuple]  # per node: label, neighbour-degree code (which fixes the degree)
    by_sig: dict[tuple, list[int]]  # signature -> nodes carrying it, ascending
    order: list[int]  # placement order of the search


def _profile(g: Graphlet) -> _Profile:
    """The search's profile of g.

    A node's signature is (label, code), the code being its neighbour-degree
    code (see ``_codes``); up to 16 nodes its digit sum is the degree.
    """
    n, edges = g.n_nodes, g.edges
    adj: list[dict[int, str | None]] = [{} for _ in range(n)]
    for (u, v), label in zip(edges, g.edge_labels or (None,) * len(edges)):
        adj[u][v] = adj[v][u] = label
    sig = list(zip(g.node_labels or ("",) * n, _codes(adj)))
    by_sig: dict[tuple, list[int]] = {}
    for u, s in enumerate(sig):
        by_sig.setdefault(s, []).append(u)
    # Breadth-first from the lowest maximum-degree node, so each node of
    # its component (after the first) touches a node placed before it.
    order = [max(range(n), key=lambda u: len(adj[u]))] if n else []
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
    node mappings; node/edge labels are respected when present. Labels
    must be one per node and one per edge and hold no key separator
    (``GraphFormatError``, a ``ValueError``, otherwise)."""
    if g1.n_nodes > MAX_ORACLE_NODES or g2.n_nodes > MAX_ORACLE_NODES:
        raise ValueError(f"isomorphism oracle is limited to {MAX_ORACLE_NODES} nodes")
    if (g1.node_labels is None, g1.edge_labels is None) != (
            g2.node_labels is None, g2.edge_labels is None):
        raise ValueError("cannot compare labelled with unlabelled graphlets")
    _check_labels(g1)
    _check_labels(g2)
    if g1.n_nodes != g2.n_nodes or g1.n_edges != g2.n_edges:
        return False
    p1, p2 = _profile(g1), _profile(g2)
    if sorted(p1.sig) != sorted(p2.sig):
        return False
    return _same_class(p1, p2)


def _children(g: Graphlet) -> Iterator[tuple[int, int, list[int]]]:
    """(u, v, codes) for each single-edge child of g, g plus the edge
    (u, v): each non-edge (u, v) in index order, then each new leaf
    (u, n). codes are the child's neighbour-degree codes (``_codes``).

    They are derived from g's: adding (u, v) raises the degrees of u and v
    (the lengths of their neighbour lists) by one, so u gains a neighbour of
    degree deg(v) + 1 and v one of degree deg(u) + 1, and each neighbour of u
    sees digit deg(u) + 1 in place of digit deg(u). No other code changes.
    """
    n, edges = g.n_nodes, g.edges
    nbrs = adjacency_lists(n, edges) + ((),)  # the new leaf n has no neighbour yet
    code = _codes(nbrs[:n])
    present = set(edges)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    pairs += [(u, n) for u in range(n)]
    for u, v in pairs:
        du, dv = len(nbrs[u]), len(nbrs[v])
        c = code + [0] if v == n else code[:]
        c[u] += 1 << 4 * (dv + 1)
        c[v] += 1 << 4 * (du + 1)
        for w in nbrs[u]:
            c[w] += 15 << 4 * du  # 16 ** (du + 1) - 16 ** du
        for w in nbrs[v]:
            c[w] += 15 << 4 * dv
        yield u, v, c


def _child(g: Graphlet, u: int, v: int) -> Graphlet:
    """g plus the edge (u, v), u < v; v == g.n_nodes adds a leaf."""
    return Graphlet(g.n_nodes + (v == g.n_nodes), tuple(sorted(g.edges + ((u, v),))))


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
    seen: set[int] = set()  # relabelled edge keys of the children so far
    seen_finer: set[int] = set()  # the same, ranked by finer codes
    buckets: dict[tuple, list[Graphlet]] = {}  # sorted codes -> kept graphlets
    profiles: dict[Graphlet, _Profile] = {}  # built for a graphlet's first search

    def profile(g: Graphlet) -> _Profile:
        if g not in profiles:
            profiles[g] = _profile(g)
        return profiles[g]

    for parent in enumerate_connected(n_edges - 1):
        for u, v, code in _children(parent):
            edges = parent.edges + ((u, v),)
            key = _relabelled_key(code, edges)
            if key in seen:
                continue
            seen.add(key)
            # A finer ranking ties fewer nodes, so most isomorphic children
            # that the first key kept apart share its key and need no
            # search. It costs more, so only the first key's misses pay it.
            key = _relabelled_key(_finer_codes(code, edges), edges)
            if key in seen_finer:
                continue
            seen_finer.add(key)
            child = _child(parent, u, v)
            bucket = buckets.setdefault(tuple(sorted(code)), [])
            if any(_same_class(profile(child), profile(kept)) for kept in bucket):
                continue
            bucket.append(child)
            reps.append(child)
    return tuple(reps)


class CollisionReport(NamedTuple):
    """Collision statistics of one hash function at one graphlet size."""

    fn: str
    n_edges: int
    n_graphs: int
    n_pairs: int
    n_collisions: int
    colliding_pairs: tuple[tuple[Graphlet, Graphlet], ...]

    @property
    def e_f(self) -> Fraction:
        """The collision rate n_collisions / n_pairs, 0 without pairs."""
        from fractions import Fraction
        return Fraction(self.n_collisions, self.n_pairs or 1)


def audit_code(g: Graphlet, fn: str, n_edges: int) -> tuple | str:
    """Measurement key used for collision counting (see module docs).

    Degree and core group on their sorted integer vectors. Both
    fractional measures group on one printed vector of their
    ``_numerators``, the form a code prints: betweenness as the embed's
    own vector, clustering over ``den * n`` (each coefficient divided by
    the node count) and zero-filled on the left to width t+1.
    """
    if fn in ("degree", "core"):
        return tuple(sorted(measure_values(g, fn)))
    num, den = _numerators(fn, g)
    if fn == "clustering":
        num = [0] * (n_edges + 1 - g.n_nodes) + num
        den *= g.n_nodes
    return ",".join([_ratio(x, den) for x in sorted(num)])


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
    return CollisionReport(resolved, n_edges, n, n_pairs, n_collisions, tuple(pairs))


def format_report(report: CollisionReport) -> str:
    """TSV report plus the colliding pairs as graph transaction blocks;
    both e_f columns are printed from the two ints, not the ``Fraction``."""
    fn, t, n_graphs, n_pairs, n_collisions, pairs = report
    rate = n_collisions / (n_pairs or 1)  # rounded as float(report.e_f) is
    lines = [
        "fn\tt\tn_graphs\tn_pairs\tn_collisions\te_f\te_f_5dp",
        f"{fn}\t{t}\t{n_graphs}\t{n_pairs}\t{n_collisions}\t"
        f"{_ratio(n_collisions, n_pairs or 1)}\t{rate:.5f}",
    ]
    for k, pair in enumerate(pairs):
        lines.append(f"# colliding pair {k}")
        for side, a in zip("ab", pair):
            lines.append(serialize_graph(Graph(f"{fn}-t{t}-pair{k}-{side}", *a)).rstrip("\n"))
    return "\n".join(lines) + "\n"


def write_report(report: CollisionReport, path: str) -> str:
    """Write the formatted report to path and return its text."""
    text = format_report(report)
    _write(path, [text])
    return text
