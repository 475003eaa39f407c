"""Seeded synthetic graphs and graphlets for tests."""

from graphlets.graphs import Graph, Graphlet, ManifestEntry, edge_key

from oracles import check_graphlet

NODE_ALPHABET = ("A", "B", "C")
EDGE_ALPHABET = ("x", "y")


def random_connected_graph(graph_id, n_nodes, extra_edges, rng,
                           labeled=False) -> Graph:
    """Random spanning tree plus extra chords; optionally labelled."""
    edges = set()
    for i in range(1, n_nodes):
        edges.add(edge_key(rng.randrange(i), i))
    candidates = [
        (u, v)
        for u in range(n_nodes)
        for v in range(u + 1, n_nodes)
        if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    ordered = tuple(sorted(edges))
    node_labels = edge_labels = None
    if labeled:
        node_labels = tuple(rng.choice(NODE_ALPHABET) for _ in range(n_nodes))
        edge_labels = tuple(rng.choice(EDGE_ALPHABET) for _ in ordered)
    return Graph(graph_id, n_nodes, ordered, node_labels, edge_labels)


def cycle_noise_graph(graph_id, n_nodes, n_extra, rng) -> Graph:
    edges = {edge_key(i, (i + 1) % n_nodes) for i in range(n_nodes)}
    candidates = [
        (u, v)
        for u in range(n_nodes)
        for v in range(u + 1, n_nodes)
        if (u, v) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:n_extra])
    return Graph(graph_id, n_nodes, tuple(sorted(edges)))


def star_noise_graph(graph_id, n_leaves, n_extra, rng) -> Graph:
    n = n_leaves + 1
    edges = {(0, v) for v in range(1, n)}
    candidates = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    rng.shuffle(candidates)
    edges.update(candidates[:n_extra])
    return Graph(graph_id, n, tuple(sorted(edges)))


def random_graphlet(rng, max_edges=8, labeled=False) -> Graphlet:
    """Random connected graphlet with 1..max_edges edges."""
    target = rng.randint(1, max_edges)
    n = 2
    edges = {(0, 1)}
    while len(edges) < target:
        grow_options = []
        spare = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in edges
        ]
        if spare:
            grow_options.append("chord")
        grow_options.append("leaf")
        if rng.choice(grow_options) == "chord":
            edges.add(spare[rng.randrange(len(spare))])
        else:
            edges.add((rng.randrange(n), n))
            n += 1
    ordered = tuple(sorted(edges))
    node_labels = edge_labels = None
    if labeled:
        node_labels = tuple(rng.choice(NODE_ALPHABET) for _ in range(n))
        edge_labels = tuple(rng.choice(EDGE_ALPHABET) for _ in ordered)
    return check_graphlet(Graphlet(n, ordered, node_labels, edge_labels))


def permute_graphlet(g: Graphlet, rng) -> Graphlet:
    """Relabel nodes by a random permutation (old index -> new index)."""
    perm = list(range(g.n_nodes))
    rng.shuffle(perm)
    new_edges = sorted(edge_key(perm[u], perm[v]) for u, v in g.edges)
    node_labels = None
    if g.node_labels is not None:
        relabeled = [""] * g.n_nodes
        for old, new in enumerate(perm):
            relabeled[new] = g.node_labels[old]
        node_labels = tuple(relabeled)
    edge_labels = None
    if g.edge_labels is not None:
        by_new_key = {
            edge_key(perm[u], perm[v]): lbl
            for (u, v), lbl in zip(g.edges, g.edge_labels)
        }
        edge_labels = tuple(by_new_key[e] for e in new_edges)
    return Graphlet(g.n_nodes, tuple(new_edges), node_labels, edge_labels)


def two_class_dataset(per_class, rng):
    """Cycle-derived vs star-derived graphs with random edge noise."""
    graphs, entries = [], []
    for i in range(per_class):
        n = rng.randint(8, 14)
        graphs.append(cycle_noise_graph(f"cyc{i}", n, rng.randint(0, 2), rng))
        entries.append(ManifestEntry(f"cyc{i}", "cycle", "unsplit"))
    for i in range(per_class):
        n = rng.randint(8, 14)
        graphs.append(star_noise_graph(f"star{i}", n, rng.randint(0, 2), rng))
        entries.append(ManifestEntry(f"star{i}", "star", "unsplit"))
    return graphs, entries
