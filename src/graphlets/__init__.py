"""Graph embeddings from randomly sampled graphlets.

Connected subgraphs of growing edge count are drawn by seeded random
walks, partitioned into isomorphism classes through low-collision
topological hash codes, and counted into histogram embeddings that feed
kernels, k-NN retrieval, and an audit harness checking the hash
functions' collision rates against exhaustive enumeration.

The names in ``__all__`` resolve lazily: reading one imports the module
that defines it, so importing the package (as every CLI call does)
loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "audit": ("CollisionReport", "collision_report", "enumerate_connected",
              "format_report", "is_isomorphic", "write_report"),
    "embedding": ("Embedding", "build_vocabulary", "embed_graph_stats",
                  "finalize_embeddings", "read_embeddings", "write_embeddings",
                  "write_vocabulary"),
    "graphs": ("Graph", "GraphFormatError", "Graphlet", "ManifestEntry", "load_graphs",
               "load_manifest", "parse_graph_file", "parse_manifest", "resolve_manifest",
               "save_graphs", "save_manifest", "serialize_graph", "serialize_graphs"),
    "hashing": ("HASH_FUNCTIONS", "hash_code", "resolve_hash_function"),
    "kernels": ("KERNEL_KINDS", "KernelSpec", "RankingPair", "kernel_matrix",
                "knn_retrieval_scores", "loo_knn_accuracy", "ranking_pair", "rho_score",
                "write_precomputed_kernel"),
    "sampling": ("CONNECTED_GRAPH_COUNTS", "RunTrace", "SamplerParams",
                 "connected_graph_count", "sample_all", "sample_run", "sample_size"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
