"""Graph embeddings from randomly sampled graphlets.

Connected subgraphs of growing edge count are drawn by seeded random
walks, partitioned into isomorphism classes through low-collision
topological hash codes, and counted into histogram embeddings that feed
kernels, k-NN retrieval, and an audit harness checking the hash
functions' collision rates against exhaustive enumeration.
"""

__version__ = "0.1.0"

from .audit import (
    CollisionReport,
    collision_report,
    enumerate_connected,
    format_report,
    is_isomorphic,
    write_report,
)
from .embedding import (
    Embedding,
    build_vocabulary,
    embed_graph_stats,
    finalize_embeddings,
    read_embeddings,
    write_embeddings,
    write_vocabulary,
)
from .graphs import (
    Graph,
    GraphFormatError,
    Graphlet,
    ManifestEntry,
    load_graphs,
    load_manifest,
    parse_graph_file,
    parse_manifest,
    resolve_manifest,
    save_graphs,
    save_manifest,
    serialize_graph,
    serialize_graphs,
)
from .hashing import (
    HASH_FUNCTIONS,
    hash_code,
    resolve_hash_function,
)
from .kernels import (
    KERNEL_KINDS,
    KernelSpec,
    RankingPair,
    kernel_matrix,
    knn_retrieval_scores,
    loo_knn_accuracy,
    ranking_pair,
    rho_score,
    write_precomputed_kernel,
)
from .sampling import (
    CONNECTED_GRAPH_COUNTS,
    RunTrace,
    SamplerParams,
    connected_graph_count,
    sample_all,
    sample_run,
    sample_size,
)

__all__ = [
    "CONNECTED_GRAPH_COUNTS",
    "CollisionReport",
    "Embedding",
    "Graph",
    "GraphFormatError",
    "Graphlet",
    "HASH_FUNCTIONS",
    "KERNEL_KINDS",
    "KernelSpec",
    "ManifestEntry",
    "RankingPair",
    "RunTrace",
    "SamplerParams",
    "build_vocabulary",
    "collision_report",
    "connected_graph_count",
    "embed_graph_stats",
    "enumerate_connected",
    "finalize_embeddings",
    "format_report",
    "hash_code",
    "is_isomorphic",
    "kernel_matrix",
    "knn_retrieval_scores",
    "load_graphs",
    "load_manifest",
    "loo_knn_accuracy",
    "parse_graph_file",
    "parse_manifest",
    "ranking_pair",
    "read_embeddings",
    "resolve_hash_function",
    "resolve_manifest",
    "rho_score",
    "sample_all",
    "sample_run",
    "sample_size",
    "save_graphs",
    "save_manifest",
    "serialize_graph",
    "serialize_graphs",
    "write_embeddings",
    "write_precomputed_kernel",
    "write_report",
    "write_vocabulary",
]
