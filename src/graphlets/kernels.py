"""Similarity kernels over histogram embeddings, k-NN evaluation, and
the mutual rank-agreement score.

numpy is imported inside the functions that use it, so importing the
package (and running the commands that need no kernel) does not load it.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from typing import Sequence

from .graphs import _Checked, _echo, _is_token, _write

KERNEL_KINDS = ("dot", "rbf", "hist_intersection", "cosine")


class KernelSpec(_Checked, namedtuple("KernelSpec", "kind gamma", defaults=(None,))):
    __slots__ = ()

    def _check(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not 0 < self.gamma < math.inf:  # nan fails too
                raise ValueError("rbf kernel requires a finite gamma > 0")
        elif self.gamma is not None:
            raise ValueError(f"gamma is only valid for rbf, not {self.kind!r}")


def _rows(x: np.ndarray, block: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel of one vector against each row of a block."""
    import numpy as np
    if spec.kind == "dot":
        return block @ x
    if spec.kind == "hist_intersection":
        return np.minimum(block, x).sum(axis=1)
    if spec.kind == "rbf":
        d = block - x
        return np.exp(-spec.gamma * (d * d).sum(axis=1))
    # cosine, zero-norm vectors compare as 0 by convention
    xn = float(np.sqrt(x @ x))
    bn = np.sqrt((block * block).sum(axis=1))
    dots = block @ x
    out = np.zeros(len(block))
    ok = (bn > 0) & (xn > 0)
    out[ok] = dots[ok] / (bn[ok] * xn)
    return out


def kernel_matrix(vectors, spec: KernelSpec) -> np.ndarray:
    """Dense symmetric kernel matrix; K[i][j] == K[j][i] exactly. Raises
    ValueError unless every entry is finite (huge cells can overflow)."""
    if len(vectors) == 0:
        raise ValueError("no embeddings given")
    import numpy as np
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2:
        raise ValueError("embeddings must share a common vector length")
    n = X.shape[0]
    K = np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for i in range(n):
            row = _rows(X[i], X[i:], spec)
            K[i, i:] = row
            K[i:, i] = row
    if not np.isfinite(K).all():
        raise ValueError("the kernel matrix has entries that are not finite numbers")
    return K


def _square(matrix, labels: Sequence[str]) -> np.ndarray:
    """matrix as a float array; ValueError unless it is square with one label per row."""
    import numpy as np
    K = np.asarray(matrix, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:  # a 0-d matrix has no shape[0]
        raise ValueError("kernel matrix must be square")
    if len(labels) != len(K):
        raise ValueError("labels do not align with the kernel matrix")
    return K


def _top_k(K, labels: Sequence[str], k: int) -> np.ndarray:
    """Row i: the k items most similar to item i, most similar first,
    item i itself excluded; similarity ties keep input order."""
    import numpy as np
    K = _square(K, labels)
    n = len(K)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    order = np.argsort(-K, axis=1, kind="stable")
    return order[order != np.arange(n)[:, None]].reshape(n, n - 1)[:, :k]


def knn_retrieval_scores(K, labels: Sequence[str], k: int) -> list[int]:
    """Per-rank hit counts over a dataset's kernel matrix.

    Position j counts, over all queries, how often the (j+1)-th nearest
    neighbor (query excluded) shares the query's class.
    """
    import numpy as np
    top = _top_k(K, labels, k)
    y = np.asarray(labels)
    return (y[top] == y[:, None]).sum(axis=0).tolist()


def loo_knn_accuracy(K, labels: Sequence[str], k: int) -> float:
    """Leave-one-out k-NN classification accuracy over a kernel matrix.

    Each item takes the majority label of its k most similar other
    items; label ties go to the lexicographically smallest label.
    """
    top = _top_k(K, labels, k)
    correct = 0
    for i, row in enumerate(top):
        tally = Counter(labels[j] for j in row)
        best = max(tally.values())
        if min(lbl for lbl, c in tally.items() if c == best) == labels[i]:
            correct += 1
    return correct / len(top)


class RankingPair(_Checked, namedtuple(
        "RankingPair", "truth_rank_of_system_top system_rank_of_truth_top")):
    """Mutual top-rank positions between a system and the ground truth.

    truth_rank_of_system_top: rank (1-based) the ground truth gives to
        the system's top-ranked category.
    system_rank_of_truth_top: rank the system gives to the ground
        truth's top category.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.truth_rank_of_system_top < 1 or self.system_rank_of_truth_top < 1:
            raise ValueError("ranks are 1-based and must be >= 1")


def rho_score(pair: RankingPair) -> float:
    """Mutual rank agreement: (1/r1 + 1/r2) / 2, in (0, 1]."""
    r1, r2 = pair
    return 0.5 * (1.0 / r1 + 1.0 / r2)


def ranking_pair(
    system_ranking: Sequence[str], truth_ranking: Sequence[str]
) -> RankingPair:
    """Build a RankingPair from two best-first category rankings."""
    if not system_ranking or not truth_ranking:
        raise ValueError("rankings must be nonempty")
    try:
        r_in_truth = truth_ranking.index(system_ranking[0]) + 1
    except ValueError:
        raise ValueError(
            f"system's top item {_echo(system_ranking[0])} missing from truth ranking"
        ) from None
    try:
        r_in_system = system_ranking.index(truth_ranking[0]) + 1
    except ValueError:
        raise ValueError(
            f"truth's top item {_echo(truth_ranking[0])} missing from system ranking"
        ) from None
    return RankingPair(r_in_truth, r_in_system)


def write_precomputed_kernel(
    matrix, labels: Sequence[str], path: str
) -> None:
    """Export for external SVM trainers in precomputed-kernel form.

    Row i: ``<class_label> 0:<i+1> 1:<K(i,0)> ... n:<K(i,n-1)>`` with
    values printed to 17 significant digits. A class label must be one
    non-empty token without whitespace, as the format is space-separated.
    """
    K = _square(matrix, labels)
    n = len(K)
    bad = [lbl for lbl in labels if not _is_token(lbl)]  # empty or has whitespace
    if bad:
        raise ValueError(f"class labels must be non-empty and whitespace-free: {_echo(bad[0])}")
    row = " ".join(f"{j + 1}:%.17g" for j in range(n))  # one format call per row
    _write(path, (f"{labels[i]} 0:{i + 1} " + row % tuple(values) + "\n"
                  for i, values in enumerate(K.tolist())))
