import random

import numpy as np
import pytest

from graphlets import (
    KernelSpec,
    RankingPair,
    kernel_matrix,
    knn_retrieval_scores,
    loo_knn_accuracy,
    ranking_pair,
    rho_score,
    write_precomputed_kernel,
)

from oracles import kernel_value, reference_knn

DOT = KernelSpec("dot")
HIST = KernelSpec("hist_intersection")
COS = KernelSpec("cosine")


def _random_counts(rng, dim, hi=20):
    return [rng.randint(0, hi) for _ in range(dim)]


def _pair(x, y, spec):
    """The package's kernel of one pair, read off a 2x2 matrix."""
    return kernel_matrix([x, y], spec)[0, 1]


def test_kernel_value_examples():
    rbf = KernelSpec("rbf", gamma=0.7)
    for pair in (kernel_value, _pair):
        assert pair([2, 3], [2, 3], HIST) == 5
        assert pair([1, 2], [3, 4], DOT) == 11
        assert pair([4, 5, 6], [4, 5, 6], rbf) == 1.0


def test_kernel_spec_validation():
    valid = KernelSpec("rbf", gamma=0.5)
    nan, inf = float("nan"), float("inf")  # all-NaN or NaN-diagonal matrices
    for kind, gamma, match in [("poly", None, None), ("rbf", None, None), ("rbf", -1.0, None),
                               ("dot", 0.5, None), ("rbf", nan, "finite"),
                               ("rbf", inf, "finite")]:
        # a call, _make, and _replace on a valid spec all run the checks
        for build in (lambda: KernelSpec(kind, gamma=gamma),
                      lambda: KernelSpec._make((kind, gamma)),
                      lambda: valid._replace(kind=kind, gamma=gamma)):
            with pytest.raises(ValueError, match=match):
                build()


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        kernel_matrix([[1, 2], [1, 2, 3]], DOT)
    with pytest.raises(ValueError, match="common vector length"):
        kernel_matrix([1, 2], DOT)  # one vector, not a list of them


def test_symmetry_and_bounds_random_pairs():
    rng = random.Random(51)
    rbf = KernelSpec("rbf", gamma=0.05)
    for _ in range(300):
        x = _random_counts(rng, 6)
        y = _random_counts(rng, 6)
        for spec in (DOT, HIST, COS, rbf):
            assert _pair(x, y, spec) == _pair(y, x, spec)
        assert _pair(x, y, HIST) <= min(sum(x), sum(y))
        assert 0.0 <= _pair(x, y, COS) <= 1.0
        assert 0.0 < _pair(x, y, rbf) <= 1.0


def test_hist_intersection_dominance_equality():
    x = [1, 2, 3]
    y = [2, 2, 5]  # dominates x coordinatewise
    assert _pair(x, y, HIST) == sum(x)
    z = [0, 5, 1]
    assert _pair(x, z, HIST) < min(sum(x), sum(z))


def test_cosine_zero_vector_convention():
    assert _pair([0, 0], [1, 2], COS) == 0.0
    assert kernel_matrix([[0, 0]], COS)[0, 0] == 0.0


def test_kernel_matrix_symmetric_unit_diagonal_rbf():
    rng = random.Random(52)
    X = [_random_counts(rng, 5) for _ in range(20)]
    K = kernel_matrix(X, KernelSpec("rbf", gamma=0.01))
    assert np.array_equal(K, K.T)
    assert np.allclose(np.diag(K), 1.0)
    single = kernel_matrix([[1, 2]], DOT)
    assert single.shape == (1, 1) and single[0, 0] == 5.0


def test_matrix_entries_match_kernel_value():
    rng = random.Random(53)
    X = [_random_counts(rng, 4) for _ in range(10)]
    for spec in (DOT, HIST, COS):
        K = kernel_matrix(X, spec)
        for i in range(10):
            for j in range(10):
                assert K[i, j] == kernel_value(X[i], X[j], spec)


def test_dot_gram_matrix_is_psd():
    rng = random.Random(54)
    X = [_random_counts(rng, 12) for _ in range(30)]
    eigs = np.linalg.eigvalsh(kernel_matrix(X, DOT))
    assert eigs.min() >= -1e-8


def test_loo_knn_examples():
    K = kernel_matrix([[5, 0], [0, 5], [0, 6]], HIST)
    # k=1: the two b items retrieve each other; a's neighbors tie at 0
    # and the first one (b) wins the slot
    assert loo_knn_accuracy(K, ["a", "b", "b"], 1) == 2 / 3
    # k = n - 1 with a single class is always right
    assert loo_knn_accuracy(K, ["z", "z", "z"], 2) == 1.0
    # 3-vs-0 neighborhood majority outvotes the lone a
    K4 = kernel_matrix([[5, 0], [0, 5], [0, 6], [0, 4]], HIST)
    assert loo_knn_accuracy(K4, ["a", "b", "b", "b"], 3) == 3 / 4


def test_retrieval_validation():
    K = kernel_matrix([[1], [2]], DOT)
    for rank in (knn_retrieval_scores, loo_knn_accuracy):
        with pytest.raises(ValueError, match="k must be"):
            rank(K, ["a", "b"], 2)
        with pytest.raises(ValueError, match="k must be"):
            rank(K, ["a", "b"], 0)
        with pytest.raises(ValueError, match="k must be"):
            rank(kernel_matrix([[1]], DOT), ["a"], 1)
        with pytest.raises(ValueError, match="align"):
            rank(K, ["a"], 1)
        with pytest.raises(ValueError, match="square"):
            rank(K[:1], ["a"], 1)


def test_knn_classify_validation():
    # the leave-one-out classifier needs a neighbor besides the query
    with pytest.raises(ValueError, match="k must be"):
        loo_knn_accuracy(np.zeros((0, 0)), [], 1)
    with pytest.raises(ValueError, match="k must be"):
        loo_knn_accuracy(kernel_matrix([[1], [2]], DOT), ["a", "b"], 2)


def test_knn_tie_breaks_are_deterministic():
    K = kernel_matrix([[1, 0]] * 3, HIST)  # every pair ties
    # equal similarity: the earlier item wins the neighbor slot
    assert knn_retrieval_scores(K, ["a", "a", "b"], 1) == [2]
    assert loo_knn_accuracy(K, ["a", "a", "b"], 1) == 2 / 3
    # label tie at k=2 resolves to the lexicographically smaller label
    assert loo_knn_accuracy(K, ["a", "b", "a"], 2) == 2 / 3


def test_knn_argmax_invariant_under_uniform_scaling():
    rng = random.Random(55)
    for _ in range(10):
        X = [_random_counts(rng, 5, hi=9) for _ in range(12)]
        labels = [rng.choice("xy") for _ in range(12)]
        K = kernel_matrix(X, DOT)
        K3 = kernel_matrix([[3 * v for v in row] for row in X], DOT)
        assert loo_knn_accuracy(K, labels, 3) == loo_knn_accuracy(K3, labels, 3)
        assert knn_retrieval_scores(K, labels, 3) == knn_retrieval_scores(K3, labels, 3)


def test_knn_ranking_equals_reference_sort_on_tie_heavy_data():
    rng = random.Random(56)
    specs = (DOT, HIST, COS, KernelSpec("rbf", gamma=0.5))
    for _ in range(150):
        n = rng.randint(2, 40)  # past 16 items, an unstable argsort reorders ties
        dim = rng.randint(1, 3)
        X = [_random_counts(rng, dim, hi=2) for _ in range(n)]  # many duplicates
        labels = [rng.choice("abc") for _ in range(n)]
        k = rng.randint(1, n - 1)
        for spec in specs:
            K = kernel_matrix(X, spec)
            hits, accuracy = reference_knn(K, labels, k)
            assert knn_retrieval_scores(K, labels, k) == hits, (X, labels, k, spec)
            assert loo_knn_accuracy(K, labels, k) == accuracy, (X, labels, k, spec)


def test_retrieval_perfect_separation():
    vectors = [[9, 0]] * 4 + [[0, 9]] * 4
    labels = ["a"] * 4 + ["b"] * 4
    hits = knn_retrieval_scores(kernel_matrix(vectors, HIST), labels, 3)
    assert hits == [8, 8, 8]


def test_retrieval_single_class_k1():
    K = kernel_matrix([[1, 2], [2, 1], [3, 3]], DOT)
    assert knn_retrieval_scores(K, ["c", "c", "c"], 1) == [3]


def test_loo_accuracy_perfect_dataset():
    vectors = [[9, 0]] * 4 + [[0, 9]] * 4
    labels = ["a"] * 4 + ["b"] * 4
    assert loo_knn_accuracy(kernel_matrix(vectors, HIST), labels, 3) == 1.0


def test_rho_examples():
    assert rho_score(RankingPair(1, 1)) == 1.0
    assert rho_score(RankingPair(2, 1)) == 0.75
    assert rho_score(RankingPair(4, 4)) == 0.25
    valid = RankingPair(1, 1)
    for build in (lambda: RankingPair(0, 1), lambda: RankingPair._make((0, 1)),
                  lambda: valid._replace(truth_rank_of_system_top=0)):
        with pytest.raises(ValueError):
            build()


def test_ranking_pair_from_rankings():
    pair = ranking_pair(["m2", "m1"], ["m1", "m2"])
    assert pair == RankingPair(2, 2)
    assert rho_score(pair) == 0.5
    with pytest.raises(ValueError, match="system's top item 'm3' missing"):
        ranking_pair(["m3"], ["m1", "m2"])
    with pytest.raises(ValueError, match="truth's top item 'm3' missing"):
        ranking_pair(["m1", "m2"], ["m3", "m1"])
    for system, truth in (([], ["m1"]), (["m1"], [])):
        with pytest.raises(ValueError, match="nonempty"):
            ranking_pair(system, truth)


def test_precomputed_kernel_file_format(tmp_path):
    X = [[1, 2], [3, 4], [0, 1]]
    K = kernel_matrix(X, DOT)
    path = tmp_path / "kernel.txt"
    write_precomputed_kernel(K, ["pos", "neg", "pos"], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    first = lines[0].split(" ")
    assert first[0] == "pos"
    assert first[1] == "0:1"
    assert len(first) == 2 + 3
    assert first[2] == f"1:{K[0, 0]:.17g}"
    # embedded values stay symmetric across rows
    k_01 = lines[0].split(" ")[3].split(":")[1]
    k_10 = lines[1].split(" ")[2].split(":")[1]
    assert k_01 == k_10
    # the export and the neighbour ranking share one matrix check
    for use in (lambda K, labels: write_precomputed_kernel(K, labels, str(path)),
                lambda K, labels: knn_retrieval_scores(K, labels, 1)):
        with pytest.raises(ValueError, match="^labels do not align with the kernel matrix$"):
            use(K, ["a", "b"])
        for matrix, labels in ((K[:2], ["a", "b"]), (1.0, [])):  # 1.0: a 0-d matrix
            with pytest.raises(ValueError, match="^kernel matrix must be square$"):
                use(matrix, labels)


def test_precomputed_kernel_rejects_empty_or_spaced_labels(tmp_path):
    K = kernel_matrix([[1, 2], [3, 4]], DOT)
    path = tmp_path / "kernel.txt"
    for labels in (["class one", "b"], ["a", ""], [" a", "b"], ["a", "b\t"], ["a", "b\n"]):
        with pytest.raises(ValueError, match="class labels"):
            write_precomputed_kernel(K, labels, str(path))
        assert not path.exists()


def test_precomputed_kernel_rows_equal_per_cell_formatting(tmp_path):
    # the row template must print every cell as f"{value:.17g}" would
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 1 / 3, -7.5, 1e-300, 5e20, np.inf, -np.inf, np.nan]
    K = np.concatenate([rng.integers(0, 9, 40), rng.random(40) * 1e3, special])
    K = np.resize(K, (10, 10))
    labels = [f"c{i % 3}" for i in range(10)]
    path = tmp_path / "kernel.txt"
    write_precomputed_kernel(K, labels, str(path))
    expected = "".join(
        " ".join([labels[i], f"0:{i + 1}"] + [f"{j + 1}:{K[i, j]:.17g}" for j in range(10)])
        + "\n"
        for i in range(10)
    )
    assert path.read_text() == expected
