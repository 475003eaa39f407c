"""Command-line interface.

Subcommands wire graph transaction files through sampling, embedding,
kernel export, k-NN evaluation, collision auditing, and rank-agreement
scoring. All randomness flows from --seed through documented per-run
stream derivation, and --threads never changes output bytes, only wall
time. Exit codes: 0 success, 1 usage error, 2 data error, 141 stdout
closed before all output was written.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .audit import collision_report, write_report
from .embedding import (
    build_vocabulary,
    embed_graph_stats,
    finalize_embeddings,
    read_embeddings,
    write_embeddings,
    write_vocabulary,
)
from .graphs import (
    GraphFormatError,
    _records,
    load_graphs,
    load_manifest,
    resolve_manifest,
)
from .hashing import HASH_FUNCTIONS
from .kernels import (
    KernelSpec,
    kernel_matrix,
    knn_retrieval_scores,
    loo_knn_accuracy,
    ranking_pair,
    rho_score,
    write_precomputed_kernel,
)
from .sampling import SamplerParams, connected_graph_count, sample_size

# Walks per graph in one batch: far above the largest published budget
# (1,289,987), and low enough that one graph's walks end within hours.
MAX_RUNS = 10**8

_KIND_BY_FLAG = {
    "dot": "dot",
    "rbf": "rbf",
    "hist-int": "hist_intersection",
    "cosine": "cosine",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def worker_count(threads: int, n_jobs: int) -> int:
    """Worker processes to start: --threads, capped by jobs and CPUs."""
    return max(1, min(threads, n_jobs, os.cpu_count() or 1))


def _pmap(fn, jobs, threads: int):
    workers = worker_count(threads, len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # one-worker runs skip this import

    chunk = max(1, len(jobs) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunk))


def _embed_worker(job):
    graph, batches, alpha, seed, fn = job
    counts: dict[str, int] = {}
    dead = 0
    for runs, max_edges, min_edges, offset in batches:
        params = SamplerParams(runs=runs, max_edges=max_edges, alpha=alpha, seed=seed)
        got, d = embed_graph_stats(graph, params, fn, min_edges, offset)
        for key, c in got.items():
            counts[key] = counts.get(key, 0) + c
        dead += d
    return graph.id, counts, dead


def _resolve_budgets(args) -> list[tuple[int, int, int, int]]:
    """(runs, max_edges, min_edges, run_offset) batches per graph."""
    explicit = args.M is not None
    derived = args.epsilon is not None or args.delta is not None
    if explicit == derived:
        raise UsageError(
            "embed: supply exactly one of --M or (--epsilon and --delta)"
        )
    if derived and (args.epsilon is None or args.delta is None):
        raise UsageError("embed: --epsilon and --delta must be given together")
    if explicit and args.a_override is not None:
        raise UsageError("embed: --a-override only applies with --epsilon/--delta")

    def support(t: int) -> int:
        if args.a_override is not None:
            return args.a_override
        try:
            return connected_graph_count(t)
        except ValueError:
            raise UsageError(
                f"embed: no built-in class count for t={t}; supply --a-override"
            ) from None

    if explicit:
        if args.per_size_m:
            raise UsageError("embed: --per-size-m requires --epsilon/--delta")
        batches = [(args.M, args.T, args.t_min, 0)]
    elif not args.per_size_m:
        runs = sample_size(support(args.T), args.epsilon, args.delta)
        batches = [(runs, args.T, args.t_min, 0)]
    else:
        if args.a_override is not None:
            raise UsageError("embed: --a-override is incompatible with --per-size-m")
        batches = []
        offset = 0
        for t in range(args.t_min, args.T + 1):
            runs = sample_size(support(t), args.epsilon, args.delta)
            batches.append((runs, t, t, offset))
            offset += runs
    for runs, *_ in batches:
        if runs > MAX_RUNS:
            raise ValueError(f"embed: the walk budget exceeds {MAX_RUNS} walks per graph")
    return batches


def cmd_sample_size(args) -> int:
    print(sample_size(args.a, args.epsilon, args.delta))
    return 0


def cmd_embed(args) -> int:
    if args.t_min < 1 or args.t_min > args.T:
        raise UsageError("embed: --t-min must be in 1..T")
    batches = _resolve_budgets(args)

    graphs = load_graphs(args.graphs)
    manifest = load_manifest(args.manifest)
    by_id = resolve_manifest(manifest, graphs)

    selected = []
    for entry in manifest:
        g = by_id[entry.graph_id]
        if args.labeled:
            if g.node_labels is None and g.edge_labels is None:
                raise GraphFormatError(
                    f"--labeled given but graph {g.id!r} carries no labels"
                )
        else:
            g = g.without_labels()
        if g.n_edges == 0:
            raise GraphFormatError(f"graph {g.id!r} has no edges")
        selected.append(g)

    jobs = [(g, batches, args.alpha, args.seed, args.hash) for g in selected]
    results = _pmap(_embed_worker, jobs, args.threads)

    train_ids = {e.graph_id for e in manifest if e.split == "train"}
    if args.vocab_scope == "all" or not train_ids:
        vocab_maps = [counts for _, counts, _ in results]
    else:
        vocab_maps = [counts for gid, counts, _ in results if gid in train_ids]
    vocab = build_vocabulary(vocab_maps)

    runs_total = sum(b[0] for b in batches)
    embeddings = finalize_embeddings(
        [(gid, counts) for gid, counts, _ in results], vocab
    )

    os.makedirs(args.out, exist_ok=True)
    vocab_path = os.path.join(args.out, "vocabulary.txt")
    emb_path = os.path.join(args.out, "embeddings.tsv")
    write_vocabulary(vocab, vocab_path)
    write_embeddings(embeddings, emb_path, normalize=args.normalize)

    print(
        f"embedded {len(embeddings)} graphs: bins={len(vocab)} "
        f"runs={runs_total} batches={len(batches)} hash={args.hash}"
    )
    for emb, (_, _, dead) in zip(embeddings, results):
        print(
            f"graph {emb.graph_id}: counts={emb.total} dead_end_runs={dead} "
            f"oov={emb.oov_count}"
        )
    print(f"wrote {vocab_path} and {emb_path}")
    return 0


def _load_labels(manifest_path: str | None, ids: list[str]) -> list[str]:
    if manifest_path is None:
        return ["0"] * len(ids)
    entries = load_manifest(manifest_path)
    by_id = {e.graph_id: e.class_label for e in entries}
    missing = [gid for gid in ids if gid not in by_id]
    if missing:
        raise GraphFormatError(f"embeddings not covered by manifest: {missing}")
    return [by_id[gid] for gid in ids]


def _kernel_spec(args) -> KernelSpec:
    try:
        return KernelSpec(_KIND_BY_FLAG[args.kind], args.gamma)
    except ValueError as exc:
        raise UsageError(f"{args.command}: {exc}") from None


def cmd_kernel(args) -> int:
    spec = _kernel_spec(args)
    ids, rows = read_embeddings(args.embeddings)
    labels = _load_labels(args.manifest, ids)
    K = kernel_matrix(rows, spec)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "kernel.txt")
    write_precomputed_kernel(K, labels, path)
    print(f"kernel {args.kind}: {len(ids)}x{len(ids)} matrix -> {path}")
    return 0


def cmd_knn(args) -> int:
    spec = _kernel_spec(args)
    ids, rows = read_embeddings(args.embeddings)
    labels = _load_labels(args.manifest, ids)
    K = kernel_matrix(rows, spec)
    hits = knn_retrieval_scores(K, labels, args.k)
    accuracy = loo_knn_accuracy(K, labels, args.k)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "retrieval.tsv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rank\thit_count\n")
        for rank, count in enumerate(hits, start=1):
            fh.write(f"{rank}\t{count}\n")
    print(f"retrieval hits per rank: {hits}")
    print(f"loo {args.k}-nn accuracy: {accuracy:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_audit(args) -> int:
    report = collision_report(args.hash, args.t, keep_pairs=not args.no_pairs)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"audit-{report.fn}-t{args.t}.tsv")
    header, row = write_report(report, path).split("\n", 2)[:2]
    print(header)
    print(row)
    print(f"wrote {path}")
    return 0


def _read_rankings(path: str) -> list[tuple[str, list[str]]]:
    out: list[tuple[str, list[str]]] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for line_no, raw in _records(text):
        parts = raw.split("\t")
        if len(parts) != 2 or not parts[1]:
            raise GraphFormatError("expected: <query_id><TAB><item1,item2,...>", line_no)
        qid, items = parts[0], parts[1].split(",")
        if qid in seen:
            raise GraphFormatError(f"duplicate query id {qid!r}", line_no)
        seen.add(qid)
        out.append((qid, items))
    return out


def cmd_rho(args) -> int:
    system = _read_rankings(args.system_ranks)
    truth = dict(_read_rankings(args.truth_ranks))
    missing = [qid for qid, _ in system if qid not in truth]
    if missing:
        raise GraphFormatError(f"queries missing from truth ranks: {missing}")
    scores = []
    lines = []
    for qid, ranking in system:
        score = rho_score(ranking_pair(ranking, truth[qid]))
        scores.append(score)
        lines.append(f"{qid}\t{score:.6f}")
    if not scores:
        raise GraphFormatError("no queries in system ranks file")
    mean = sum(scores) / len(scores)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "rho.tsv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("query\trho\n")
        for line in lines:
            fh.write(line + "\n")
        fh.write(f"mean\t{mean:.6f}\n")
    print(f"mean rho over {len(scores)} queries: {mean:.6f}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphlets",
                     description="Graphlet sampling, hashing, and embedding toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master random seed")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker bound (>= 1, capped by CPUs and graphs); "
                             "never affects output bytes")
    common.add_argument("--out", default=".", help="output directory")

    p = subs.add_parser("sample-size", parents=[common],
                        help="walk budget from an accuracy target")
    p.add_argument("--a", type=int, required=True, help="class count of the target size")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_sample_size)

    p = subs.add_parser("embed", parents=[common],
                        help="sample graphs and write histogram embeddings")
    p.add_argument("--graphs", required=True, help="graph transaction file")
    p.add_argument("--manifest", required=True, help="graph_id/class/split TSV")
    p.add_argument("--T", type=int, required=True, dest="T",
                   help="edge budget per walk")
    p.add_argument("--t-min", type=int, default=1, dest="t_min",
                   help="smallest graphlet size to count")
    p.add_argument("--M", type=int, default=None, dest="M",
                   help="walks per graph (alternative to --epsilon/--delta)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--a-override", type=int, default=None,
                   help="class count used in place of the built-in table")
    p.add_argument("--per-size-m", action="store_true",
                   help="derive a separate walk budget per graphlet size")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="probability of continuing from the walk frontier")
    p.add_argument("--hash", default="auto",
                   choices=("auto",) + HASH_FUNCTIONS)
    p.add_argument("--labeled", action="store_true",
                   help="fold node/edge labels into the codes")
    p.add_argument("--normalize", action="store_true",
                   help="write L1-normalized rows instead of raw counts")
    p.add_argument("--vocab-scope", choices=("train", "all"), default="train",
                   help="build bins from train split only (default) or all graphs")
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("kernel", parents=[common],
                        help="export a precomputed kernel matrix")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--manifest", default=None,
                   help="needed for class labels in the export")
    p.add_argument("--kind", choices=sorted(_KIND_BY_FLAG), default="dot")
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(func=cmd_kernel)

    p = subs.add_parser("knn", parents=[common],
                        help="k-NN retrieval scores over a dataset")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=sorted(_KIND_BY_FLAG), default="hist-int")
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(func=cmd_knn)

    p = subs.add_parser("audit", parents=[common],
                        help="collision report for one hash function and size")
    p.add_argument("--hash", required=True, choices=("auto",) + HASH_FUNCTIONS)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--no-pairs", action="store_true",
                   help="omit colliding-pair graph blocks from the report")
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("rho", parents=[common],
                        help="mutual rank-agreement score between rankings")
    p.add_argument("--system-ranks", required=True)
    p.add_argument("--truth-ranks", required=True)
    p.set_defaults(func=cmd_rho)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        rc = args.func(args)
        sys.stdout.flush()  # a closed stdout surfaces here, not at exit
        return rc
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (e.g. `| head`); files are already written.
        # Point stdout at devnull so the interpreter's final flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a killed writer would report
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
