"""Command-line interface.

Subcommands wire graph transaction files through sampling, embedding,
kernel export, k-NN evaluation, collision auditing, and rank-agreement
scoring. All randomness flows from --seed through documented per-run
stream derivation, and --threads never changes output bytes, only wall
time. Exit codes: 0 success, 1 usage error, 2 data error, 141 stdout
closed before all output was written.

A start imports only ``graphs`` and ``hashing`` of this package; each
command imports the modules it runs, so ``--version`` and ``audit``
load neither the sampler, the embeddings nor numpy. The names a module
exports (the package's ``_EXPORTS``) are bound into this module's
namespace on first use (see ``_bind``), where a wrapper set from outside
beforehand stays in place. Every output file is written whole or not at
all (``graphs._write``); a failed ``embed`` leaves an earlier pair of its files whole.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from importlib import import_module
from itertools import accumulate, chain

from . import _EXPORTS, _MODULE_OF, __version__
from .graphs import (GraphFormatError, _echo, _fields, _read, _records, _staged, _write,
                     load_graphs, load_manifest, resolve_manifest)
from .hashing import HASH_FUNCTIONS


def _bind(*modules: str) -> None:
    """Import each module and bind the names it exports here, where the
    ``cmd_*`` functions find them. A name already bound stays: a caller
    may have replaced it with a wrapper."""
    for module in modules:
        found = import_module(f".{module}", __package__)
        for name in _EXPORTS[module]:
            globals().setdefault(name, getattr(found, name))


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


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
        if len(message) > 200:  # argparse quotes a command-line value whole
            message = f"{message[:200]}... ({len(message)} characters)"
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
    _bind("embedding")  # a worker that starts from a fresh import has bound nothing
    graph, batches, fn = job
    counts: dict[str, int] = {}
    dead = 0
    for params, min_edges, offset in batches:
        got, d = embed_graph_stats(graph, params, fn, min_edges, offset)
        for key, c in got.items():
            counts[key] = counts.get(key, 0) + c
        dead += d
    return graph.id, counts, dead


def _sample_size(args, support: int) -> int:
    from .sampling import check_accuracy
    try:  # a target out of range is a usage error, found before any input is read
        check_accuracy(args.epsilon, args.delta)
    except ValueError as exc:
        raise UsageError(f"{args.command}: {exc}") from None
    return sample_size(support, args.epsilon, args.delta)


def _support(args, t: int) -> int:
    if args.a_override is not None:
        return args.a_override
    try:
        return connected_graph_count(t)
    except ValueError:
        raise UsageError(
            f"embed: no built-in class count for t={t}; supply --a-override"
        ) from None


def _batches(args) -> list[tuple[SamplerParams, int, int]]:
    """(SamplerParams, min_edges, run_offset) batches each graph's walks run in."""
    _bind("sampling")
    if args.t_min < 1 or args.t_min > args.T:
        raise UsageError("embed: --t-min must be in 1..T")
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
    if explicit and args.per_size_m:
        raise UsageError("embed: --per-size-m requires --epsilon/--delta")
    if args.per_size_m and args.a_override is not None:
        raise UsageError("embed: --a-override is incompatible with --per-size-m")
    # each batch's max_edges; a range, so that a huge --T stops at the
    # first size without a class count and builds nothing before it
    sizes = range(args.t_min, args.T + 1) if args.per_size_m else [args.T]
    budgets = [args.M if explicit else _sample_size(args, _support(args, t)) for t in sizes]
    # every budget is bounded first: this data error precedes a bad --alpha
    if max(budgets) > MAX_RUNS:
        raise ValueError(f"embed: the walk budget exceeds {MAX_RUNS} walks per graph")
    try:
        return [(SamplerParams(runs, t, args.alpha, args.seed),
                 t if args.per_size_m else args.t_min, offset)  # its min_edges
                for runs, t, offset in zip(budgets, sizes, accumulate(budgets, initial=0))]
    except ValueError as exc:
        raise UsageError(f"embed: {exc}") from None


def _out(args, name: str) -> str:
    """The path of output file name in --out, which is made if missing."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_sample_size(args) -> int:
    _bind("sampling")
    print(_sample_size(args, args.a))
    return 0


def cmd_embed(args) -> int:
    from .sampling import clear_states
    batches = _batches(args)
    _bind("embedding")
    graphs = load_graphs(args.graphs)
    manifest = load_manifest(args.manifest)
    if not manifest:  # before --out is made
        raise GraphFormatError(f"manifest {args.manifest!r} lists no graph")
    by_id = resolve_manifest(manifest, graphs)

    selected = []
    for entry in manifest:
        g = by_id[entry.graph_id]
        if args.labeled:
            if g.node_labels is None and g.edge_labels is None:
                raise GraphFormatError(
                    f"--labeled given but graph {_echo(g.id)} carries no labels"
                )
        else:
            g = g._replace(node_labels=None, edge_labels=None)
        if g.n_edges == 0:
            raise GraphFormatError(f"graph {_echo(g.id)} has no edges")
        selected.append(g)

    vocab_path, emb_path = _out(args, "vocabulary.txt"), _out(args, "embeddings.tsv")
    for target in (vocab_path, emb_path):  # fail before the walks, not after
        if os.path.isdir(target):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    jobs = [(g, batches, args.hash) for g in selected]
    results = _pmap(_embed_worker, jobs, args.threads)
    # Every graph is embedded: the rows below reuse the walk states' memory.
    clear_states()

    train_ids = {e.graph_id for e in manifest if e.split == "train"}
    if args.vocab_scope == "all" or not train_ids:
        vocab_maps = [counts for _, counts, _ in results]
    else:
        vocab_maps = [counts for gid, counts, _ in results if gid in train_ids]
    vocab = build_vocabulary(vocab_maps)

    runs_total = sum(params.runs for params, _, _ in batches)
    embeddings = finalize_embeddings([(gid, counts) for gid, counts, _ in results], vocab)

    with _staged(vocab_path) as staged:  # a failed embed leaves an earlier pair whole
        write_vocabulary(vocab, staged)
        write_embeddings(embeddings, emb_path, normalize=args.normalize)
        os.replace(staged, vocab_path)

    print(f"embedded {len(embeddings)} graphs: bins={len(vocab)} "
          f"runs={runs_total} batches={len(batches)} hash={args.hash}")
    for emb, (_, _, dead) in zip(embeddings, results):
        print(
            f"graph {emb.graph_id}: counts={emb.total} dead_end_runs={dead} "
            f"oov={emb.oov_count}"
        )
    print(f"wrote {vocab_path} and {emb_path}")
    return 0


def _kernel(args) -> tuple:
    """(ids, class labels, kernel matrix) of --embeddings; labels are 0 without --manifest."""
    _bind("embedding", "kernels")
    try:
        spec = KernelSpec(_KIND_BY_FLAG[args.kind], args.gamma)
    except ValueError as exc:
        raise UsageError(f"{args.command}: {exc}") from None
    ids, rows = read_embeddings(args.embeddings)
    by_id = (dict.fromkeys(ids, "0") if args.manifest is None
             else {e.graph_id: e.class_label for e in load_manifest(args.manifest)})
    missing = [gid for gid in ids if gid not in by_id]
    if missing:
        raise GraphFormatError(f"embeddings not covered by manifest: {_echo(missing)}")
    return ids, [by_id[gid] for gid in ids], kernel_matrix(rows, spec)


def cmd_kernel(args) -> int:
    ids, labels, K = _kernel(args)
    path = _out(args, "kernel.txt")
    write_precomputed_kernel(K, labels, path)
    print(f"kernel {args.kind}: {len(ids)}x{len(ids)} matrix -> {path}")
    return 0


def cmd_knn(args) -> int:
    _, labels, K = _kernel(args)
    hits = knn_retrieval_scores(K, labels, args.k)
    accuracy = loo_knn_accuracy(K, labels, args.k)
    path = _out(args, "retrieval.tsv")
    _write(path, chain(["rank\thit_count\n"],
                       (f"{rank}\t{count}\n" for rank, count in enumerate(hits, start=1))))
    print(f"retrieval hits per rank: {hits}")
    print(f"loo {args.k}-nn accuracy: {accuracy:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_audit(args) -> int:
    from .audit import MAX_ENUM_EDGES
    _bind("audit")
    if not 1 <= args.t <= MAX_ENUM_EDGES:
        raise UsageError(f"audit: --t must be in 1..{MAX_ENUM_EDGES}")
    report = collision_report(args.hash, args.t, keep_pairs=not args.no_pairs)
    path = _out(args, f"audit-{report.fn}-t{args.t}.tsv")
    header, row = write_report(report, path).split("\n", 2)[:2]
    print(header)
    print(row)
    print(f"wrote {path}")
    return 0


def _read_rankings(path: str) -> dict[str, list[str]]:
    """Query id -> best-first items, in file order."""
    out: dict[str, list[str]] = {}
    usage = "expected: <query_id><TAB><item1,item2,...>"
    for line_no, (query, items) in _fields(_records(_read(path)), 2, usage, "query id"):
        if not items:
            raise GraphFormatError(usage, line_no)
        out[query] = items.split(",")
    return out


def cmd_rho(args) -> int:
    _bind("kernels")
    system = _read_rankings(args.system_ranks)
    truth = _read_rankings(args.truth_ranks)
    missing = [qid for qid in system if qid not in truth]
    if missing:
        raise GraphFormatError(f"queries missing from truth ranks: {_echo(missing)}")
    scores = [rho_score(ranking_pair(ranking, truth[qid])) for qid, ranking in system.items()]
    if not scores:
        raise GraphFormatError("no queries in system ranks file")
    mean = sum(scores) / len(scores)
    path = _out(args, "rho.tsv")
    _write(path, chain(["query\trho\n"],
                       (f"{qid}\t{score:.6f}\n" for qid, score in zip(system, scores)),
                       [f"mean\t{mean:.6f}\n"]))
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
    p.add_argument("--a", type=_positive_int, required=True,
                   help="class count of the target size")
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
    p.add_argument("--a-override", type=_positive_int, default=None,
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
    p.add_argument("--k", type=_positive_int, required=True)
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
