"""Seeded end-to-end benchmark of the graphlets CLI.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run generates the workload's inputs from the seed, then runs the real
CLI (``python -m graphlets.cli`` with ``PYTHONPATH=src``) in child
processes, repeating the workload's command sequence until the timed
commands add up to ``--seconds``. Every output of every iteration is
checked. The last line of stdout is one JSON object: with ``--trace 0``
it carries the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
the per-layer metrics, which come from the same CLI loop plus two
in-process passes over the same inputs run by ``tracer.py`` in child
processes (one untraced, one traced). The end-to-end path never imports
the tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
DIGESTS = os.path.join(BENCH, "digests.json")

# Every child, and numpy in this process, runs single-threaded BLAS.
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_PINS)

CHILD_TIMEOUT_S = 150
LOOP_LIMIT_S = 110  # stop starting iterations after this, whatever --seconds says
SETUP_PER_ITERATION = 3
STARTUP_REPEATS = 5
POOL_EMBED = "embed_t2"
AUDIT = "audit-t9"

HASH_FNS = ("degree", "core", "clustering", "betweenness")
# Connected simple graphs with 1..10 edges (OEIS A002905).
CLASS_COUNTS = (1, 1, 3, 5, 12, 30, 79, 227, 710, 2322)
# Published collision counts of the audit's measurement keys.
COLLISIONS = {
    9: {"degree": 604, "core": 687, "clustering": 537, "betweenness": 27},
    10: {"degree": 2145, "core": 2290, "clustering": 1907, "betweenness": 108},
}
MIN_TWOCLASS_LOO = 0.95

# Workload sizes. "full" is what a run measures; "tiny" is the smoke
# test's. The full sizes keep one timed iteration near 3-6 s on a 2-vCPU
# Xeon VM, so a 50 s run holds about ten. A 2000 x 500 retrieval matrix
# would take about 15 s per iteration there, hence 1000.
SIZES = {
    "unlabeled-twoclass": {
        "full": {"per_class": 200, "M": 40},
        "tiny": {"per_class": 5, "M": 4},
    },
    "labeled-wide": {
        "full": {"graphs": 40, "nodes": 30, "extra": 30, "M": 50},
        "tiny": {"graphs": 4, "nodes": 10, "extra": 6, "M": 4},
    },
    "retrieval-dense": {
        "full": {"rows": 1000, "cols": 500},
        "tiny": {"rows": 40, "cols": 30},
    },
    # t=9 keeps an iteration near 6 s; the t=10 class and collision
    # counts (check_t, about 25 s) are checked in traced runs only.
    AUDIT: {
        "full": {"t": 9, "check_t": 10},
        "tiny": {"t": 5, "check_t": 6},
    },
}

# Which end-to-end figure each per-layer metric should move, and where.
# First matching prefix wins. labeled-wide and retrieval-dense run only by
# name (``--workload``); BENCHMARK.json does not list them.
LAYER_TARGETS = (
    ("graphs.", "wall_s via cli.embed_s on unlabeled-twoclass (small)"),
    ("sampling.", "wall_s via cli.embed_s and cli.graphlets_per_s on unlabeled-twoclass; "
                  "barely on labeled-wide"),
    (tuple(f"hashing.{fn}." for fn in HASH_FNS), f"wall_s via cli.audit_s on {AUDIT}"),
    ("hashing.", "barely wall_s on unlabeled-twoclass (cache hits); "
                 "wall_s via cli.embed_s on labeled-wide (cache misses)"),
    ("embedding.read_tsv_s", "wall_s via cli.kernel_s and cli.knn_s on unlabeled-twoclass; "
                             "more on retrieval-dense"),
    ("embedding.", "wall_s via cli.embed_s on unlabeled-twoclass; more on labeled-wide"),
    ("kernels.", "wall_s via cli.kernel_s and cli.knn_s on unlabeled-twoclass; "
                 "more on retrieval-dense"),
    ("audit.", f"wall_s via cli.audit_s on {AUDIT}; nothing elsewhere"),
    ("cli.startup_s", f"wall_s on unlabeled-twoclass and {AUDIT}: every invocation pays it"),
    ("cli.pool_speedup", "cli.embed_t2_s on unlabeled-twoclass"),
    ("cli.embed_t2_s", "nothing end to end: the --threads 2 embed is outside wall_s"),
    ("cli.embed_s", "wall_s on unlabeled-twoclass"),
    ("cli.graphlets_per_s", "wall_s on unlabeled-twoclass"),
    ("cli.kernel_s", "wall_s on unlabeled-twoclass"),
    ("cli.knn_s", "wall_s on unlabeled-twoclass"),
    ("cli.audit_s", f"wall_s on {AUDIT}"),
    ("trace.", "nothing: cost of the traced pass itself"),
)


class Preflight(Exception):
    """The checkout cannot run this benchmark."""


def layer_target(name: str) -> str:
    return next(t for prefix, t in LAYER_TARGETS if name.startswith(prefix))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# --------------------------------------------------------------- inputs


def _synth():
    for p in (os.path.join(ROOT, "tests"), SRC):
        if p not in sys.path:
            sys.path.insert(0, p)
    import synth

    return synth


def _write_graphs(graphs, path: str) -> None:
    # The benchmark's own writer, so input bytes depend only on the
    # generators in tests/synth.py and not on the library's serializer.
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for g in graphs:
            fh.write(f"t {g.id}\n")
            for i in range(g.n_nodes):
                fh.write(f"v {i} {g.node_labels[i]}\n" if g.node_labels else f"v {i}\n")
            for j, (u, v) in enumerate(g.edges):
                fh.write(f"e {u} {v} {g.edge_labels[j]}\n" if g.edge_labels else f"e {u} {v}\n")


def _write_manifest(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for graph_id, label in rows:
            fh.write(f"{graph_id}\t{label}\tunsplit\n")


def make_inputs(workload: str, seed: int, size: dict, d: str) -> dict[str, str]:
    """Write the workload's inputs for ``seed`` into ``d``; name -> path."""
    os.makedirs(d, exist_ok=True)
    paths = {}
    if workload == "unlabeled-twoclass":
        graphs, entries = _synth().two_class_dataset(size["per_class"], random.Random(seed))
        rows = [(e.graph_id, e.class_label) for e in entries]
    elif workload == "labeled-wide":
        synth, rng = _synth(), random.Random(seed)
        graphs = [
            synth.random_connected_graph(f"g{i:02d}", size["nodes"], size["extra"], rng,
                                         labeled=True)
            for i in range(size["graphs"])
        ]
        rows = [(g.id, f"c{i % 2}") for i, g in enumerate(graphs)]
    elif workload == "retrieval-dense":
        import numpy as np

        # Legacy RandomState: its streams are frozen across numpy versions.
        rs = np.random.RandomState(seed)
        n, d_cols = size["rows"], size["cols"]
        scale = np.minimum(rs.pareto(1.2, d_cols) + 0.05, 200.0)  # heavy-tailed columns
        cls = rs.randint(0, 5, n)
        active = rs.rand(5, d_cols) < 0.3
        lam = scale * np.where(active[cls], 1.0, 0.25) * rs.gamma(2.0, 0.5, (n, 1))
        X = rs.poisson(lam)
        ids = [f"r{i:04d}" for i in range(n)]
        paths["embeddings"] = os.path.join(d, "embeddings.tsv")
        with open(paths["embeddings"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write("graph_id\t" + "\t".join(f"bin{i}" for i in range(d_cols)) + "\n")
            for gid, row in zip(ids, X.tolist()):
                fh.write(gid + "\t" + "\t".join(map(str, row)) + "\n")
        paths["manifest"] = os.path.join(d, "manifest.tsv")
        _write_manifest([(gid, f"k{c}") for gid, c in zip(ids, cls.tolist())],
                        paths["manifest"])
        return paths
    else:  # the audit reads no files
        return paths
    paths["graphs"] = os.path.join(d, "graphs.txt")
    paths["manifest"] = os.path.join(d, "manifest.tsv")
    _write_graphs(graphs, paths["graphs"])
    _write_manifest(rows, paths["manifest"])
    return paths


def audit_commands(t: int, out: str):
    a = os.path.join(out, "audit")
    # --no-pairs: at t=10 the core report alone lists over a million
    # colliding pairs, which takes about 1.4 GB and a minute to write.
    return [(f"audit.{fn}", ["audit", "--hash", fn, "--t", str(t), "--no-pairs", "--out", a], a)
            for fn in HASH_FNS]


def commands(workload: str, seed: int, size: dict, inputs: dict, out: str):
    """The workload's CLI invocations: list of (label, argv, output dir)."""
    if workload == AUDIT:
        return audit_commands(size["t"], out)
    m = inputs["manifest"]
    if workload == "retrieval-dense":
        e1, emb = os.path.join(out, "t1"), inputs["embeddings"]
        kernel_kind, knn_kind, k = "dot", "hist-int", "5"
        cmds = []
    else:
        e1, e2 = os.path.join(out, "t1"), os.path.join(out, "t2")
        emb = os.path.join(e1, "embeddings.tsv")
        embed = ["embed", "--graphs", inputs["graphs"], "--manifest", m, "--T", "7",
                 "--M", str(size["M"]), "--seed", str(seed)]
        if workload == "labeled-wide":
            embed.append("--labeled")
            kernel_kind, knn_kind, k = "hist-int", "dot", "3"
        else:
            kernel_kind, knn_kind, k = "dot", "hist-int", "5"
        cmds = [("embed", embed + ["--threads", "1", "--out", e1], e1),
                (POOL_EMBED, embed + ["--threads", "2", "--out", e2], e2)]
    return cmds + [
        ("kernel", ["kernel", "--embeddings", emb, "--manifest", m, "--kind", kernel_kind,
                    "--out", e1], e1),
        ("knn", ["knn", "--embeddings", emb, "--manifest", m, "--kind", knn_kind, "--k", k,
                 "--out", e1], e1),
    ]


def output_files(label: str, out: str, size: dict) -> list[str]:
    if label.startswith("embed"):
        return [os.path.join(out, "vocabulary.txt"), os.path.join(out, "embeddings.tsv")]
    if label == "kernel":
        return [os.path.join(out, "kernel.txt")]
    if label == "knn":
        return [os.path.join(out, "retrieval.tsv")]
    return [os.path.join(out, f"audit-{label.split('.', 1)[1]}-t{size['t']}.tsv")]


# ------------------------------------------------------------ children


def child_env() -> dict:
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = SRC
    return env


def run_cli(argv: list[str], log_stem: str) -> dict:
    """Run one CLI child; wall time, exit code, stdout and peak RSS (its
    own, or a reaped pool worker's if larger)."""
    with open(log_stem + ".out", "wb") as out, open(log_stem + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "graphlets.cli", *argv], cwd=ROOT,
                                env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        # On timeout, kill the child's whole process group: pool workers too.
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_stem + ".out", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(log_stem + ".err", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "seconds": seconds,
        "rc": proc.returncode,
        "stdout": stdout,
        "stderr": stderr.strip()[-400:],
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


# -------------------------------------------------------------- checks


def _read_int_tsv(path: str):
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        ids, rows = [], []
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            ids.append(cells[0])
            rows.append([int(c) for c in cells[1:]])
    return header, ids, np.array(rows, dtype=np.int64).reshape(len(ids), len(header) - 1)


def _gram(X, kind: str):
    import numpy as np

    if kind == "dot":
        return X @ X.T
    K = np.empty((len(X), len(X)), dtype=np.int64)
    for i in range(len(X)):
        K[i] = np.minimum(X, X[i]).sum(axis=1)
    return K


def _manifest_labels(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return {p[0]: p[1] for p in (line.rstrip("\n").split("\t") for line in fh) if p[0]}


def expected_kernel_file(X, labels, kind: str) -> str:
    """kernel.txt as the CLI must write it: integer kernels print exactly."""
    K = _gram(X, kind).tolist()
    n = len(K)
    cols = range(1, n + 1)
    return "".join(
        f"{labels[i]} 0:{i + 1} " + " ".join(map("{}:{}".format, cols, row)) + "\n"
        for i, row in enumerate(K)
    )


def expected_knn(X, labels, kind: str, k: int) -> tuple[str, str]:
    """(retrieval.tsv, accuracy line) recomputed with numpy: neighbours by
    similarity, ties by input order; votes tie to the smallest label."""
    import numpy as np

    K = _gram(X, kind)
    n = len(K)
    idx = np.arange(n)
    hits = [0] * k
    correct = 0
    for i in range(n):
        order = np.lexsort((idx, -K[i]))
        top = order[order != i][:k].tolist()
        for rank, j in enumerate(top):
            hits[rank] += labels[j] == labels[i]
        tally = Counter(labels[j] for j in top)
        best = max(tally.values())
        correct += min(lbl for lbl, c in tally.items() if c == best) == labels[i]
    table = "rank\thit_count\n" + "".join(f"{r}\t{c}\n" for r, c in enumerate(hits, 1))
    return table, f"loo {k}-nn accuracy: {correct / n:.4f}"


class Checker:
    """Checks of one run; every failure is kept with the command it blames."""

    def __init__(self, workload: str, seed: int, size_name: str, size: dict):
        self.workload, self.seed, self.size = workload, seed, size
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.first: dict[str, str] = {}  # output file name -> digest of iteration 0
        recorded = {}
        if size_name == "full" and os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                recorded = json.load(fh).get(workload, {})
        key = "any" if workload == AUDIT else str(seed)
        self.recorded = recorded.get(key)
        if self.recorded is None:
            self.notes.append(f"no digests recorded for {workload} seed {seed}; "
                              "digest checks skipped, recomputation checks still run")

    def fail(self, what: str) -> bool:
        self.failures.append(what)
        return False

    def inputs(self, digests: dict[str, str]) -> bool:
        if self.recorded and digests != self.recorded["inputs"]:
            return self.fail(f"generated inputs drifted: {digests} != {self.recorded['inputs']}")
        return True

    def outputs(self, it: int, label: str, files: list[str], cmds: dict, inputs: dict,
                runs: dict) -> bool:
        """Checks of one command's outputs in iteration ``it``."""
        run = runs[label]
        if run["rc"] != 0:
            return self.fail(f"iteration {it} {label}: exit {run['rc']}: {run['stderr']}")
        ok = True
        for path in files:
            if not os.path.exists(path):
                return self.fail(f"iteration {it} {label}: missing {os.path.basename(path)}")
            name, digest = os.path.basename(path), sha256_file(path)
            if label == POOL_EMBED:
                if digest != self.first.get(name):
                    ok = self.fail(f"--threads 2 {name} differs from --threads 1")
            elif it == 0:
                self.first[name] = digest
                want = (self.recorded or {}).get("outputs", {}).get(name)
                if want and digest != want:
                    ok = self.fail(f"{label}: {name} sha256 {digest} != recorded {want}")
            elif digest != self.first.get(name):
                ok = self.fail(f"iteration {it} {label}: {name} differs from iteration 0")
        if label.startswith("audit."):
            ok &= self._audit(it, label, files[0], self.size["t"])
        elif it == 0 and label == "embed":
            ok &= self._embeddings(files, inputs, run["stdout"])
        elif it == 0 and label in ("kernel", "knn"):
            ok &= self._recompute(label, files[0], cmds[label], run["stdout"])
        return ok

    def _audit(self, it: int, label: str, path: str, t: int) -> bool:
        fn = label.split(".", 1)[1]
        with open(path, encoding="utf-8") as fh:
            fields = fh.read().split("\n", 2)[1].split("\t")
        n_graphs, n_pairs, n_coll = int(fields[2]), int(fields[3]), int(fields[4])
        want = COLLISIONS.get(t, {}).get(fn, n_coll)
        if (n_graphs, n_pairs, n_coll) != (CLASS_COUNTS[t - 1], n_graphs * (n_graphs - 1) // 2,
                                           want):
            return self.fail(f"iteration {it} {label}: classes/pairs/collisions "
                             f"{n_graphs}/{n_pairs}/{n_coll}, expected "
                             f"{CLASS_COUNTS[t - 1]}/-/{want}")
        return True

    def _embeddings(self, files, inputs, stdout: str) -> bool:
        vocab_path, emb_path = files
        with open(vocab_path, encoding="utf-8") as fh:
            vocab = fh.read().splitlines()
        header, ids, X = _read_int_tsv(emb_path)
        manifest_ids = list(_manifest_labels(inputs["manifest"]))
        counts = [int(tok.split("=", 1)[1]) for tok in stdout.split() if tok.startswith("counts=")]
        if vocab != sorted(set(vocab)) or len(header) - 1 != len(vocab):
            return self.fail("embed: vocabulary is not sorted, unique and as wide as the rows")
        if ids != manifest_ids or X.sum(axis=1).tolist() != counts:
            return self.fail("embed: row ids or row sums disagree with manifest/stdout")
        return True

    def _recompute(self, label: str, path: str, argv: list[str], stdout: str) -> bool:
        opt = dict(zip(argv[1::2], argv[2::2]))
        kind = "dot" if opt["--kind"] == "dot" else "hist-int"
        _, ids, X = _read_int_tsv(opt["--embeddings"])
        by_id = _manifest_labels(opt["--manifest"])
        labels = [by_id[g] for g in ids]
        with open(path, encoding="utf-8") as fh:
            got = fh.read()
        if label == "kernel":
            if got != expected_kernel_file(X, labels, kind):
                return self.fail("kernel: kernel.txt differs from the numpy recomputation")
            return True
        table, acc_line = expected_knn(X, labels, kind, int(opt["--k"]))
        if got != table or acc_line not in stdout:
            return self.fail(f"knn: retrieval.tsv or '{acc_line}' differs from recomputation")
        if self.workload == "unlabeled-twoclass":
            acc = float(acc_line.rsplit(" ", 1)[1])
            if acc < MIN_TWOCLASS_LOO:
                return self.fail(f"knn: LOO accuracy {acc} < {MIN_TWOCLASS_LOO}")
        return True

    def audit_small_sizes(self) -> None:
        """Class counts and collision counts below the audited size, from
        the library (each CLI child enumerates only its own size)."""
        _synth()
        from graphlets.audit import collision_report, enumerate_connected

        t = self.size["t"]
        for k in range(1, t):
            if len(enumerate_connected(k)) != CLASS_COUNTS[k - 1]:
                self.fail(f"audit: {len(enumerate_connected(k))} classes at t={k}, "
                          f"expected {CLASS_COUNTS[k - 1]}")
        for k in range(1, t):
            for fn, want in COLLISIONS.get(k, {}).items():
                got = collision_report(fn, k, keep_pairs=False).n_collisions
                if got != want:
                    self.fail(f"audit: {fn} t={k} has {got} collisions, expected {want}")

    def audit_check_size(self, run_dir: str) -> tuple[int, int]:
        """Run the audit once, untimed, at the larger size ``check_t`` and
        check its class and collision counts; (invocations, failed)."""
        size = {"t": self.size["check_t"]}
        failed = 0
        for label, argv, d in audit_commands(size["t"], os.path.join(run_dir, "check")):
            os.makedirs(d, exist_ok=True)
            run = run_cli(argv, os.path.join(run_dir, f"log-check-{label}"))
            path = output_files(label, d, size)[0]
            if run["rc"] != 0 or not os.path.exists(path):
                ok = self.fail(f"t={size['t']} {label}: exit {run['rc']}: {run['stderr']}")
            else:
                ok = self._audit(0, label, path, size["t"])
            failed += not ok
        return len(HASH_FNS), failed


# ----------------------------------------------------------- the run


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = 0
    for dirpath, _, names in os.walk(os.path.join(SRC, "graphlets")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_PINS,
        "git_commit": commit,
        "src_lines": src_lines,
    }


class Setup:
    """Generates the workload's inputs and times each generation. The
    first copy is the one the commands read; ``repeat`` makes and drops
    further copies between iterations, so that the median set-up time
    covers the same stretch of the run as ``wall_s``. On a workload that
    reads no inputs (the audit) the set-up is one CLI start (``--version``)
    instead. A first, untimed CLI start checks that the CLI starts and
    warms the byte-code cache."""

    def __init__(self, workload: str, seed: int, size: dict, run_dir: str):
        self.workload, self.seed, self.size, self.run_dir = workload, seed, size, run_dir
        warm = run_cli(["--version"], os.path.join(run_dir, "warm"))
        if warm["rc"] != 0:
            raise Preflight(f"graphlets CLI does not start: {warm['stderr']}")
        self.times: list[float] = []
        self.digests: list[dict[str, str]] = []
        self.inputs = self._generate("inputs")

    def _generate(self, subdir: str) -> dict[str, str]:
        t0 = time.perf_counter()
        inputs = make_inputs(self.workload, self.seed, self.size,
                             os.path.join(self.run_dir, subdir))
        generated = time.perf_counter() - t0
        if not inputs:  # nothing to generate: the set-up is a CLI start
            generated = run_cli(["--version"], os.path.join(self.run_dir, "warm"))["seconds"]
        self.times.append(generated)
        self.digests.append({name: sha256_file(p) for name, p in inputs.items()})
        return inputs

    def repeat(self, n: int) -> None:
        for _ in range(n):
            self._generate("again")
            shutil.rmtree(os.path.join(self.run_dir, "again"), ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, size: dict, setup: Setup, run_dir: str,
            checker: Checker):
    """Repeat the command sequence while the timed commands come closer to
    ``seconds`` by one more iteration than they would without it, and the
    set-up ``SETUP_PER_ITERATION`` times after each iteration. The
    ``--threads 2`` embed runs in the first iteration only and is not
    timed into ``wall_s``: it waits for both shared cores, and its time is
    the per-layer ``cli.embed_t2_s``."""
    out, inputs = os.path.join(run_dir, "out"), setup.inputs
    cmds = commands(workload, seed, size, inputs, out)
    argv_by_label = {label: argv for label, argv, _ in cmds}
    iterations, attempted, failed = [], 0, 0
    timed = 0.0
    loop_start = time.monotonic()
    while not iterations or (timed + timed / len(iterations) / 2 < seconds
                             and time.monotonic() - loop_start < LOOP_LIMIT_S):
        it = len(iterations)
        shutil.rmtree(out, ignore_errors=True)
        runs = {}
        for label, argv, d in cmds:
            if label == POOL_EMBED and it > 0:
                continue
            os.makedirs(d, exist_ok=True)
            runs[label] = run_cli(argv, os.path.join(run_dir, f"log-{label}"))
            timed += runs[label]["seconds"] if label != POOL_EMBED else 0.0
        for label, _, d in cmds:
            if label in runs:
                attempted += 1
                if not checker.outputs(it, label, output_files(label, d, size), argv_by_label,
                                       inputs, runs):
                    failed += 1
        iterations.append(runs)
        setup.repeat(SETUP_PER_ITERATION)
    return iterations, attempted, failed, cmds


def graphlets_counted(emb_path: str) -> int:
    _, _, X = _read_int_tsv(emb_path)
    return int(X.sum())


def iteration_wall(runs: dict) -> float:
    return sum(r["seconds"] for label, r in runs.items() if label != POOL_EMBED)


def end_to_end(setup_times, iterations) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(iteration_wall(it) for it in iterations),
        "peak_rss_mb": max(r["rss_mb"] for it in iterations for r in it.values()),
    }


def cli_layer(iterations, cmds, run_dir: str) -> tuple[dict, dict]:
    """Per-command medians of the untraced CLI loop, plus start-up time."""
    def med(name):
        vals = [sum(r["seconds"] for lbl, r in it.items() if lbl.split(".")[0] == name)
                for it in iterations if any(lbl.split(".")[0] == name for lbl in it)]
        return statistics.median(vals) if vals else None

    m = {f"cli.{name}_s": med(name) for name in ("embed", POOL_EMBED, "kernel", "knn", "audit")}
    startups = [run_cli(["--version"], os.path.join(run_dir, f"startup{i}"))["seconds"]
                for i in range(STARTUP_REPEATS)]
    m["cli.startup_s"] = statistics.median(startups)
    if m["cli.embed_s"]:
        emb = next(d for lbl, _, d in cmds if lbl == "embed")
        m["cli.graphlets_per_s"] = graphlets_counted(os.path.join(emb, "embeddings.tsv")) \
            / m["cli.embed_s"]
        m["cli.pool_speedup"] = m["cli.embed_s"] / m["cli.embed_t2_s"]
    missing = {name: "workload runs no such command" for name, v in m.items() if v is None}
    if not m["cli.embed_s"]:
        missing["cli.graphlets_per_s"] = missing["cli.pool_speedup"] = "workload runs no embed"
    return {k: v for k, v in m.items() if v is not None}, missing


def traced_layers(workload: str, seed: int, size: dict, inputs: dict, run_dir: str,
                  checker: Checker) -> tuple[dict, dict, dict]:
    """Untraced then traced in-process pass (each a fresh child running
    tracer.py); per-layer metrics, not-measured reasons and the trace."""
    results = {}
    for mode in ("untraced", "traced"):
        out = os.path.join(run_dir, mode)
        cmds = [(label, argv) for label, argv, _ in commands(workload, seed, size, inputs, out)
                if label != POOL_EMBED]  # pool workers would take their spans with them
        spec_path = os.path.join(run_dir, f"{mode}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"traced": mode == "traced", "commands": cmds,
                       "audit_t": size.get("t"), "result": spec_path + ".out"}, fh)
        try:
            proc = subprocess.run([sys.executable, os.path.join(BENCH, "tracer.py"), spec_path],
                                  cwd=ROOT, env=child_env(), capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            error = proc.stderr.strip()[-400:] if proc.returncode != 0 else None
        except subprocess.TimeoutExpired:
            error = f"timed out after {CHILD_TIMEOUT_S} s"
        if error is not None or not os.path.exists(spec_path + ".out"):
            checker.fail(f"{mode} in-process pass failed: {error or 'no result file'}")
            return {}, {"*": f"{mode} pass failed: {error}"}, {}
        with open(spec_path + ".out", encoding="utf-8") as fh:
            results[mode] = json.load(fh)
        # The in-process pass runs the same code, so it must write the same bytes.
        for label, argv, d in commands(workload, seed, size, inputs, out):
            for path in output_files(label, d, size) if label != POOL_EMBED else []:
                name = os.path.basename(path)
                if not os.path.exists(path) or sha256_file(path) != checker.first.get(name):
                    checker.fail(f"{mode} in-process {label}: {name} missing or unlike the "
                                 f"CLI's (exit {results[mode]['rcs'].get(label)})")
    traced, untraced = results["traced"], results["untraced"]
    metrics = dict(traced["metrics"])
    metrics["trace.overhead"] = traced["total_s"] / untraced["total_s"] - 1.0
    return metrics, traced["not_measured"], traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        for need in ("BENCHMARK.json", "src/graphlets/cli.py", "tests/synth.py"):
            if not os.path.isfile(os.path.join(ROOT, need)):
                raise Preflight(f"{need} not found under {ROOT}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        size = SIZES[args.workload][args.size]
        run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        try:
            return _run(args, bench, size, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except Preflight as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


def _run(args, bench: dict, size: dict, run_dir: str) -> int:
    checker = Checker(args.workload, args.seed, args.size, size)
    setup = Setup(args.workload, args.seed, size, run_dir)
    checker.inputs(setup.digests[0])
    iterations, attempted, failed, cmds = measure(args.workload, args.seed, args.seconds, size,
                                                  setup, run_dir, checker)
    inputs = setup.inputs
    if any(d != setup.digests[0] for d in setup.digests):
        checker.fail("input generation is not deterministic for one seed")
    if args.workload == AUDIT:
        attempted += 1
        before = len(checker.failures)
        checker.audit_small_sizes()
        failed += len(checker.failures) > before
        if args.trace:
            tried, wrong = checker.audit_check_size(run_dir)
            attempted, failed = attempted + tried, failed + wrong

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    not_measured: dict[str, str] = {}
    env = environment()
    if args.trace:
        metrics, not_measured = cli_layer(iterations, cmds, run_dir)
        attempted += 1
        before = len(checker.failures)
        layer, layer_missing, trace = traced_layers(args.workload, args.seed, size, inputs,
                                                    run_dir, checker)
        failed += len(checker.failures) > before
        metrics.update(layer)
        not_measured.update(layer_missing)
        os.makedirs(WORK, exist_ok=True)
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "environment": env,
                       "targets": {m["name"]: layer_target(m["name"]) for m in wanted},
                       "not_measured": not_measured, **trace}, fh)
        print(f"trace written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = end_to_end(setup.times, iterations)

    # A per-layer metric the workload does not exercise reads 0 and is
    # listed, with its reason, under "not measured".
    out, unmeasured = {}, {}
    for m in wanted:
        name = m["name"]
        value = metrics.get(name)
        if value is None:
            reason = not_measured.get(name, not_measured.get("*", "not exercised by this workload"))
            unmeasured.setdefault(reason, []).append(name)
            value = 0
        out[name] = {"value": value, "unit": m["unit"]}
        target = f"  -> {layer_target(name)}" if args.trace else ""
        print(f"{name:36s} {value:14.6g} {m['unit']}{target}")
    for reason, names in unmeasured.items():
        print(f"not measured ({reason}): {' '.join(names)}")
    walls = " ".join(f"{iteration_wall(it):.3f}" for it in iterations)
    print(f"iteration wall_s: {walls}")
    print(f"iterations={len(iterations)} ops: attempted={attempted} "
          f"(CLI invocations plus run-level checks), failed={failed}")
    print("env " + json.dumps(env))
    for note in checker.notes:
        print(f"note: {note}")
    for failure in checker.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
        print(f"FAIL: {failure}")
    correct = not checker.failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
