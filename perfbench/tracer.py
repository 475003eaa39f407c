"""In-process pass over one workload's CLI commands, for per-layer metrics.

``run.py`` starts this file in a fresh child process as

    python perfbench/tracer.py <spec.json>

The spec lists the workload's CLI argument vectors. The pass calls
``graphlets.cli.main`` on each in this process (single-threaded) and,
for an audit workload, first enumerates every size up to the audited
one through ``graphlets.audit.enumerate_connected``. With ``traced``
set, it first wraps, from outside the library, the module-level names
the library resolves at call time: the public functions the CLI calls,
plus ``graphlets.embedding.sample_all``, ``graphlets.embedding.hash_code``,
``graphlets.kernels.kernel_matrix``, ``graphlets.audit.is_isomorphic``
and ``graphlets.audit.measure_values``. Without it the pass only times
itself, which gives the tracing overhead.

Each span records name, start, end and parent. There is one span per
(graph, layer): per-call wrappers on hot functions (about a million hash
calls on the embed workloads) add their calls and busy time to a single
span under the current parent instead of opening one each. Spans stay
in memory and are written with the metrics when the pass ends. A name
that no longer exists is reported as not measured, never as an error.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import sys
import time
import traceback

perf = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "busy", "calls", "attrs")

    def __init__(self, name, start, parent, attrs=None):
        self.name, self.start, self.end, self.parent = name, start, start, parent
        self.busy, self.calls, self.attrs = 0.0, 0, dict(attrs or {})


class Tracer:
    def __init__(self):
        self.t0 = perf()
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.tallies: dict[tuple, Span] = {}
        self.missing: dict[str, str] = {}  # span or metric name -> why it is not measured
        self.topologies: set = set()  # (n_nodes, edges) of every hashed graphlet

    @contextlib.contextmanager
    def span(self, name, **attrs):
        s = Span(name, perf(), self.stack[-1] if self.stack else None, attrs)
        self.spans.append(s)
        self.stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            self.stack.pop()
            s.end = perf()
            s.busy = s.end - s.start
            s.calls = 1

    def tally(self, name, start, end) -> Span:
        parent = self.stack[-1] if self.stack else None
        s = self.tallies.get((parent, name))
        if s is None:
            s = self.tallies[(parent, name)] = Span(name, start, parent)
            self.spans.append(s)
        s.end = end
        s.busy += end - start
        s.calls += 1
        return s

    def export(self) -> list[dict]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.busy
        return [
            {"id": i, "name": s.name, "start": s.start - self.t0,
             "end": s.end - self.t0, "parent": s.parent, "busy": s.busy,
             "self": s.busy - covered[i], "calls": s.calls, "attrs": s.attrs}
            for i, s in enumerate(self.spans)
        ]


def wrap(tracer: Tracer, module_name: str, attr: str, name: str, per_call=False, hook=None):
    """Replace ``module.attr`` by a timing wrapper; record why if it is gone."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if not callable(original):
        tracer.missing[name] = f"{module_name}.{attr} not found"
        return

    def run_hook(s, args, kwargs, result):
        try:
            hook(s, args, kwargs, result)
        except Exception as exc:  # a changed signature loses a counter, not the run
            tracer.missing.setdefault(name + ".hook", f"{name} hook failed: {exc!r}")

    if per_call:
        def wrapper(*args, **kwargs):
            start = perf()
            result = original(*args, **kwargs)
            s = tracer.tally(name, start, perf())
            if hook:
                run_hook(s, args, kwargs, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                result = original(*args, **kwargs)
            if hook:
                run_hook(s, args, kwargs, result)
            return result
    setattr(module, attr, wrapper)


def _file_bytes(path_arg):
    return lambda s, a, kw, r: s.attrs.update(bytes=os.path.getsize(a[path_arg]))


def _sampled(s, args, kwargs, traces):
    s.attrs["graph"] = args[0].id
    s.attrs["runs"] = len(traces)
    s.attrs["graphlets"] = sum(len(t.graphlets) for t in traces)
    s.attrs["dead_ends"] = sum(1 for t in traces if t.dead_end)


def _matrix(s, args, kwargs, result):
    vectors = args[0]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    s.attrs.update(kind=spec.kind, n=len(vectors), d=len(vectors[0]))


def install(tracer: Tracer) -> None:
    cli = "graphlets.cli"
    wrap(tracer, cli, "load_graphs", "graphs.load_graphs")
    wrap(tracer, cli, "embed_graph_stats", "embedding.embed_graph_stats",
         hook=lambda s, a, kw, r: s.attrs.update(graph=a[0].id))
    wrap(tracer, "graphlets.embedding", "sample_all", "sampling.sample_all", hook=_sampled)
    wrap(tracer, "graphlets.embedding", "hash_code", "hashing.hash_code", per_call=True,
         hook=lambda s, a, kw, r: tracer.topologies.add((a[0].n_nodes, a[0].edges)))
    wrap(tracer, cli, "build_vocabulary", "embedding.build_vocabulary",
         hook=lambda s, a, kw, r: s.attrs.update(bins=len(r)))
    wrap(tracer, cli, "finalize_embeddings", "embedding.finalize_embeddings",
         hook=lambda s, a, kw, r: s.attrs.update(oov=sum(e.oov_count for e in r)))
    wrap(tracer, cli, "write_vocabulary", "embedding.write_vocabulary")
    wrap(tracer, cli, "write_embeddings", "embedding.write_embeddings", hook=_file_bytes(1))
    wrap(tracer, cli, "read_embeddings", "embedding.read_embeddings")
    wrap(tracer, cli, "kernel_matrix", "kernels.kernel_matrix", hook=_matrix)
    wrap(tracer, "graphlets.kernels", "kernel_matrix", "kernels.kernel_matrix", hook=_matrix)
    wrap(tracer, cli, "write_precomputed_kernel", "kernels.write_precomputed_kernel",
         hook=_file_bytes(2))
    wrap(tracer, cli, "knn_retrieval_scores", "kernels.knn_retrieval_scores")
    wrap(tracer, cli, "loo_knn_accuracy", "kernels.loo_knn_accuracy")
    wrap(tracer, cli, "collision_report", "audit.collision_report",
         hook=lambda s, a, kw, r: s.attrs.update(fn=r.fn))
    wrap(tracer, "graphlets.audit", "is_isomorphic", "audit.is_isomorphic", per_call=True)
    wrap(tracer, "graphlets.audit", "measure_values", "hashing.measure_values",
         per_call=True)


def _cache_counts():
    import graphlets.hashing as hashing

    info = getattr(getattr(hashing, "_hash_code_cached", None), "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits, i.misses


def run_pass(spec: dict) -> dict:
    import graphlets.audit
    import graphlets.cli

    tracer = Tracer()
    if spec["traced"]:
        install(tracer)
    span = tracer.span if spec["traced"] else (lambda name, **a: contextlib.nullcontext())
    total, rcs, cache = 0.0, {}, [0, 0]

    enumerate_connected = getattr(graphlets.audit, "enumerate_connected", None)
    if spec.get("audit_t") and enumerate_connected is None:
        tracer.missing["audit.enumerate_connected"] = \
            "graphlets.audit.enumerate_connected not found"
    elif spec.get("audit_t"):
        for k in range(1, spec["audit_t"] + 1):
            start = perf()
            with span("audit.enumerate_connected", t=k) as s:
                classes = len(enumerate_connected(k))
            total += perf() - start
            if s is not None:
                s.attrs["classes"] = classes

    sink = io.StringIO()
    for label, argv in spec["commands"]:
        before = _cache_counts()
        start = perf()
        try:
            with span(f"cli.{label}"), contextlib.redirect_stdout(sink):
                rcs[label] = graphlets.cli.main(argv)
        except Exception:  # keep the pass going; run.py sees the missing outputs
            rcs[label] = traceback.format_exc(limit=3)
        total += perf() - start
        after = _cache_counts()
        if label == "embed" and before is not None and after is not None:
            cache = [cache[0] + after[0] - before[0], cache[1] + after[1] - before[1]]
        elif label == "embed":
            tracer.missing["hashing.cache"] = \
                "graphlets.hashing._hash_code_cached.cache_info not found"

    result = {"total_s": total, "rcs": rcs}
    if spec["traced"]:
        spans = tracer.export()
        metrics, reasons = layer_metrics(spans, tracer.missing, cache, tracer.topologies)
        result.update(metrics=metrics, not_measured=reasons, spans=spans)
    return result


class NotMeasured(Exception):
    pass


def layer_metrics(spans, missing, cache, topologies) -> tuple[dict, dict]:
    """Per-layer metrics from the spans; reasons for those not measured."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def need(name):
        got = by_name.get(name)
        if not got:
            raise NotMeasured(missing.get(name, "not exercised by this workload"))
        return got

    def busy(name):
        return sum(s["busy"] for s in need(name))

    def under(name, parent_name):
        return [s for s in need(name) if s["parent"] is not None
                and spans[s["parent"]]["name"] == parent_name]

    def graph_ms(q):
        durs = [s["busy"] * 1e3 for s in need("embedding.embed_graph_stats")]
        # Report a percentile only with at least ten samples beyond it.
        if len(durs) * (100 - q) / 100 < 10:
            raise NotMeasured(f"{len(durs)} graphs leave fewer than 10 samples beyond p{q}")
        return statistics.quantiles(durs, n=20, method="inclusive")[q // 5 - 1]

    def sampled(key):
        return sum(s["attrs"][key] for s in need("sampling.sample_all"))

    def hash_cache(which):
        if "hashing.cache" in missing:
            raise NotMeasured(missing["hashing.cache"])
        need("hashing.hash_code")
        hits, misses = cache
        return {"hits": hits, "misses": misses,
                "ratio": hits / (hits + misses) if hits + misses else 0.0}[which]

    def distinct_topologies():
        need("hashing.hash_code")
        if "hashing.hash_code.hook" in missing:  # the set the hook fills is incomplete
            raise NotMeasured(missing["hashing.hash_code.hook"])
        return len(topologies)

    def matrices(kind=None):
        return [s for s in need("kernels.kernel_matrix")
                if kind is None or s["attrs"].get("kind") == kind]

    def matrix_kind(kind):
        got = matrices(kind)
        if not got:
            raise NotMeasured(f"no {kind} kernel matrix in this workload")
        return sum(s["busy"] for s in got)

    def per_knn_command():
        knn = need("cli.knn")
        return len(under("kernels.kernel_matrix", "kernels.knn_retrieval_scores")
                   + under("kernels.kernel_matrix", "kernels.loo_knn_accuracy")
                   + under("kernels.kernel_matrix", "cli.knn")) / len(knn)

    def rank_self():
        return sum(s["self"] for s in need("kernels.knn_retrieval_scores")
                   + need("kernels.loo_knn_accuracy"))

    def enumerated(k, what):
        steps = [s for s in need("audit.enumerate_connected") if s["attrs"]["t"] == k]
        if not steps:
            raise NotMeasured(f"audit does not reach t={k}")
        s = steps[0]
        if what == "s":
            return s["busy"]  # the incremental step: smaller sizes are already cached
        if what == "classes":
            return s["attrs"]["classes"]
        iso = [c for c in spans if c["parent"] == s["id"] and c["name"] == "audit.is_isomorphic"]
        if not iso and "audit.is_isomorphic" in missing:
            raise NotMeasured(missing["audit.is_isomorphic"])
        return sum(c["calls"] for c in iso)

    def report(fn):
        got = [s for s in need("audit.collision_report") if s["attrs"].get("fn") == fn]
        if not got:
            raise NotMeasured(f"no {fn} report in this workload")
        return got

    def us_per_graph(fn):
        ids = {s["id"] for s in report(fn)}
        calls = [s for s in need("hashing.measure_values") if s["parent"] in ids]
        n = sum(s["calls"] for s in calls)
        if not n:
            raise NotMeasured(f"no {fn} measure calls under its report")
        return sum(s["busy"] for s in calls) / n * 1e6

    def dims():
        return [(s["attrs"]["n"], s["attrs"]["d"]) for s in matrices()]

    recipes = {
        "graphs.parse_s": lambda: busy("graphs.load_graphs"),
        "sampling.busy_s": lambda: busy("sampling.sample_all"),
        "sampling.runs": lambda: sampled("runs"),
        "sampling.us_per_run": lambda: busy("sampling.sample_all") / sampled("runs") * 1e6,
        "sampling.graphlets": lambda: sampled("graphlets"),
        "sampling.dead_end_ratio": lambda: sampled("dead_ends") / sampled("runs"),
        "hashing.busy_s": lambda: busy("hashing.hash_code"),
        "hashing.calls": lambda: sum(s["calls"] for s in need("hashing.hash_code")),
        "hashing.us_per_graphlet": lambda: busy("hashing.hash_code")
        / sum(s["calls"] for s in need("hashing.hash_code")) * 1e6,
        "hashing.cache_hits": lambda: hash_cache("hits"),
        "hashing.cache_misses": lambda: hash_cache("misses"),
        "hashing.hit_ratio": lambda: hash_cache("ratio"),
        "hashing.distinct_topologies": distinct_topologies,
        "embedding.vocab_s": lambda: busy("embedding.build_vocabulary"),
        "embedding.finalize_s": lambda: busy("embedding.finalize_embeddings"),
        "embedding.bins": lambda: need("embedding.build_vocabulary")[-1]["attrs"]["bins"],
        "embedding.oov": lambda: need("embedding.finalize_embeddings")[-1]["attrs"]["oov"],
        "embedding.write_tsv_s": lambda: busy("embedding.write_vocabulary")
        + busy("embedding.write_embeddings"),
        "embedding.tsv_bytes": lambda: need("embedding.write_embeddings")[-1]["attrs"]["bytes"],
        "embedding.read_tsv_s": lambda: busy("embedding.read_embeddings"),
        "embedding.graph_ms.p50": lambda: graph_ms(50),
        "embedding.graph_ms.p75": lambda: graph_ms(75),
        "embedding.graph_ms.p90": lambda: graph_ms(90),
        "kernels.matrix_s.dot": lambda: matrix_kind("dot"),
        "kernels.matrix_s.hist_intersection": lambda: matrix_kind("hist_intersection"),
        "kernels.matrix_calls": per_knn_command,
        "kernels.rank_s": rank_self,
        "kernels.export_s": lambda: busy("kernels.write_precomputed_kernel"),
        "kernels.export_bytes": lambda: sum(s["attrs"]["bytes"]
                                            for s in need("kernels.write_precomputed_kernel")),
        # Computed from matrix shapes, not measured: 2*n*n*d operations,
        # and 8-byte reads of X plus writes of K, per kernel matrix.
        "kernels.ops": lambda: sum(2 * n * n * d for n, d in dims()),
        "kernels.bytes": lambda: sum(8 * (n * d + n * n) for n, d in dims()),
    }
    for fn in ("degree", "core", "clustering", "betweenness"):
        recipes[f"hashing.{fn}.us_per_graph"] = lambda fn=fn: us_per_graph(fn)
        recipes[f"audit.report_s.{fn}"] = lambda fn=fn: sum(s["busy"] for s in report(fn))
    for k in range(1, 11):
        recipes[f"audit.enumerate_s.t{k}"] = lambda k=k: enumerated(k, "s")
        recipes[f"audit.classes.t{k}"] = lambda k=k: enumerated(k, "classes")
        recipes[f"audit.iso_calls.t{k}"] = lambda k=k: enumerated(k, "iso")

    metrics, reasons = {}, {k: v for k, v in missing.items() if k.endswith(".hook")}
    for name, recipe in recipes.items():
        try:
            metrics[name] = recipe()
        except NotMeasured as exc:
            reasons[name] = str(exc)
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            reasons[name] = f"could not derive: {exc!r}"
    return metrics, reasons


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_pass(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
