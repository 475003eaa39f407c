import argparse
import errno
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import graphlets
from graphlets import save_graphs, save_manifest
from graphlets import cli, hashing, sampling
from graphlets.cli import main, worker_count

import synth
from synth import random_connected_graph

TRIANGLE_TXT = "t tri\nv 0\nv 1\nv 2\ne 0 1\ne 0 2\ne 1 2\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _src_env():
    """The environment of a child interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(graphlets.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _dataset(tmp_path, n_graphs=8, seed=0, stem="ds"):
    rng = random.Random(seed)
    graphs, entries = [], []
    from graphlets import ManifestEntry

    for i in range(n_graphs):
        g = random_connected_graph(f"g{i}", rng.randint(6, 12), rng.randint(0, 5), rng)
        graphs.append(g)
        entries.append(ManifestEntry(f"g{i}", "odd" if i % 2 else "even", "unsplit"))
    gpath = str(tmp_path / f"{stem}.graphs")
    mpath = str(tmp_path / f"{stem}.manifest")
    save_graphs(graphs, gpath)
    save_manifest(entries, mpath)
    return gpath, mpath


def test_sample_size_command(capsys):
    assert main(["sample-size", "--a", "79", "--epsilon", "0.1", "--delta", "0.1"]) == 0
    assert capsys.readouterr().out.strip() == "11413"
    assert main(["sample-size", "--a", "227", "--epsilon", "0.05", "--delta", "0.05"]) == 0
    assert capsys.readouterr().out.strip() == "128273"
    assert main(["sample-size", "--a", "1", "--epsilon", "0.1", "--delta", "0.1"]) == 0
    assert capsys.readouterr().out.strip() == "600"

def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["sample-size", "--a", "1", "--epsilon", "0.1"]) == 1
    # an accuracy target or class count out of range depends on no data
    for bad, text in ((["--a", "0", "--epsilon", "0.1", "--delta", "0.1"], "--a"),
                      (["--a", "79", "--epsilon", "2", "--delta", "0.1"], "epsilon"),
                      (["--a", "79", "--epsilon", "0", "--delta", "0.1"], "epsilon"),
                      (["--a", "79", "--epsilon", "nan", "--delta", "0.1"], "epsilon"),
                      (["--a", "79", "--epsilon", "0.1", "--delta", "1"], "delta"),
                      (["--a", "79", "--epsilon", "0.1", "--delta", "-0.5"], "delta")):
        assert main(["sample-size"] + bad) == 1, bad
        assert text in capsys.readouterr().err
    assert main(["no-such-command"]) == 1
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    base = ["embed", "--graphs", graphs, "--manifest", manifest, "--T", "3"]
    assert main(base) == 1  # neither --M nor --epsilon/--delta
    assert main(base + ["--M", "5", "--epsilon", "0.1", "--delta", "0.1"]) == 1
    assert main(base + ["--epsilon", "0.1"]) == 1
    assert main(base + ["--M", "5", "--t-min", "9"]) == 1
    for threads in ("0", "-5", "two"):
        assert main(base + ["--M", "5", "--threads", threads]) == 1
        assert "--threads" in capsys.readouterr().err
    # bad sampler values are usage errors, caught before any input is read
    out = tmp_path / "out"
    missing = str(tmp_path / "missing.graphs")
    budget = ["--epsilon", "0.1", "--delta", "0.1"]
    for bad, text in ((["--M", "5", "--alpha", "2"], "alpha"),
                      (["--M", "5", "--alpha", "nan"], "alpha"),
                      (["--M", "5", "--seed", "-1"], "seed"),
                      (["--M", "0"], "runs"),
                      (["--M", "5", "--per-size-m"], "--per-size-m requires"),
                      (budget + ["--a-override", "0"], "--a-override"),
                      (budget + ["--a-override", "-3"], "--a-override"),
                      (["--epsilon", "2", "--delta", "0.1"], "embed: epsilon"),
                      (["--epsilon", "0.1", "--delta", "0"], "embed: delta"),
                      (["--per-size-m", "--epsilon", "0.1", "--delta", "1"], "embed: delta")):
        for graph_file in (graphs, missing):
            args = ["embed", "--graphs", graph_file, "--manifest", manifest, "--T", "3",
                    "--out", str(out)] + bad
            assert main(args) == 1, bad
            assert text in capsys.readouterr().err
            assert not out.exists()
    for k in ("0", "-1"):  # --k above n-1 depends on the data, see below
        assert main(["knn", "--embeddings", missing, "--manifest", missing, "--k", k,
                     "--out", str(out)]) == 1
        assert "--k" in capsys.readouterr().err
    assert not out.exists()


OPTIONS = {  # each command's options, besides -h and --help
    "sample-size": {"--a", "--epsilon", "--delta"},
    "embed": {"--graphs", "--manifest", "--T", "--t-min", "--M", "--epsilon", "--delta",
              "--a-override", "--per-size-m", "--alpha", "--hash", "--labeled",
              "--normalize", "--vocab-scope", "--seed", "--threads", "--out"},
    "kernel": {"--embeddings", "--manifest", "--kind", "--gamma", "--out"},
    "knn": {"--embeddings", "--manifest", "--kind", "--gamma", "--k", "--out"},
    "audit": {"--hash", "--t", "--no-pairs", "--out"},
    "rho": {"--system-ranks", "--truth-ranks", "--out"},
}


def test_each_command_takes_only_its_options_spelled_in_full(tmp_path, capsys):
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert {command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for command, p in subs.choices.items()} == OPTIONS
    graphs = _write(tmp_path, "g.txt", "t g0\nv 0 a\nv 1 b\ne 0 1 x\n"
                                       "t g1\nv 0 a\nv 1 a\nv 2 b\ne 0 1 x\ne 1 2 y\n")
    manifest = _write(tmp_path, "m.tsv", "g0\tc\ttrain\ng1\td\ttrain\n")
    embeddings = _write(tmp_path, "e.tsv", "graph_id\tbin0\tbin1\ng0\t1\t2\ng1\t3\t1\n")
    ranks = _write(tmp_path, "r.tsv", "g0\ta,b\ng1\tb,a\n")
    embed = ["embed", "--graphs", graphs, "--manifest", manifest, "--T", "2"]
    scored = ["--embeddings", embeddings, "--manifest", manifest, "--kind", "rbf",
              "--gamma", "1"]
    valid = [  # between them, every option of every command
        ["sample-size", "--a", "3", "--epsilon", "0.5", "--delta", "0.5"],
        embed + ["--t-min", "1", "--M", "2", "--alpha", "0.5", "--hash", "degree",
                 "--normalize", "--vocab-scope", "all", "--seed", "1", "--threads", "1"],
        embed + ["--epsilon", "0.5", "--delta", "0.5", "--a-override", "2"],
        embed + ["--epsilon", "0.5", "--delta", "0.5", "--per-size-m", "--labeled"],
        ["kernel"] + scored,
        ["knn", "--k", "1"] + scored,
        ["audit", "--hash", "degree", "--t", "2", "--no-pairs"],
        ["rho", "--system-ranks", ranks, "--truth-ranks", ranks],
    ]
    out = tmp_path / "out"
    valid = [argv + ["--out", str(out)] if "--out" in OPTIONS[argv[0]] else argv
             for argv in valid]
    for command, options in OPTIONS.items():
        assert options <= set().union(*(argv for argv in valid if argv[0] == command))
    for argv in valid:
        assert main(argv) == 0, argv
        capsys.readouterr()
        shutil.rmtree(out, ignore_errors=True)
        # a command that does not read --seed, --threads or --out refuses it
        for option in {"--seed", "--threads", "--out"} - OPTIONS[argv[0]]:
            assert main(argv + [option, "1"]) == 1, (argv[0], option)
            assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err
            assert not out.exists()
        # an option cut short is no option, although it names one option only
        # (a one-letter option has no prefix but "--")
        for option in [o for o in OPTIONS[argv[0]].intersection(argv) if len(o) > 3]:
            assert main([a[:-1] if a == option else a for a in argv]) == 1, (argv[0], option)
            capsys.readouterr()
            assert not out.exists()
    for argv in (["audit", "--hash", "degree", "--t", "2", "--no"],
                 embed + ["--M", "2", "--thr", "2"]):
        assert main(argv + ["--out", str(out)]) == 1, argv
        capsys.readouterr()
        assert not out.exists()


def test_worker_count_is_capped_by_jobs_and_cpus(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert worker_count(1, 100) == 1
    assert worker_count(3, 100) == 3
    assert worker_count(10**9, 100) == 4
    assert worker_count(8, 2) == 2
    assert worker_count(8, 0) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # count unknown
    assert worker_count(8, 100) == 1


def test_data_errors_exit_two(tmp_path, capsys):
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    missing = str(tmp_path / "missing.graphs")
    assert main(["embed", "--graphs", missing, "--manifest", manifest,
                 "--T", "3", "--M", "2"]) == 2
    bad = _write(tmp_path, "bad.graphs", "t g0\nv 0\ne 0 0\n")
    assert main(["embed", "--graphs", bad, "--manifest", manifest,
                 "--T", "3", "--M", "2"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    edgeless = _write(tmp_path, "edgeless.graphs", "t tri\nv 0\n")
    assert main(["embed", "--graphs", edgeless, "--manifest", manifest,
                 "--T", "3", "--M", "2"]) == 2
    assert capsys.readouterr().err == "error: graph 'tri' has no edges\n"
    # a '#x' manifest line is a comment, so graph '#x' would drop out of the embed
    hashed = _write(tmp_path, "hashed.graphs", "t #x\nv 0\nv 1\ne 0 1\n"
                                               "t y\nv 0\nv 1\ne 0 1\n")
    both = _write(tmp_path, "both.tsv", "#x\tc\tunsplit\ny\tc\tunsplit\n")
    out = tmp_path / "out"
    assert main(["embed", "--graphs", hashed, "--manifest", both, "--T", "1", "--M", "2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: line 1: graph id '#x' must be one token that does not start with '#'\n")
    assert not out.exists()
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    emb = _write(tmp_path, "e.tsv", "graph_id\tbin0\ntri\t1\n")
    assert main(["knn", "--embeddings", emb, "--manifest", manifest, "--k", "1",
                 "--out", str(out)]) == 2
    assert "k must be in 1..0" in capsys.readouterr().err
    for text in ("", "# only a comment\n\n"):  # a manifest that lists no graph
        empty = _write(tmp_path, "empty.tsv", text)
        assert main(["embed", "--graphs", graphs, "--manifest", empty, "--T", "3",
                     "--M", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: manifest {empty!r} lists no graph\n"
        assert not out.exists()


def test_walk_budget_no_run_can_meet_is_a_usage_error(tmp_path, capsys):
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    out = tmp_path / "out"
    base = ["embed", "--graphs", graphs, "--manifest", manifest, "--T", "3",
            "--out", str(out)]
    # the table's largest budget is far below the bound
    args = cli.build_parser().parse_args(["embed", "--graphs", graphs, "--manifest", manifest,
                                          "--T", "10", "--epsilon", "0.05", "--delta", "0.05"])
    assert cli._batches(args) == [(sampling.SamplerParams(1289987, 10, 0.5, 0), 1, 0)]
    # one batch per size, each run index offset past the sizes before it
    args = cli.build_parser().parse_args(base + ["--epsilon", "0.1", "--delta", "0.1",
                                                 "--per-size-m", "--seed", "7"])
    assert cli._batches(args) == [(sampling.SamplerParams(600, 1, 0.5, 7), 1, 0),
                                  (sampling.SamplerParams(600, 2, 0.5, 7), 2, 600),
                                  (sampling.SamplerParams(877, 3, 0.5, 7), 3, 1200)]
    # 1e-100 derives about 1.1e202 walks per graph, which would never finish
    for budget in (["--epsilon", "1e-100", "--delta", "0.1"],
                   ["--epsilon", "1e-100", "--delta", "0.1", "--per-size-m"],
                   ["--M", str(10**8 + 1)],
                   # the bound is reported before a bad --alpha
                   ["--M", str(10**8 + 1), "--alpha", "2"],
                   ["--T", "10", "--epsilon", "0.001", "--delta", "0.1", "--per-size-m",
                    "--alpha", "2"]):
        with pytest.raises(cli.UsageError, match="exceeds 100000000 walks per graph"):
            cli._batches(cli.build_parser().parse_args(base + budget))
        assert main(base + budget) == 1
        assert capsys.readouterr().err == (
            "embed: the walk budget exceeds 100000000 walks per graph\n")
    # budgets that are not finite numbers: embed names its bound, and
    # sample-size, which has none, says so
    for a, epsilon, delta in (("79", "1e-200", "0.1"),  # epsilon^2 underflows to 0
                              ("79", "0.1", "1e-320"),  # 1/delta overflows
                              (str(10**400), "0.1", "0.1")):  # a overflows a float
        assert main(["sample-size", "--a", a, "--epsilon", epsilon,
                     "--delta", delta]) == 1
        assert capsys.readouterr().err == (
            "sample-size: the walk budget is not a finite number\n")
        budget = (["--epsilon", epsilon, "--delta", delta]
                  + (["--a-override", a] if a != "79" else []))
        assert main(base + budget) == 1
        assert capsys.readouterr().err == (
            "embed: the walk budget exceeds 100000000 walks per graph\n")
    assert not out.exists()


def test_embeddings_without_the_written_header_exit_two(tmp_path, capsys):
    manifest = _write(tmp_path, "m.tsv", "cyc0\ta\tunsplit\ncyc1\tb\tunsplit\n")
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT.replace("tri", "cyc0") * 40)
    out = tmp_path / "out"
    for text in ("whatever\ncyc0\ncyc1\n",  # read as rows with no bins
                 "graph_id\ncyc0\ncyc1\n",
                 "graph_id\tbin1\ncyc0\t1\ncyc1\t2\n",
                 "graph_id\tbin0\tbin0\ncyc0\t1\t1\ncyc1\t2\t2\n",
                 "",
                 None):  # a graph file passed as embeddings
        emb = graphs if text is None else _write(tmp_path, "e.tsv", text)
        for command in (["kernel", "--kind", "dot"], ["knn", "--k", "1"]):
            assert main(command + ["--embeddings", emb, "--manifest", manifest,
                                   "--out", str(out)]) == 2, (text, command)
            err = capsys.readouterr().err
            assert err.startswith("error: line 1: expected the header graph_id")
            assert err.count("\n") == 1 and len(err) < 100
    assert not out.exists()


def test_embeddings_with_no_rows_or_a_repeated_id_exit_two(tmp_path, capsys):
    manifest = _write(tmp_path, "m.tsv", "g0\ta\tunsplit\ng1\tb\tunsplit\n")
    out = tmp_path / "out"
    for text, message in (("graph_id\tbin0\n", "error: no embeddings given\n"),
                          ("graph_id\tbin0\ng0\t1\ng1\t2\ng0\t3\n",
                           "error: line 4: duplicate graph id 'g0'\n"),
                          ("graph_id\tbin0\ng0\t1\ng2\t2\n",
                           "error: embeddings not covered by manifest: ['g2']\n")):
        emb = _write(tmp_path, "e.tsv", text)
        for command in (["kernel", "--kind", "dot"], ["knn", "--k", "1"]):
            assert main(command + ["--embeddings", emb, "--manifest", manifest,
                                   "--out", str(out)]) == 2, (text, command)
            assert capsys.readouterr().err == message
    assert not out.exists()


def test_non_finite_embedding_cells_exit_two(tmp_path, capsys):
    manifest = _write(tmp_path, "m.tsv", "c1\ta\tunsplit\nc2\tb\tunsplit\n")
    out = tmp_path / "out"
    for cell in ("nan", "NaN", "inf", "-inf", "1e999", str(10**400),  # kernels use doubles
                 "bin0", ""):  # and no number at all
        emb = _write(tmp_path, "e.tsv",
                     f"graph_id\tbin0\tbin1\nc1\t1\t2\nc2\t0.5\t{cell}\n")
        for command in (["kernel"], ["knn", "--k", "1"]):
            assert main(command + ["--embeddings", emb, "--manifest", manifest,
                                   "--out", str(out)]) == 2
            shown = repr(cell) if len(cell) < 50 else f"{cell!r:.60}... ({len(cell)} characters)"
            assert capsys.readouterr().err == (
                f"error: graph 'c2': cell {shown} is not a finite number\n")
    assert not out.exists()


def test_kernels_that_are_not_finite_exit_two(tmp_path, capsys):
    # finite cells whose products or sums overflow a double
    emb = _write(tmp_path, "e.tsv",
                 "graph_id\tbin0\tbin1\ng0\t1e308\t1e308\ng1\t1e308\t1e308\ng2\t1\t0\n")
    manifest = _write(tmp_path, "m.tsv", "g0\ta\tunsplit\ng1\ta\tunsplit\ng2\tb\tunsplit\n")
    out = tmp_path / "out"
    for command in (["kernel", "--kind", "dot"], ["kernel", "--kind", "hist-int"],
                    ["kernel", "--kind", "cosine"], ["knn", "--k", "1"]):
        assert main(command + ["--embeddings", emb, "--manifest", manifest,
                               "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the kernel matrix has entries that are not finite numbers\n")
    assert not out.exists()


def test_embed_labels_with_key_separators_exit_two(tmp_path, capsys):
    manifest = _write(tmp_path, "m.tsv", "g0\tc\tunsplit\n")
    out = tmp_path / "out"
    for text in ("t g0\nv 0 a,b\nv 1 c\ne 0 1\n", "t g0\nv 0\nv 1\ne 0 1 p|q\n"):
        graphs = _write(tmp_path, "g.txt", text)
        assert main(["embed", "--graphs", graphs, "--manifest", manifest, "--labeled",
                     "--T", "1", "--M", "2", "--out", str(out)]) == 2
        assert "contains ',' or '|'" in capsys.readouterr().err
    assert not out.exists()


def test_a_failed_embed_leaves_neither_file(tmp_path, capsys, monkeypatch):
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    argv = ["embed", "--graphs", graphs, "--manifest", manifest, "--T", "3", "--M", "2"]

    def no_walks(*args):
        raise AssertionError("the walks ran before the outputs were checked")

    real_pmap = cli._pmap
    monkeypatch.setattr(cli, "_pmap", no_walks)
    for name in ("embeddings.tsv", "vocabulary.txt"):
        out = tmp_path / name.split(".")[0]
        (out / name).mkdir(parents=True)  # a directory where the file would go
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: {str(out / name)!r}\n")
        assert os.listdir(out) == [name]  # no other file of the run, no temp file
        assert os.listdir(out / name) == []
    afile = tmp_path / "afile"  # a regular file where --out would go
    afile.write_bytes(b"x")
    assert main(argv + ["--out", str(afile)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: {str(afile)!r}\n"
    assert afile.read_bytes() == b"x"

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), args[1])

    # a write that fails after the walks leaves an earlier pair, or none, as it was
    monkeypatch.setattr(cli, "_pmap", real_pmap)
    full, earlier = tmp_path / "full", tmp_path / "earlier"
    assert main(argv + ["--out", str(earlier)]) == 0
    capsys.readouterr()
    pair = {name: (earlier / name).read_bytes() for name in os.listdir(earlier)}
    for failing in ("write_embeddings", "write_vocabulary"):
        with monkeypatch.context() as patch:
            patch.setattr(cli, failing, full_disk)
            for out, before in ((full, {}), (earlier, pair)):
                assert main(argv + ["--M", "5", "--out", str(out)]) == 2
                target = out / ("embeddings.tsv" if failing == "write_embeddings"
                                else "vocabulary.txt")  # not the staged vocabulary
                assert capsys.readouterr().err == (
                    f"error: [Errno 28] No space left on device: {str(target)!r}\n")
                assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


def test_embed_without_class_count_needs_a_override(tmp_path, capsys):
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    base = ["embed", "--graphs", graphs, "--manifest", manifest, "--T", "11",
            "--epsilon", "0.5", "--delta", "0.5", "--out", str(tmp_path / "out")]
    assert main(base) == 1
    assert capsys.readouterr().err == (
        "embed: no built-in class count for t=11; supply --a-override\n")
    assert main(base + ["--a-override", "4"]) == 0
    capsys.readouterr()


def test_embed_triangle_forced_single_bin(tmp_path, capsys):
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    out = str(tmp_path / "out")
    rc = main(["embed", "--graphs", graphs, "--manifest", manifest,
               "--T", "3", "--t-min", "3", "--M", "10", "--hash", "degree",
               "--seed", "1", "--out", out])
    assert rc == 0
    vocab = (tmp_path / "out" / "vocabulary.txt").read_text()
    assert vocab == "3|degree|2,2,2||\n"
    emb = (tmp_path / "out" / "embeddings.tsv").read_text()
    assert emb == "graph_id\tbin0\ntri\t10\n"
    assert "dead_end_runs=0" in capsys.readouterr().out


def test_embed_resolves_m_from_accuracy_target(tmp_path, capsys):
    cycle5 = "t c5\nv 0\nv 1\nv 2\nv 3\nv 4\ne 0 1\ne 0 4\ne 1 2\ne 2 3\ne 3 4\n"
    graphs = _write(tmp_path, "g.txt", cycle5)
    manifest = _write(tmp_path, "m.tsv", "c5\tc\tunsplit\n")
    out = str(tmp_path / "out")
    rc = main(["embed", "--graphs", graphs, "--manifest", manifest,
               "--T", "4", "--t-min", "4", "--epsilon", "0.1", "--delta", "0.1",
               "--out", out])
    assert rc == 0
    assert "runs=1154" in capsys.readouterr().out


def test_embed_per_size_budgets(tmp_path, capsys):
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    out = str(tmp_path / "out")
    rc = main(["embed", "--graphs", graphs, "--manifest", manifest,
               "--T", "3", "--epsilon", "0.1", "--delta", "0.1",
               "--per-size-m", "--hash", "degree", "--out", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "runs=2077" in stdout  # 600 + 600 + 877 across sizes 1..3
    emb = (tmp_path / "out" / "embeddings.tsv").read_text().splitlines()
    assert emb[1] == "tri\t600\t600\t877"
    # --a-override conflicts with per-size budgets
    assert main(["embed", "--graphs", graphs, "--manifest", manifest,
                 "--T", "3", "--epsilon", "0.1", "--delta", "0.1",
                 "--per-size-m", "--a-override", "4", "--out", out]) == 1
    assert main(["embed", "--graphs", graphs, "--manifest", manifest,
                 "--T", "3", "--M", "5", "--a-override", "4", "--out", out]) == 1
    capsys.readouterr()


def test_per_size_budgets_stop_at_the_first_size_without_a_class_count(tmp_path):
    # sizes past 10 have no class count, so a huge --T must fail there
    # without first building one batch size per t; the child's address
    # space is capped, so a run that did would fail, not fill the machine
    resource = pytest.importorskip("resource")
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    out = tmp_path / "out"

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "graphlets.cli", "embed", "--graphs", graphs, "--manifest",
         manifest, "--T", str(10**12), "--epsilon", "0.5", "--delta", "0.5", "--per-size-m",
         "--out", str(out)],
        capture_output=True, text=True, env=_src_env(), preexec_fn=cap, timeout=120)
    assert (proc.returncode, proc.stderr) == (
        1, "embed: no built-in class count for t=11; supply --a-override\n")
    assert not out.exists()


def test_embed_labeled_flag(tmp_path, capsys):
    labeled = "t g0\nv 0 C\nv 1 N\ne 0 1 1\n"
    graphs = _write(tmp_path, "g.txt", labeled)
    manifest = _write(tmp_path, "m.tsv", "g0\tc\tunsplit\n")
    out = str(tmp_path / "out")
    rc = main(["embed", "--graphs", graphs, "--manifest", manifest, "--T", "1",
               "--M", "3", "--hash", "degree", "--labeled", "--out", out])
    assert rc == 0
    assert (tmp_path / "out" / "vocabulary.txt").read_text() == "1|degree|1,1|C,N|1\n"
    # without --labeled the same file embeds structurally
    rc = main(["embed", "--graphs", graphs, "--manifest", manifest, "--T", "1",
               "--M", "3", "--hash", "degree", "--out", out])
    assert rc == 0
    assert (tmp_path / "out" / "vocabulary.txt").read_text() == "1|degree|1,1||\n"
    # --labeled on an unlabelled file is a data error
    plain = _write(tmp_path, "plain.txt", "t g0\nv 0\nv 1\ne 0 1\n")
    manifest2 = _write(tmp_path, "m2.tsv", "g0\tc\tunsplit\n")
    assert main(["embed", "--graphs", plain, "--manifest", manifest2, "--T", "1",
                 "--M", "3", "--labeled", "--out", out]) == 2
    capsys.readouterr()


def test_embed_byte_identical_across_threads(tmp_path, capsys):
    graphs, manifest = _dataset(tmp_path, n_graphs=6, seed=3)
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"out{threads}"
        rc = main(["embed", "--graphs", graphs, "--manifest", manifest,
                   "--T", "4", "--M", "12", "--seed", "7",
                   "--threads", threads, "--out", str(out)])
        assert rc == 0
        outputs[threads] = (
            (out / "vocabulary.txt").read_bytes(),
            (out / "embeddings.tsv").read_bytes(),
        )
    assert outputs["1"] == outputs["4"]
    capsys.readouterr()


# Runs the CLI in a fresh interpreter whose pool workers are spawned.
_SPAWNED_CLI = """
import multiprocessing, sys
from graphlets.cli import main
multiprocessing.set_start_method("spawn")
sys.exit(main(sys.argv[1:]))
"""


def test_embed_workers_that_start_from_a_fresh_import(tmp_path, capsys):
    # A spawned worker (and a forkserver one, Linux's default from Python
    # 3.14) shares no module state with the parent: it binds the embed's
    # names itself, and its bytes equal those of the in-process walks.
    if (os.cpu_count() or 1) < 2:
        pytest.skip("with one CPU, --threads 2 starts no worker")
    graphs, manifest = _dataset(tmp_path, n_graphs=6, seed=3)
    argv = ["embed", "--graphs", graphs, "--manifest", manifest,
            "--T", "5", "--M", "12", "--seed", "7"]
    assert main(argv + ["--threads", "1", "--out", str(tmp_path / "t1")]) == 0
    capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWNED_CLI] + argv + ["--threads", "2", "--out",
                                                       str(tmp_path / "t2")],
        capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("vocabulary.txt", "embeddings.tsv"):
        assert (tmp_path / "t2" / name).read_bytes() == (tmp_path / "t1" / name).read_bytes()


def test_embed_drops_walk_states_and_code_caches_before_the_rows(
        tmp_path, capsys, monkeypatch):
    # at --threads 1 the walks run in this process; the dense rows and the
    # files are built without the states, which hold every code, beside them
    graphs, manifest = _dataset(tmp_path, n_graphs=4, seed=5)
    held = []

    def pmap(*args):
        out = real_pmap(*args)
        held.append(len(sampling._STATES))
        return out

    def finalize(*args):
        held.append(len(sampling._STATES))
        return real_finalize(*args)

    real_pmap, real_finalize = cli._pmap, cli.finalize_embeddings
    monkeypatch.setattr(cli, "_pmap", pmap)
    monkeypatch.setattr(cli, "finalize_embeddings", finalize)
    assert main(["embed", "--graphs", graphs, "--manifest", manifest, "--T", "5",
                 "--M", "10", "--threads", "1", "--out", str(tmp_path / "out")]) == 0
    states, after = held
    assert states > 0 and after == 0
    # the states are the only cache: hashing keeps nothing to clear
    assert [n for n in dir(hashing) if hasattr(getattr(hashing, n), "cache_clear")] == []
    capsys.readouterr()


def _embed_digests(tmp_path, name, graphs, entries, args):
    gpath, mpath, out = (tmp_path / f"{name}.{ext}" for ext in ("graphs", "manifest", "out"))
    save_graphs(graphs, str(gpath))
    save_manifest(entries, str(mpath))
    rc = main(["embed", "--graphs", str(gpath), "--manifest", str(mpath), "--out", str(out)]
              + args)
    assert rc == 0
    assert sorted(os.listdir(out)) == ["embeddings.tsv", "vocabulary.txt"]  # no temp file
    return [hashlib.sha256((out / f).read_bytes()).hexdigest()[:16]
            for f in ("vocabulary.txt", "embeddings.tsv")]


def test_embed_bytes_are_pinned(tmp_path, capsys):
    # sha256 prefixes of vocabulary.txt and embeddings.tsv, recorded from
    # the sampler that drew through randrange and built a Graphlet per
    # step: unlabelled two-class, labelled, and per-size budgets; the
    # labelled clustering pin was recorded from the Fraction clustering
    # values, before every measure became integer numerators.
    from graphlets import ManifestEntry

    graphs, entries = synth.two_class_dataset(20, random.Random(5))
    assert _embed_digests(tmp_path, "two", graphs, entries,
                          ["--T", "7", "--M", "40", "--seed", "5"]) == \
        ["4d0395dcac159af1", "904448c04da53595"]
    rng = random.Random(7)
    graphs = [random_connected_graph(f"l{i}", 12, 6, rng, labeled=True) for i in range(8)]
    entries = [ManifestEntry(g.id, f"c{i % 2}", "unsplit") for i, g in enumerate(graphs)]
    assert _embed_digests(tmp_path, "lab", graphs, entries,
                          ["--T", "6", "--M", "30", "--seed", "7", "--labeled"]) == \
        ["a77d5efb68014fa8", "34b97d96358ba4f1"]
    assert _embed_digests(tmp_path, "labc", graphs, entries,
                          ["--T", "6", "--M", "30", "--seed", "7", "--labeled",
                           "--hash", "clustering"]) == \
        ["c4731fa05df070a2", "f8fd95383fec230b"]
    rng = random.Random(9)
    graphs = [random_connected_graph(f"p{i}", 10, 4, rng) for i in range(8)]
    entries = [ManifestEntry(g.id, f"c{i % 2}", "unsplit") for i, g in enumerate(graphs)]
    assert _embed_digests(tmp_path, "per", graphs, entries,
                          ["--T", "5", "--t-min", "2", "--epsilon", "0.3", "--delta", "0.3",
                           "--per-size-m", "--hash", "clustering", "--seed", "9"]) == \
        ["358adbfb34482a12", "ba5f4a17b6192198"]
    capsys.readouterr()


def test_vocab_scope_train_vs_all(tmp_path, capsys):
    graphs = _write(tmp_path, "g.txt",
                    TRIANGLE_TXT + "t p3\nv 0\nv 1\nv 2\ne 0 1\ne 1 2\n")
    manifest = _write(tmp_path, "m.tsv", "tri\tc\ttrain\np3\tc\ttest\n")
    out = str(tmp_path / "out")
    rc = main(["embed", "--graphs", graphs, "--manifest", manifest,
               "--T", "3", "--t-min", "3", "--M", "4", "--hash", "degree",
               "--out", out])
    assert rc == 0
    # the test graph's 2-edge dead-end runs produce nothing at t=3, and
    # its codes can never extend the frozen train vocabulary
    vocab = (tmp_path / "out" / "vocabulary.txt").read_text()
    assert vocab == "3|degree|2,2,2||\n"
    stdout = capsys.readouterr().out

    rc = main(["embed", "--graphs", graphs, "--manifest", manifest,
               "--T", "2", "--t-min", "1", "--M", "4", "--hash", "degree",
               "--vocab-scope", "all", "--out", out])
    assert rc == 0
    assert "oov=0" in capsys.readouterr().out


def test_kernel_command_hist_int_diagonal(tmp_path, capsys):
    graphs, manifest = _dataset(tmp_path, n_graphs=5, seed=4)
    out = str(tmp_path / "out")
    assert main(["embed", "--graphs", graphs, "--manifest", manifest,
                 "--T", "3", "--M", "9", "--seed", "2", "--out", out]) == 0
    emb_path = str(tmp_path / "out" / "embeddings.tsv")
    assert main(["kernel", "--embeddings", emb_path, "--manifest", manifest,
                 "--kind", "hist-int", "--out", out]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / "kernel.txt").read_text().splitlines()
    assert len(lines) == 5
    # row i: label, 0:i+1, then 5 kernel cells; diagonal = total counts = 27
    first = lines[0].split(" ")
    assert len(first) == 2 + 5
    assert first[0] in {"odd", "even"}
    assert first[1] == "0:1"
    assert float(first[2].split(":")[1]) == 27.0
    # without a manifest every row's label is 0
    assert main(["kernel", "--embeddings", emb_path, "--kind", "hist-int",
                 "--out", out]) == 0
    capsys.readouterr()
    unlabeled = (tmp_path / "out" / "kernel.txt").read_text().splitlines()
    assert unlabeled == ["0 " + line.split(" ", 1)[1] for line in lines]
    assert sorted(os.listdir(out)) == ["embeddings.tsv", "kernel.txt", "vocabulary.txt"]


def test_kernel_rejects_class_labels_the_export_cannot_carry(tmp_path, capsys):
    graphs, manifest = _dataset(tmp_path, n_graphs=2, seed=4)
    out = tmp_path / "out"
    assert main(["embed", "--graphs", graphs, "--manifest", manifest,
                 "--T", "2", "--M", "3", "--out", str(out)]) == 0
    emb_path = str(out / "embeddings.tsv")
    for first, second in (("class one", "even"), ("odd", "")):
        bad = _write(tmp_path, "bad.manifest",
                     f"g0\t{first}\tunsplit\ng1\t{second}\tunsplit\n")
        assert main(["kernel", "--embeddings", emb_path, "--manifest", bad,
                     "--out", str(out)]) == 2
        assert "class labels" in capsys.readouterr().err
        assert not (out / "kernel.txt").exists()


def test_kernel_requires_gamma_for_rbf(tmp_path, capsys):
    graphs, manifest = _dataset(tmp_path, n_graphs=3, seed=5)
    out = str(tmp_path / "out")
    assert main(["embed", "--graphs", graphs, "--manifest", manifest,
                 "--T", "2", "--M", "4", "--out", out]) == 0
    emb_path = str(tmp_path / "out" / "embeddings.tsv")
    assert main(["kernel", "--embeddings", emb_path, "--kind", "rbf",
                 "--out", out]) == 1
    capsys.readouterr()


def test_kernel_and_knn_share_one_kernel_spec_rule(tmp_path, capsys):
    graphs, manifest = _dataset(tmp_path, n_graphs=3, seed=5)
    out = str(tmp_path / "out")
    assert main(["embed", "--graphs", graphs, "--manifest", manifest,
                 "--T", "2", "--M", "4", "--out", out]) == 0
    emb_path = str(tmp_path / "out" / "embeddings.tsv")
    for cmd, extra in (("kernel", []), ("knn", ["--k", "1"])):
        base = [cmd, "--embeddings", emb_path, "--manifest", manifest,
                "--out", out] + extra
        for bad in (["--kind", "rbf"],
                    ["--kind", "rbf", "--gamma", "-1"],
                    ["--kind", "rbf", "--gamma", "nan"],
                    ["--kind", "rbf", "--gamma", "inf"],
                    ["--kind", "dot", "--gamma", "0.5"],
                    ["--kind", "hist-int", "--gamma", "1"]):
            assert main(base + bad) == 1, (cmd, bad)
            assert capsys.readouterr().err.startswith(f"{cmd}: "), (cmd, bad)
        assert main(base + ["--kind", "rbf", "--gamma", "0.5"]) == 0
    capsys.readouterr()


def test_closed_stdout_exits_141_after_writing_files(tmp_path):
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    out = tmp_path / "out"
    env = _src_env()
    commands = (
        ["embed", "--graphs", graphs, "--manifest", manifest, "--T", "3",
         "--t-min", "3", "--M", "10", "--hash", "degree", "--out", str(out)],
        ["audit", "--hash", "degree", "--t", "3", "--out", str(out)],
    )
    for argv in commands:
        read_end, write_end = os.pipe()
        os.close(read_end)  # nothing will ever read what the command prints
        try:
            proc = subprocess.run([sys.executable, "-m", "graphlets.cli"] + argv,
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b""), argv
    assert (out / "vocabulary.txt").read_text() == "3|degree|2,2,2||\n"
    assert (out / "embeddings.tsv").read_text() == "graph_id\tbin0\ntri\t10\n"
    assert (out / "audit-degree-t3.tsv").read_text().startswith("fn\tt\t")
    assert sorted(os.listdir(out)) == ["audit-degree-t3.tsv", "embeddings.tsv",
                                       "vocabulary.txt"]


# Runs commands in one fresh interpreter and reports, after each, which
# of the modules a command may not need have been imported.
_STARTUP_MODULES = """
import contextlib, io, json, sys
from graphlets.cli import main
heavy = ["graphlets.sampling", "graphlets.embedding", "graphlets.kernels", "numpy",
         "concurrent.futures.process", "dataclasses", "fractions"]
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # --version exits from the parser
            rc = exc.code
    seen.append([argv[0], rc, [m for m in heavy if m in sys.modules]])
print(json.dumps(seen))
"""


def test_commands_without_kernels_start_without_numpy(tmp_path):
    graphs = _write(tmp_path, "g.txt", TRIANGLE_TXT)
    manifest = _write(tmp_path, "m.tsv", "tri\tc\tunsplit\n")
    out = str(tmp_path / "out")
    commands = [
        ["--version"],
        ["audit", "--hash", "degree", "--t", "3", "--out", out],
        ["embed", "--graphs", graphs, "--manifest", manifest, "--T", "3",
         "--M", "10", "--threads", "1", "--out", out],
        ["sample-size", "--a", "3", "--epsilon", "0.1", "--delta", "0.1"],
        ["kernel", "--embeddings", os.path.join(out, "embeddings.tsv"), "--out", out],
    ]
    proc = subprocess.run([sys.executable, "-c", _STARTUP_MODULES, json.dumps(commands)],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    sampler = ["graphlets.sampling", "graphlets.embedding"]
    assert json.loads(proc.stdout) == [
        ["--version", 0, []],  # each command imports only the modules it runs
        ["audit", 0, []],
        ["embed", 0, sampler],
        ["sample-size", 0, sampler],
        ["kernel", 0, sampler + ["graphlets.kernels", "numpy"]],
    ]


def test_knn_duplicated_graphs_retrieve_each_other(tmp_path, capsys):
    # two copies of each structure: every query's nearest neighbor is its twin
    text = ""
    manifest = ""
    for i in range(4):
        shape = TRIANGLE_TXT if i % 2 == 0 else "t X\nv 0\nv 1\nv 2\nv 3\ne 0 1\ne 0 2\ne 0 3\n"
        text += shape.replace("t tri", f"t g{i}").replace("t X", f"t g{i}")
        manifest += f"g{i}\t{'tri' if i % 2 == 0 else 'star'}\tunsplit\n"
    graphs = _write(tmp_path, "g.txt", text)
    mpath = _write(tmp_path, "m.tsv", manifest)
    out = str(tmp_path / "out")
    assert main(["embed", "--graphs", graphs, "--manifest", mpath,
                 "--T", "3", "--M", "20", "--seed", "3", "--out", out]) == 0
    capsys.readouterr()
    assert main(["knn", "--embeddings", str(tmp_path / "out" / "embeddings.tsv"),
                 "--manifest", mpath, "--k", "1", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert (tmp_path / "out" / "retrieval.tsv").read_text() == "rank\thit_count\n1\t4\n"
    assert sorted(os.listdir(out)) == ["embeddings.tsv", "retrieval.tsv", "vocabulary.txt"]
    assert "accuracy: 1.0000" in stdout


def test_audit_command(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["audit", "--hash", "clustering", "--t", "3", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "clustering\t3\t3\t3\t1\t1/3\t0.33333" in stdout
    report = (tmp_path / "out" / "audit-clustering-t3.tsv").read_text()
    assert "# colliding pair 0" in report
    assert stdout.splitlines()[:2] == report.splitlines()[:2]
    for t in ("0", "11"):  # a usage error, checked before any enumeration
        assert main(["audit", "--hash", "degree", "--t", t, "--out", out]) == 1
        assert "--t must be in 1..10" in capsys.readouterr().err


def test_audit_betweenness_t7_single_collision(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["audit", "--hash", "betweenness", "--t", "7", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "betweenness\t7\t79\t3081\t1\t1/3081\t0.00032" in stdout
    assert os.listdir(out) == ["audit-betweenness-t7.tsv"]  # the report and nothing else


def test_rho_command(tmp_path, capsys):
    system = _write(tmp_path, "sys.tsv", "q0\tm1,m2,m3\nq1\tm2,m1\n")
    truth = _write(tmp_path, "truth.tsv", "q0\tm1,m2,m3\nq1\tm1,m2\n")
    out = str(tmp_path / "out")
    assert main(["rho", "--system-ranks", system, "--truth-ranks", truth,
                 "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "mean rho over 2 queries: 0.750000" in stdout
    lines = (tmp_path / "out" / "rho.tsv").read_text().splitlines()
    assert lines[0] == "query\trho"
    assert lines[1] == "q0\t1.000000"
    assert lines[2] == "q1\t0.500000"
    assert lines[3] == "mean\t0.750000"
    # unmatched query ids are a data error
    lonely = _write(tmp_path, "lonely.tsv", "q9\tm1\n")
    assert main(["rho", "--system-ranks", lonely, "--truth-ranks", truth,
                 "--out", out]) == 2
    capsys.readouterr()
    comments = _write(tmp_path, "comments.tsv", "# no queries\n\n")
    assert main(["rho", "--system-ranks", comments, "--truth-ranks", truth,
                 "--out", out]) == 2
    assert capsys.readouterr().err == "error: no queries in system ranks file\n"
    assert os.listdir(out) == ["rho.tsv"]  # the failed runs left the first one's file
