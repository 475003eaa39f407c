"""A seeded sweep of hostile inputs through ``cli.main``.

Valid inputs built from ``synth`` graphs (graph file, manifest, embeddings
and rankings) are mutated: a record dropped or duplicated, a token swapped
or oversized, non-UTF-8 bytes added, CRLF or U+2028 line ends, or the file
emptied. Every run must exit 0, 1 or 2 without an uncaught exception and
with a short message, a byte that is not UTF-8 must be named with its line,
and a run that fails must write no output file. A long command-line value
gets a short usage message too, and so does every value of a fixed hostile
list given to each value option of each command.
"""

import random
import re

from graphlets import ManifestEntry, save_graphs, save_manifest
from graphlets.cli import main

from synth import random_connected_graph

MUTANTS_PER_FILE = 30
BIG_TOKENS = (b"9" * 5000, b"x" * 5000, b"-" + b"9" * 400, b"1e999")
MAX_STDERR = 300  # characters: an error message echoes a long token or id list cut short
HOSTILE_VALUES = ("0", "-1", "nan", "inf", "1e999", "1e-300", str(10**12), str(2**64), "", "x",
                  "1.5")


def _drop(lines, rng):
    del lines[rng.randrange(len(lines))]


def _duplicate(lines, rng):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))


def _token_slots(lines):
    """Each line cut into tokens and the whitespace between them (the odd
    pieces), and the (line, piece) index of every token."""
    pieces = [re.split(rb"(\s+)", line) for line in lines]
    return pieces, [(i, j) for i, p in enumerate(pieces) for j in range(0, len(p), 2) if p[j]]


def _swap_tokens(lines, rng):
    pieces, slots = _token_slots(lines)
    (i, j), (k, m) = rng.choice(slots), rng.choice(slots)
    pieces[i][j], pieces[k][m] = pieces[k][m], pieces[i][j]
    lines[:] = [b"".join(p) for p in pieces]


def _oversize_token(lines, rng):
    pieces, slots = _token_slots(lines)
    i, j = rng.choice(slots)
    pieces[i][j] = rng.choice(BIG_TOKENS)
    lines[i] = b"".join(pieces[i])


def _non_utf8(lines, rng):
    i = rng.randrange(len(lines))
    at = rng.randrange(len(lines[i]) + 1)
    bad = rng.choice((b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"))
    lines[i] = lines[i][:at] + bad + lines[i][at:]


def _crlf(lines, rng):
    lines[:-1] = [line + b"\r" for line in lines[:-1]]


def _u2028(lines, rng):
    i = rng.randrange(len(lines) - 1)
    lines[i:i + 2] = [b"\xe2\x80\xa8".join(lines[i:i + 2])]


def _empty(lines, rng):
    lines.clear()


MUTATIONS = (_drop, _duplicate, _swap_tokens, _oversize_token, _non_utf8, _crlf, _u2028,
             _empty)


def _mutants(data: bytes, rng):
    """(name, bytes) of MUTANTS_PER_FILE mutants of data, each mutation in turn."""
    for n in range(MUTANTS_PER_FILE):
        mutate = MUTATIONS[n % len(MUTATIONS)]
        lines = data.split(b"\n")  # the last one is the empty rest after the final \n
        mutate(lines, rng)
        yield mutate.__name__, b"\n".join(lines)


def _check_run(argv, out, case, capsys) -> tuple[int, str]:
    """Run argv with --out out: exit 0, 1 or 2 with a short message and no
    traceback, and no output file after a failure. Returns (exit code, stderr)."""
    try:
        rc = main(argv + ["--out", str(out)])
    except Exception as exc:  # main lets only unexpected errors through
        raise AssertionError(f"uncaught exception on {case}") from exc
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), case
    assert "Traceback" not in err, case
    assert len(err) < MAX_STDERR, (case, err[:400])
    if rc:
        assert not out.exists() or not any(out.iterdir()), case
    return rc, err


def test_mutated_inputs_exit_cleanly_and_leave_no_output(tmp_path, capsys):
    rng = random.Random(1)
    graphs = [random_connected_graph(f"g{i}", rng.randint(4, 7), rng.randint(0, 3), rng,
                                     labeled=True) for i in range(6)]
    entries = [ManifestEntry(g.id, "ab"[i % 2], ("train", "test")[i % 3 == 2])
               for i, g in enumerate(graphs)]
    valid = {name: str(tmp_path / name) for name in ("g.txt", "m.tsv", "emb", "ranks.tsv")}
    save_graphs(graphs, valid["g.txt"])
    save_manifest(entries, valid["m.tsv"])
    embed = ["embed", "--graphs", valid["g.txt"], "--manifest", valid["m.tsv"],
             "--T", "3", "--M", "3"]
    assert main(embed + ["--out", valid["emb"]]) == 0
    valid["emb"] += "/embeddings.tsv"
    with open(valid["ranks.tsv"], "w") as fh:
        for g in graphs:
            fh.write(f"{g.id}\t{','.join(rng.sample('abcd', 4))}\n")
    capsys.readouterr()

    def commands(name, path):
        """The argument vectors that read path in place of the valid input name."""
        given = dict(valid, **{name: path})
        embed = ["embed", "--graphs", given["g.txt"], "--manifest", given["m.tsv"],
                 "--T", "3", "--M", "3"]
        kernel = ["--embeddings", given["emb"], "--manifest", given["m.tsv"]]
        rho = ["rho", "--system-ranks", path, "--truth-ranks", valid["ranks.tsv"]]
        return {"g.txt": [embed, embed + ["--labeled"]],
                "m.tsv": [embed, ["knn", "--k", "1"] + kernel],
                "emb": [["kernel"] + kernel, ["knn", "--k", "2"] + kernel],
                "ranks.tsv": [rho, ["rho", "--system-ranks", valid["ranks.tsv"],
                                    "--truth-ranks", path]]}[name]

    runs = 0
    for name, path in valid.items():
        with open(path, "rb") as fh:
            data = fh.read()
        for n, (mutation, mutant) in enumerate(_mutants(data, rng)):
            bad = tmp_path / f"{name}.{n}.bad"
            bad.write_bytes(mutant)
            for argv in commands(name, str(bad)):
                case = (name, mutation, mutant[:200], argv[0])
                rc, err = _check_run(argv, tmp_path / f"out{runs}", case, capsys)
                if mutation == "_non_utf8":  # every command reads the mutant whole first
                    assert rc == 2 and re.search(r"^error: line \d+: byte 0x", err), (case, err)
                runs += 1
    assert runs == 2 * len(valid) * MUTANTS_PER_FILE


def test_hostile_option_values_exit_cleanly_and_leave_no_output(tmp_path, capsys):
    # --threads is left out: were its cap ever lost, a large value would
    # start that many workers (test_cli checks the cap)
    rng = random.Random(2)
    graphs = [random_connected_graph(f"g{i}", rng.randint(4, 6), rng.randint(0, 2), rng,
                                     labeled=i < 2) for i in range(4)]
    mixed, plain, manifest, ranks = (str(tmp_path / name)
                                     for name in ("mixed.txt", "g.txt", "m.tsv", "r.tsv"))
    save_graphs(graphs, mixed)  # two labelled graphs, then two unlabelled ones
    save_graphs([g._replace(node_labels=None, edge_labels=None) for g in graphs], plain)
    save_manifest([ManifestEntry(g.id, "ab"[i % 2], ("train", "test")[i == 3])
                   for i, g in enumerate(graphs)], manifest)
    with open(ranks, "w") as fh:
        fh.writelines(f"{g.id}\ta,b\n" for g in graphs)
    embed = ["embed", "--graphs", plain, "--manifest", manifest]
    assert main(embed + ["--T", "3", "--M", "3", "--out", str(tmp_path / "emb")]) == 0
    scored = ["--embeddings", str(tmp_path / "emb" / "embeddings.tsv"), "--manifest", manifest]
    capsys.readouterr()

    runs = 0
    mixed_embed = ["embed", "--graphs", mixed, "--manifest", manifest, "--T", "3", "--M", "3"]
    for argv, rc in ((mixed_embed, 0), (mixed_embed + ["--labeled"], 2)):  # g2 has no labels
        assert _check_run(argv, tmp_path / f"out{runs}", argv, capsys)[0] == rc, argv
        runs += 1
    # each command with valid values for its value options; each option in
    # turn then takes every hostile value while the others keep theirs
    for head, valid in (
            (["sample-size"], {"--a": "5", "--epsilon": "0.5", "--delta": "0.5", "--seed": "0"}),
            (embed, {"--T": "3", "--t-min": "1", "--M": "3", "--alpha": "0.5",
                     "--hash": "auto", "--vocab-scope": "train", "--seed": "0"}),
            (embed, {"--T": "3", "--epsilon": "0.5", "--delta": "0.5", "--a-override": "5"}),
            (["kernel"] + scored, {"--kind": "rbf", "--gamma": "1", "--seed": "0"}),
            (["knn"] + scored, {"--k": "1", "--kind": "rbf", "--gamma": "1", "--seed": "0"}),
            (["audit"], {"--hash": "degree", "--t": "3", "--seed": "0"}),
            (["rho", "--system-ranks", ranks, "--truth-ranks", ranks], {"--seed": "0"})):
        argv = head + [a for item in valid.items() for a in item]
        assert _check_run(argv, tmp_path / f"out{runs}", argv, capsys)[0] == 0, argv
        runs += 1
        for option in valid:
            for value in HOSTILE_VALUES:
                argv = head + [a for name, v in valid.items()
                               for a in (name, value if name == option else v)]
                _check_run(argv, tmp_path / f"out{runs}", (option, value, argv[0]), capsys)
                runs += 1
    assert runs == 2 + 7 + 26 * len(HOSTILE_VALUES)


def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, capsys):
    # lines end at \n, \r\n or \r, as every reader counts them
    manifest = tmp_path / "m.tsv"
    manifest.write_bytes(b"g\ta\ttrain\n")
    out = tmp_path / "out"
    for text, message in ((b"t g\nv 0 \xff\n",
                           "line 2: byte 0xff is not UTF-8 (invalid start byte)"),
                          (b"# c\r\n\r\rt g\rv 0 a\xc3",
                           "line 5: byte 0xc3 is not UTF-8 (unexpected end of data)"),
                          (b"t g\r\nv 0 a\r\nv 1 \xed\xa0\x80\r\n",
                           "line 3: byte 0xed is not UTF-8 (invalid continuation byte)")):
        graphs = tmp_path / "g.txt"
        graphs.write_bytes(text)
        assert main(["embed", "--graphs", str(graphs), "--manifest", str(manifest),
                     "--T", "1", "--M", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_long_lists_of_ids_are_cut_short(tmp_path, capsys):
    ids = [f"graph{i}" for i in range(2000)]
    one = tmp_path / "one.txt"
    one.write_text("t graph0\nv 0\nv 1\ne 0 1\n")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("".join(f"{i}\tc\ttrain\n" for i in ids))
    first = tmp_path / "first.tsv"
    first.write_text("graph0\tc\ttrain\n")
    emb = tmp_path / "e.tsv"
    emb.write_text("graph_id\tbin0\n" + "".join(f"{i}\t1\n" for i in ids))
    ranks, truth = tmp_path / "r.tsv", tmp_path / "t.tsv"
    ranks.write_text("".join(f"{i}\ta,b\n" for i in ids))
    truth.write_text("graph0\ta,b\n")
    out = str(tmp_path / "out")
    for argv, words in (
            (["embed", "--graphs", one, "--manifest", manifest, "--T", "1", "--M", "1"],
             "manifest ids not found in graph file: ['graph1', 'graph2',"),
            (["kernel", "--embeddings", emb, "--manifest", first],
             "embeddings not covered by manifest: ['graph1', 'graph2',"),
            (["rho", "--system-ranks", ranks, "--truth-ranks", truth],
             "queries missing from truth ranks: ['graph1', 'graph2',")):
        assert main([str(a) for a in argv] + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {words}") and err.endswith("... (1999 items)\n"), err
        assert len(err) < MAX_STDERR, err


def test_long_command_line_values_are_cut_short(capsys):
    long = "x" * 5000
    for argv in (["sample-size", "--a", long], ["embed", "--M", long],
                 ["embed", "--alpha", long], ["knn", "--k", long],
                 ["audit", "--t", long], ["audit", "--hash", long]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"graphlets {argv[0]}: argument {argv[1]}: invalid "), err[:100]
        assert "Traceback" not in err and len(err) < MAX_STDERR, (argv[:2], err[:400])
