import json
import os
import re
import subprocess
import sys
from pathlib import Path

import graphlets

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_sorted_unique_and_resolves():
    names = graphlets.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(graphlets, n)] == []


# Installs the benchmark's tracer, which wraps library names from outside
# and reports a renamed one as "not measured" instead of failing, then
# runs one traced embed so its hooks read a real RunTrace and Graphlet, and
# one traced `embed` command, whose two writes the benchmark times and whose
# embeddings.tsv it measures right after the second.
_TRACED_EMBED = """
import contextlib, io, json, sys, tracer
t = tracer.Tracer()
tracer.install(t)
import graphlets.cli as cli
from graphlets import SamplerParams, parse_graph_file
text = "t g\\nv 0\\nv 1\\nv 2\\ne 0 1\\ne 1 2\\ne 0 2\\n"
cli.embed_graph_stats(parse_graph_file(text)[0], SamplerParams(runs=3, max_edges=3, seed=0))
out = sys.argv[1]
with open(out + ".graphs", "w") as fh:
    fh.write(text)
with open(out + ".manifest", "w") as fh:
    fh.write("g\\tc\\tunsplit\\n")
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["embed", "--graphs", out + ".graphs", "--manifest", out + ".manifest",
                   "--T", "3", "--M", "3", "--out", out])
writes = {s["name"]: s["attrs"] for s in t.export() if s["name"].startswith("embedding.write")}
json.dump([rc, t.missing, writes], sys.stdout)
"""


def test_benchmark_instrumentation_finds_every_name_it_wraps(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", _TRACED_EMBED, str(out)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, missing, writes = json.loads(proc.stdout)
    assert (rc, missing) == (0, {})
    assert writes == {"embedding.write_vocabulary": {},
                      "embedding.write_embeddings": {
                          "bytes": os.path.getsize(out / "embeddings.tsv")}}
    trace = graphlets.sample_run(graphlets.parse_graph_file("t g\nv 0\nv 1\ne 0 1")[0],
                                 graphlets.SamplerParams(runs=1, max_edges=2), 0)
    assert len(trace.graphlets) == 1 and trace.dead_end


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name in ("toy.graphs", "toy.manifest"):
        body = re.search(rf"cat > {re.escape(name)} <<'EOF'\n(.*?)^EOF$", readme,
                         re.S | re.M)
        assert body, name
        (tmp_path / name).write_text(body.group(1), encoding="utf-8")
    code = re.search(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert code, "no python block in README.md"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code.group(1)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.0\n"
