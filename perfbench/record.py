"""Record the sha256 of each workload's inputs and outputs per seed.

    PYTHONPATH=src python3 perfbench/record.py

writes perfbench/digests.json for seeds 0..99 (``SEEDS``), which run.py
checks every run against. The outputs come from ``graphlets.cli.main``
called in this process at ``--threads 1``; run.py separately checks that
``--threads 2`` writes the same bytes. Re-record only when a change is
meant to alter the bytes a workload produces, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = range(100)


def record(workload: str, seed: int, scratch: str) -> dict:
    size = run.SIZES[workload]["full"]
    shutil.rmtree(scratch, ignore_errors=True)
    inputs = run.make_inputs(workload, seed, size, os.path.join(scratch, "inputs"))
    import graphlets.cli

    outputs = {}
    for label, argv, d in run.commands(workload, seed, size, inputs, os.path.join(scratch, "out")):
        if label == "embed_t2":
            continue
        os.makedirs(d, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = graphlets.cli.main(argv)
        if rc != 0:
            raise SystemExit(f"{workload} seed {seed}: {label} exited {rc}")
        for path in run.output_files(label, d, size):
            outputs[os.path.basename(path)] = run.sha256_file(path)
    return {"inputs": {k: run.sha256_file(p) for k, p in inputs.items()}, "outputs": outputs}


def main() -> int:
    run._synth()
    scratch = os.path.join(run.WORK, f"record-{os.getpid()}")
    table = {}
    try:
        for workload in run.SIZES:
            seeds = ["any"] if workload == run.AUDIT else SEEDS
            table[workload] = {}
            for seed in seeds:
                table[workload][str(seed)] = record(workload, 0 if seed == "any" else seed,
                                                    scratch)
                print(workload, seed, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n")
        for i, (workload, seeds) in enumerate(table.items()):
            fh.write(f'"{workload}": {{\n')
            rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in seeds.items()]
            fh.write(",\n".join(rows) + "\n}" + (",\n" if i < len(table) - 1 else "\n"))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
