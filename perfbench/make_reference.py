#!/usr/bin/env python3
"""Store every value the workloads compute, per seed, as the reference that
run.py reports drift against and checks stored values with.

Run at the commit whose values are the reference, from the repository root:

    python3 perfbench/make_reference.py

It recomputes every workload for seeds 0-31 and overwrites reference.json.
"""
import json
import os
import shutil
import sys
import tempfile

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, run.SRC)

import inputs  # noqa: E402
import studies  # noqa: E402

SEEDS = range(32)


def main() -> int:
    ref = {}
    os.makedirs(run.OUT, exist_ok=True)
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            inp = inputs.build(workload, seed)
            outdir = tempfile.mkdtemp(prefix="reference-", dir=run.OUT)
            try:
                paths = studies.prepare(inp, outdir)
                result = studies.STUDIES[workload](inp, paths, outdir)
                vals = studies.values_of(workload, result, outdir)
                _, extra = studies.check(workload, inp, result, vals, None, outdir)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)
            ref.setdefault(workload, {})[str(seed)] = {
                k: run.encode(v) for k, v in {**vals, **extra}.items()}
            print(workload, seed, flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
