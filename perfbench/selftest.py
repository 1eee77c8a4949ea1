#!/usr/bin/env python3
"""Tests of the benchmark itself, run from the repository root:

    python3 perfbench/selftest.py

For each workload, at seed 0, it makes two traced runs of the same code and
checks that every count is identical, that top-level spans cover at least
95% of the traced study, and that the trace confirms the workload's role:
pv_fold's inclusive time is most of `convergence`, structure spans are most
of `pairings`, and `sectors_fit` makes no pv_fold and no lszlab calls.
Exit code 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from inputs import WORKLOADS  # noqa: E402

SEED = 0
# counts that are fractions of other counts
EXACT_FRACTIONS = ("structure.two_body_solutions.valid_frac", "lszlab.leg_terms.reuse_frac",
                   "fitter.sample_Qn.acceptance_rate")


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def role_checks(workload: str, m: dict) -> dict:
    v = {k: x["value"] for k, x in m.items()}
    if workload == "convergence":
        return {"pv_fold inclusive > 50% of study":
                v["structure.pv_fold.s"] > 0.5 * v["trace.study_s"]}
    if workload == "pairings":
        return {"structure spans > 50% of study": v["structure.share"] > 0.5}
    return {"no pv_fold calls": v["structure.pv_fold.calls"] == 0,
            "no lszlab calls": v["lszlab.calls"] == 0 and v["lszlab.leg_terms.computed"] == 0}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        a, b = traced_run(workload, SEED), traced_run(workload, SEED)
        counts = [k for k, x in a.items() if x["unit"] == "count" or k in EXACT_FRACTIONS]
        differing = [k for k in counts if a[k]["value"] != b[k]["value"]]
        results = {
            f"{len(counts)} counts identical across two traced runs": not differing,
            "top-level spans cover >= 95% of study":
                min(a["trace.top_level_coverage"]["value"],
                    b["trace.top_level_coverage"]["value"]) >= 0.95,
            **role_checks(workload, a),
        }
        for name, passed in results.items():
            print(f"{workload}: {'PASS' if passed else 'FAIL'} {name}")
        if differing:
            print(f"{workload}: differing counts: {differing}")
        print(f"{workload}: tracing overhead "
              f"{a['trace.overhead_s']['value']:.3f} s, {b['trace.overhead_s']['value']:.3f} s")
        ok = ok and all(results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
