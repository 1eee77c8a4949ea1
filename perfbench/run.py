#!/usr/bin/env python3
"""Seeded benchmark of the qftscat pipeline, run from the repository root:

    python3 perfbench/run.py --workload pairings --seed 0 --seconds 30 --trace 0

One process, one thread, closed loop: each library call starts after the
previous one returned. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 the per-layer metrics of one traced study.
The line before it is the full run record (machine, timings, every computed
value, checks, drift against the stored seed-commit values), also written to
perfbench/out/.
"""
import os

# BLAS must be pinned before numpy is first imported, here and in the probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 5
PROBE_TIMEOUT = 60


class BenchError(Exception):
    pass


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "loadavg_start": list(os.getloadavg())}


def probe_setup(workload: str, seed: int) -> tuple:
    """Normalised seconds of a fresh interpreter's CPU time up to its inputs
    being ready, and wall seconds from spawning it to then (see speed.py)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    try:
        proc = subprocess.run(cmd + [repr(time.time())], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up probe still running after {PROBE_TIMEOUT} s") from None
    line = proc.stdout.partition("\n")[0]
    if proc.returncode != 0 or not line.startswith("ready "):
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    _, normalised, wall, package = line.split(" ", 3)
    if not os.path.abspath(package.strip()).startswith(SRC + os.sep):
        raise BenchError(f"probe imported qftscat from outside {SRC}")
    return float(normalised), float(wall)


def encode(v):
    """JSON form of a value at full precision: complex as [re, im]."""
    if isinstance(v, complex):
        return [float(v.real), float(v.imag)]
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    return float(v)


def max_rel_drift(values: dict, stored: dict):
    """Largest relative change of a stored float or complex value."""
    drifts = []
    for name, ref in stored.items():
        if name in values and not isinstance(ref, (bool, int)):
            a, b = complex(values[name]), complex(ref)
            drifts.append(0.0 if a == b else abs(a - b) / max(abs(b), 1e-300))
    return max(drifts) if drifts else None


def load_stored(workload: str, seed: int):
    """Stored seed-commit values for this seed (complex decoded), or None."""
    try:
        with open(REFERENCE) as fh:
            stored = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None
    if stored is None:
        return None
    return {k: complex(*v) if isinstance(v, list) else v for k, v in stored.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="one of inputs.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    machine = machine_info()
    if not os.path.isdir(os.path.join(SRC, "qftscat")):
        raise BenchError(f"no package source under {SRC}")

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import qftscat
    import qftscat.cli  # noqa: F401

    import inputs
    import speed
    import studies
    import tracing
    import_s = time.perf_counter() - t0
    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")

    setup_samples, setup_wall = zip(*(probe_setup(args.workload, args.seed)
                                      for _ in range(SETUP_SAMPLES)))

    t0 = time.perf_counter()
    inp = inputs.build(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        paths = studies.prepare(inp, outdir)
        setup_inproc_s = import_s + time.perf_counter() - t0
        machine.update(numpy=numpy.__version__, scipy=scipy.__version__,
                       qftscat=qftscat.__version__)
        study = studies.STUDIES[args.workload]

        clock = speed.SpeedClock()
        wall = []

        def run_study():
            """Normalised seconds, result, values."""
            s0, c0 = time.perf_counter(), speed.now()
            res = study(inp, paths, outdir)
            s1, c1 = time.perf_counter(), speed.now()
            wall.append(s1 - s0)
            elapsed = clock.normalised(c0, c1)
            return elapsed, res, studies.values_of(args.workload, res, outdir)

        clock.start()
        window0 = time.perf_counter()
        cold_s, result, vals = run_study()
        cold_json = json.dumps(vals, default=encode)
        repeats_identical = True
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(also=[studies])
            try:
                traced_s, _, v = run_study()
            finally:
                tracer.restore()
            repeats_identical &= json.dumps(v, default=encode) == cold_json
        # warm repeats while the next one should end inside the window; an
        # untraced run always makes at least one
        warm = []
        while True:
            late = time.perf_counter() - window0 + wall[-1] > args.seconds
            if late and (warm or args.trace):
                break
            s, _, v = run_study()
            warm.append(s)
            repeats_identical &= json.dumps(v, default=encode) == cold_json
        clock.stop()
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        stored = load_stored(args.workload, args.seed)
        checks, extra = studies.check(args.workload, inp, result, vals, stored, outdir)
        checks["repeats_bitwise_identical"] = {"ok": bool(repeats_identical)}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    all_values = {**vals, **extra}
    values = {k: encode(v) for k, v in all_values.items()}
    gating = [c for name, c in checks.items() if name not in studies.KNOWN_DEFECTS]
    failed = sum(1 for c in gating if not c["ok"])
    known = {name: {"ok": checks[name]["ok"], "why": why}
             for name, why in studies.KNOWN_DEFECTS.items() if name in checks}
    for name, k in known.items():
        if not k["ok"]:
            print(f"known failure, not counted in correct: {name}: {k['why']}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine,
        "timings": {"setup_s": setup_samples, "setup_wall_s": setup_wall,
                    "setup_inproc_s": setup_inproc_s,
                    "study_s": cold_s, "warm_study_s": warm, "study_wall_s": wall,
                    "peak_rss_mib": peak_rss_mib},
        "values": values,
        "stored_reference": stored is not None,
        "max_rel_drift": max_rel_drift(all_values, stored) if stored else None,
        "checks": checks,
        "known_defects": known,
        "failed_frac": sum(1 for c in checks.values() if not c["ok"]) / len(checks),
    }
    if args.trace:
        untraced_s = statistics.median(warm) if warm else cold_s
        metrics = tracing.per_layer(tracer, 0, traced_s, untraced_s, clock)
        record["absent"] = tracer.absent
        record["hook_errors"] = sorted(tracer.hook_errors)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "study_s": {"value": cold_s, "unit": "s"},
            "warm_study_s": {"value": statistics.median(warm), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    record["metrics"] = metrics
    line = json.dumps(record, default=encode)
    with open(os.path.join(OUT, f"record-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({"correct": failed == 0, "attempted": len(gating), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
