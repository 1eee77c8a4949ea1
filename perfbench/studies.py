"""One study per workload, and the checks on its outputs.

A study makes only calls into the library's public functions, in sequence,
and returns every value it computed. Checks run after the timed studies and
may compute extra oracle values; they are never timed.
"""
from __future__ import annotations

import itertools
import json
import os

import numpy as np

from qftscat import cli
from qftscat.fitter import FitConfig, reference_registry, sample_Qn
from qftscat.formfactor import AmplitudeRequest, eval_F_n, eval_FG_n, smatrix_amplitude
from qftscat.gns import BorchersVector, inout_positivity_check, metric_decomposition
from qftscat.lszlab import convergence_study, finite_time_pairing
from qftscat.structure import eval_Ghat_n
from qftscat.transfer import TransferPolynomial
from qftscat.truncation import KernelFunctional, truncate, untruncate

from inputs import FIT_EPSILON, FIT_TRAIN, FIT_VALIDATE, LABELS3, LABELS4, T_GRID, T_MODERATE

REL_TOL = 0.005  # two-path oracle and stored-value agreement
CONVERGENCE_TOL = 0.01
ROUNDTRIP_TOL = 1e-12
# Gross breakage of the round trip; seeds 0-149 stay at or below 5.2e-12.
ROUNDTRIP_REGRESSION_TOL = 1e-10

# Checks that fail on the commit that added the benchmark because of the
# library, not the benchmark (README, "Known failures"). They run, are
# recorded and are counted in the record's failed_frac, but they do not decide
# the final line's correct/attempted/failed.
KNOWN_DEFECTS = {
    "fit_honesty": "the README fit writes passed: true for a polynomial that misses "
                   "the symmetrized reference by 378 (ROADMAP item 4)",
    "gram_hermiticity": "the two-particle out-sector Gram deviates from Hermitian "
                        "by 0.04-0.41 before symmetrization",
    "truncation_roundtrip": "the worst pointwise relative round-trip error exceeds "
                            "1e-12 for 6 of seeds 0-149 (up to 5.2e-12)",
}


def _write_config(outdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(outdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def prepare(inp, outdir: str) -> dict:
    """Write the CLI config files of a workload; part of set-up."""
    cfgs = {"amplitude": inp.amplitude_cfg, "gram": inp.gram_cfg, "fit": inp.fit_cfg}
    return {name: _write_config(outdir, name, cfg) for name, cfg in cfgs.items() if cfg}


def _cli(command: str, paths: dict, outdir: str) -> int:
    return cli.main([command, "--config", paths[command], "--out", outdir])


def study_pairings(inp, paths, outdir) -> dict:
    ev, p4 = inp.ev, list(inp.packets4)
    req = AmplitudeRequest(2, inp.packets4[:2], inp.packets4[2:])
    return {
        "Ghat_n3": eval_Ghat_n(list(inp.trio), ev),
        "Ghat_n4": eval_Ghat_n(p4, ev),
        "FG_n4": eval_FG_n(LABELS4, p4, ev),
        "F_n4_quad": eval_F_n(LABELS4, p4, ev, inp.fam_quad),
        "cli_amplitude_exit": _cli("amplitude", paths, outdir),
        "amp_quad": smatrix_amplitude(req, ev, inp.fam_quad),
        "amp_quad_refined": smatrix_amplitude(req, inp.ev_refined, inp.fam_quad),
        "ftp_t31.6": finite_time_pairing(LABELS4, p4, (T_MODERATE,) * 4, ev),
    }


def study_convergence(inp, paths, outdir) -> dict:
    ev, p4 = inp.ev, list(inp.packets4)
    target = eval_FG_n(LABELS4, p4, ev)
    main = convergence_study(LABELS4, p4, ev, T_GRID, orderings=[(0, 0, 0, 1)],
                             target=target, window_points=2)
    empty = convergence_study(LABELS3, list(inp.trio_scatter), ev, T_GRID,
                              orderings=[(0, 0, 0), (1, 0, 0)], target=0.0 + 0.0j,
                              window_points=2)
    return {"target": target, "main": main, "empty": empty}


def _kernel_family(coeffs) -> KernelFunctional:
    def make(n):
        a, b, c = coeffs[n]

        def W_n(points):
            p = 1.0
            for x in points:
                p *= np.sin(0.7 * x + 0.3 * n)
            return a + b * np.cos(sum(points)) + c * p

        return W_n

    return KernelFunctional(4, {n: make(n) for n in range(1, 5)})


def study_sectors_fit(inp, paths, outdir) -> dict:
    vectors = [BorchersVector(components={2: [(1.0, pair)]}) for pair in inp.pairs]
    min_eig, gram, psd = inout_positivity_check(inp.ev, vectors, "out")
    dec = metric_decomposition(gram)
    gram_exit = _cli("gram", paths, outdir)
    fit_exit = _cli("fit", paths, outdir)
    w = _kernel_family(inp.kernel_coeffs)
    back = untruncate(truncate(w))
    worst = 0.0
    for pts in inp.roundtrip_points:
        a, b = w.eval(pts), back.eval(pts)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    return {"min_eig": min_eig, "gram": gram, "psd": psd, "metric": dec,
            "cli_gram_exit": gram_exit, "cli_fit_exit": fit_exit, "roundtrip_err": worst}


STUDIES = {
    "pairings": study_pairings,
    "convergence": study_convergence,
    "sectors_fit": study_sectors_fit,
}


def _report_values(prefix: str, rep) -> dict:
    out = {}
    for key in rep.values:
        tag = "".join(str(r) for r in key)
        for i, t in enumerate(rep.t_grid):
            out[f"{prefix}.o{tag}.t{t:g}.raw"] = rep.values[key][i]
            out[f"{prefix}.o{tag}.t{t:g}.window_avg"] = rep.window_averaged[key][i]
    return out


def _load_summary(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def values_of(workload: str, result: dict, outdir: str) -> dict:
    """Flatten a study result into name -> number (complex kept complex)."""
    if workload == "pairings":
        vals = dict(result)
        s = _load_summary(outdir, "amplitude_summary.json")
        vals["cli_amplitude.value"] = complex(s["value_re"], s["value_im"])
        vals["cli_amplitude.est_error"] = s["est_error"]
        return vals
    if workload == "convergence":
        vals = {"target": result["target"]}
        vals.update(_report_values("main", result["main"]))
        vals.update(_report_values("empty", result["empty"]))
        return vals
    gram, dec = result["gram"], result["metric"]
    vals = {f"gram.H{i}{j}": gram.matrix[i, j]
            for i in range(gram.size) for j in range(gram.size)}
    vals.update({"gram.min_eig": result["min_eig"],
                 "gram.hermiticity_deviation": gram.hermiticity_deviation,
                 "gram.eta_check": float(np.max(np.abs(dec.eta @ dec.eta - np.eye(gram.size)))),
                 "roundtrip_err": result["roundtrip_err"],
                 "cli_gram_exit": result["cli_gram_exit"],
                 "cli_fit_exit": result["cli_fit_exit"]})
    for name in ("gram_summary.json", "fit_summary.json"):
        s = _load_summary(outdir, name)
        for key, v in s.items():
            if isinstance(v, (int, float)):  # bools included
                vals[f"cli_{name.split('_')[0]}.{key}"] = v
    return vals


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _fit_honesty(inp, outdir: str) -> dict:
    """Sup error of the shipped polynomial on the CLI's validation points
    against the permutation-symmetrized reference, and whether the written
    `passed` flag agrees with it."""
    summary = _load_summary(outdir, "fit_summary.json")
    with open(os.path.join(outdir, "fit_polynomial.json")) as fh:
        poly = TransferPolynomial.from_json_dict(json.load(fh))
    block = inp.fit_cfg["fit"]
    cfg = FitConfig(e_max=block["e_max"], epsilon=block["epsilon"],
                    train_count=FIT_TRAIN, validate_count=FIT_VALIDATE, seed=block["seed"])
    pts = sample_Qn(4, 2, cfg, inp.params).points[FIT_TRAIN:FIT_TRAIN + FIT_VALIDATE]
    ref = reference_registry(inp.params)["exp_q12"]
    sym = np.mean([ref(pts[:, list(s), :]) for s in itertools.permutations(range(4))], axis=0)
    err = float(np.max(np.abs(np.real(poly(pts)) - sym)))
    return {"shipped_sup_error_vs_symmetrized": err,
            "passed_flag": bool(summary["passed"]),
            "ok": bool(summary["passed"]) == (err < FIT_EPSILON)}


def check(workload: str, inp, result: dict, vals: dict, stored: dict | None,
          outdir: str) -> tuple:
    """Returns (checks, extra values): checks maps name -> {"ok", ...detail}."""
    checks, extra = {}, {}
    if workload == "pairings":
        req = AmplitudeRequest(2, inp.packets4[:2], inp.packets4[2:])
        extra["amp_refined"] = smatrix_amplitude(req, inp.ev_refined)
        pairs = [("FG_vs_refined_amplitude", vals["FG_n4"], extra["amp_refined"]),
                 ("F_quad_vs_refined_amplitude", vals["F_n4_quad"], vals["amp_quad_refined"])]
        pairs += [(f"{name}_vs_stored", vals[name], stored[name])
                  for name in ("Ghat_n3", "Ghat_n4", "ftp_t31.6")
                  if stored is not None and name in stored]
        for check_name, value, ref in pairs:
            rel = _rel(value, ref)
            checks[check_name] = {"rel": rel, "ok": bool(rel <= REL_TOL)}
        checks["cli_amplitude_exit"] = {"ok": vals["cli_amplitude_exit"] == 0,
                                        "code": vals["cli_amplitude_exit"]}
    elif workload == "convergence":
        main, empty, target = result["main"], result["empty"], result["target"]
        key = list(main.values)[0]
        rel = _rel(main.window_averaged[key][-1], target)
        checks["window_avg_at_tmax_vs_target"] = {"rel": rel, "ok": bool(rel <= CONVERGENCE_TOL)}
        checks["decade_envelope_nonincreasing"] = {"ok": bool(main.envelope_nonincreasing)}
        zero = all(float(np.max(np.abs(arr))) == 0.0
                   for rep in (empty.values, empty.window_averaged) for arr in rep.values())
        checks["empty_phase_space_exact_zero"] = {"ok": zero}
    else:
        gram = result["gram"]
        scale = float(np.max(np.abs(np.linalg.eigvalsh(gram.matrix))))
        checks["gram_psd"] = {"min_eig": result["min_eig"], "scale": scale,
                              "ok": bool(result["min_eig"] >= -1e-8 * scale)}
        checks["gram_eta_squared_identity"] = {"dev": vals["gram.eta_check"],
                                               "ok": bool(vals["gram.eta_check"] <= 1e-12)}
        checks["gram_hermiticity"] = {"dev": gram.hermiticity_deviation,
                                      "ok": bool(gram.hermiticity_deviation < 1e-8)}
        checks["cli_gram_psd"] = {"ok": vals["cli_gram.psd_pass"] is True}
        checks["cli_gram_eta_squared_identity"] = {"dev": vals["cli_gram.eta_check"],
                                                   "ok": vals["cli_gram.eta_check"] <= 1e-12}
        checks["cli_gram_hermiticity"] = {"dev": vals["cli_gram.hermiticity_deviation"],
                                          "ok": vals["cli_gram.hermiticity_deviation"] < 1e-8}
        checks["truncation_roundtrip"] = {"err": vals["roundtrip_err"],
                                          "ok": bool(vals["roundtrip_err"] <= ROUNDTRIP_TOL)}
        checks["truncation_roundtrip_regression"] = {
            "err": vals["roundtrip_err"],
            "ok": bool(vals["roundtrip_err"] <= ROUNDTRIP_REGRESSION_TOL)}
        checks["cli_gram_exit"] = {"code": vals["cli_gram_exit"],
                                   "ok": vals["cli_gram_exit"] == 0}
        # exit 0 must mean the written fit passed, exit 2 that it did not
        fit_passed = vals["cli_fit.passed"]
        checks["cli_fit_exit"] = {"code": vals["cli_fit_exit"], "passed": fit_passed,
                                  "ok": vals["cli_fit_exit"] == (0 if fit_passed else 2)}
        honesty = _fit_honesty(inp, outdir)
        extra["fit.shipped_sup_error_vs_symmetrized"] = honesty["shipped_sup_error_vs_symmetrized"]
        checks["fit_honesty"] = honesty
    return checks, extra
