"""Command-line front end: configuration loading, pipelines, JSON/CSV output.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
acceptance failure. Every JSON summary embeds the config hash and the
library version so identical config+seed reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .fitter import FitConfig, build_family, fit_polynomial, reference_registry, sample_Qn
from .formfactor import AmplitudeRequest, eval_F_n, eval_FG_n, smatrix_amplitude
from .gns import (
    gram_matrix,
    hssc_estimate,
    inout_positivity_check,
    metric_decomposition,
    structure_pairing,
    BorchersVector,
)
from .kinematics import CutoffSpec, ModelParams, WavePacket
from .lszlab import convergence_study, pv_limit_demo
from .polymath import Poly
from .structure import QuadratureSettings, SpectralDensity, StructureEvaluator
from .transfer import TransferFamily, TransferPolynomial, validate_condition41
from .truncation import KernelFunctional, enumerate_partitions, truncate, untruncate

log = logging.getLogger("qftscat")


class ConfigError(Exception):
    pass


def _require(block: dict, key: str, ctx: str):
    if key not in block:
        raise ConfigError(f"missing field {ctx}.{key}")
    return block[key]


def load_model(cfg: dict) -> ModelParams:
    block = cfg.get("model", {})
    try:
        return ModelParams(
            d=int(block.get("d", 2)),
            m=float(block.get("m", 1.0)),
            m0=block.get("m0"),
            eps_phi=block.get("eps_phi"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def load_rho(cfg: dict, params: ModelParams) -> SpectralDensity:
    block = cfg.get("rho", {"kind": "zero"})
    kind = block.get("kind", "zero")
    if kind == "zero":
        return SpectralDensity.zero(params)
    if kind == "default":
        return SpectralDensity.default_model(params, c=float(block.get("c", 0.1)))
    raise ConfigError(f"rho.kind must be 'zero' or 'default', got {kind!r}")


def load_quadrature(cfg: dict) -> QuadratureSettings:
    block = cfg.get("quadrature", {})
    base = QuadratureSettings()
    fields = {k: v for k, v in block.items() if hasattr(base, k)}
    unknown = set(block) - set(fields)
    if unknown:
        raise ConfigError(f"unknown quadrature fields: {sorted(unknown)}")
    from dataclasses import replace

    return replace(base, **fields)


def load_packet(block: dict, ctx: str) -> WavePacket:
    center = np.asarray(_require(block, "center", ctx), dtype=float)
    width = float(_require(block, "width", ctx))
    poly = None
    if "poly_terms" in block:
        d = len(center)
        poly = Poly(d)
        for t in block["poly_terms"]:
            poly = poly + Poly.monomial(d, t["exps"], t["coeff"])
    try:
        return WavePacket(center=center, width=width, poly=poly)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def load_transfer(block, n_hint: int | None = None) -> TransferFamily | None:
    if block in (None, "identity"):
        return None
    if isinstance(block, dict) and "terms" in block:
        p = TransferPolynomial.from_json_dict(block)
        l_max = int(block.get("l_max", max(p.per_argument_degrees(), default=2)))
        fam = TransferFamily({2: TransferPolynomial.constant(2, 1.0), p.n: p}, l_max=l_max)
        report = validate_condition41(fam)
        if not report["passed"]:
            raise ConfigError(f"transfer family invalid: {report['violations']}")
        return fam
    raise ConfigError("transfer must be null, 'identity' or a polynomial object")


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12e}" if isinstance(v, float) else v for v in row])


def _summary(cfg: dict, extra: dict) -> dict:
    out = {"config_sha256": _config_hash(cfg), "version": __version__}
    out.update(extra)
    return out


def cmd_amplitude(cfg, outdir) -> int:
    params = load_model(cfg)
    rho = load_rho(cfg, params)
    quad = load_quadrature(cfg)
    ev = StructureEvaluator(params, rho, quad)
    block = _require(cfg, "amplitude", "config")
    pin = [load_packet(b, "amplitude.packets_in") for b in _require(block, "packets_in", "amplitude")]
    pout = [load_packet(b, "amplitude.packets_out") for b in _require(block, "packets_out", "amplitude")]
    fam = load_transfer(block.get("transfer"))
    try:
        req = AmplitudeRequest(r=len(pin), in_packets=pin, out_packets=pout)
    except ValueError as exc:
        raise ConfigError(f"amplitude: {exc}") from exc
    value = smatrix_amplitude(req, ev, fam)
    refined = smatrix_amplitude(req, ev.refined(), fam)
    est_error = abs(value - refined)
    _write_json(os.path.join(outdir, "amplitude_summary.json"), _summary(cfg, {
        "value_re": value.real, "value_im": value.imag, "est_error": est_error,
    }))
    log.info("amplitude %s (est err %.2e)", value, est_error)
    return 0


def _t_grid(block) -> np.ndarray:
    if isinstance(block, list):
        return np.asarray(block, dtype=float)
    return np.geomspace(float(block.get("start", 1.0)), float(block.get("stop", 1000.0)),
                        int(block.get("points", 16)))


def cmd_converge(cfg, outdir) -> int:
    params = load_model(cfg)
    ev = StructureEvaluator(params, load_rho(cfg, params), load_quadrature(cfg))
    block = _require(cfg, "converge", "config")
    labels = _require(block, "labels", "converge")
    packets = [load_packet(b, "converge.packets") for b in _require(block, "packets", "converge")]
    fam = load_transfer(block.get("transfer"))
    grid = _t_grid(block.get("t_grid", {}))
    orderings = [tuple(o) for o in block["orderings"]] if "orderings" in block else None
    target = None
    if block.get("target", "formfactor") == "formfactor":
        if fam is not None:
            target = eval_F_n(labels, packets, ev, fam)
        else:
            target = eval_FG_n(labels, packets, ev)
    report = convergence_study(labels, packets, ev, grid, fam=fam,
                               orderings=orderings, target=target)
    first = list(report.values)[0]
    rows = []
    for i, t in enumerate(report.t_grid):
        v = report.values[first][i]
        a = report.window_averaged[first][i]
        rows.append((float(t), v.real, v.imag, a.real, a.imag,
                     float(report.abs_err[first][i])))
    _write_csv(os.path.join(outdir, "converge.csv"),
               ["t", "value_re", "value_im", "window_avg_re", "window_avg_im", "abs_err"],
               rows)
    tol = float(block.get("tolerance", 0.01))
    final_err = float(report.abs_err[first][-1])
    ref_mag = abs(target) if target else max(abs(report.extrapolated[first]), 1e-300)
    passed = report.envelope_nonincreasing and (target is None or final_err <= tol * ref_mag)
    _write_json(os.path.join(outdir, "converge_summary.json"), _summary(cfg, {
        "extrapolated_re": report.extrapolated[first].real,
        "extrapolated_im": report.extrapolated[first].imag,
        "target_re": None if target is None else target.real,
        "target_im": None if target is None else target.imag,
        "final_abs_err": final_err,
        "rate_C": report.fitted_rate[0], "rate_alpha": report.fitted_rate[1],
        "ordering_spread": report.ordering_spread,
        "envelope_nonincreasing": report.envelope_nonincreasing,
        "passed": bool(passed),
    }))
    return 0 if passed else 2


def cmd_fit(cfg, outdir, seed_override=None) -> int:
    params = load_model(cfg)
    block = _require(cfg, "fit", "config")
    n = int(_require(block, "n", "fit"))
    r = int(_require(block, "r", "fit"))
    fit_cfg = FitConfig(
        e_max=float(_require(block, "e_max", "fit")),
        epsilon=float(block.get("epsilon", 1e-3)),
        max_degree=int(block.get("max_degree", 10)),
        train_count=int(block.get("train", 2000)),
        validate_count=int(block.get("validate", 500)),
        seed=int(seed_override if seed_override is not None else block.get("seed", 0)),
    )
    ref_key = block.get("reference", "exp_q12")
    if isinstance(ref_key, dict):
        planted = TransferPolynomial.from_json_dict(ref_key)

        def R(points):
            return np.real(planted(points))
    else:
        registry = reference_registry(params)
        if ref_key not in registry:
            raise ConfigError(f"fit.reference: unknown key {ref_key!r}")
        R = registry[ref_key]
    sample = sample_Qn(n, r, fit_cfg, params)
    if sample.empty:
        _write_json(os.path.join(outdir, "fit_summary.json"), _summary(cfg, {
            "empty_sample": True, "diagnostics": sample.diagnostics, "passed": False,
        }))
        return 2
    report = fit_polynomial(R, sample, fit_cfg)
    fam = None
    if report.passed:
        fam = build_family({n: report}, l_max=int(block.get("l_max", 2 * report.degree_used + 2)))
    _write_json(os.path.join(outdir, "fit_polynomial.json"), report.polynomial.to_json_dict())
    _write_json(os.path.join(outdir, "fit_summary.json"), _summary(cfg, {
        "achieved_sup_error": report.achieved_sup_error,
        "symmetrized_sup_error": report.symmetrized_sup_error,
        "degree_used": report.degree_used,
        "train_count": report.train_count,
        "validate_count": report.validate_count,
        "acceptance_rate": sample.acceptance_rate,
        "family_valid": fam is not None,
        "passed": report.passed,
    }))
    return 0 if report.passed else 2


def cmd_gram(cfg, outdir) -> int:
    params = load_model(cfg)
    ev = StructureEvaluator(params, load_rho(cfg, params), load_quadrature(cfg))
    block = _require(cfg, "gram", "config")
    label = block.get("label", "loc")
    packets = [load_packet(b, "gram.packets") for b in _require(block, "packets", "gram")]
    family = [BorchersVector.one_particle(p) for p in packets]
    K, L = int(block.get("K", 2)), int(block.get("L", 2))
    fam = load_transfer(block.get("transfer"))
    if label in ("in", "out"):
        min_eig, gram, psd_ok = inout_positivity_check(ev, family, label, fam=fam)
        pairing = structure_pairing(ev, labels_for=lambda nn: [label] * nn, fam=fam)
    else:
        pairing = structure_pairing(ev, fam=fam)
        gram = gram_matrix(pairing, family)
        min_eig = float(np.linalg.eigvalsh(gram.matrix).min())
        psd_ok = True
    dec = metric_decomposition(gram)
    eta_check = float(np.max(np.abs(dec.eta @ dec.eta - np.eye(gram.size))))
    hssc = hssc_estimate(pairing, family, K, L)
    rows = [(i, j, gram.matrix[i, j].real, gram.matrix[i, j].imag)
            for i in range(gram.size) for j in range(gram.size)]
    _write_csv(os.path.join(outdir, "gram.csv"), ["i", "j", "re", "im"], rows)
    _write_json(os.path.join(outdir, "gram_summary.json"), _summary(cfg, {
        "inertia": list(dec.inertia),
        "eta_check": eta_check,
        "min_eigenvalue": min_eig,
        "hermiticity_deviation": gram.hermiticity_deviation,
        "hssc_constant": hssc.constant,
        "psd_pass": bool(psd_ok),
    }))
    return 0 if psd_ok else 2


def _random_kernel_family(max_order: int, seed: int) -> KernelFunctional:
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(max_order + 1, 3)) + 1j * rng.normal(size=(max_order + 1, 3))

    def make(nn):
        a, b, c = coeffs[nn]

        def W_n(points):
            s = sum(points)
            p = 1.0
            for x in points:
                p *= np.sin(0.7 * x + 0.3 * nn)
            return a + b * np.cos(s) + c * p

        return W_n

    return KernelFunctional(max_order, {nn: make(nn) for nn in range(1, max_order + 1)})


def cmd_truncate_demo(cfg, outdir, seed_override=None) -> int:
    block = cfg.get("truncate-demo", {})
    max_order = int(block.get("max_order", 4))
    tuples = int(block.get("tuples", 100))
    seed = int(seed_override if seed_override is not None else block.get("seed", 0))
    rng = np.random.default_rng(seed + 1)
    w = _random_kernel_family(max_order, seed)
    wt = truncate(w)
    back = untruncate(wt)
    rows = []
    worst = 0.0
    for nn in range(1, max_order + 1):
        err = 0.0
        for _ in range(tuples):
            pts = tuple(rng.normal(size=nn))
            a, b = w.eval(pts), back.eval(pts)
            err = max(err, abs(a - b) / max(abs(a), 1e-30))
        rows.append((nn, len(enumerate_partitions(nn)), err))
        worst = max(worst, err)
    _write_csv(os.path.join(outdir, "truncate_demo.csv"),
               ["order", "partitions", "max_rel_roundtrip_error"], rows)
    passed = worst < 1e-12
    _write_json(os.path.join(outdir, "truncate_demo_summary.json"), _summary(cfg, {
        "max_rel_roundtrip_error": worst, "passed": bool(passed),
    }))
    return 0 if passed else 2


def cmd_pvdemo(cfg, outdir) -> int:
    block = cfg.get("pvdemo", {})
    width = float(block.get("width", 1.0))
    grid = _t_grid(block.get("t_grid", {"start": 1.0, "stop": 1000.0, "points": 13}))

    def f(x):
        return np.exp(-0.5 * (x / width) ** 2)

    report = pv_limit_demo(f, grid)
    key = list(report.values)[0]
    rows = [(float(t), report.values[key][i].real, report.values[key][i].imag,
             float(report.abs_err[key][i])) for i, t in enumerate(report.t_grid)]
    _write_csv(os.path.join(outdir, "pvdemo.csv"), ["t", "value_re", "value_im", "abs_err"], rows)
    rel = float(report.abs_err[key][-1] / abs(report.target))
    passed = report.envelope_nonincreasing and rel < 1e-2
    _write_json(os.path.join(outdir, "pvdemo_summary.json"), _summary(cfg, {
        "limit_re": report.target.real, "limit_im": report.target.imag,
        "final_rel_err": rel, "rate_alpha": report.fitted_rate[1],
        "passed": bool(passed),
    }))
    return 0 if passed else 2


COMMANDS = {
    "amplitude": cmd_amplitude,
    "converge": cmd_converge,
    "fit": cmd_fit,
    "gram": cmd_gram,
    "truncate-demo": cmd_truncate_demo,
    "pvdemo": cmd_pvdemo,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qftscat")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    logging.basicConfig(level=os.environ.get("QFTSCAT_LOG", "WARNING").upper())

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    handler = COMMANDS[args.command]
    try:
        if args.command in ("fit", "truncate-demo"):
            return handler(cfg, args.out, seed_override=args.seed)
        return handler(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NotImplementedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
