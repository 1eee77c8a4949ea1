"""Command-line front end: configuration loading, pipelines, JSON/CSV output.

Exit codes: 0 success, 1 a usage error or a config rejected while loading
(by its field tables or the library objects built from it), 2 any failure
after loading. Every JSON summary embeds the config hash and the library
version so identical config+seed reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .fitter import FitConfig, build_family, fit_polynomial, reference_registry, sample_Qn
from .formfactor import IN, LABELS, OUT, AmplitudeRequest, eval_F_n, eval_FG_n, smatrix_amplitude
from .gns import (
    gram_matrix,
    hssc_estimate,
    inout_positivity_check,
    metric_decomposition,
    structure_pairing,
    BorchersVector,
)
from .kinematics import ModelParams, WavePacket
from .lszlab import convergence_study, pv_limit_demo
from .polymath import Poly
from .structure import QuadratureSettings, SpectralDensity, StructureEvaluator, shell_signs
from .transfer import TransferFamily, TransferPolynomial, require_valid
from .truncation import DEFAULT_MAX_ORDER, KernelFunctional, bell_number, truncate, untruncate

log = logging.getLogger("qftscat")


class ConfigError(Exception):
    pass


REQUIRED = object()  # the default of a field the config must give
BIG = sys.float_info.max
KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
              list: "an array", dict: "an object", None: "null"}


class F(NamedTuple):
    """One config field. kind is a JSON kind (int, float, str, list, dict or
    None) or a tuple of them; a float field takes integers too, and a string
    field is one of choices. lo and hi bound a number's value or an array's
    length. fields is an object's field table, item the field of each entry
    of an array (or of an object without a table), and build turns the
    checked value into its library object."""

    kind: object
    default: object = REQUIRED
    lo: float = -BIG
    hi: float = BIG
    choices: tuple = ()
    fields: dict | None = None
    item: F | None = None
    build: object = None


def check(value, field: F, ctx: str):
    """value checked against field and built into its library object; a
    ValueError of the library's becomes a ConfigError naming ctx."""
    kinds = field.kind if isinstance(field.kind, tuple) else (field.kind,)
    kind = None if value is None else type(value)
    if kind is int and float in kinds:
        kind = float
    ok = kind in kinds
    if ok and kind in (int, float, list):
        ok = field.lo <= (len(value) if kind is list else value) <= field.hi
    if ok and kind is str:
        ok = value in field.choices
    if not ok:
        what = " or ".join(f"one of {list(field.choices)}" if k is str else KIND_NAMES[k]
                           for k in kinds)
        unit = " items" if list in kinds else ""
        if field.lo > -BIG:
            what += f", at least {field.lo:g}{unit}"
        if field.hi < BIG:
            what += f", at most {field.hi:g}{unit}"
        raise ConfigError(f"{ctx} must be {what}")
    if kind is float:
        value = float(value)
    if kind is dict and field.fields is not None:
        value = _block(value, field.fields, ctx)
    elif kind is dict and field.item is not None:
        value = {key: check(v, field.item, f"{ctx}.{key}") for key, v in value.items()}
    if kind is list and field.item is not None:
        value = [check(v, field.item, f"{ctx}[{i}]") for i, v in enumerate(value)]
    if field.build is None or value is None:
        return value
    try:
        return field.build(value)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc


def _block(block: dict, fields: dict, ctx: str) -> dict:
    """block with every field of its table checked; an absent field takes its
    default, checked too unless it is None (the library or command decides)."""
    unknown = sorted(set(block) - set(fields))
    if unknown:
        raise ConfigError(f"unknown fields in {ctx or 'config'}: {unknown}")
    out = {}
    for key, field in fields.items():
        name = f"{ctx}.{key}" if ctx else key
        if key in block:
            out[key] = check(block[key], field, name)
        elif field.default is REQUIRED:
            raise ConfigError(f"missing field {name}")
        else:
            out[key] = None if field.default is None else check(field.default, field, name)
    return out


def _packet(block: dict) -> WavePacket:
    """A wave packet; its poly_terms entries with equal exps are summed."""
    terms = {}
    for t in block["poly_terms"] or []:
        terms[tuple(t["exps"])] = terms.get(tuple(t["exps"]), 0) + t["coeff"]
    poly = None if block["poly_terms"] is None else Poly(2, terms)
    return WavePacket(center=np.asarray(block["center"]), width=block["width"], poly=poly)


def _family(block: dict) -> TransferFamily:
    """The transfer family of M_2 = 1 and the block's polynomial; it must pass condition 4.1."""
    p = TransferPolynomial.from_json_dict(block)
    l_max = block["l_max"]
    if l_max is None:
        l_max = max(p.per_argument_degrees(), default=2)
    fam = TransferFamily({2: TransferPolynomial.constant(2, 1.0), p.n: p}, l_max=l_max)
    return require_valid(fam)


def _times(grid) -> np.ndarray:
    """A time grid given as a list, or geometrically from start to stop."""
    if isinstance(grid, list):
        return np.asarray(grid, dtype=float)
    return np.geomspace(grid["start"], grid["stop"], grid["points"])


# Field tables, one per config block. Bounds keep every count and scale where
# a run finishes with finite numbers; the library checks the rest (d = 2,
# positive masses and widths, 0 < eps_phi < m^2, positive epsilon,
# 1 <= fit.r <= fit.n - 1).
MODEL = {"d": F(int, 2), "m": F(float, 1.0, 0, 1e3), "eps_phi": F(float, None, 0, 1e6)}
RHO = {"kind": F(str, "zero", choices=("zero", "default")), "c": F(float, 0.1, 0, 1e3)}
QUADRATURE = {f.name: F(int, f.default, 1, 1000) for f in dataclasses.fields(QuadratureSettings)}
DEGREE = F(int, lo=0, hi=1000)
PACKET = F(dict, fields={
    "center": F(list, lo=2, hi=2, item=F(float, lo=-1e3, hi=1e3)),
    "width": F(float, lo=0, hi=1e3),
    "poly_terms": F(list, None, item=F(dict, fields={
        "exps": F(list, lo=2, hi=2, item=DEGREE), "coeff": F(float)}))}, build=_packet)
POLYNOMIAL = {"n": F(int, lo=2, hi=6), "terms": F(list, item=F(dict, fields={
    "degrees": F(dict, {}, item=DEGREE), "coeff": F(float), "coeff_im": F(float, 0.0)}))}
TRANSFER = F((dict, None), None, fields={**POLYNOMIAL, "l_max": F(int, None, 0)}, build=_family)
TIMES = F((list, dict), {}, 1, 1000, item=F(float, lo=0, hi=1e4), build=_times, fields={
    "start": F(float, 1.0, 0, 1e4), "stop": F(float, 1000.0, 0, 1e4),
    "points": F(int, 16, 1, 1000)})
SEED = F(int, 0, 0)
REFERENCES = tuple(sorted(reference_registry(ModelParams())))
EVALUATOR = {"model": F(dict, {}, fields=MODEL, build=lambda b: ModelParams(**b)),
             "rho": F(dict, {}, fields=RHO),
             "quadrature": F(dict, {}, fields=QUADRATURE, build=lambda b: QuadratureSettings(**b))}


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
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    return {"config_sha256": digest, "version": __version__, **extra}


def cmd_amplitude(cfg, c, outdir) -> int:
    req, ev, fam = c["request"], c["ev"], c["amplitude"]["transfer"]
    value = smatrix_amplitude(req, ev, fam)
    refined = smatrix_amplitude(req, ev.refined(), fam)
    est_error = abs(value - refined)
    _write_json(os.path.join(outdir, "amplitude_summary.json"), _summary(cfg, {
        "value_re": value.real, "value_im": value.imag, "est_error": est_error,
    }))
    log.info("amplitude %s (est err %.2e)", value, est_error)
    return 0


def cmd_converge(cfg, c, outdir) -> int:
    block, ev = c["converge"], c["ev"]
    labels, packets, fam = block["labels"], block["packets"], block["transfer"]
    if fam is not None:
        target = eval_F_n(labels, packets, ev, fam)
    else:
        target = eval_FG_n(labels, packets, ev)
    report = convergence_study(labels, packets, ev, block["t_grid"], fam=fam,
                               orderings=block["orderings"], target=target)
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
    final_err = float(report.abs_err[first][-1])
    ref_mag = abs(target) if target else max(abs(report.extrapolated[first]), 1e-300)
    passed = report.envelope_nonincreasing and final_err <= block["tolerance"] * ref_mag
    _write_json(os.path.join(outdir, "converge_summary.json"), _summary(cfg, {
        "extrapolated_re": report.extrapolated[first].real,
        "extrapolated_im": report.extrapolated[first].imag,
        "target_re": target.real,
        "target_im": target.imag,
        "final_abs_err": final_err,
        "rate_C": report.fitted_rate[0], "rate_alpha": report.fitted_rate[1],
        "ordering_spread": report.ordering_spread,
        "envelope_nonincreasing": report.envelope_nonincreasing,
        "passed": bool(passed),
    }))
    return 0 if passed else 2


def cmd_fit(cfg, c, outdir) -> int:
    block, fit_cfg = c["fit"], c["fit_config"]
    n, reference = block["n"], block["reference"]
    if isinstance(reference, str):
        R = reference_registry(c["model"])[reference]
    else:
        def R(points):
            return np.real(reference(points))
    sample = sample_Qn(n, block["r"], fit_cfg, c["model"])
    if sample.empty:
        _write_json(os.path.join(outdir, "fit_summary.json"), _summary(cfg, {
            "empty_sample": True, "diagnostics": sample.diagnostics, "passed": False,
        }))
        return 2
    report = fit_polynomial(R, sample, fit_cfg)
    fam = None
    if report.passed:
        l_max = block["l_max"] if block["l_max"] is not None else 2 * report.degree_used + 2
        fam = build_family({n: report}, l_max=l_max)
    _write_json(os.path.join(outdir, "fit_polynomial.json"), report.polynomial.to_json_dict())
    _write_json(os.path.join(outdir, "fit_summary.json"), _summary(cfg, {
        "achieved_sup_error": report.achieved_sup_error,
        "symmetrized_sup_error": report.symmetrized_sup_error,
        "degree_used": report.degree_used,
        "coordinates": report.coordinates,
        "symmetric_input": report.symmetric_input,
        "history": report.history,
        "train_count": report.train_count,
        "validate_count": report.validate_count,
        "acceptance_rate": sample.acceptance_rate,
        "family_valid": fam is not None,
        "passed": report.passed,
    }))
    return 0 if report.passed else 2


def cmd_gram(cfg, c, outdir) -> int:
    block, ev = c["gram"], c["ev"]
    label, fam = block["label"], block["transfer"]
    family = [BorchersVector.one_particle(p) for p in block["packets"]]
    if label in (IN, OUT):
        min_eig, gram, psd_ok = inout_positivity_check(ev, family, label, fam=fam)
    else:
        gram = gram_matrix(structure_pairing(ev, label, fam), family)
        min_eig = float(np.linalg.eigvalsh(gram.matrix).min())
        psd_ok = True
    dec = metric_decomposition(gram)
    eta_check = float(np.max(np.abs(dec.eta @ dec.eta - np.eye(gram.size))))
    hssc = hssc_estimate(gram, family, block["K"], block["L"])
    rows = [(i, j, gram.matrix[i, j].real, gram.matrix[i, j].imag)
            for i in range(gram.size) for j in range(gram.size)]
    _write_csv(os.path.join(outdir, "gram.csv"), ["i", "j", "re", "im"], rows)
    _write_json(os.path.join(outdir, "gram_summary.json"), _summary(cfg, {
        "inertia": list(dec.inertia),
        "eta_check": eta_check,
        "min_eigenvalue": min_eig,
        "hermiticity_deviation": gram.hermiticity_deviation,
        "hssc_constant": hssc,
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


def cmd_truncate_demo(cfg, c, outdir) -> int:
    block = c["truncate-demo"]
    max_order, tuples, seed = block["max_order"], block["tuples"], block["seed"]
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
        rows.append((nn, bell_number(nn), err))
        worst = max(worst, err)
    _write_csv(os.path.join(outdir, "truncate_demo.csv"),
               ["order", "partitions", "max_rel_roundtrip_error"], rows)
    passed = worst < 1e-12
    _write_json(os.path.join(outdir, "truncate_demo_summary.json"), _summary(cfg, {
        "max_rel_roundtrip_error": worst, "passed": bool(passed),
    }))
    return 0 if passed else 2


def cmd_pvdemo(cfg, c, outdir) -> int:
    width = c["pvdemo"]["width"]

    def f(x):
        return np.exp(-0.5 * (x / width) ** 2)

    report = pv_limit_demo(f, c["pvdemo"]["t_grid"], width)
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


COMMANDS = {  # command -> (run, the field table of its config)
    "amplitude": (cmd_amplitude, {**EVALUATOR, "amplitude": F(dict, fields={
        "packets_in": F(list, lo=1, hi=3, item=PACKET),
        "packets_out": F(list, lo=1, hi=3, item=PACKET), "transfer": TRANSFER})}),
    "converge": (cmd_converge, {**EVALUATOR, "converge": F(dict, fields={
        "labels": F(list, item=F(str, choices=LABELS)),
        "packets": F(list, lo=2, hi=4, item=PACKET), "transfer": TRANSFER, "t_grid": TIMES,
        "tolerance": F(float, 0.01, 0),
        "orderings": F(list, None, 1, item=F(list, item=F(int, lo=0, hi=3), build=tuple))})}),
    "fit": (cmd_fit, {"model": EVALUATOR["model"], "fit": F(dict, fields={
        "n": F(int, lo=3, hi=6), "r": F(int, lo=1), "e_max": F(float, lo=0, hi=1e3),
        "epsilon": F(float, 1e-3), "max_degree": F(int, 10, 0, 20),
        "train": F(int, 2000, 1, 10000), "validate": F(int, 500, 1, 10000), "seed": SEED,
        "l_max": F(int, None, 0),
        "reference": F((str, dict), "exp_q12", choices=REFERENCES, fields=POLYNOMIAL, build=(
            lambda r: r if isinstance(r, str) else TransferPolynomial.from_json_dict(r)))})}),
    "gram": (cmd_gram, {**EVALUATOR, "gram": F(dict, fields={
        "label": F(str, "loc", choices=LABELS), "packets": F(list, lo=1, item=PACKET),
        "K": F(int, 2, 0, 10), "L": F(int, 2, 0, 10), "transfer": TRANSFER})}),
    "truncate-demo": (cmd_truncate_demo, {"truncate-demo": F(dict, {}, fields={
        "max_order": F(int, 4, 1, DEFAULT_MAX_ORDER), "tuples": F(int, 100, 1, 1000),
        "seed": SEED})}),
    "pvdemo": (cmd_pvdemo, {"pvdemo": F(dict, {}, fields={
        "width": F(float, 1.0, 1e-3, 1e3),
        "t_grid": TIMES._replace(default={"points": 13})})}),
}


def load(command: str, cfg, seed=None) -> dict:
    """cfg checked against the command's field tables, with the library objects
    its run needs built; every rejection, the library's too, is a ConfigError."""
    c = check(cfg, F(dict, fields=COMMANDS[command][1]), "")
    block = c[command]
    if seed is not None and "seed" in block:
        block["seed"] = check(seed, SEED, "--seed")
    try:
        if "rho" in c:
            params, rho = c["model"], c["rho"]
            density = (SpectralDensity.zero(params) if rho["kind"] == "zero"
                       else SpectralDensity.default_model(params, c=rho["c"]))
            c["ev"] = StructureEvaluator(params, density, c["quadrature"])
        if command == "amplitude":
            pin, pout = block["packets_in"], block["packets_out"]
            if len(pin) + len(pout) > 4:
                raise ConfigError("amplitude: orders above 4 are not implemented")
            c["request"] = AmplitudeRequest(r=len(pin), in_packets=pin, out_packets=pout)
        if command == "converge":
            n = len(block["packets"])
            if any(len(x) != n for x in [block["labels"], *(block["orderings"] or [])]):
                raise ConfigError("converge.labels and each ordering need one entry per packet")
        if command == "fit":
            n, reference = block["n"], block["reference"]
            shell_signs(n, block["r"])
            if isinstance(reference, TransferPolynomial) and reference.n != n:
                raise ConfigError("fit.reference.n must equal fit.n")
            c["fit_config"] = FitConfig(
                e_max=block["e_max"], epsilon=block["epsilon"], max_degree=block["max_degree"],
                train_count=block["train"], validate_count=block["validate"], seed=block["seed"])
    except ValueError as exc:
        raise ConfigError(f"{command}: {exc}") from exc
    return c


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qftscat")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage line
        return 1 if exc.code else 0
    try:
        log.setLevel(os.environ.get("QFTSCAT_LOG", "WARNING").upper())
        logging.basicConfig()
        with open(args.config) as fh:
            cfg = json.load(fh)
        loaded = load(args.command, cfg, args.seed)
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command][0](cfg, loaded, args.out)
    except Exception as exc:  # whatever fails after loading is a failed run
        log.debug("run failed", exc_info=True)
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
