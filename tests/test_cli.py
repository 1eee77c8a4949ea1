"""Command-line front end: pipelines, exit codes, reproducibility."""
import copy
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qftscat import __version__
from qftscat.cli import COMMANDS, PACKET, ConfigError, F, check, main

E08 = float(np.sqrt(0.8**2 + 1.0))
EIN = [{"center": [-E08, 0.8], "width": 0.25}, {"center": [-E08, -0.8], "width": 0.25}]
EOUT = [{"center": [E08, 0.8], "width": 0.25}, {"center": [E08, -0.8], "width": 0.25}]


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, command, cfg, extra=()):
    cfg_path = _write(tmp_path, f"{command}.json", cfg)
    out = tmp_path / f"out_{command}"
    code = main([command, "--config", cfg_path, "--out", str(out), *extra])
    return code, out


def _load(out, name):
    with open(out / name) as fh:
        return json.load(fh)


def test_truncate_demo(tmp_path):
    code, out = _run(tmp_path, "truncate-demo",
                     {"truncate-demo": {"max_order": 5, "tuples": 100, "seed": 0}})
    assert code == 0
    summary = _load(out, "truncate_demo_summary.json")
    assert summary["passed"] and summary["max_rel_roundtrip_error"] < 1e-12
    assert summary["version"] == __version__
    assert len(summary["config_sha256"]) == 64
    rows = (out / "truncate_demo.csv").read_text().strip().splitlines()
    assert rows[0] == "order,partitions,max_rel_roundtrip_error"
    assert [int(r.split(",")[1]) for r in rows[1:]] == [1, 2, 5, 15, 52]
    code, out = _run(tmp_path, "truncate-demo", {"truncate-demo": {"max_order": 6}})
    assert code == 0
    assert _load(out, "truncate_demo_summary.json")["max_rel_roundtrip_error"] < 1e-12


def test_pvdemo(tmp_path):
    cfg = {"pvdemo": {"width": 1.0, "t_grid": [1.0, 10.0, 100.0]}}
    code, out = _run(tmp_path, "pvdemo", cfg)
    assert code == 0
    summary = _load(out, "pvdemo_summary.json")
    assert summary["passed"] and summary["final_rel_err"] < 1e-2
    assert abs(summary["limit_im"] - math.pi) < 1e-12


_IMPORT_PROBE = """
import importlib, json, pkgutil, sys
import qftscat, qftscat.cli
for mod in pkgutil.iter_modules(qftscat.__path__):
    importlib.import_module("qftscat." + mod.name)
def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
loaded = scipy_modules()
code = qftscat.cli.main(["pvdemo", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"loaded": loaded, "pvdemo": code, "after_pvdemo": scipy_modules()}))
"""


def test_importing_the_package_loads_no_scipy(tmp_path):
    # scipy's import is most of a CLI command's start-up; only the criterion 4
    # and 6 helpers import it, at call time, and pvdemo runs without it
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, _write(tmp_path, "cfg.json", {}),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"loaded": [], "pvdemo": 0, "after_pvdemo": []}
    assert _load(tmp_path / "out", "pvdemo_summary.json")["passed"]


@pytest.mark.parametrize("width", [0.1, 2.0])
def test_pvdemo_converged_to_round_off_passes(tmp_path, width):
    # the error settles at round-off (2e-15 of the limit), where the decade
    # maxima wander below ENVELOPE_FLOOR
    code, out = _run(tmp_path, "pvdemo", {"pvdemo": {"width": width}})
    assert code == 0
    summary = _load(out, "pvdemo_summary.json")
    assert summary["passed"] and summary["final_rel_err"] < 1e-14


def test_pvdemo_rate_leaves_round_off_out(tmp_path):
    # the default errors reach round-off from t = 10 on; the rate is fitted to
    # the ones above ENVELOPE_FLOOR alone, as round-off has no trend in t
    code, out = _run(tmp_path, "pvdemo", {})
    assert code == 0
    assert abs(_load(out, "pvdemo_summary.json")["rate_alpha"] - 9.3479577) < 1e-6


def test_amplitude_empty_phase_space(tmp_path):
    cfg = {"model": {"d": 2, "m": 1.0},
           "amplitude": {"packets_in": EIN,
                         "packets_out": [{"center": [1.00125, 0.05], "width": 0.25}],
                         "transfer": None}}
    code, out = _run(tmp_path, "amplitude", cfg)
    assert code == 0
    summary = _load(out, "amplitude_summary.json")
    assert summary["value_re"] == 0.0 and summary["value_im"] == 0.0


def test_amplitude_2to2(tmp_path):
    cfg = {"model": {"d": 2, "m": 1.0},
           "amplitude": {"packets_in": EIN, "packets_out": EOUT, "transfer": None}}
    code, out = _run(tmp_path, "amplitude", cfg)
    assert code == 0
    summary = _load(out, "amplitude_summary.json")
    # purely imaginary for real packets with trivial weight
    assert abs(summary["value_re"]) < 1e-12 * abs(summary["value_im"])
    assert summary["est_error"] < 5e-3 * abs(summary["value_im"])


def test_converge_two_point_exact(tmp_path):
    cfg = {"model": {"d": 2, "m": 1.0},
           "converge": {"labels": ["in", "out"],
                        "packets": [{"center": [-1.3, 0.4], "width": 0.3},
                                    {"center": [1.3, -0.4], "width": 0.3}],
                        "t_grid": [1.0, 10.0],
                        "orderings": [[0, 1]],
                        "tolerance": 0.01}}
    code, out = _run(tmp_path, "converge", cfg)
    assert code == 0
    summary = _load(out, "converge_summary.json")
    assert summary["passed"] and summary["envelope_nonincreasing"]
    assert summary["final_abs_err"] < 1e-10
    header = (out / "converge.csv").read_text().splitlines()[0]
    assert header == "t,value_re,value_im,window_avg_re,window_avg_im,abs_err"


def test_converge_rejects_bad_time_grid(tmp_path):
    for grid in ([], {"points": 0}, [1.0, math.nan]):
        cfg = {"model": {"d": 2, "m": 1.0},
               "converge": {"labels": ["in", "out"],
                            "packets": [{"center": [-1.3, 0.4], "width": 0.3},
                                        {"center": [1.3, -0.4], "width": 0.3}],
                            "t_grid": grid}}
        code, out = _run(tmp_path, "converge", cfg)
        assert code == 1
        assert not (out / "converge_summary.json").exists()


def test_amplitude_rejects_non_finite_packet(tmp_path):
    for bad in ({"center": [-E08, 0.8], "width": math.nan},
                {"center": [math.nan, 0.8], "width": 0.25}):
        cfg = {"model": {"d": 2, "m": 1.0},
               "amplitude": {"packets_in": [bad, EIN[1]], "packets_out": EOUT,
                             "transfer": None}}
        code, out = _run(tmp_path, "amplitude", cfg)
        assert code == 1
        assert not (out / "amplitude_summary.json").exists()


def test_fit_planted_and_reproducibility(tmp_path):
    planted = {"n": 4, "terms": [{"degrees": {}, "coeff": 0.4},
                                 {"degrees": {"q12": 1}, "coeff": -0.3},
                                 {"degrees": {"q13": 1}, "coeff": -0.3},
                                 {"degrees": {"q14": 1}, "coeff": -0.3},
                                 {"degrees": {"q23": 1}, "coeff": -0.3},
                                 {"degrees": {"q24": 1}, "coeff": -0.3},
                                 {"degrees": {"q34": 1}, "coeff": -0.3}]}
    cfg = {"model": {"d": 2, "m": 1.0},
           "fit": {"n": 4, "r": 2, "e_max": 4.0, "epsilon": 1e-8,
                   "train": 800, "validate": 200, "seed": 3, "reference": planted}}
    code, out = _run(tmp_path, "fit", cfg)
    assert code == 0
    summary = _load(out, "fit_summary.json")
    assert summary["passed"] and summary["family_valid"]
    assert summary["achieved_sup_error"] < 1e-8
    first = (out / "fit_summary.json").read_bytes(), (out / "fit_polynomial.json").read_bytes()
    # rerun overwrites the same output directory; bytes must not change
    code2, out2 = _run(tmp_path, "fit", cfg)
    assert code2 == 0
    assert (out2 / "fit_summary.json").read_bytes() == first[0]
    assert (out2 / "fit_polynomial.json").read_bytes() == first[1]


def test_fit_seed_override_changes_sample(tmp_path):
    cfg = {"model": {"d": 2, "m": 1.0},
           "fit": {"n": 4, "r": 2, "e_max": 4.0, "epsilon": 1e-3,
                   "train": 400, "validate": 100, "seed": 3, "reference": "exp_q12"}}
    cfg_path = _write(tmp_path, "fit_seed.json", cfg)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["fit", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["fit", "--config", cfg_path, "--out", str(out_b), "--seed", "7"]) == 0
    sa = _load(out_a, "fit_summary.json")
    sb = _load(out_b, "fit_summary.json")
    assert sa["passed"] and sb["passed"]
    # a different seed draws a different sample, so the fit error moves
    assert sa["achieved_sup_error"] != sb["achieved_sup_error"]


def test_fit_empty_sample_exits_2(tmp_path):
    cfg = {"model": {"d": 2, "m": 1.0},
           "fit": {"n": 5, "r": 2, "e_max": 4.0, "reference": "constant"}}
    code, out = _run(tmp_path, "fit", cfg)
    assert code == 2
    summary = _load(out, "fit_summary.json")
    assert summary["empty_sample"] and not summary["passed"]


def test_gram_in_sector(tmp_path):
    packs = [{"center": [float(np.sqrt(k * k + 1)), k], "width": 0.3}
             for k in (-0.9, -0.3, 0.3, 0.9)]
    cfg = {"model": {"d": 2, "m": 1.0}, "gram": {"label": "in", "packets": packs}}
    code, out = _run(tmp_path, "gram", cfg)
    assert code == 0
    summary = _load(out, "gram_summary.json")
    assert summary["psd_pass"] and summary["min_eigenvalue"] > 0
    assert summary["inertia"] == [4, 0, 0]
    assert summary["eta_check"] < 1e-12
    assert summary["hermiticity_deviation"] < 1e-8
    rows = (out / "gram.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 16


def test_exit_1_on_config_errors(tmp_path, capsys, monkeypatch):
    code, _ = _run(tmp_path, "amplitude", {"model": {"d": 3}})
    assert code == 1
    # every command computes in d = 2 only; a complete fit config is rejected too
    code, _ = _run(tmp_path, "fit", {"model": {"d": 3}, "fit": {
        "n": 4, "r": 2, "e_max": 4.0, "reference": "constant"}})
    assert code == 1
    code, _ = _run(tmp_path, "amplitude", {"model": {"d": 2}})  # missing block
    assert code == 1
    code, _ = _run(tmp_path, "converge", {"rho": {"kind": "nope"}})
    assert code == 1
    bad_path = tmp_path / "broken.json"
    bad_path.write_text("{not json")
    assert main(["pvdemo", "--config", str(bad_path), "--out", str(tmp_path)]) == 1
    assert main(["pvdemo", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 1
    # blocks of the wrong JSON type, and a top-level array
    amp = {"amplitude": {"packets_in": EIN, "packets_out": EOUT}}
    conv = {"converge": {"labels": ["in", "out"],
                         "packets": [{"center": [-1.3, 0.4], "width": 0.3},
                                     {"center": [1.3, -0.4], "width": 0.3}],
                         "t_grid": [1.0]}}
    packs = [{"center": [float(np.sqrt(k * k + 1)), k], "width": 0.3} for k in (-0.3, 0.3)]
    cases = [("amplitude", {**amp, "quadrature": 5}),
             ("amplitude", {**amp, "quadrature": ["inner_nodes"]}),
             ("amplitude", {**amp, "model": 5}),
             ("amplitude", {**amp, "model": []}),
             ("amplitude", {**amp, "rho": 5}),
             ("amplitude", {**amp, "rho": "default"}),
             ("amplitude", {"amplitude": 5}),
             ("converge", {"converge": {**conv["converge"], "t_grid": 5}}),
             ("converge", {"converge": {**conv["converge"], "orderings": 5}}),
             ("converge", {"converge": {**conv["converge"], "packets": 5}}),
             ("converge", {"converge": {**conv["converge"], "packets": [5, 6, 7, 8]}}),
             ("gram", {"gram": {"label": "in", "packets": [5]}}),
             ("gram", {"gram": {"label": "in", "packets": packs}, "quadrature": []}),
             ("fit", {"fit": 5}),
             ("truncate-demo", {"truncate-demo": 5}),
             *(("truncate-demo", {"truncate-demo": {key: value}}) for key, value in (
                 ("max_order", None), ("max_order", 2.7), ("max_order", 0),
                 ("max_order", 7), ("max_order", 11), ("max_order", True),
                 ("tuples", 0), ("tuples", -3), ("tuples", 1001), ("tuples", 1e308),
                 ("tuples", "5"), ("seed", -1), ("seed", 1.5), ("seed", False))),
             ("pvdemo", {"pvdemo": {"t_grid": 5}}),
             ("pvdemo", {"pvdemo": {"t_grid": {"points": 2.7}}}),
             ("gram", {"gram": {"label": "x", "packets": packs}}),
             ("gram", {"gram": {"label": None, "packets": packs}}),
             ("amplitude", {**amp, "model": {"d": 2.7}}),
             ("amplitude", {**amp, "model": {"m": True}}),
             ("amplitude", {**amp, "model": {"d": 2, "mass": 1.0}}),
             ("amplitude", {**amp, "quadrature": {"space_nodes": 96}}),
             ("amplitude", {**amp, "quadrature": {"mu_span": 20.0}}),
             ("fit", {"fit": {"n": 4, "r": 4, "e_max": 4.0}})]
    # packet fields of the wrong type, sign or length (d = 2 here)
    cases += [("amplitude", {"amplitude": {"packets_in": [{**EIN[0], **field}, EIN[1]],
                                           "packets_out": EOUT}})
              for field in ({"center": 5}, {"center": {"a": 1}}, {"center": [-E08]},
                            {"center": [0.5, "x"]}, {"center": [0.5, 10**400]},
                            {"center": [-E08, 1e308]},
                            {"width": [1]}, {"width": True},
                            {"poly_terms": [{"exps": [1, 0], "coeff": "a"}]},
                            {"poly_terms": [{"exps": [[1], 0], "coeff": 1.0}]},
                            {"poly_terms": [{"exps": [-1, 0], "coeff": 1.0}]},
                            {"poly_terms": [{"exps": [1, 0, 0], "coeff": 1.0}]})]
    # transfer polynomials with a missing or mistyped field, a Laurent term
    # or a fractional degree; the fit's planted reference reads the same form
    one = {"degrees": {}, "coeff": 1.0}
    cases += [("amplitude", {"amplitude": {**amp["amplitude"], "transfer": block}})
              for block in ({"terms": [one]}, {"n": 4, "terms": 7}, {"n": 4, "terms": [5]},
                            {"n": 4, "terms": [{"degrees": {"q12": 1}}]},
                            {"n": "4", "terms": [one]}, {"n": 4, "terms": [one], "l_max": [1]},
                            {"n": 4, "terms": [{"degrees": [1], "coeff": 1.0}]},
                            {"n": 4, "terms": [{"degrees": {}, "coeff": "1"}]},
                            {"n": 3, "terms": [{"degrees": {"q12": -1, "q13": -1, "q23": -1},
                                                "coeff": 1.0}]},
                            {"n": 3, "terms": [{"degrees": {"q12": 1.5, "q13": 1.5, "q23": 1.5},
                                                "coeff": 1.0}]})]
    cases += [("fit", {"fit": {"n": 4, "r": 2, "e_max": 4.0, "reference": {"terms": [one]}}})]
    cases += [(command, [cfg]) for command, cfg in
              (("amplitude", amp), ("converge", conv), ("pvdemo", {}))]
    for command, cfg in cases:
        code, out = _run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 1, (command, cfg)
        assert "config error" in err and "Traceback" not in err
        assert not list(out.glob("*_summary.json"))
    # m0, a mass gap no computation read, is an unknown model field
    code, _ = _run(tmp_path, "amplitude", {**amp, "model": {"d": 2, "m0": 1.0}})
    assert code == 1 and "unknown fields in model: ['m0']" in capsys.readouterr().err
    # a bad --seed, an output path that names a file, and an unknown log level
    fit = {"fit": {"n": 4, "r": 2, "e_max": 4.0, "train": 400, "validate": 100}}
    code, out = _run(tmp_path, "fit", fit, ["--seed", "-1"])
    assert code == 1 and not out.exists()
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    assert main(["pvdemo", "--config", _write(tmp_path, "pv.json", {}), "--out", str(a_file)]) == 1
    monkeypatch.setenv("QFTSCAT_LOG", "bogus")
    assert _run(tmp_path, "pvdemo", {})[0] == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 3 and all(line.startswith("config error: ") for line in lines)


def test_packet_poly_terms_are_summed():
    block = {"center": [1.3, -0.4], "width": 0.3,
             "poly_terms": [{"exps": [1, 0], "coeff": 0.5}, {"exps": [0, 0], "coeff": 1.0},
                            {"exps": [1, 0], "coeff": 0.25}, {"exps": [0, 2], "coeff": 0.0}]}
    pk = check(block, PACKET, "gram.packets[0]")
    assert pk.poly.terms == {(1, 0): 0.75, (0, 0): 1.0}
    assert list(pk.center) == [1.3, -0.4] and pk.width == 0.3


def test_unknown_quadrature_field(tmp_path, capsys):
    # outer_nodes, the Gauss-Legendre rule the packet rules replaced,
    # space_nodes and mu_span, the two-point ranges the packets now set, and
    # nodes_per_period and mu_nodes, which fold_nodes now sets, are unknown
    # fields like any other
    retired = ("outer_nodes", "space_nodes", "mu_span", "nodes_per_period", "mu_nodes")
    for block in ({"bogus": 3}, {"singular_scan": 512}, {"doubled": 3}, {"outer_nodes": 40},
                  {"space_nodes": 96}, {"mu_span": 20.0}, {"nodes_per_period": 12.0},
                  {"mu_nodes": 48}, {"inner_nodes": "40"}, {"inner_nodes": 12.5},
                  {"fold_nodes": -3}, {"fold_nodes": math.nan}):
        cfg = {"model": {"d": 2}, "quadrature": block,
               "amplitude": {"packets_in": EIN, "packets_out": EOUT}}
        code, out = _run(tmp_path, "amplitude", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and "Traceback" not in err
        assert not (out / "amplitude_summary.json").exists()
        for name in set(retired) & set(block):
            assert f"unknown fields in quadrature: ['{name}']" in err


def test_bad_transfer_block(tmp_path):
    cfg = {"model": {"d": 2},
           "amplitude": {"packets_in": EIN, "packets_out": EOUT, "transfer": 42}}
    code, _ = _run(tmp_path, "amplitude", cfg)
    assert code == 1


README_FIT = {"model": {"d": 2, "m": 1.0},
              "fit": {"n": 4, "r": 2, "e_max": 4.0, "epsilon": 0.001,
                      "train": 1500, "validate": 400, "seed": 3, "reference": "exp_q12"}}


def test_fit_summary_reports_what_the_fit_did(tmp_path):
    code, out = _run(tmp_path, "fit", README_FIT)
    assert code == 0
    summary = _load(out, "fit_summary.json")
    assert summary["coordinates"] == ["q12", "q23"]
    assert summary["symmetric_input"] is False
    history = summary["history"]
    assert [h["degree"] for h in history] == list(range(summary["degree_used"] + 1))
    assert [h["basis_size"] for h in history] == [1, 3, 6, 10, 15, 21, 28]
    # the sample lies on two lines of the conservation plane: 2 * degree + 1
    assert [h["rank"] for h in history] == [1, 3, 5, 7, 9, 11, 13]
    # condition number s[0]/s[rank-1] of the scaled basis over its numerical rank
    assert all(math.isfinite(h["cond"]) and h["cond"] >= 1.0 for h in history)
    assert history[-1]["sup_error"] == summary["achieved_sup_error"]
    first = (out / "fit_summary.json").read_bytes()
    assert _run(tmp_path, "fit", README_FIT)[0] == 0
    assert (out / "fit_summary.json").read_bytes() == first


def test_fit_with_more_unknowns_than_half_the_rows_exits_2(tmp_path):
    cfg = {**README_FIT, "fit": {**README_FIT["fit"], "train": 10, "validate": 10}}
    code, out = _run(tmp_path, "fit", cfg)
    assert code == 2
    summary = _load(out, "fit_summary.json")
    assert not summary["passed"] and not summary["family_valid"]
    assert summary["history"][-1] == {
        "degree": 2, "basis_size": 6,
        "stopped": "more basis columns than half the training points"}


def _assert_fit_config_errors(tmp_path, capsys, fields):
    for field in fields:
        cfg = {**README_FIT, "fit": {**README_FIT["fit"], **field}}
        code, out = _run(tmp_path, "fit", cfg)
        err = capsys.readouterr().err
        assert code == 1, field
        assert "config error" in err and "Traceback" not in err
        assert not list(out.glob("*_summary.json"))


def test_packet_boolean_exponents_rejected(tmp_path, capsys):
    for exps in ([True, 0], [0, False]):
        block = {**EIN[0], "poly_terms": [{"exps": exps, "coeff": 1.0}]}
        with pytest.raises(ConfigError):
            check(block, PACKET, "amplitude.packets_in[0]")
        cfg = {"amplitude": {"packets_in": [block, EIN[1]], "packets_out": EOUT}}
        code, _ = _run(tmp_path, "amplitude", cfg)
        assert code == 1 and "config error" in capsys.readouterr().err


def test_fit_integer_fields_type_checked(tmp_path, capsys):
    _assert_fit_config_errors(tmp_path, capsys, [
        {key: value} for key in ("n", "r", "max_degree", "train", "validate", "seed", "l_max")
        for value in ([4], True, 4.5, "4", None)])


def test_fit_number_fields_type_checked(tmp_path, capsys):
    _assert_fit_config_errors(tmp_path, capsys, [
        {key: value} for key in ("e_max", "epsilon")
        for value in (None, True, "4", [4.0], math.inf)])


def test_fit_reference_type_checked(tmp_path, capsys):
    _assert_fit_config_errors(tmp_path, capsys, [
        {"reference": value} for value in (["exp_q12"], None, 5, True, "exp_q13")])


def test_fit_negative_max_degree_is_a_config_error(tmp_path, capsys):
    _assert_fit_config_errors(tmp_path, capsys, [{"max_degree": -1}])


def test_gram_orders_type_checked(tmp_path, capsys):
    packs = [{"center": [float(np.sqrt(k * k + 1)), k], "width": 0.3} for k in (-0.3, 0.3)]
    for key in ("K", "L"):
        for value in (None, [1], 2.7, True, -1, "2"):
            cfg = {"gram": {"label": "in", "packets": packs, key: value}}
            code, out = _run(tmp_path, "gram", cfg)
            err = capsys.readouterr().err
            assert code == 1, (key, value)
            assert "config error" in err and "Traceback" not in err
            assert not list(out.glob("*_summary.json"))


def test_gram_grid_check_is_a_numerical_error(tmp_path, capsys):
    pk = {"center": [0, 0], "width": 0.3, "poly_terms": [{"exps": [120, 0], "coeff": 1}]}
    code, out = _run(tmp_path, "gram", {"gram": {"packets": [pk]}})
    err = capsys.readouterr().err
    assert code == 2
    assert "numerical error: schwartz_norm grid too small" in err and "Traceback" not in err
    assert not list(out.glob("*_summary.json"))


def test_fit_recheck_failure_is_a_numerical_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("qftscat.fitter.recheck_constraints",
                        lambda points, *args: np.zeros(len(points), dtype=bool))
    code, out = _run(tmp_path, "fit", README_FIT)
    err = capsys.readouterr().err
    assert code == 2
    assert "numerical error: sampled point failed" in err and "Traceback" not in err
    assert not list(out.glob("*_summary.json"))


def test_fit_family_rejected_after_load_is_a_numerical_error(tmp_path, capsys):
    # the fit reaches epsilon at degree 6, which build_family's l_max of 1 rejects
    cfg = {**README_FIT, "fit": {**README_FIT["fit"], "l_max": 1}}
    code, out = _run(tmp_path, "fit", cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert "numerical error: order-4 member exceeds the degree bound 1" in err
    assert "config error" not in err and not list(out.glob("*_summary.json"))


SWEEP_CONFIGS = {
    "amplitude": {"model": {"d": 2, "m": 1.0},
                  "amplitude": {"packets_in": EIN, "packets_out": EOUT, "transfer": None}},
    "gram": {"model": {"d": 2, "m": 1.0}, "gram": {"label": "in", "packets": [
        {"center": [float(np.sqrt(k * k + 1)), k], "width": 0.3} for k in (-0.3, 0.3)]}},
    "fit": {**README_FIT, "fit": {**README_FIT["fit"], "train": 400, "validate": 100}},
    "converge": {"model": {"d": 2, "m": 1.0},
                 "converge": {"labels": ["in", "out"],
                              "packets": [{"center": [-1.3, 0.4], "width": 0.3},
                                          {"center": [1.3, -0.4], "width": 0.3}],
                              "t_grid": [1.0, 10.0], "orderings": [[0, 1]], "tolerance": 0.01}},
    "pvdemo": {"pvdemo": {"width": 1.0, "t_grid": {"start": 1.0, "stop": 100.0, "points": 3}}},
    "truncate-demo": {"truncate-demo": {"max_order": 4, "tuples": 20, "seed": 0}},
}
SWEEP_VALUES = (None, "x", [1], True, -1, 2.7, 1e308, {}, 0)


def _mutations(node):
    """(description, mutate) pairs: each leaf set to each sweep value, each key
    deleted, and one unknown key added to each object; mutate edits a copy."""
    if isinstance(node, dict):
        yield "unknown key", lambda n: n.__setitem__("bogus", 1)
        for key in node:
            yield f"del {key}", lambda n, key=key: n.pop(key)
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            for what, mutate in _mutations(child):
                yield f"{key}.{what}", lambda n, key=key, mutate=mutate: mutate(n[key])
        else:
            for value in SWEEP_VALUES:
                yield f"{key}={value!r}", (lambda n, key=key, value=value:
                                           n.__setitem__(key, copy.deepcopy(value)))


def test_config_sweep_never_tracebacks(tmp_path, capsys):
    runs = 0
    for command, base in SWEEP_CONFIGS.items():
        for what, mutate in _mutations(base):
            cfg = copy.deepcopy(base)
            mutate(cfg)
            out = tmp_path / f"sweep_{runs}"
            start = time.perf_counter()
            # an exception escaping main fails the test
            code = main([command, "--config", _write(tmp_path, "sweep.json", cfg),
                         "--out", str(out)])
            err = capsys.readouterr().err
            assert time.perf_counter() - start < 20, (command, what)
            assert code in (0, 1, 2), (command, what)
            assert (code == 1) == ("config error" in err), (command, what, err)
            if code == 2 and "numerical error" not in err:
                summaries = [_load(out, p.name) for p in out.glob("*_summary.json")]
                assert any(s["passed"] is False for s in summaries), (command, what)
            runs += 1
    assert runs > 500


def _field_names(field, names):
    for key, sub in (field.fields or {}).items():
        names.add(key)
        _field_names(sub, names)
    if field.item is not None:
        _field_names(field.item, names)
    return names


def test_readme_documents_every_config_field():
    names = set()
    for _, table in COMMANDS.values():
        _field_names(F(dict, fields=table), names)
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Command line")[1].split("\n## ")[0]
    documented = set()
    for row in section.splitlines():
        cells = row.split("|")
        if row.startswith("|") and "`" in cells[2]:
            documented.update(re.findall(r"`([^`]+)`", cells[2]))
    assert documented == names
