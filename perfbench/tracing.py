"""Spans and work counts recorded around calls into the library.

The library is measured from outside: `Tracer.install` replaces each traced
function in every namespace of the package that binds it (and the method on
its class), and `Tracer.restore` puts the originals back. A function that no
longer exists is listed in `absent` and reads 0, so the benchmark keeps
running across refactors. Spans live in memory as
(name id, start, end, parent span, study id), with start and end on the
thread's CPU-time clock (`speed.now`), and are written out at the end.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
import numpy as np

from speed import now


def _points(shape_of, tail: int) -> int:
    shape = np.shape(shape_of)
    return int(np.prod(shape[:len(shape) - tail])) if len(shape) >= tail else 0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []  # [name id, start, end, parent index, study id]
        self.stack: list = []
        self.counts = defaultdict(float)
        self.study = 0  # id stamped on new spans
        self.absent: list = []
        self.hook_errors: set = set()
        self._undo: list = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn, args, kwargs):
        rec = [self._id(name), 0.0, 0.0, self.stack[-1] if self.stack else -1, self.study]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = now()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = now()
            self.stack.pop()

    def add(self, key: str, hook, *hook_args):
        """Add hook(*hook_args) to a counter; a hook broken by a changed
        return type is recorded, not raised."""
        try:
            self.counts[key] += hook(*hook_args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.hook_errors.add(key)

    # -- installing wrappers ---------------------------------------------
    def _replace(self, owner, orig, make):
        for attr, val in list(vars(owner).items()):
            if val is orig:
                self._undo.append((owner, attr, val))
                setattr(owner, attr, functools.wraps(orig)(make(orig, getattr(owner, "__name__", ""))))

    def install(self, also=()):
        """Wrap every target; `also` lists extra modules (the caller's own)
        whose bindings of traced functions are replaced too."""
        for module_name, qualname, make in _targets(self):
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            if owner_name or module_name.startswith("numpy"):
                self._replace(owner, orig, make)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "qftscat" or name.startswith("qftscat."):
                    self._replace(mod, orig, make)
            for mod in also:
                self._replace(mod, orig, make)

    def restore(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- analysis --------------------------------------------------------
    def analyse(self, study: int, clock=None) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only) and self seconds; plus top-level and per-module time.
        With a SpeedClock, durations are its normalised seconds."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == study]
        t0 = np.array([self.spans[i][1] for i in idx])
        t1 = np.array([self.spans[i][2] for i in idx])
        if clock is not None and idx:
            t0, t1 = clock.cumulative(t0), clock.cumulative(t1)
        dur = dict(zip(idx, (t1 - t0).tolist()))
        child = defaultdict(float)
        for i in idx:
            parent = self.spans[i][3]
            if parent >= 0:
                child[parent] += dur[i]
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        modules = defaultdict(float)
        top = 0.0
        for i in idx:
            nid, _, _, parent, _ = self.spans[i]
            name = self.names[nid]
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += dur[i] - child[i]
            module = name.split(".")[0]
            same_name = same_module = False
            p = parent
            while p >= 0:
                pname = self.names[self.spans[p][0]]
                same_name = same_name or pname == name
                same_module = same_module or pname.split(".")[0] == module
                p = self.spans[p][3]
            if not same_name:
                st["s"] += dur[i]
            if not same_module:
                modules[module] += dur[i]
            if parent < 0:
                top += dur[i]
        return {"stats": dict(stats), "modules": dict(modules), "top_level_s": top}

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "study"],
                       "names": self.names, "spans": self.spans}, fh)


def _plain(tr, name):
    def make(orig, _ns):
        def wrapper(*args, **kwargs):
            return tr.call(name, orig, args, kwargs)
        return wrapper
    return make


def _counting(tr, name, counter, hook):
    """Span plus counter += hook(args, kwargs, result)."""
    def make(orig, _ns):
        def wrapper(*args, **kwargs):
            out = tr.call(name, orig, args, kwargs)
            tr.add(counter, hook, args, kwargs, out)
            return out
        return wrapper
    return make


def _targets(tr):
    """(module, qualified attribute, wrapper factory) for every traced call."""
    S, K, T, F, L = ("qftscat.structure", "qftscat.kinematics", "qftscat.transfer",
                     "qftscat.formfactor", "qftscat.lszlab")
    G, TR, FI, PM = "qftscat.gns", "qftscat.truncation", "qftscat.fitter", "qftscat.polymath"

    def points(name, pos, kw, tail):
        return _counting(tr, name, name + ".points",
                         lambda a, k, out: _points(_arg(a, k, pos, kw), tail))

    def two_body(orig, _ns):
        name = "structure.two_body_solutions"

        def wrapper(*args, **kwargs):
            out = tr.call(name, orig, args, kwargs)
            valid = np.asarray(out[-1]) if isinstance(out, tuple) else None
            tr.add(name + ".points", lambda: valid[..., 0].size)
            tr.add(name + ".valid_points", lambda: int(np.count_nonzero(valid.any(axis=-1))))
            return out
        return wrapper

    def reduced_integrand(orig, _ns):
        def wrapper(*args, **kwargs):
            g = tr.call("structure.reduced_integrand", orig, args, kwargs)
            n = len(_arg(args, kwargs, 1, "packets"))

            def free_nodes(gargs):
                if n != 4:
                    return 1
                if len(gargs) > 2 and gargs[2] is not None:
                    return len(gargs[2][0])
                # default_u_grid's size, worked out without building a
                # Gauss rule the library did not ask for: 4 panels
                return 4 * _arg(args, kwargs, 2, "ev").quad.inner_nodes

            @functools.wraps(g)
            def integrand(*gargs, **gkw):
                out = tr.call("structure.integrand", g, gargs, gkw)
                tr.add("structure.integrand.points", lambda: np.broadcast(
                    np.asarray(gargs[0]), np.asarray(gargs[1])).size * free_nodes(gargs))
                return out
            return integrand
        return wrapper

    def pv_fold(orig, _ns):
        def wrapper(numer, *args, **kwargs):
            def counted(x):
                tr.add("structure.pv_fold.numer_points", np.size, x)
                return numer(x)
            return tr.call("structure.pv_fold", orig, (counted,) + args, kwargs)
        return wrapper

    def pv_leg_term(orig, ns):
        from_lszlab = ns == L

        def wrapper(*args, **kwargs):
            if from_lszlab:
                tr.counts["lszlab.leg_terms.computed"] += 1
            return tr.call("structure.pv_leg_term", orig, args, kwargs)
        return wrapper

    def leggauss(orig, _ns):
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller == "qftscat" or caller.startswith("qftscat."):
                return tr.call("kinematics.gauss_rules", orig, args, kwargs)
            return orig(*args, **kwargs)
        return wrapper

    def kernel_family(name):
        # truncate/untruncate return functionals whose kernels do the work:
        # their evaluations count toward the same span name
        def make(orig, _ns):
            def wrapper(*args, **kwargs):
                kf = tr.call(name, orig, args, kwargs)

                def traced(kernel):
                    return functools.wraps(kernel)(
                        lambda *a, **k: tr.call(name, kernel, a, k))
                kf.kernels = {n: traced(kern) for n, kern in kf.kernels.items()}
                return kf
            return wrapper
        return make

    def sample_Qn(orig, _ns):
        def wrapper(*args, **kwargs):
            out = tr.call("fitter.sample_Qn", orig, args, kwargs)
            tr.add("fitter.sample_Qn.rate_sum", lambda: float(out.acceptance_rate))
            tr.counts["fitter.sample_Qn.calls"] += 1
            return out
        return wrapper

    def fit_polynomial(orig, _ns):
        def wrapper(*args, **kwargs):
            out = tr.call("fitter.fit_polynomial", orig, args, kwargs)
            tr.add("fitter.fit_polynomial.degrees_tried", lambda: len(out.history))
            tr.add("fitter.fit_polynomial.basis_columns",
                   lambda: sum(h["basis_size"] for h in out.history))
            return out
        return wrapper

    def finite_time_pairing(orig, _ns):
        def wrapper(*args, **kwargs):
            n = len(_arg(args, kwargs, 1, "packets"))
            if n >= 3:  # one leg term per leg; n = 2 has none
                tr.counts["lszlab.leg_terms.requested"] += n
            return tr.call("lszlab.finite_time_pairing", orig, args, kwargs)
        return wrapper

    return [
        (S, "two_body_solutions", two_body),
        (S, "reduced_integrand", reduced_integrand),
        (S, "u_singular_points", _plain(tr, "structure.u_singular_points")),
        (S, "pv_fold", pv_fold),
        (S, "pv_leg_term", pv_leg_term),
        (S, "eval_Ghat_n", _plain(tr, "structure.eval_Ghat_n")),
        (S, "eval_Ghat_2", _plain(tr, "structure.eval_Ghat_2")),
        ("numpy.polynomial.legendre", "leggauss", leggauss),
        (K, "gauss_legendre", _plain(tr, "kinematics.gauss_legendre")),
        (K, "WavePacket.__call__", points("kinematics.WavePacket", 1, "k", 1)),
        (K, "schwartz_norm_1leg", _plain(tr, "kinematics.schwartz_norm_1leg")),
        (T, "validate_condition41", _plain(tr, "transfer.validate_condition41")),
        (T, "TransferFamily.eval", points("transfer.TransferFamily.eval", 1, "momenta", 2)),
        (F, "eval_FG_n", _plain(tr, "formfactor.eval_FG_n")),
        (F, "eval_F_n", _plain(tr, "formfactor.eval_F_n")),
        (F, "smatrix_amplitude", _plain(tr, "formfactor.smatrix_amplitude")),
        (L, "convergence_study", _plain(tr, "lszlab.convergence_study")),
        (L, "finite_time_pairing", finite_time_pairing),
        (L, "chi_t", points("lszlab.chi_t", 1, "k", 1)),
        (G, "inout_positivity_check", _plain(tr, "gns.inout_positivity_check")),
        (G, "gram_matrix", _plain(tr, "gns.gram_matrix")),
        (G, "metric_decomposition", _plain(tr, "gns.metric_decomposition")),
        (G, "hssc_estimate", _plain(tr, "gns.hssc_estimate")),
        (TR, "truncate", kernel_family("truncation.truncate")),
        (TR, "untruncate", kernel_family("truncation.untruncate")),
        (TR, "KernelFunctional.eval", _plain(tr, "truncation.KernelFunctional.eval")),
        (FI, "sample_Qn", sample_Qn),
        (FI, "fit_polynomial", fit_polynomial),
        (FI, "build_family", _plain(tr, "fitter.build_family")),
        (PM, "Poly.__init__", _plain(tr, "polymath.Poly.__init__")),
        (PM, "Poly.__mul__", _plain(tr, "polymath.Poly.__mul__")),
        (PM, "Poly.__call__", points("polymath.Poly.__call__", 1, "x", 1)),
        ("qftscat.cli", "main", _plain(tr, "cli.main")),
    ]


def _benchmark_per_layer() -> list:
    """(metric, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tr: Tracer, study: int, traced_s: float, untraced_s: float,
              clock=None) -> dict:
    """Every per-layer metric of one traced study, in the clock's seconds."""
    an = tr.analyse(study, clock)
    stats, c = an["stats"], tr.counts

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    derived = {
        "structure.two_body_solutions.valid_frac": _ratio(
            c["structure.two_body_solutions.valid_points"], c["structure.two_body_solutions.points"]),
        "structure.pv_fold.nodes": c["structure.pv_fold.numer_points"] / 2,  # numer at pole +/- s
        "structure.share": _ratio(an["modules"].get("structure", 0.0), traced_s),
        "kinematics.gauss_rules_built": stat("kinematics.gauss_rules", "calls"),
        "lszlab.calls": sum(st["calls"] for n, st in stats.items() if n.startswith("lszlab.")),
        "lszlab.leg_terms.reuse_frac": 1.0 - _ratio(c["lszlab.leg_terms.computed"],
                                                    c["lszlab.leg_terms.requested"])
        if c["lszlab.leg_terms.requested"] else 0.0,
        "fitter.sample_Qn.acceptance_rate": _ratio(c["fitter.sample_Qn.rate_sum"],
                                                   c["fitter.sample_Qn.calls"]),
        "trace.study_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.top_level_coverage": _ratio(an["top_level_s"], traced_s),
        "trace.spans": sum(st["calls"] for st in stats.values()),
    }
    out = {}
    for metric, unit in _benchmark_per_layer():
        if metric in derived:
            value = derived[metric]
        elif metric in c:
            value = c[metric]
        else:
            name, _, key = metric.rpartition(".")
            value = stat(name, "calls" if key == "calls" else key)
        out[metric] = {"value": float(value) if unit != "count" else int(value), "unit": unit}
    return out
