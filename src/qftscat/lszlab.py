"""Finite-time multipliers, wave-operator pairings and their large-time limits.

The leg multiplier chi_t equals 1 on the mass shells for every label and
time, so only the off-shell leg of each pairing term feels t. Convergence
of the finite-time pairings to the on-shell form factor is verified
empirically, together with the underlying one-dimensional principal-value
limits and the oscillatory-decay and L1-Fourier bounds they rest on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .formfactor import IN, LOC, OUT
from .kinematics import CutoffSpec, ModelParams, chi_plus_minus, gauss_legendre, gauss_rule, omega
from .structure import (
    SpectralDensity,
    StructureEvaluator,
    pair_with_leg_multipliers,
    pv_leg_term,
)


def chi_t(label: str, k, t: float, params: ModelParams, cutoff: CutoffSpec):
    """Finite-time leg multiplier: 1 for loc; for in/out a cutoff-windowed
    phase that is exactly 1 on both mass shells."""
    if label == LOC:
        return np.ones(np.asarray(k, dtype=float).shape[:-1], dtype=complex)
    if label not in (IN, OUT):
        raise ValueError(f"unknown leg label {label!r}")
    k = np.asarray(k, dtype=float)
    w = omega(k[..., 1:], params.m)
    sdir = -1.0 if label == IN else 1.0
    out = np.zeros(k.shape[:-1], dtype=complex)
    for sigma in (1.0, -1.0):
        chi = chi_plus_minus(k, int(sigma), params, cutoff)
        out = out + chi * np.exp(1j * sdir * (k[..., 0] - sigma * w) * t)
    return out


@dataclass(frozen=True)
class TimeMultiplier:
    """Callable chi_t(label, . , t) bound to model constants."""

    label: str
    t: float
    params: ModelParams
    cutoff: CutoffSpec

    def __call__(self, k):
        return chi_t(self.label, k, self.t, self.params, self.cutoff)


@dataclass(frozen=True)
class MultiTimeSchedule:
    """Per-leg times; rank permutation says which leg's time grows fastest."""

    times: tuple

    @classmethod
    def from_base(cls, t: float, ranks) -> "MultiTimeSchedule":
        return cls(times=tuple(t * 2.0**r for r in ranks))


def _chi_intervals(sigma, w_sh, lo0, hi0, eps):
    """Fold-variable subintervals carrying the chi_t support, for the pole
    at sigma*omega: the cutoff confines k^0 to +/-[sqrt(w^2-eps), sqrt(w^2+eps)]."""
    if w_sh * w_sh <= eps:
        return None
    wl = math.sqrt(w_sh * w_sh - eps)
    wh = math.sqrt(w_sh * w_sh + eps)
    pole = sigma * w_sh
    span = max(hi0 - pole, pole - lo0)
    raw = []
    for a, b in ((wl, wh), (-wh, -wl)):
        # branch k0 = pole + s
        raw.append((max(a - pole, 0.0), b - pole))
        # branch k0 = pole - s
        raw.append((max(pole - b, 0.0), pole - a))
    ivs = sorted((a, min(b, span)) for a, b in raw if min(b, span) > a >= 0)
    merged = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged or None


def _leg_term(j, label, t, packets, ev, weight=None):
    if label == LOC:
        return pv_leg_term(j, packets, ev, weight=weight)
    mult = TimeMultiplier(label, t, ev.params, ev.cutoff)
    eps = ev.params.eps_phi

    def interval_fn(sigma, w_sh, lo0, hi0):
        return _chi_intervals(sigma, w_sh, lo0, hi0, eps)

    return pv_leg_term(j, packets, ev, weight=weight, pv_multiplier=mult,
                       t_hint=t, interval_fn=interval_fn)


def finite_time_pairing(labels, packets, times, ev: StructureEvaluator,
                        fam=None, cache: dict | None = None) -> complex:
    """Pairing of the order-n kernel with the finite-time wave operator:
    each leg's test function is multiplied by chi_t of its label. On-shell
    legs see multiplier 1 exactly; only the off-shell leg of each term
    depends on its time."""
    n = len(packets)
    if len(labels) != n or len(times) != n:
        raise ValueError("labels, packets and times must align")
    weight = fam.eval if fam is not None else None
    if n == 2:
        mults = [TimeMultiplier(a, t, ev.params, ev.cutoff)
                 for a, t in zip(labels, times)]
        return pair_with_leg_multipliers(packets, mults, ev)
    total = 0.0 + 0.0j
    for j in range(n):
        key = (j, labels[j], float(times[j]))
        if cache is not None and key in cache:
            total += cache[key]
            continue
        term = _leg_term(j, labels[j], float(times[j]), packets, ev, weight=weight)
        if cache is not None:
            cache[key] = term
        total += term
    return total


@dataclass
class ConvergenceReport:
    t_grid: np.ndarray
    values: dict  # ordering key -> array of raw values
    window_averaged: dict  # ordering key -> array
    abs_err: dict  # ordering key -> array of |window avg - reference|
    extrapolated: dict  # ordering key -> complex
    fitted_rate: tuple  # (C, alpha) of |err| ~ C t^-alpha, first ordering
    target: complex | None
    envelope_nonincreasing: bool
    ordering_spread: float
    oscillation_amplitude: float = 0.0

    @property
    def passed(self) -> bool:
        return self.envelope_nonincreasing


def _decade_envelope_nonincreasing(t, err):
    decades = np.floor(np.log10(np.maximum(t, 1e-300)))
    maxes = []
    for dec in np.unique(decades):
        sel = decades == dec
        if sel.any():
            maxes.append(float(np.max(err[sel])))
    return all(b <= a * 1.0000001 for a, b in zip(maxes[:-1], maxes[1:]))


def _fit_rate(t, err):
    sel = (err > 0) & (t > 0)
    if sel.sum() < 2:
        return (0.0, 0.0)
    x = np.log(t[sel])
    y = np.log(err[sel])
    A = np.stack([np.ones_like(x), x], axis=-1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return (float(np.exp(coef[0])), float(-coef[1]))


def convergence_study(labels, packets, ev: StructureEvaluator, t_grid,
                      fam=None, orderings=None, target=None,
                      window_points: int = 4, omega_ref: float | None = None) -> ConvergenceReport:
    """Finite-time pairings along a time grid, window-averaged over one
    oscillation period, for several growth orderings of the per-leg times."""
    n = len(packets)
    t_grid = np.asarray(t_grid, dtype=float)
    if orderings is None:
        orderings = [tuple(range(n)), tuple(reversed(range(n)))]
    if omega_ref is None:
        omega_ref = float(np.mean([omega(p.center[1:], ev.params.m) for p in packets]))
    period = 2.0 * math.pi / (2.0 * omega_ref)
    cache: dict = {}
    values, window_avg = {}, {}
    for ranks in orderings:
        raw = np.zeros(len(t_grid), dtype=complex)
        avg = np.zeros(len(t_grid), dtype=complex)
        for i, t in enumerate(t_grid):
            sched = MultiTimeSchedule.from_base(t, ranks)
            raw[i] = finite_time_pairing(labels, packets, sched.times, ev,
                                         fam=fam, cache=cache)
            subs = [raw[i]]
            for w in np.linspace(0, period, window_points + 1)[1:-1]:
                sub = MultiTimeSchedule.from_base(t + w, ranks)
                subs.append(finite_time_pairing(labels, packets, sub.times, ev,
                                                fam=fam, cache=cache))
            avg[i] = np.mean(subs)
        values[ranks] = raw
        window_avg[ranks] = avg
    extrapolated = {r: complex(window_avg[r][-1]) for r in values}
    ref = target if target is not None else extrapolated[orderings[0]]
    abs_err = {r: np.abs(window_avg[r] - ref) for r in values}
    first = orderings[0]
    envelope_ok = _decade_envelope_nonincreasing(t_grid, abs_err[first])
    # exclude the final point when it defines the reference
    fit_err = abs_err[first] if target is not None else abs_err[first][:-1]
    fit_t = t_grid if target is not None else t_grid[:-1]
    rate = _fit_rate(fit_t, fit_err)
    lims = list(extrapolated.values())
    spread = max(abs(a - b) for a in lims for b in lims) if len(lims) > 1 else 0.0
    osc = float(np.max(np.abs(values[first] - window_avg[first])))
    return ConvergenceReport(
        t_grid=t_grid, values=values, window_averaged=window_avg,
        abs_err=abs_err, extrapolated=extrapolated, fitted_rate=rate,
        target=target, envelope_nonincreasing=envelope_ok,
        ordering_spread=spread, oscillation_amplitude=osc,
    )


def _single_report(t_grid, vals, target) -> ConvergenceReport:
    """Report of one ordering whose raw values are their own window average."""
    err = np.abs(vals - target)
    key = (0,)
    return ConvergenceReport(
        t_grid=t_grid, values={key: vals}, window_averaged={key: vals},
        abs_err={key: err}, extrapolated={key: complex(vals[-1]) if len(vals) else 0j},
        fitted_rate=_fit_rate(t_grid, err), target=target,
        envelope_nonincreasing=_decade_envelope_nonincreasing(t_grid, err),
        ordering_spread=0.0,
    )


def _quad_osc(g, t, kind, upper, **kw):
    """int_0^upper g(s) * cos/sin(s t) ds for complex-valued g."""
    re, _ = integrate.quad(lambda s: float(np.real(g(s))), 0, upper,
                           weight=kind, wvar=t, limit=400, **kw)
    im, _ = integrate.quad(lambda s: float(np.imag(g(s))), 0, upper,
                           weight=kind, wvar=t, limit=400, **kw)
    return re + 1j * im


def pv_oscillatory_integral(f, t: float, upper: float = 40.0) -> complex:
    """PV int e^{i xi t} f(xi)/xi d xi via the symmetric fold; the 1/s piece
    of the even part is integrated in closed form against sin(st)."""
    f0 = complex(f(0.0))

    def odd_part(s):
        return (f(s) - f(-s)) / s if s != 0 else 0.0

    def even_rest(s):
        if s == 0:
            return 0.0
        return (f(s) + f(-s) - 2.0 * f0 * math.exp(-0.5 * s * s)) / s

    val = _quad_osc(odd_part, t, "cos", upper)
    val += 1j * _quad_osc(even_rest, t, "sin", upper)
    # int_0^inf sin(st) e^{-s^2/2}/s ds = (pi/2) erf(t/sqrt(2))
    val += 1j * 2.0 * f0 * 0.5 * math.pi * special.erf(t / math.sqrt(2.0))
    return val


def pv_limit_demo(f, t_grid) -> ConvergenceReport:
    """Convergence of PV int e^{i xi t} f(xi)/xi d xi to i pi f(0)."""
    t_grid = np.asarray(t_grid, dtype=float)
    target = 1j * math.pi * complex(f(0.0))
    vals = np.array([pv_oscillatory_integral(f, t) for t in t_grid])
    return _single_report(t_grid, vals, target)


def sokhotsky_check(f, eps: float, upper: float = 40.0):
    """Compare PV int f/xi - i pi f(0) with int f(xi)/(xi + i eps) d xi.

    Returns (lhs, rhs, abs difference). The boundary-value side smears f
    over a scale eps, so the difference carries an O(eps) floor.
    """
    f0 = complex(f(0.0))

    def odd_part(s):
        return (f(s) - f(-s)) / s if s != 0 else 0.0

    pv, _ = integrate.quad(lambda s: float(np.real(odd_part(s))), 0, upper, limit=400)
    pv_i, _ = integrate.quad(lambda s: float(np.imag(odd_part(s))), 0, upper, limit=400)
    lhs = (pv + 1j * pv_i) - 1j * math.pi * f0

    # real part of 1/(xi + i eps) is xi/(xi^2 + eps^2), an odd kernel:
    # folding keeps the odd part of f
    def re_part(s):
        return s * (f(s) - f(-s)) / (s * s + eps * eps)

    # imaginary part is -eps/(xi^2 + eps^2). Subtract a Gaussian of matching
    # height whose Lorentzian integral is known in closed form (it carries
    # the O(eps) smearing deficit exactly); the even remainder vanishes
    # quadratically at 0 and is safe for adaptive quadrature.
    def lor_rest(s):
        gref = 2.0 * f0 * math.exp(-0.5 * s * s)
        return (f(s) + f(-s) - gref) * eps / (s * s + eps * eps)

    re1, _ = integrate.quad(lambda s: float(np.real(re_part(s))), 0, upper, limit=400)
    re2, _ = integrate.quad(lambda s: float(np.imag(re_part(s))), 0, upper, limit=400)
    im1, _ = integrate.quad(lambda s: float(np.real(lor_rest(s))), 0, upper, limit=400)
    im2, _ = integrate.quad(lambda s: float(np.imag(lor_rest(s))), 0, upper, limit=400)
    gauss_lor = math.pi * special.erfcx(eps / math.sqrt(2.0))
    rhs = (re1 + 1j * re2) - 1j * (im1 + 1j * im2 + f0 * gauss_lor)
    return lhs, rhs, abs(lhs - rhs)


def riemann_lebesgue_decay(rho: SpectralDensity, packets, t_grid,
                           ev: StructureEvaluator) -> ConvergenceReport:
    """Decay of the continuum term of the two-point finite-time pairing.

    The phase e^{-i(omega_m - omega_mu)t} from the backward-shell in-type
    multiplier is kept while the cutoff factor is dropped (the cutoff
    window excludes the continuum outright); the oscillatory mass integral
    then decays by cancellation. At t=0 this is the static continuum term.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if rho.trivial:
        return _single_report(t_grid, np.zeros(len(t_grid), dtype=complex), 0.0 + 0.0j)
    p1, p2 = packets
    m = ev.params.m
    lo1, hi1 = p1.support_interval(1)
    lo2, hi2 = p2.support_interval(1)
    lo, hi = min(lo1, -hi2), max(hi1, -lo2)
    kn, kw = gauss_legendre(lo, hi, ev.quad.space_nodes)
    mu_lo = rho.support_low
    mu_hi = mu_lo + ev.quad.mu_span * m
    wm = np.sqrt(kn * kn + m * m)  # (Nk,)
    vals = np.zeros(len(t_grid), dtype=complex)
    for i, t in enumerate(t_grid):
        # the mass integral oscillates ~ t (mu_hi - mu_lo) / (2 pi) times;
        # scale the node count with t (composite panels)
        n_mu = int(max(
            ev.quad.mu_nodes,
            math.ceil(ev.quad.nodes_per_period * abs(t) * (mu_hi - mu_lo) / (2 * math.pi)),
        ))
        panels = max(1, n_mu // ev.quad.mu_nodes)
        edges = np.linspace(mu_lo, mu_hi, panels + 1)
        x, w = gauss_rule(ev.quad.mu_nodes)
        mun = (0.5 * (edges[:-1] + edges[1:])[:, None]
               + 0.5 * np.diff(edges)[:, None] * x).ravel()
        muw = (0.5 * np.diff(edges)[:, None] * w).ravel()
        wmu = np.sqrt(kn[None, :] ** 2 + mun[:, None] ** 2)  # (Nmu, Nk)
        ka = np.stack([-wmu, np.broadcast_to(kn, wmu.shape)], axis=-1)
        kb = np.stack([wmu, np.broadcast_to(-kn, wmu.shape)], axis=-1)
        static = p1(ka) * p2(kb) / (2.0 * wmu)
        rvals = rho(mun)[:, None]
        phase = np.exp(-1j * (wm[None, :] - wmu) * t)
        vals[i] = np.sum(muw[:, None] * kw[None, :] * rvals * static * phase)
    return _single_report(t_grid, vals, 0.0 + 0.0j)


def l1_fourier_bound(packet, xi_nodes: int = 400, t_points: int = 40001):
    """Check the L1 bound on the Fourier transform:
    int |Ff|(t) dt <= pi (2 pi)^{-1/2} int |(1 - d^2/dxi^2) f| dxi.

    packet is a one-dimensional wave packet with analytic derivatives.
    Returns (lhs, rhs, passed).
    """
    if packet.dim != 1:
        raise ValueError("one-dimensional packet required")
    lo, hi = packet.support_interval(0)
    xs, ws = gauss_legendre(lo, hi, xi_nodes)
    fx = packet(xs[:, None])
    width = packet.width
    T = 15.0 / width + 2.0 * abs(packet.center[0])
    ts = np.linspace(-T, T, t_points)
    # F(t) = (2 pi)^{-1/2} sum_x w f(x) e^{-i x t}, evaluated as a matrix product
    F = (np.exp(-1j * np.outer(ts, xs)) @ (ws * fx)) / math.sqrt(2.0 * math.pi)
    lhs = float(integrate.simpson(np.abs(F), x=ts))
    f2 = packet.derivative(0).derivative(0)
    dense = np.linspace(lo, hi, 200001)
    integrand = np.abs(packet(dense[:, None]) - f2(dense[:, None]))
    rhs = math.pi / math.sqrt(2.0 * math.pi) * float(integrate.simpson(integrand, x=dense))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6)
