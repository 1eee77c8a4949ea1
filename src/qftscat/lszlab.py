"""Finite-time multipliers, wave-operator pairings and their large-time limits.

The leg multiplier chi_t equals 1 on the mass shells for every label and
time, so only the off-shell leg of each pairing term feels t. Convergence
of the finite-time pairings to the on-shell form factor is verified
empirically, together with the underlying one-dimensional principal-value
limits, one structure.pv_fold row each, and the oscillatory-decay and
L1-Fourier bounds they rest on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .formfactor import IN, LABELS, LOC, OUT, SHELL_SIGN, eval_FG_n
from .kinematics import TAIL_WIDTHS, ModelParams, chi_plus_minus, gauss_panels, omega
from .structure import (PANEL_WIDTHS, QuadratureSettings, SpectralDensity, StructureEvaluator,
                        leg_term, pv_fold, rho_continuum, shell_balance_possible)


def chi_t(label: str, k, t, params: ModelParams):
    """Finite-time leg multiplier: 1 for loc; for in/out a cutoff-windowed
    phase that is exactly 1 on both mass shells. An array of times gives
    one leading row per time."""
    t = np.asarray(t, dtype=float)
    k = np.asarray(k, dtype=float)
    if label == LOC:
        return np.ones(t.shape + k.shape[:-1], dtype=complex)
    if label not in (IN, OUT):
        raise ValueError(f"unknown leg label {label!r}")
    t = t.reshape(t.shape + (1,) * (k.ndim - 1))
    w = np.sqrt(k[..., 1] ** 2 + params.m**2)  # omega(k_vec) in d = 2
    # the sign of k^0 picks the one shell window that can hold k, so each
    # point needs one phase; adding to +0 keeps the signed zeros of the sum
    # over both shells
    sigma = np.where(k[..., 0] > 0, 1.0, -1.0)
    chi = chi_plus_minus(k, sigma, params)
    return 0.0 + chi * np.exp(1j * SHELL_SIGN[label] * (k[..., 0] - sigma * w) * t)


def _chi_windows(n, j, w_sh, eps):
    """k^0 windows of the chi_t support at shell energy w_sh (eps < m^2 <= w^2):
    sigma [sqrt(w^2-eps), sqrt(w^2+eps)], broken where the cutoff's plateau ends,
    for each sigma where leg term j of order n can balance (shell_balance_possible)."""
    edges = [math.sqrt(w_sh * w_sh + c * eps) for c in (-1.0, -0.5, 0.5, 1.0)]
    return [[s * e for e in edges[::s]] for s in (-1, 1) if shell_balance_possible(n, j, s)]


def _leg_terms(j, label, times, packets, ev, weight=None) -> np.ndarray:
    """Leg j's term at each of the given times. Each k1 node's k0 table is
    built once, sized by the largest time, and every time is applied to the
    static numerator as a chi_t row."""
    kw, n, eps = {}, len(packets), ev.params.eps_phi
    if label != LOC:
        if not _chi_windows(n, j, ev.params.m, eps):
            return np.zeros(len(times), dtype=complex)
        kw = dict(pv_multiplier=lambda k: chi_t(label, k, times, ev.params),
                  t_hint=max(times), window_fn=lambda w_sh: _chi_windows(n, j, w_sh, eps))
    return np.broadcast_to(leg_term(j, packets, ev, weight=weight, **kw), (len(times),))


def _pairings(labels, packets, schedules, ev, fam=None) -> np.ndarray:
    """Finite-time pairings, one per schedule (one time per leg). Each leg
    term is computed once over the union of that leg's times; each schedule
    then sums its legs in index order."""
    if any(a not in LABELS for a in labels):
        raise ValueError(f"leg labels must be among {LABELS}, got {labels!r}")
    if any(len(x) != len(packets) for x in [labels, *schedules]):
        raise ValueError("labels and every schedule need one entry per packet")
    if len(packets) == 2:
        # both legs sit on shells: on the m shell k^0 - sigma*omega is 0.0 and
        # phi(~1e-16) is 1, so in/out chi_t is exactly 1; on the continuum
        # k^2 - m^2 >= eps_phi (StructureEvaluator checks support_low), so it
        # is exactly 0 and only loc-loc keeps the continuum, as eval_FG_n does
        return np.full(len(schedules), eval_FG_n(labels, packets, ev))
    weight = fam.eval if fam is not None else None
    totals = np.zeros(len(schedules), dtype=complex)
    for j in range(len(packets)):
        times = sorted({float(s[j]) for s in schedules})
        terms = dict(zip(times, _leg_terms(j, labels[j], times, packets, ev, weight=weight)))
        totals += [terms[float(s[j])] for s in schedules]
    return totals


def finite_time_pairing(labels, packets, times, ev: StructureEvaluator, fam=None) -> complex:
    """Pairing of the order-n kernel with the finite-time wave operator:
    each leg's test function is multiplied by chi_t of its label. On-shell
    legs see multiplier 1 exactly; only the off-shell leg of each term
    depends on its time."""
    return complex(_pairings(labels, packets, [times], ev, fam=fam)[0])


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


# Errors below sqrt(eps) of the reference count as converged, in the envelope
# and the rate fit: round-off there wanders without a trend in t
ENVELOPE_FLOOR = math.sqrt(np.finfo(float).eps)


def _decade_envelope_nonincreasing(t, err, floor=0.0):
    """Whether the per-decade maxima of err, each raised to at least floor,
    never increase along t."""
    decades = np.floor(np.log10(np.maximum(t, 1e-300)))
    maxes = []
    for dec in np.unique(decades):
        sel = decades == dec
        if sel.any():
            maxes.append(max(float(np.max(err[sel])), floor))
    return all(b <= a * 1.0000001 for a, b in zip(maxes[:-1], maxes[1:]))


def _fit_rate(t, err, floor):
    sel = (err > floor) & (t > 0)
    if sel.sum() < 2:
        return (0.0, 0.0)
    x = np.log(t[sel])
    y = np.log(err[sel])
    A = np.stack([np.ones_like(x), x], axis=-1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return (float(np.exp(coef[0])), float(-coef[1]))


def convergence_study(labels, packets, ev: StructureEvaluator, t_grid,
                      fam=None, orderings=None, target=None,
                      window_points: int = 4) -> ConvergenceReport:
    """Finite-time pairings along a time grid, window-averaged over one
    oscillation period pi / omega at the packets' mean shell energy omega,
    for several growth orderings of the per-leg times: ordering ranks r run
    leg j to time t 2^r_j."""
    n = len(packets)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size or not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be a non-empty list of finite times")
    if orderings is None:
        orderings = [tuple(range(n)), tuple(reversed(range(n)))]
    if not orderings:
        raise ValueError("orderings must hold at least one ordering")
    omega_ref = float(np.mean([omega(p.center[1:], ev.params.m) for p in packets]))
    period = 2.0 * math.pi / (2.0 * omega_ref)
    offsets = [0.0, *np.linspace(0, period, window_points + 1)[1:-1]]
    # per-leg times of one pairing per (ordering, time, window offset)
    schedules = [tuple((t + w) * 2.0**r for r in ranks)
                 for ranks in orderings for t in t_grid for w in offsets]
    vals = _pairings(labels, packets, schedules, ev, fam=fam)
    return _report(t_grid, vals.reshape(len(orderings), len(t_grid), len(offsets)),
                   orderings, target)


def _report(t_grid, vals, orderings, target) -> ConvergenceReport:
    """Report of pairing values shaped (ordering, time, window offset). Offset 0
    gives the raw values; without a target, the first ordering's final window
    average is the reference, and the rate fit leaves that point out."""
    values = {r: vals[i, :, 0] for i, r in enumerate(orderings)}
    window_avg = {r: np.mean(vals[i], axis=-1) for i, r in enumerate(orderings)}
    extrapolated = {r: complex(window_avg[r][-1]) for r in values}
    first = orderings[0]
    ref = target if target is not None else extrapolated[first]
    abs_err = {r: np.abs(window_avg[r] - ref) for r in values}
    fit = slice(None) if target is not None else slice(-1)
    floor = ENVELOPE_FLOOR * abs(ref)
    lims = list(extrapolated.values())
    return ConvergenceReport(
        t_grid=t_grid, values=values, window_averaged=window_avg,
        abs_err=abs_err, extrapolated=extrapolated,
        fitted_rate=_fit_rate(t_grid[fit], abs_err[first][fit], floor), target=target,
        envelope_nonincreasing=_decade_envelope_nonincreasing(t_grid, abs_err[first], floor),
        ordering_spread=max(abs(a - b) for a in lims for b in lims),
    )


def _quad_0_40(g) -> complex:
    """int_0^40 g(s) ds for complex-valued g by scipy's quad (limit 400), its
    real and imaginary parts apart."""
    from scipy import integrate  # here, not at module level: importing it takes 0.4-0.5 s
    re, _ = integrate.quad(lambda s: float(np.real(g(s))), 0, 40.0, limit=400)
    im, _ = integrate.quad(lambda s: float(np.imag(g(s))), 0, 40.0, limit=400)
    return re + 1j * im


def _odd_fold(f):
    """s -> (f(s) - f(-s)) / s (0 at s = 0): PV int f(xi)/xi over |xi| <= 40
    folded onto [0, 40]."""
    return lambda s: (f(s) - f(-s)) / s if s != 0 else 0.0


def pv_oscillatory_integral(f, t: float, width: float = 1.0) -> complex:
    """PV int e^{i xi t} f(xi)/xi d xi over |xi| <= min(40, TAIL_WIDTHS width),
    width being the scale of f: one pv_fold row with its pole at 0, on panels
    at most PANEL_WIDTHS width wide and at the default fold_nodes / 2 nodes per
    period of e^{i xi t}, so its cost grows with t width."""
    edge = min(40.0, TAIL_WIDTHS * width)

    def numer(k):
        xi = k[:, 0]
        return np.exp(1j * t * xi) * f(xi)

    return complex(pv_fold(numer, [(0.0, 0.0, [-edge, edge])], QuadratureSettings(),
                           t_hint=t, max_panel=PANEL_WIDTHS * width)[0])


def pv_limit_demo(f, t_grid, width: float = 1.0) -> ConvergenceReport:
    """Convergence of PV int e^{i xi t} f(xi)/xi d xi to i pi f(0), f of
    scale width (pv_oscillatory_integral)."""
    t_grid = np.asarray(t_grid, dtype=float)
    target = 1j * math.pi * complex(f(0.0))
    vals = np.array([pv_oscillatory_integral(f, t, width) for t in t_grid])
    return _report(t_grid, vals[None, :, None], [(0,)], target)


def sokhotsky_check(f, eps: float):
    """Compare PV int f/xi - i pi f(0) with int f(xi)/(xi + i eps) d xi, both
    over |xi| <= 40.

    Returns (lhs, rhs, abs difference). The boundary-value side smears f
    over a scale eps, so the difference carries an O(eps) floor.
    """
    f0 = complex(f(0.0))
    lhs = _quad_0_40(_odd_fold(f)) - 1j * math.pi * f0

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

    x = eps / math.sqrt(2.0)
    gauss_lor = math.pi * math.exp(x * x) * math.erfc(x)  # pi erfcx(x)
    rhs = _quad_0_40(re_part) - 1j * (_quad_0_40(lor_rest) + f0 * gauss_lor)
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
    vals = np.array([rho_continuum(packets, ev, rho, t) for t in t_grid], dtype=complex)
    return _report(t_grid, vals[None, :, None], [(0,)], 0.0 + 0.0j)


def l1_fourier_bound(packet):
    """Check the L1 bound on the Fourier transform:
    int |Ff|(t) dt <= pi (2 pi)^{-1/2} int |(1 - d^2/dxi^2) f| dxi.

    packet is a one-dimensional wave packet with analytic derivatives. The
    transform takes 400 Gauss-Legendre nodes on the packet's support and is
    sampled at 40001 times. Returns (lhs, rhs, passed).
    """
    from scipy import integrate  # here, not at module level: importing it takes 0.4-0.5 s
    if packet.dim != 1:
        raise ValueError("one-dimensional packet required")
    lo, hi = packet.support_interval(0)
    xs, ws = gauss_panels([lo, hi], 400)
    fx = packet(xs[:, None])
    width = packet.width
    T = 15.0 / width + 2.0 * abs(packet.center[0])
    ts = np.linspace(-T, T, 40001)
    # F(t) = (2 pi)^{-1/2} sum_x w f(x) e^{-i x t}, in blocks t = t0 + tau of 400
    # times: e^{-i x t0} per block times one e^{-i x tau} matrix shared by all blocks
    tau = ts[:400] - ts[0]
    starts = np.exp(-1j * np.outer(ts[::400], xs)) * (ws * fx)
    F = (starts @ np.exp(-1j * np.outer(xs, tau))).ravel()[:40001] / math.sqrt(2.0 * math.pi)
    lhs = float(integrate.simpson(np.abs(F), x=ts))
    f2 = packet.derivative(0).derivative(0)
    dense = np.linspace(lo, hi, 200001)
    integrand = np.abs(packet(dense[:, None]) - f2(dense[:, None]))
    rhs = math.pi / math.sqrt(2.0 * math.pi) * float(integrate.simpson(integrand, x=dense))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-6)
