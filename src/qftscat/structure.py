"""Structure-function pairings via phase-space reduction and PV quadrature.

The order-n kernel carries, for each leg position j, the off-shell factor
1/(k_j^2 - m^2) (principal value) with legs before j on the backward mass
shell and legs after j on the forward shell, times total momentum
conservation. Pairing against packet products reduces, in d=2, to
closed-form two-body kinematics (the conservation constraints solved
exactly) plus low-dimensional Gauss-Legendre quadrature and a symmetric
fold for the principal value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kinematics import CutoffSpec, ModelParams, gauss_legendre, gauss_rule, omega


@dataclass(frozen=True)
class SpectralDensity:
    """Continuum density rho(mu) entering the two-point function.

    rho vanishes below support_low; poly_bound_degree documents the
    polynomial bound (not enforced pointwise).
    """

    support_low: float
    density: object  # callable mu -> nonnegative real, vectorized
    poly_bound_degree: int = 2

    def __call__(self, mu):
        mu = np.asarray(mu, dtype=float)
        vals = np.asarray(self.density(mu), dtype=float)
        return np.where(mu >= self.support_low, vals, 0.0)

    @property
    def trivial(self) -> bool:
        return self.density is None

    @classmethod
    def default_model(cls, params: ModelParams, c: float = 0.1) -> "SpectralDensity":
        mc = 1.5 * params.m

        def rho(mu):
            x = np.asarray(mu, dtype=float) - mc
            return np.where(x > 0, c * x**2 * np.exp(-np.where(x > 0, x, 0.0)), 0.0)

        return cls(support_low=mc, density=rho)

    @classmethod
    def zero(cls, params: ModelParams) -> "SpectralDensity":
        return cls(support_low=2.0 * params.m, density=None)


@dataclass(frozen=True)
class QuadratureSettings:
    outer_nodes: int = 40  # k^1 integral over the PV leg's packet support
    inner_nodes: int = 24  # per-panel nodes of the order-4 free-leg integral
    fold_nodes: int = 24  # per-interval nodes of the PV fold
    nodes_per_period: float = 12.0  # fold refinement for oscillatory numerators
    space_nodes: int = 96  # two-point spatial integral
    mu_nodes: int = 48  # continuum mass integral
    mu_span: float = 20.0  # continuum window in units of m above onset
    singular_scan: int = 512  # grid for locating two-body threshold points

    def doubled(self) -> "QuadratureSettings":
        return replace(
            self,
            outer_nodes=2 * self.outer_nodes,
            inner_nodes=2 * self.inner_nodes,
            fold_nodes=2 * self.fold_nodes,
            nodes_per_period=2 * self.nodes_per_period,
            space_nodes=2 * self.space_nodes,
            mu_nodes=2 * self.mu_nodes,
            singular_scan=2 * self.singular_scan,
        )


class StructureEvaluator:
    """Bundles model constants, continuum density and quadrature settings."""

    def __init__(self, params: ModelParams, rho: SpectralDensity | None = None,
                 quad: QuadratureSettings | None = None,
                 cutoff: CutoffSpec | None = None):
        self.params = params
        self.rho = rho if rho is not None else SpectralDensity.zero(params)
        self.quad = quad or QuadratureSettings()
        self.cutoff = cutoff or CutoffSpec.for_params(params)
        if params.d != 2:
            raise NotImplementedError("phase-space quadrature implemented for d=2")
        m = params.m
        if self.rho.support_low <= m:
            raise ValueError("continuum onset must lie above the mass m")
        if not self.rho.trivial and self.rho.support_low**2 < m**2 + params.eps_phi:
            raise ValueError(
                "cutoff window (m^2-eps, m^2+eps) overlaps the continuum: "
                "need support_low^2 >= m^2 + eps_phi"
            )

    def refined(self) -> "StructureEvaluator":
        return StructureEvaluator(self.params, self.rho, self.quad.doubled(), self.cutoff)


def two_body_solutions(E, P, sa, sb, mass, polish: int = 2):
    """Roots p_a of sa*omega(p_a) + sb*omega(P - p_a) = E, vectorized.

    Returns (pa, pb, wa, wb, jac, valid), each with a trailing root axis of
    length 2. jac is the derivative of the energy constraint in p_a.
    """
    E = np.asarray(E, dtype=float)
    P = np.asarray(P, dtype=float)
    E, P = np.broadcast_arrays(E, P)
    m2 = mass * mass
    Q = E * E - P * P
    disc = Q * (Q - 4.0 * m2)
    ok = (disc >= 0) & (np.abs(Q) > 1e-14 * (1.0 + E * E + P * P))
    safeQ = np.where(ok, Q, 1.0)
    r = np.where(ok, 0.5 * np.abs(E) * np.sqrt(np.where(ok, disc, 0.0)) / np.abs(safeQ), 0.0)
    pa = np.stack([0.5 * P + r, 0.5 * P - r], axis=-1)
    scale = 1.0 + np.abs(E) + np.abs(P)
    # the second root duplicates the first when r ~ 0
    root_ok = np.stack([ok, ok & (r > 1e-12 * scale)], axis=-1)

    Eb = E[..., None]
    Pb = P[..., None]
    # the quadratic also produces roots of the other sign pattern; reject
    # them before polishing or Newton drags them onto the genuine root
    pb = Pb - pa
    wa = np.sqrt(pa * pa + m2)
    wb = np.sqrt(pb * pb + m2)
    res = sa * wa + sb * wb - Eb
    root_ok = root_ok & (np.abs(res) < 1e-6 * scale[..., None])
    for _ in range(max(polish, 0)):
        pb = Pb - pa
        wa = np.sqrt(pa * pa + m2)
        wb = np.sqrt(pb * pb + m2)
        res = sa * wa + sb * wb - Eb
        jac = sa * pa / wa - sb * pb / wb
        safe = np.abs(jac) > 1e-10
        pa = np.where(root_ok & safe, pa - res / np.where(safe, jac, 1.0), pa)
    pb = Pb - pa
    wa = np.sqrt(pa * pa + m2)
    wb = np.sqrt(pb * pb + m2)
    res = sa * wa + sb * wb - Eb
    jac = sa * pa / wa - sb * pb / wb
    coincide = np.abs(pa[..., 0] - pa[..., 1]) < 1e-12 * scale
    dedupe = np.stack([np.ones_like(coincide), ~coincide], axis=-1)
    valid = (root_ok & dedupe
             & (np.abs(res) < 1e-9 * scale[..., None]) & (np.abs(jac) > 1e-10))
    return pa, pb, wa, wb, jac, valid


def _leg_sign(l: int, j: int) -> int:
    return -1 if l < j else 1


def root_possible(E, P, sa, sb, mass):
    """Points (E, P) where sa*omega(p_a) + sb*omega(P - p_a) = E can have a
    root: a same-sign pair needs sa*E > 0 and Q >= 4 m^2, an opposite-sign
    pair Q <= 0, with Q = E^2 - P^2 computed as in two_body_solutions."""
    Q = E * E - P * P
    if sa == sb:
        return (sa * E > 0) & (Q >= 4.0 * (mass * mass))
    return Q <= 0


def _solved_pair_terms(j, pair, packets, ev, weight, leg_factors, E, P, k0, k1,
                       free=None):
    """Per-root terms of the on-shell pair solved at total (E, P), with a
    trailing root axis; zero wherever no root exists.

    Only the points where root_possible holds are solved and evaluated.
    free is None (order 3) or (leg, momenta, 2 omega) of the free leg on the
    u-grid, which is the last axis of E and P.
    """
    b, c = pair
    sb, sc = _leg_sign(b, j), _leg_sign(c, j)
    m = ev.params.m
    shape = np.shape(E)
    idx = np.flatnonzero(root_possible(E, P, sb, sc, m))
    pb, pc, wb, wc, jac, valid = two_body_solutions(
        np.ravel(E)[idx], np.ravel(P)[idx], sb, sc, m)
    kb = np.stack([sb * wb, pb], axis=-1)
    kc = np.stack([sc * wc, pc], axis=-1)
    # numpy evaluates `x * f(...)` in place as `f(...) * x` once the fresh
    # array f(...) holds 256 KiB, and its complex product (fused multiply-add)
    # is not bitwise commutative. Each product below takes the order it had
    # on the full grid (shape x 2 roots, complex), so masking changes no bit.
    swap = math.prod(shape) * 2 * 16 >= 256 * 1024

    def times(vals, factor):
        return np.multiply(factor, vals) if swap else np.multiply(vals, factor)

    vals = packets[b](kb)
    lead = 4.0
    if free is not None:
        fleg, kf, two_w = free
        iu = (idx % len(kf))[:, None]
        vals = times(packets[fleg](kf)[iu], vals)
        lead = two_w[iu] * 4.0
    vals = np.multiply(vals, packets[c](kc))
    if leg_factors is not None:
        if free is not None and leg_factors[fleg] is not None:
            vals = np.multiply(vals, leg_factors[fleg](kf)[iu])
        for leg, kk in ((b, kb), (c, kc)):
            if leg_factors[leg] is not None:
                vals = times(vals, leg_factors[leg](kk))
    if weight is not None:
        ks = np.zeros(kb.shape[:-1] + (len(packets), 2))
        ks[..., b, :] = kb
        ks[..., c, :] = kc
        if free is not None:
            ks[..., fleg, :] = kf[iu]
        ks[..., j, 0] = np.broadcast_to(k0, shape).ravel()[idx][:, None]
        ks[..., j, 1] = np.broadcast_to(k1, shape).ravel()[idx][:, None]
        vals = times(vals, weight(ks))
    dens = lead * wb * wc * np.abs(jac)
    out = np.zeros((math.prod(shape), 2), dtype=vals.dtype)
    out[idx] = np.where(valid, vals / np.where(valid, dens, 1.0), 0.0)
    return out.reshape(shape + (2,))


def default_u_grid(packet, quad: QuadratureSettings, panels: int = 4):
    """Composite Gauss-Legendre grid over a packet's spatial support."""
    lo, hi = packet.support_interval(1)
    edges = np.linspace(lo, hi, panels + 1)
    return _panel_grid(edges, quad.inner_nodes)


def _panel_grid(edges, nodes):
    """Composite quadrature with a sine substitution on every panel.

    The substitution's derivative vanishes at panel ends, which integrates
    inverse-square-root endpoint singularities (two-body thresholds) exactly
    in the transformed variable.
    """
    x, w = gauss_rule(nodes)
    us, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        us.append(mid + half * np.sin(0.5 * np.pi * x))
        ws.append(w * half * 0.5 * np.pi * np.cos(0.5 * np.pi * x))
    return np.concatenate(us), np.concatenate(ws)


def u_singular_points(j, packets, ev, free_leg, solved, k0_ref, k1_ref):
    """Threshold locations of the solved two-body pair as the free spatial
    momentum u scans the free leg's support, at a reference PV-leg momentum."""
    sa = _leg_sign(free_leg, j)
    sb, sc = (_leg_sign(l, j) for l in solved)
    m = ev.params.m
    lo, hi = packets[free_leg].support_interval(1)
    u = np.linspace(lo, hi, ev.quad.singular_scan)

    def disc(uu):
        E = -k0_ref - sa * np.sqrt(uu * uu + m * m)
        P = -k1_ref - uu
        Q = E * E - P * P
        return Q * (Q - 4.0 * m * m)

    d = disc(u)
    sgn = np.sign(d)
    idx = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    points = []
    for i in idx:
        a, b = u[i], u[i + 1]
        fa = d[i]
        for _ in range(60):
            c = 0.5 * (a + b)
            fc = disc(c)
            if fa * fc <= 0:
                b = c
            else:
                a, fa = c, fc
        points.append(0.5 * (a + b))
    return sorted(points)


def reduced_integrand(j: int, packets, ev: StructureEvaluator, weight=None,
                      leg_factors=None):
    """The leg-j reduction g_j: integrate the packet product over the shells
    of legs l != j with total momentum conservation solved exactly.

    j is 0-based. Returns a callable g(k0, k1[, ugrid]) vectorized over
    broadcastable arrays; for n=4 an optional (nodes, weights) pair replaces
    the default free-leg grid. No kinematic solution means g = 0.
    """
    n = len(packets)
    if n not in (3, 4):
        raise NotImplementedError("phase-space reduction implemented for n = 3, 4")
    others = [l for l in range(n) if l != j]
    b, c = others[-2:]  # the on-shell pair solved in closed form
    free = others[0]  # order 4: the leg integrated over the u-grid
    sa = _leg_sign(free, j)
    m = ev.params.m

    def g3(k0, k1, ugrid=None):
        k0, k1 = np.broadcast_arrays(np.asarray(k0, dtype=float), np.asarray(k1, dtype=float))
        return _solved_pair_terms(j, (b, c), packets, ev, weight, leg_factors,
                                  -k0, -k1, k0, k1).sum(axis=-1)

    def g4(k0, k1, ugrid=None):
        k0, k1 = np.broadcast_arrays(np.asarray(k0, dtype=float), np.asarray(k1, dtype=float))
        un, uw = default_u_grid(packets[free], ev.quad) if ugrid is None else ugrid
        # broadcast: leading axes from (k0, k1), then u, then the root axis
        k0e = k0[..., None]
        k1e = k1[..., None]
        wu = np.sqrt(un * un + m * m)
        kfree = np.stack([sa * wu, un], axis=-1)
        out = _solved_pair_terms(j, (b, c), packets, ev, weight, leg_factors,
                                 -k0e - sa * wu, -k1e - un, k0e, k1e,
                                 free=(free, kfree, 2.0 * wu))
        return (out.sum(axis=-1) * uw).sum(axis=-1)

    if n == 3:
        return g3
    g4.free_leg = free
    g4.solved_legs = (b, c)
    return g4


def pv_fold(numer, pole, span, quad: QuadratureSettings, t_hint: float = 0.0,
            intervals=None, singular=()):
    """PV integral of numer(k0)/(k0 - pole) as the symmetric fold
    int_0^span (numer(pole+s) - numer(pole-s))/s ds.

    intervals optionally restricts the fold variable to subintervals of
    [0, span] known to carry the numerator's support; node counts scale
    with t_hint to resolve oscillatory numerators. singular lists fold
    values where the numerator has an integrable inverse-square-root
    singularity (two-body thresholds); panels touching one get the sine
    substitution that removes it.
    """
    if span <= 0:
        return 0.0 + 0.0j
    if intervals is None:
        fracs = [0.0] + [2.0**-k for k in range(6, -1, -1)]
        intervals = [(span * fracs[i], span * fracs[i + 1]) for i in range(len(fracs) - 1)]
    sing = sorted(s for s in singular if 0.0 < s < span)
    panels = []
    for a, bnd in intervals:
        a = max(a, 0.0)
        bnd = min(bnd, span)
        if bnd <= a:
            continue
        edges = [a] + [s for s in sing if a < s < bnd] + [bnd]
        panels.extend(zip(edges[:-1], edges[1:]))
    if not panels:
        return 0.0 + 0.0j
    svals, swts = [], []
    for a, bnd in panels:
        nodes = int(max(quad.fold_nodes,
                        math.ceil(quad.nodes_per_period * abs(t_hint) * (bnd - a) / (2 * math.pi))))
        touches = any(abs(a - s) < 1e-12 or abs(bnd - s) < 1e-12 for s in sing)
        if touches:
            xs, ws = _panel_grid([a, bnd], int(1.6 * nodes))
        else:
            xs, ws = gauss_legendre(a, bnd, nodes)
        svals.append(xs)
        swts.append(ws)
    s = np.concatenate(svals)
    w = np.concatenate(swts)
    diff = numer(pole + s) - numer(pole - s)
    return complex(np.sum(w * diff / s))


def _adapted_u_grid(j, packets, ev, g, pole, k1):
    """Free-leg grid for order 4 with panel breaks at two-body thresholds."""
    free = g.free_leg
    lo, hi = packets[free].support_interval(1)
    breaks = u_singular_points(j, packets, ev, free, g.solved_legs, pole, k1)
    edges = [lo] + [p for p in breaks if lo < p < hi] + [hi]
    # keep panel count bounded; split long panels once
    refined = []
    for a, b in zip(edges[:-1], edges[1:]):
        refined.append(a)
        if b - a > 0.5 * (hi - lo):
            refined.append(0.5 * (a + b))
    refined.append(edges[-1])
    return _panel_grid(np.asarray(refined), ev.quad.inner_nodes)


def _threshold_k0(j: int, n: int, k1: float, m: float):
    """Off-shell-leg energies where the reduced integrand hits a two-body
    threshold (vanishing constraint Jacobian), order 3 only: a same-sign
    on-shell pair forces k_j^2 = 4 m^2 with a definite energy sign."""
    if n != 3:
        return []
    signs = [_leg_sign(l, j) for l in range(n) if l != j]
    if signs[0] != signs[1]:
        return []
    return [-signs[0] * math.sqrt(4.0 * m * m + k1 * k1)]


def pv_leg_term(j: int, packets, ev: StructureEvaluator, weight=None,
                leg_factors=None, pv_multiplier=None, t_hint: float = 0.0,
                interval_fn=None) -> complex:
    """One term of the PV pairing: leg j off shell, others reduced by g_j."""
    n = len(packets)
    pk = packets[j]
    g = reduced_integrand(j, packets, ev, weight=weight, leg_factors=leg_factors)
    lo1, hi1 = pk.support_interval(1)
    k1n, k1w = gauss_legendre(lo1, hi1, ev.quad.outer_nodes)
    lo0, hi0 = pk.support_interval(0)
    m = ev.params.m
    total = 0.0 + 0.0j
    for k1, wk in zip(k1n, k1w):
        w_sh = float(omega(k1, m))
        for sigma in (1, -1):
            pole = sigma * w_sh
            span = max(hi0 - pole, pole - lo0)
            if span <= 0:
                continue
            ugrid = None
            if n == 4:
                ugrid = _adapted_u_grid(j, packets, ev, g, pole, k1)

            def numer(k0, _k1=k1, _ugrid=ugrid):
                kj = np.stack([k0, np.full_like(k0, _k1)], axis=-1)
                v = g(k0, np.full_like(k0, _k1), _ugrid) * pk(kj)
                if pv_multiplier is not None:
                    v = v * pv_multiplier(kj)
                return v

            intervals = None
            if interval_fn is not None:
                intervals = interval_fn(sigma, w_sh, lo0, hi0)
            singular = [abs(k0s - pole) for k0s in _threshold_k0(j, n, k1, m)]
            total += wk * (sigma / (2.0 * w_sh)) * pv_fold(
                numer, pole, span, ev.quad, t_hint=t_hint, intervals=intervals,
                singular=singular,
            )
    return total


def eval_Ghat_n(packets, ev: StructureEvaluator, weight=None, leg_factors=None) -> complex:
    """Pairing of the order-n structure kernel with a packet product:
    sum over leg positions j of the PV term with legs before j backward
    on shell and legs after j forward on shell."""
    n = len(packets)
    if n < 3:
        raise ValueError("use eval_Ghat_2 for the two-point pairing")
    total = 0.0 + 0.0j
    for j in range(n):
        pv_mult = None
        if leg_factors is not None:
            pv_mult = leg_factors[j]
        total += pv_leg_term(j, packets, ev, weight=weight,
                             leg_factors=leg_factors, pv_multiplier=pv_mult)
    return total


def eval_Ghat_2(packets, ev: StructureEvaluator, leg_factors=None) -> complex:
    """Two-point pairing: backward m-shell term plus the rho continuum."""
    p1, p2 = packets
    lo1, hi1 = p1.support_interval(1)
    lo2, hi2 = p2.support_interval(1)
    lo = min(lo1, -hi2)
    hi = max(hi1, -lo2)
    kn, kw = gauss_legendre(lo, hi, ev.quad.space_nodes)
    m = ev.params.m

    def shell_term(mass):
        w = np.sqrt(kn * kn + mass * mass)
        ka = np.stack([-w, kn], axis=-1)
        kb = np.stack([w, -kn], axis=-1)
        vals = p1(ka) * p2(kb)
        if leg_factors is not None:
            if leg_factors[0] is not None:
                vals = vals * leg_factors[0](ka)
            if leg_factors[1] is not None:
                vals = vals * leg_factors[1](kb)
        return np.sum(kw * vals / (2.0 * w))

    total = shell_term(m)
    if not ev.rho.trivial:
        mu_lo = ev.rho.support_low
        mu_hi = mu_lo + ev.quad.mu_span * m
        mun, muw = gauss_legendre(mu_lo, mu_hi, ev.quad.mu_nodes)
        cont = sum(wmu * ev.rho(mu) * shell_term(mu) for mu, wmu in zip(mun, muw))
        total = total + cont
    return complex(total)


def pair_with_leg_multipliers(packets, multipliers, ev: StructureEvaluator,
                              weight=None) -> complex:
    """Pairing with each leg's test function multiplied pointwise; on-shell
    legs pick up the multiplier at their shell points, the PV leg keeps the
    full off-shell dependence."""
    if len(multipliers) != len(packets):
        raise ValueError("one multiplier per leg required")
    if len(packets) == 2:
        return eval_Ghat_2(packets, ev, leg_factors=list(multipliers))
    return eval_Ghat_n(packets, ev, weight=weight, leg_factors=list(multipliers))
