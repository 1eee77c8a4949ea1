"""Structure-function pairings via phase-space reduction and PV quadrature.

The order-n kernel carries, for each leg position j, the off-shell factor
1/(k_j^2 - m^2) (principal value) with legs before j on the backward mass
shell and legs after j on the forward shell, times total momentum
conservation. Pairing against packet products reduces, in d=2, to
closed-form kinematics plus low-dimensional Gauss quadrature. A static PV
term is summed over the other legs' on-shell momenta, its poles (if any)
in closed form in one leg's; multiplied PV terms are folded in k-space,
one k0 window and the one pole on its side of k0 = 0 per row, the
principal value subtracting the numerator at that pole. Shell atoms and
amplitudes are on-shell configuration integrals (shell_integral). One core
solves every on-shell pair (_pair_roots); ruled legs form one grid (_ruled_legs).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .kinematics import (TAIL_WIDTHS, ModelParams, NumericalError, gauss_panels, omega,
                         packet_rule)


@dataclass(frozen=True)
class SpectralDensity:
    """Continuum density rho(mu) entering the two-point function.

    rho vanishes below support_low.
    """

    support_low: float
    density: object  # callable mu -> nonnegative real, vectorized

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
    # inner_nodes Gauss-Hermite nodes per packet axis (packet_rule): each
    # ruled leg of shell_integral, each order-4 static term's on-shell
    # legs and the k-space fold's k^1 and free leg, and thrice that per
    # order-3 on-shell leg; fold_nodes per panel of the lone leg (three
    # panels), per interval of the PV fold and per panel (three) of the
    # two-point k rule, twice that per continuum mass panel, and half that
    # per oscillation period (oscillation_edges)
    inner_nodes: int = 24
    fold_nodes: int = 24

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v <= 0:
                raise ValueError(f"{f.name} must be an int > 0, got {v!r}")

    def doubled(self) -> "QuadratureSettings":
        return replace(self, inner_nodes=2 * self.inner_nodes, fold_nodes=2 * self.fold_nodes)


class StructureEvaluator:
    """Bundles model constants, continuum density and quadrature settings."""

    def __init__(self, params: ModelParams, rho: SpectralDensity | None = None,
                 quad: QuadratureSettings | None = None):
        self.params = params
        self.rho = rho if rho is not None else SpectralDensity.zero(params)
        self.quad = quad or QuadratureSettings()
        m = params.m
        if self.rho.support_low <= m:
            raise ValueError("continuum onset must lie above the mass m")
        if not self.rho.trivial and self.rho.support_low**2 < m**2 + params.eps_phi:
            raise ValueError(
                "cutoff window (m^2-eps, m^2+eps) overlaps the continuum: "
                "need support_low^2 >= m^2 + eps_phi"
            )

    def refined(self) -> "StructureEvaluator":
        return StructureEvaluator(self.params, self.rho, self.quad.doubled())


def _roots(E, P, sa, sb, mass):
    """The offset r and the signs of the roots p_a = P/2 + sign r of
    sa*omega(p_a) + sb*omega(P - p_a) = E, exact on root_possible points, on a
    leading root axis: both of a same-sign pair, the one of an opposite-sign
    pair, as E = sb*(omega(P - p_a) - omega(p_a)) has the sign of -sb*P*(p_a - P/2)."""
    Q = (E - P) * (E + P)
    r = 0.5 * np.abs(E) * np.sqrt(Q * (Q - 4.0 * (mass * mass))) / np.abs(Q)
    if sa != sb:
        return r, np.where(sb * E * P < 0, 1.0, -1.0)[None]
    return r, np.array([1.0, -1.0]).reshape((2,) + (1,) * E.ndim)


def _pair_roots(E, P, r, signs, sa, sb, mass):
    """(pa, pb, wa, wb, jac = d energy / d p_a, valid) at _roots' roots P/2 +
    sign r on a leading root axis, signs (R, ...) broadcast against E, P and r,
    so each root runs on contiguous rows; a same-sign pair's signs are (1, -1),
    its minus root counting where r > 1e-12 (1 + |E| + |P|) only."""
    m2 = mass * mass
    pa = 0.5 * P + signs * r
    scale = 1.0 + np.abs(E) + np.abs(P)
    pb = P - pa
    wa = np.sqrt(pa * pa + m2)
    wb = np.sqrt(pb * pb + m2)
    res = sa * wa + sb * wb - E
    jac = sa * pa / wa - sb * pb / wb
    valid = (np.abs(res) < 1e-9 * scale) & (np.abs(jac) > 1e-10)
    if sa == sb:
        valid[1] &= r > 1e-12 * scale
    return pa, pb, wa, wb, jac, valid


def _leg_sign(l: int, j: int) -> int:
    return -1 if l < j else 1


def shell_balance_possible(n: int, j: int, sigma: int) -> bool:
    """False if leg term j of order n is 0 with k_j on its sigma shell or in
    chi_t's window there (0 < eps < m^2). Proof: the j backward legs before j
    balance the n - 1 - j forward ones after it, so both groups (k_j in its
    sigma one) are nonempty with one invariant mass M, at least their legs'
    summed masses (reverse triangle inequality). One leg gives M = m, or
    M < sqrt(2) m if it is k_j; more give M > m, or M >= 2 m without k_j."""
    return j + (sigma < 0) >= 2 and n - 1 - j + (sigma > 0) >= 2


def shell_signs(n: int, r: int) -> np.ndarray:
    """Shell signs of an r -> n-r configuration: -1 (backward) for the r
    incoming legs, +1 (forward) for the n-r outgoing ones."""
    if not (n >= 3 and 1 <= r <= n - 1):
        raise ValueError("need n >= 3 and 1 <= r <= n-1")
    return np.array([_leg_sign(l, r) for l in range(n)])


def complete_configurations(p, signs, mass):
    """On-shell, momentum-conserving configurations with the shell signs of
    shell_signs: the first n-2 legs at spatial momenta p (..., n-2), the last
    two solved from conservation at both roots (_pair_roots), if valid.

    Returns ks (..., 2, n, 2) with the root axis before the legs, dens = 4 wa
    wb |jac| (the solved legs' 2 omega shell densities times the constraint
    Jacobian) and valid (..., 2).
    """
    p = np.asarray(p, dtype=float)
    sa, sb = signs[-2:]
    k0 = signs[:-2] * np.sqrt(p * p + mass * mass)
    E, P = -k0.sum(axis=-1), -p.sum(axis=-1)
    ok = root_possible(E, P, sa, sb, mass)
    with np.errstate(divide="ignore", invalid="ignore"):  # r is nan off the domain
        r, sign = _roots(E, P, sa, sb, mass)
    both = np.array([1.0, -1.0]).reshape((2,) + (1,) * E.ndim)
    *pair, valid = _pair_roots(E, P, np.where(ok, r, 0.0), both, sa, sb, mass)
    pa, pb, wa, wb, jac, valid = (np.moveaxis(x, 0, -1)
                                  for x in (*pair, valid & ok & (sign == both)))
    ks = np.empty(valid.shape + (len(signs), 2))
    ks[..., :-2, :] = np.stack([k0, p], axis=-1)[..., None, :, :]
    ks[..., -2, :] = np.stack([sa * wa, pa], axis=-1)
    ks[..., -1, :] = np.stack([sb * wb, pb], axis=-1)
    return ks, 4.0 * wa * wb * np.abs(jac), valid


def root_possible(E, P, sa, sb, mass):
    """The domain of _roots, where sa*omega(p_a) + sb*omega(P - p_a) = E has a
    root: with Q = E^2 - P^2 > 1e-14 (1 + E^2 + P^2) in size, a same-sign
    pair needs sa*E > 0 and Q >= 4 m^2, an opposite-sign pair Q <= 0."""
    Q = (E - P) * (E + P)
    floor = np.abs(Q) > 1e-14 * (1.0 + E * E + P * P)
    if sa == sb:
        return (sa * E > 0) & (Q >= 4.0 * (mass * mass)) & floor
    return (Q <= 0) & floor


def _exponent(k, packet):
    """|k - c|^2 / w^2 of a packet at momenta k (..., 2)."""
    (c0, c1), w = packet.center, packet.width
    return ((k[..., 0] - c0) ** 2 + (k[..., 1] - c1) ** 2) / w ** 2


def _solved_pair_terms(pair, signs, packets, m, weight, lead, trail):
    """Terms f_b f_c [w(ks)] / (4 omega_b omega_c |jac|), times the other
    legs' factors, of the on-shell pair (b, c) on the shells signs = (s_b,
    s_c), summed over its roots: an (A, U) table, 0 where no root exists.
    lead and trail are the other legs along its rows and columns, each (legs,
    momenta (X, len(legs), 2), factor (X,) or None for 1, tail exponent
    (X,)); the pair's total (E, P) balances theirs.

    Only points where root_possible holds inside the packets' joint tail are
    solved: the others' exponents plus the pair's least at any split, |(E, P)
    - c_b - c_c|^2 / (w_b^2 + w_c^2), within TAIL_WIDTHS^2. They are solved
    at the roots _roots gives (one for an opposite-sign pair), in (roots,
    points) tables summed over their rows; float64 for real packets and weight.
    """
    (llegs, lk, lf, ld), (tlegs, tk, tf, td) = lead, trail
    (b, c), (sb, sc), U = pair, signs, len(td)
    E, P = (-lk[:, :, i].sum(axis=1)[:, None] - tk[:, :, i].sum(axis=1) for i in (0, 1))
    cen, w2 = packets[b].center + packets[c].center, packets[b].width ** 2 + packets[c].width ** 2
    inside = ld[:, None] + ((E - cen[0]) ** 2 + (P - cen[1]) ** 2) / w2 + td <= TAIL_WIDTHS ** 2
    idx = np.flatnonzero(root_possible(E, P, sb, sc, m) & inside)
    iu = idx % U  # and idx // U for lead tables, built only where read
    E, P = E.ravel()[idx], P.ravel()[idx]
    pb, pc, wb, wc, jac, valid = _pair_roots(E, P, *_roots(E, P, sb, sc, m), sb, sc, m)
    legs = ((b, sb, wb, pb), (c, sc, wc, pc))
    if weight is not None:  # one momentum table, which the packets read views of
        ks = np.zeros(pb.shape + (len(packets), 2))
        for l, s, w, p in legs:
            ks[..., l, 0], ks[..., l, 1] = s * w, p
        ks[..., list(llegs), :], ks[..., list(tlegs), :] = lk[idx // U], tk[iu]
    vals = tf[iu] if lf is None else lf[idx // U] * tf[iu]
    for l, s, w, p in legs:  # each leg's energies live for its packet call alone
        vals = np.multiply(vals, packets[l]((s * w, p) if weight is None else ks[..., l, :]))
    if weight is not None:
        vals = np.multiply(vals, weight(ks))
    dens = 4.0 * wb * wc * np.abs(jac)
    terms = np.where(valid, vals / np.where(valid, dens, 1.0), 0.0)
    out = np.zeros(len(ld) * U, dtype=vals.dtype)
    out[idx] = terms.sum(axis=0)
    return out.reshape(len(ld), U)


def shell_integral(packets, signs, ev: StructureEvaluator, weight=None, order=None) -> complex:
    """The packet product [times weight(ks)] integrated over the mass shells of
    signs, leg l at k_l = (signs[l] omega(p_l), p_l) with measure dp_l / (2
    omega_l), under total momentum conservation: an on-shell configuration
    integral. The legs order[:-2] (order defaults to index order) run on
    their packets' Gauss-Hermite rules of inner_nodes (packet_rule); the last
    two legs of order are solved (_solved_pair_terms)."""
    m, nodes = ev.params.m, ev.quad.inner_nodes
    *lead, t, b, c = range(len(packets)) if order is None else order
    out = _solved_pair_terms(
        (b, c), (signs[b], signs[c]), packets, m, weight,
        (lead, *_ruled_legs(lead, [signs[l] for l in lead], packets, nodes, m)),
        ([t], *_ruled_legs([t], [signs[t]], packets, nodes, m)))
    return complex(np.sum(out))


def reduced_integrand(j: int, packets, ev: StructureEvaluator, weight=None):
    """The order-4 leg-j reduction g_j: integrate the packet product over the
    shells of legs l != j with total momentum conservation solved exactly.

    j is 0-based. Returns a callable g(k0, k1, ugrid) vectorized over
    broadcastable arrays, ugrid being a (nodes, weights) rule over the free
    leg g.free_leg's spatial momentum (leg_term's is the free leg's
    packet_rule). No kinematic solution means g = 0, and so does a packet
    product (f_j's included) past its joint tail.
    """
    n = len(packets)
    if n != 4:
        raise NotImplementedError("phase-space reduction implemented for n = 4")
    free, b, c = [l for l in range(n) if l != j]  # free leg on the u rule, solved pair
    sa = _leg_sign(free, j)
    m = ev.params.m
    table = [None, None]  # the u nodes last seen, and the free leg on them

    def g(k0, k1, ugrid):
        k0, k1 = np.broadcast_arrays(np.asarray(k0, dtype=float), np.asarray(k1, dtype=float))
        un, uw = ugrid
        if table[0] is not un:  # once per leg term: leg_term passes every row one u rule
            wu = np.sqrt(un * un + m * m)
            kf = np.stack([sa * wu, un], axis=-1)
            table[:] = un, ([free], kf[:, None], packets[free](kf) / (2.0 * wu),
                            _exponent(kf, packets[free]))
        kj = np.stack([k0, k1], axis=-1).reshape(-1, 2)
        out = _solved_pair_terms((b, c), (_leg_sign(b, j), _leg_sign(c, j)), packets, m, weight,
                                 ([j], kj[:, None], None, _exponent(kj, packets[j])), table[1])
        return (out * uw).sum(axis=-1).reshape(k0.shape)

    g.free_leg = free
    return g


# Widest panel of a leg term's k0 table, in packet widths (wider panels
# under-resolve the packet's Gaussian at the default fold_nodes); panels also
# break half that far from each pole, near which the order-4 numerator can
# fall by orders of magnitude and 1/(k0 - p) weighs errors most.
PANEL_WIDTHS = 8.0


def oscillation_edges(lo, hi, t, nodes, quad: QuadratureSettings, max_panel=math.inf):
    """Equal sub-panels of the panels [lo, hi] (arrays) for an integrand
    oscillating like e^{i k t}: enough panels of the nodes-point rule for
    fold_nodes / 2 nodes per period, fold_nodes / 2 * |t| * (hi - lo) / 2 pi
    in all, and panels no longer than max_panel. Returns their (lo, hi) rows,
    on the edges np.linspace(lo, hi, count + 1) lays, and the panel each
    comes from."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = quad.fold_nodes / 2 * abs(t) * (hi - lo) / (2 * math.pi)
    count = np.ceil(np.max([np.ones_like(n), n / nodes, (hi - lo) / max_panel], axis=0)).astype(int)
    panel = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(panel)) - (np.cumsum(count) - count)[panel]
    lo, hi, count = lo[panel], hi[panel], count[panel]
    return np.stack([np.where(i < count, i * ((hi - lo) / count) + lo, hi) for i in (k, k + 1)],
                    axis=-1), panel


def _pv_log(a, b, p):
    """ln|(b - p)/(a - p)|, the PV integral of 1/(x - p) over [a, b],
    elementwise over arrays; a pole on an end is a NumericalError."""
    on_end = (p == a) | (p == b)
    if np.any(on_end):
        a, b, p = (x[on_end][0] for x in np.broadcast_arrays(a, b, p))
        raise NumericalError(f"pole {p} on an end of the interval [{a}, {b}]")
    return np.log(np.abs((b - p) / (a - p)))


def pv_fold(numer, rows, quad: QuadratureSettings, t_hint: float = 0.0,
            max_panel: float = math.inf):
    """PV integrals over k0 of numer(k0, k1)/(k0 - p), one per row (k1, p,
    edges): one pole p and one window, its sorted break points [a, ..., b].

    A row's panels break at its edges and at p and p +/- max_panel / 2 inside
    [a, b]; oscillation_edges splits each into equal sub-panels of the one
    fold_nodes rule, fold_nodes / 2 per period of e^{i k0 t_hint}, all laid
    out in one pass. numer maps (N, 2) points (k0, k1) to (..., N) values,
    once per row, on its nodes and pole. A row's value has numer's leading
    axes: the sum of (numer(k0) - numer(p)) / (k0 - p), plus numer(p)
    ln|(b - p)/(a - p)| where numer(p) != 0; 0 if b <= a.
    """
    panels = []  # (row, lo, hi)
    for r, (_, p, edges) in enumerate(rows):
        a, b = edges[0], edges[-1]
        cuts = (*edges, p, p - max_panel / 2, p + max_panel / 2)
        breaks = sorted({a, b, *(c for c in cuts if a < c < b)}) if a < b else []
        panels += [(r, lo, hi) for lo, hi in zip(breaks[:-1], breaks[1:])]
    out = [0j] * len(rows)
    if not panels:
        return out
    row, lo, hi = map(np.array, zip(*panels))
    ends, panel = oscillation_edges(lo, hi, t_hint, quad.fold_nodes, quad, max_panel)
    k0, w = gauss_panels(ends, quad.fold_nodes)
    bounds = quad.fold_nodes * np.searchsorted(row[panel], np.arange(len(rows) + 1))
    for r in np.flatnonzero(np.diff(bounds)):
        (k1, p, edges), (a, b) = rows[r], bounds[r:r + 2]
        vals = numer(np.stack([np.append(k0[a:b], p), np.full(b - a + 1, k1)], axis=-1))
        fp = vals[..., -1]
        log = _pv_log(edges[0], edges[-1], p) if np.any(fp) else 0.0
        diff = vals[..., :-1] - fp[..., None]
        out[r] = np.sum(w[a:b] * diff / (k0[a:b] - p), axis=-1) + fp * log
    return out


def _ruled_legs(legs, signs, packets, nodes, m):
    """The legs at k_l = (s_l omega(p_l), p_l), s_l their signs, with p_l on
    their packet rules of the given nodes (packet_rule), over the rules' flat
    product grid, the first leg slowest: momenta (A, len(legs), 2), the
    product of the weighted shell factors w_l f_l(k_l) / (2 omega_l) and the
    summed tail exponents (_exponent), each (A,); A = 1 for no legs."""
    rules = [packet_rule(packets[l], nodes) for l in legs]
    sizes = [len(p) for p, _ in rules]
    A = math.prod(sizes)
    grid = np.indices(sizes).reshape(len(legs), A)
    ks, fs, ds = np.zeros((A, len(legs), 2)), np.ones(A), np.zeros(A)
    for i, (l, s, (p, w), at) in enumerate(zip(legs, signs, rules, grid)):
        wl = np.sqrt(p * p + m * m)
        k = np.stack([s * wl, p], axis=-1)
        f = w * packets[l](k) / (2.0 * wl)
        ks[:, i], fs, ds = k[at], fs * f[at], ds + _exponent(k[at], packets[l])
    return ks, fs, ds


# Points of one block of a static leg term's sum: as many of its first
# leg's nodes per block as fit against the rest of its grid (the other
# legs' nodes, or the lone leg's nodes and roots), and at least one
BLOCK_POINTS = 4096


def _onshell_sum(j: int, packets, ev: StructureEvaluator, weight, nodes: int) -> complex:
    """A PV leg term with no pole, as a regular sum over the other legs'
    spatial momenta on their packet rules of the given nodes: with k_l =
    (s_l omega(p_l), p_l) and k_j = -sum k_l, the sum of prod f_l / (2 omega_l)
    f_j [w(ks)] / (k_j^2 - m^2). At order 3 a same-sign pair has k_j^2 >= 4 m^2
    and an opposite-sign one k_j^2 <= 0; at order 4, legs j = 0 and 3 see three
    same-sign legs, k_j^2 >= 9 m^2. The sum runs a block of the first leg's
    nodes at a time against the other legs' whole grid, so memory grows with
    that grid alone; each node's row is summed alone, the rows in node order.
    A block is skipped where the joint tail exponent sum_l |k_l - c_l|^2 / w_l^2
    exceeds TAIL_WIDTHS^2 at all its points: the Gaussian product is below exp(-72)."""
    m = ev.params.m
    a, *rest = [l for l in range(len(packets)) if l != j]
    (ka, fa, Da), (kr, F, Dr) = (_ruled_legs(legs, [_leg_sign(l, j) for l in legs], packets,
                                             nodes, m) for legs in ([a], rest))
    K = kr.sum(axis=1)
    per = max(1, BLOCK_POINTS // len(K))
    total = 0.0 + 0.0j
    for s in range(0, len(ka), per):
        block = slice(s, s + per)
        kj = -(ka[block] + K)
        if np.min(Da[block, None] + Dr + _exponent(kj, packets[j])) > TAIL_WIDTHS ** 2:
            continue
        vals = fa[block, None] * F * packets[j](kj) / (kj[..., 0] ** 2 - kj[..., 1] ** 2 - m * m)
        if weight is not None:
            kb = np.zeros(kj.shape[:-1] + (len(packets), 2))
            kb[:, :, rest], kb[:, :, a], kb[:, :, j] = kr, ka[block], kj
            vals = vals * weight(kb)
        for row in np.sum(vals, axis=-1):
            total += row
    return complex(total)


def _lone_leg(j: int):
    """The lone leg c of order-4 leg term j = 1 or 2, whose shell sign differs
    from the other two legs', and that same-sign pair: leg 0 backward against
    legs 2, 3 forward, or leg 3 forward against legs 0, 1 backward."""
    return (0, [2, 3]) if j == 1 else (3, [0, 1])


def _lone_leg_pv(j: int, packets, ev: StructureEvaluator, weight, kf, kb):
    """PV integrals over the lone leg's spatial momentum p_c of F / h, one per
    row of the pair's momenta kf, kb (R, 2): F = f_c f_j [w(ks)] / (2 omega_c)
    and h = k_j^2 - m^2 = K^2 + 2 K.k_c, with K = kf + kb and k_j = -(K + k_c).

    K^2 >= 4 m^2, and h = -4 K^2 (p - r+)(p - r-) / D with D > 0 (see below)
    has the roots r+/- = -K1/2 +/- |K0| sqrt(1 - 4 m^2/K^2) / 2, so F / h =
    phi / ((p - r+)(p - r-)). Subtracting the line through phi(r+/-) leaves a
    regular integrand; the line's part is two _pv_log terms. Roots within 1e-6
    packet widths of each other are taken jointly in their limit: the finite
    part, with the tangent at -K1/2 by a central difference. p_c runs on three
    Gauss-Legendre panels broken at the roots over the interval where the four
    packets' joint tail bound (the pair's exponents at kf, kb and the spatial
    parts of f_c f_j) stays within TAIL_WIDTHS^2; rows with no such p_c are 0.
    """
    c, (f, b) = _lone_leg(j)
    pc, pj = packets[c], packets[j]
    K = kf + kb
    wc2, wj2 = pc.width ** 2, pj.width ** 2
    cj = -K[:, 1] - pj.center[1]  # f_j's spatial centre in p_c
    spent = _exponent(kf, packets[f]) + _exponent(kb, packets[b])
    reach2 = (TAIL_WIDTHS ** 2 - spent - (pc.center[1] - cj) ** 2 / (wc2 + wj2)) * (
        wc2 * wj2 / (wc2 + wj2))
    live = reach2 > 0
    if not live.all():
        kf, kb, K, cj, reach2 = (x[live] for x in (kf, kb, K, cj, reach2))
    if not len(K):
        return np.zeros(len(live))
    mid = (pc.center[1] * wj2 + cj * wc2) / (wc2 + wj2)
    lo, hi = mid - np.sqrt(reach2), mid + np.sqrt(reach2)
    m2 = ev.params.m ** 2
    pf, pb = kf[:, 1], kb[:, 1]
    # K^2 - 4 m^2 of two same-sign shell momenta, without cancellation
    excess = 2.0 * m2 * (pf - pb) ** 2 / (np.abs(kf[:, 0] * kb[:, 0]) + pf * pb + m2)
    K2 = 4.0 * m2 + excess
    K0, K1 = np.abs(K[:, 0]), K[:, 1]
    r0 = -0.5 * K1
    half = 0.5 * K0 * np.sqrt(excess / K2)
    close = 1e-6 * pc.width
    merged = half <= close
    split = np.where(merged, 0.0, half)
    roots = r0[:, None] + np.stack([split, -split], axis=-1)
    # three panels split at the roots inside [lo, hi]; merged roots leave an
    # empty first panel at lo, so that no node falls on the double root
    cuts = np.clip(roots[:, ::-1], lo[:, None], hi[:, None])
    cuts[:, 0] = np.where(merged, lo, cuts[:, 0])
    edges = np.concatenate([lo[:, None], cuts, hi[:, None]], axis=1)
    p, w = (a.reshape(len(K), -1) for a in gauss_panels(
        np.stack([edges[:, :-1], edges[:, 1:]], axis=-1).reshape(-1, 2), ev.quad.fold_nodes))
    step = np.where(merged, close, half)
    at = r0[:, None] + np.stack([step, -step, np.zeros_like(step)], axis=-1)  # line points
    P = np.concatenate([p, at], axis=1)
    om = np.sqrt(P * P + m2)
    kc = (_leg_sign(c, j) * om, P)
    kj = tuple(-(K[:, i, None] + x) for i, x in enumerate(kc))
    if weight is not None:  # one momentum table, which the packets read views of
        ks = np.empty(P.shape + (4, 2))
        ks[..., f, :], ks[..., b, :] = kf[:, None], kb[:, None]
        ks[..., c, 0], ks[..., c, 1] = kc
        ks[..., j, 0], ks[..., j, 1] = kj
        kc, kj = ks[..., c, :], ks[..., j, :]
    phi = packets[c](kc) * packets[j](kj)
    if weight is not None:
        phi = phi * weight(ks)
    # D = K^2 - 2 K1 p + 2 |K0| omega_c > K^2 - 2 (|K0| - |K1|)|p| > 0 cancels
    # the conjugate branch of h = K^2 - 2 K1 p - 2 |K0| omega_c: phi = -F D / (4 K^2)
    phi = phi * (((2.0 * K1)[:, None] * P - K2[:, None] - (2.0 * K0)[:, None] * om)
                 / ((8.0 * K2)[:, None] * om))
    slope = (phi[:, -3] - phi[:, -2]) / (2.0 * step)
    level = np.where(merged, phi[:, -1], 0.5 * (phi[:, -3] + phi[:, -2]))
    t = p - r0[:, None]
    w = w / ((t - split[:, None]) * (t + split[:, None]))
    regular = np.sum((phi[:, :-3] - (level[:, None] + slope[:, None] * t)) * w, axis=-1)
    logs = _pv_log(lo[:, None], hi[:, None], roots)
    # PV int dp / ((p - r+)(p - r-)): the logs' difference over r+ - r-, or at
    # merged roots the finite part of int dp / (p - r0)^2
    t_lo, t_hi = (np.where(merged, e - r0, 1.0) for e in (lo, hi))
    pole = np.where(merged, 1.0 / t_lo - 1.0 / t_hi,
                    (logs[:, 0] - logs[:, 1]) / (2.0 * np.where(merged, 1.0, split)))
    out = np.zeros(len(live), dtype=phi.dtype)
    out[live] = regular + level * pole + slope * 0.5 * (logs[:, 0] + logs[:, 1])
    return out


def _lone_leg_term(j: int, packets, ev: StructureEvaluator, weight) -> complex:
    """Order-4 PV leg term j = 1 or 2: the same-sign pair's spatial momenta on
    Gauss-Hermite rules of inner_nodes at their packets, and the PV integral
    over the lone leg's (_lone_leg_pv), for a block of the pair's first leg's
    nodes at a time (BLOCK_POINTS): memory grows with the node count alone."""
    _, pair = _lone_leg(j)
    ks, F, _ = _ruled_legs(pair, [_leg_sign(l, j) for l in pair], packets, ev.quad.inner_nodes,
                           ev.params.m)
    nb = math.isqrt(len(F))  # the pair's rules have one size, packet_rule's at inner_nodes
    rows = nb * max(1, BLOCK_POINTS // (nb * (3 * ev.quad.fold_nodes + 3)))
    total = 0.0 + 0.0j
    for s in range(0, len(F), rows):
        block = slice(s, s + rows)
        total += np.sum(F[block] * _lone_leg_pv(j, packets, ev, weight, ks[block, 0], ks[block, 1]))
    return complex(total)


def leg_term(j: int, packets, ev: StructureEvaluator, *, weight=None, pv_multiplier=None,
             t_hint: float = 0.0, window_fn=None):
    """One principal-value leg term of a pairing: leg j carries the PV atom.

    The static term (no pv_multiplier) of order 3 or 4 is summed over the
    other legs' on-shell spatial momenta: _onshell_sum where there is no
    pole (order 3, and order 4 j = 0 and 3), each leg on its packet's
    Gauss-Hermite rule (packet_rule) of inner_nodes, thrice that at order 3;
    _lone_leg_term for order 4 j = 1 and 2.

    A term under a pv_multiplier, which comes with its window_fn (one without
    the other is a ValueError), is folded in k-space, the other legs reduced
    by g_j: k1 and g_j's free leg each on their packet's Gauss-Hermite rule of
    inner_nodes (packet_rule). It takes one pv_fold call with one row per k1
    node and window: the windows window_fn(omega) returns, each on one side
    sigma of k0 = 0, clipped to the packet's k0 support. A row's pole is
    sigma omega, and its numerator g_j f_j / (k0 + sigma omega), regular on
    that side: 1/(k0^2 - omega^2) = 1/((k0 - sigma omega) (k0 + sigma
    omega)). pv_multiplier may return one row per time, shape (T, N) for N
    k0 points; the term is then T values, on a grid sized by t_hint (the
    largest time). Order 3 has only its static term: its chi_t windows never
    balance. Shell atoms are configuration integrals (shell_integral).
    """
    n = len(packets)
    if (pv_multiplier is None) != (window_fn is None):
        raise ValueError("pass pv_multiplier and window_fn together, or neither")
    static = pv_multiplier is None
    if n == 3 and not static:
        raise ValueError("order 3 takes no pv_multiplier or window_fn")
    if static and n == 4 and j in (1, 2):
        return _lone_leg_term(j, packets, ev, weight)
    if static and n in (3, 4):
        return _onshell_sum(j, packets, ev, weight, (3 if n == 3 else 1) * ev.quad.inner_nodes)
    pk = packets[j]
    g = reduced_integrand(j, packets, ev, weight=weight)
    ugrid = packet_rule(packets[g.free_leg], ev.quad.inner_nodes)
    k1n, k1w = packet_rule(pk, ev.quad.inner_nodes)
    m = ev.params.m
    lo0, hi0 = pk.support_interval(0)
    rows, weights = [], []
    for k1, wk in zip(k1n, k1w):
        w_sh = float(omega(k1, m))
        for e in window_fn(w_sh):
            # g f_j = 0 outside the support
            rows.append((k1, w_sh if e[-1] > 0 else -w_sh,
                         [max(e[0], lo0), *e[1:-1], min(e[-1], hi0)]))
            weights.append(wk)

    def numer(kj):
        # a fixed operand order: numpy may evaluate `v * x` as `x * v` in
        # place, and complex products do not commute bitwise. The other pole's
        # 1/(k0 + sigma omega) is regular on the row's side sigma = sign(k0)
        v = np.multiply(g(kj[:, 0], kj[:, 1], ugrid), pk(kj))
        v = np.divide(v, kj[:, 0] + np.copysign(omega(kj[:, 1:], m), kj[:, 0]))
        return np.multiply(v, pv_multiplier(kj))

    folds = pv_fold(numer, rows, ev.quad, t_hint=t_hint, max_panel=PANEL_WIDTHS * pk.width)
    return sum((wk * fold for wk, fold in zip(weights, folds)), 0j)


def eval_Ghat_n(packets, ev: StructureEvaluator, weight=None) -> complex:
    """Pairing of the order-n structure kernel with a packet product:
    sum over leg positions j of the PV term with legs before j backward
    on shell and legs after j forward on shell."""
    n = len(packets)
    if n < 3:
        raise ValueError("use eval_Ghat_2 for the two-point pairing")
    total = 0.0 + 0.0j
    for j in range(n):
        total += leg_term(j, packets, ev, weight=weight)
    return total


def shell_table(packets, ev: StructureEvaluator, masses):
    """Two-point shell integrand on the k rule of the spatial Gaussian of
    p1(k) p2(-k), centre c and width w: fold_nodes on each of three panels
    over c +/- TAIL_WIDTHS w, PANEL_WIDTHS w wide. Returns omega_mu(k) and
    kw p1(ka) p2(kb) / (2 omega_mu), one row per mass mu, with ka = (-omega_mu,
    k) on the backward and kb = -ka on the forward mu shell."""
    p1, p2 = packets
    (c1, w1), (c2, w2) = ((p.center[1], p.width) for p in packets)
    s = w1 * w1 + w2 * w2
    c, wp = (c1 * w2 * w2 - c2 * w1 * w1) / s, w1 * w2 / math.sqrt(s)
    edges = [c + wp * x for x in (-TAIL_WIDTHS, -TAIL_WIDTHS / 3, TAIL_WIDTHS / 3, TAIL_WIDTHS)]
    kn, kw = gauss_panels(edges, ev.quad.fold_nodes)
    masses = np.asarray(masses, dtype=float)[:, None]
    w = np.sqrt(kn * kn + masses * masses)
    ka, kb = (-w, np.broadcast_to(kn, w.shape)), (w, np.broadcast_to(-kn, w.shape))
    return w, kw * (p1(ka) * p2(kb)) / (2.0 * w)


def rho_continuum(packets, ev: StructureEvaluator, rho: SpectralDensity, t: float) -> complex:
    """The two-point pairing's rho continuum at time t: the mass integral of
    rho(mu) times the mu-shell term and the phase e^{-i(omega_m - omega_mu) t}
    of the backward-shell in-type multiplier (its cutoff factor dropped), on
    panels of 2 fold_nodes points sized by oscillation_edges, fold_nodes / 2
    per period of the phase (shell_table's k rule does not follow t). The
    window ends where either packet's energy factor is below exp(-72), at
    |c^0| + TAIL_WIDTHS w (omega_mu >= mu). t = 0 is the static continuum; 0
    for a trivial rho or an empty window."""
    mu_lo = rho.support_low
    mu_hi = min(abs(p.center[0]) + TAIL_WIDTHS * p.width for p in packets)
    if rho.trivial or mu_hi <= mu_lo:
        return 0.0 + 0.0j
    nodes = 2 * ev.quad.fold_nodes
    edges, _ = oscillation_edges([mu_lo], [mu_hi], t, nodes, ev.quad)
    w_m = shell_table(packets, ev, [ev.params.m])[0]
    total = 0.0 + 0.0j
    # one panel's table at a time: the panel count grows with t
    for panel in edges:
        mun, muw = gauss_panels(panel, nodes)
        w, table = shell_table(packets, ev, mun)
        phase = np.exp(-1j * (w_m - w) * t)
        total += np.sum(muw[:, None] * rho(mun)[:, None] * table * phase)
    return complex(total)


def eval_Ghat_2(packets, ev: StructureEvaluator) -> complex:
    """Two-point pairing: backward m-shell term plus the rho continuum."""
    shell = complex(shell_table(packets, ev, [ev.params.m])[1].sum(axis=1)[0])
    return shell if ev.rho.trivial else shell + rho_continuum(packets, ev, ev.rho, 0.0)
