"""Structure-function pairings via phase-space reduction and PV quadrature.

The order-n kernel carries, for each leg position j, the off-shell factor
1/(k_j^2 - m^2) (principal value) with legs before j on the backward mass
shell and legs after j on the forward shell, times total momentum
conservation. Pairing against packet products reduces, in d=2, to
closed-form two-body kinematics (the conservation constraints solved
exactly) plus low-dimensional Gauss-Legendre quadrature; the principal
value subtracts the numerator at each pole from one shared k0 table.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .kinematics import TAIL_WIDTHS, ModelParams, NumericalError, gauss_panels, omega


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
    outer_nodes: int = 40  # order-4 k^1 rule; per panel of each order-3 on-shell leg
    inner_nodes: int = 24  # per-panel nodes of the order-4 free-leg integral
    fold_nodes: int = 24  # per-interval nodes of the PV fold
    nodes_per_period: float = 12.0  # fold refinement for oscillatory numerators
    space_nodes: int = 96  # two-point spatial integral
    mu_nodes: int = 48  # continuum mass integral
    mu_span: float = 20.0  # continuum window in units of m above onset

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(v, bool) or not isinstance(v, kind) or not math.isfinite(v) or v <= 0:
                raise ValueError(f"{f.name} must be a finite {f.type} > 0, got {v!r}")

    def doubled(self) -> "QuadratureSettings":
        return replace(
            self,
            outer_nodes=2 * self.outer_nodes,
            inner_nodes=2 * self.inner_nodes,
            fold_nodes=2 * self.fold_nodes,
            nodes_per_period=2 * self.nodes_per_period,
            space_nodes=2 * self.space_nodes,
            mu_nodes=2 * self.mu_nodes,
        )


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


def two_body_solutions(E, P, sa, sb, mass):
    """Roots p_a of sa*omega(p_a) + sb*omega(P - p_a) = E, vectorized.

    Returns (pa, pb, wa, wb, jac, valid), each with a trailing root axis of
    length 2. jac is the derivative of the energy constraint in p_a.

    The domain is root_possible; there the closed form p_a = P/2 +/- r is exact.
    A same-sign pair keeps both roots (one when r ~ 0), an opposite-sign pair
    one: sb*(omega(P - p_a) - omega(p_a)) = E has the sign of -sb*P*(p_a - P/2).
    """
    E, P = np.broadcast_arrays(np.asarray(E, dtype=float), np.asarray(P, dtype=float))
    ok = root_possible(E, P, sa, sb, mass)
    with np.errstate(divide="ignore", invalid="ignore"):  # r is nan off the domain
        r, signs = _roots(E, P, sa, sb, mass)
    r = np.where(ok, r, 0.0)
    pa, pb, wa, wb, jac, valid = _pair_roots(E, P, r, np.array([1.0, -1.0]), sa, sb, mass)
    return pa, pb, wa, wb, jac, valid & ok[..., None] & (signs == [1.0, -1.0])


def _roots(E, P, sa, sb, mass):
    """The offset r and the signs of the roots P/2 + sign r on root_possible
    points: both of a same-sign pair, the one of an opposite-sign pair."""
    Q = (E - P) * (E + P)
    r = 0.5 * np.abs(E) * np.sqrt(Q * (Q - 4.0 * (mass * mass))) / np.abs(Q)
    return r, np.array([1.0, -1.0]) if sa == sb else np.where(sb * E * P < 0, 1.0, -1.0)[..., None]


def _pair_roots(E, P, r, signs, sa, sb, mass):
    """two_body_solutions' roots P/2 + sign r, one per sign along a trailing
    axis; a same-sign pair's signs are (1, -1), its minus root counting where
    r > 1e-12 (1 + |E| + |P|) only."""
    m2 = mass * mass
    pa = np.stack([0.5 * P + signs[..., i] * r for i in range(signs.shape[-1])], axis=-1)
    scale = 1.0 + np.abs(E) + np.abs(P)
    pb = P[..., None] - pa
    wa = np.sqrt(pa * pa + m2)
    wb = np.sqrt(pb * pb + m2)
    res = sa * wa + sb * wb - E[..., None]
    jac = sa * pa / wa - sb * pb / wb
    valid = (np.abs(res) < 1e-9 * scale[..., None]) & (np.abs(jac) > 1e-10)
    if sa == sb:
        valid[..., 1] &= r > 1e-12 * scale
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
    two solved from conservation per root of two_body_solutions.

    Returns ks (..., 2, n, 2) with the root axis before the legs, dens = 4 wa
    wb |jac| (the solved legs' 2 omega shell densities times the constraint
    Jacobian) and valid (..., 2).
    """
    p = np.asarray(p, dtype=float)
    sa, sb = signs[-2:]
    k0 = signs[:-2] * np.sqrt(p * p + mass * mass)
    pa, pb, wa, wb, jac, valid = two_body_solutions(
        -k0.sum(axis=-1), -p.sum(axis=-1), sa, sb, mass)
    ks = np.empty(valid.shape + (len(signs), 2))
    ks[..., :-2, :] = np.stack([k0, p], axis=-1)[..., None, :, :]
    ks[..., -2, :] = np.stack([sa * wa, pa], axis=-1)
    ks[..., -1, :] = np.stack([sb * wb, pb], axis=-1)
    return ks, 4.0 * wa * wb * np.abs(jac), valid


def root_possible(E, P, sa, sb, mass):
    """two_body_solutions' domain, where sa*omega(p_a) + sb*omega(P - p_a) = E
    has a root: with Q = E^2 - P^2 > 1e-14 (1 + E^2 + P^2) in size, a same-sign
    pair needs sa*E > 0 and Q >= 4 m^2, an opposite-sign pair Q <= 0."""
    Q = (E - P) * (E + P)
    floor = np.abs(Q) > 1e-14 * (1.0 + E * E + P * P)
    if sa == sb:
        return (sa * E > 0) & (Q >= 4.0 * (mass * mass)) & floor
    return (Q <= 0) & floor


def _tail_exponent(j, pair, packets, E, P, k0, k1, free):
    """Lower bound D on sum_l |k_l - c_l|^2 / w_l^2 at k_j = (k0, k1), the free
    leg (free = (leg, momenta, ...)) and any split of the pair's total k_b +
    k_c = (E, P), whose share is at least |(E, P) - c_b - c_c|^2 / (w_b^2 +
    w_c^2); the packets' Gaussian product is at most exp(-D / 2) there."""
    pb, pc, pf = (packets[l] for l in (*pair, free[0]))
    terms = [(k0, k1, packets[j].center, packets[j].width ** 2),
             (E, P, pb.center + pc.center, pb.width ** 2 + pc.width ** 2),
             (*free[1].T, pf.center, pf.width ** 2)]
    return sum(((x - cen[0]) ** 2 + (y - cen[1]) ** 2) / w2 for x, y, cen, w2 in terms)


def _solved_pair_terms(j, pair, packets, ev, weight, E, P, k0, k1, free):
    """Terms of the on-shell pair solved at total (E, P), summed over its
    roots; zero wherever no root exists.

    Only points where root_possible holds inside the packets' joint tail
    (_tail_exponent) are solved, at the roots _roots gives (one for an
    opposite-sign pair). free is (leg, momenta, packet values, 2 omega) of
    the free leg on the u-grid, which is the last axis of E and P.
    """
    b, c = pair
    sb, sc = _leg_sign(b, j), _leg_sign(c, j)
    m = ev.params.m
    shape = np.shape(E)
    inside = _tail_exponent(j, pair, packets, E, P, k0, k1, free) <= TAIL_WIDTHS ** 2
    idx = np.flatnonzero(root_possible(E, P, sb, sc, m) & inside)
    E, P = np.ravel(E)[idx], np.ravel(P)[idx]
    pb, pc, wb, wc, jac, valid = _pair_roots(E, P, *_roots(E, P, sb, sc, m), sb, sc, m)
    kb = np.stack([sb * wb, pb], axis=-1)
    kc = np.stack([sc * wc, pc], axis=-1)
    fleg, kf, ff, two_w = free
    iu = (idx % len(kf))[:, None]
    vals = np.multiply(ff[iu], packets[b](kb))
    vals = np.multiply(vals, packets[c](kc))
    if weight is not None:
        ks = np.zeros(kb.shape[:-1] + (len(packets), 2))
        ks[..., b, :] = kb
        ks[..., c, :] = kc
        ks[..., fleg, :] = kf[iu]
        ks[..., j, 0] = np.broadcast_to(k0, shape).ravel()[idx][:, None]
        ks[..., j, 1] = np.broadcast_to(k1, shape).ravel()[idx][:, None]
        vals = np.multiply(vals, weight(ks))
    dens = two_w[iu] * 4.0 * wb * wc * np.abs(jac)
    terms = np.where(valid, vals / np.where(valid, dens, 1.0), 0.0)
    out = np.zeros(math.prod(shape), dtype=vals.dtype)
    out[idx] = terms.sum(axis=-1)
    return out.reshape(shape)


def leg_term_u_grid(packet, quad: QuadratureSettings):
    """Free-leg grid of the order-4 leg terms, shared by all their (k1, sigma)
    nodes: two sine-substituted panels split at the support's exact midpoint.

    At the on-shell point k0 = sigma*omega(k1), Q = (k_j + s_a k_u)^2 sums two
    on-shell vectors, so Q >= 4 m^2 or Q <= 0 and touches a threshold only at
    u = +/-k1, needing no break. Off the shell (inside a PV fold) thresholds
    can fall inside the support; the grid does not resolve them.
    """
    lo, hi = packet.support_interval(1)
    return gauss_panels([lo, 0.5 * (lo + hi), hi], quad.inner_nodes, sine=True)


def reduced_integrand(j: int, packets, ev: StructureEvaluator, weight=None):
    """The order-4 leg-j reduction g_j: integrate the packet product over the
    shells of legs l != j with total momentum conservation solved exactly.

    j is 0-based. Returns a callable g(k0, k1, ugrid) vectorized over
    broadcastable arrays, ugrid being the free leg's (nodes, weights) grid.
    No kinematic solution means g = 0, and so does a packet product (f_j's
    included) past its joint tail.
    """
    n = len(packets)
    if n != 4:
        raise NotImplementedError("phase-space reduction implemented for n = 4")
    free, b, c = [l for l in range(n) if l != j]  # free leg on the u-grid, solved pair
    sa, sb, sc = (_leg_sign(l, j) for l in (free, b, c))
    m = ev.params.m
    table = [None, None, None]  # the u nodes last seen, omega and the free leg on them

    def g(k0, k1, ugrid):
        k0, k1 = np.broadcast_arrays(np.asarray(k0, dtype=float), np.asarray(k1, dtype=float))
        un, uw = ugrid
        if table[0] is not un:  # once per leg term: leg_term passes every row one u-grid
            wu = np.sqrt(un * un + m * m)
            kfree = np.stack([sa * wu, un], axis=-1)
            table[:] = un, wu, (free, kfree, packets[free](kfree), 2.0 * wu)
        _, wu, ftable = table
        # broadcast: leading axes from (k0, k1), then u
        k0e = k0[..., None]
        k1e = k1[..., None]
        out = _solved_pair_terms(j, (b, c), packets, ev, weight,
                                 -k0e - sa * wu, -k1e - un, k0e, k1e, free=ftable)
        return (out * uw).sum(axis=-1)

    def live_interval(k1, ugrid):
        """(lo, hi) per k1, lo > hi for a dead row: the hull over free-leg nodes u
        of the k0 where g f_j can be nonzero. Per u (s = sa omega(u), P = -k1 - u)
        the joint tail bound holds on an interval about kmin and root_possible on
        a half-line (same-sign pair) or on the interval -s +/- |P| (opposite)."""
        k1, u = np.asarray(k1, dtype=float)[:, None], ugrid[0]
        s, P = sa * np.sqrt(u * u + m * m), -k1 - u
        pj, pb, pc = packets[j], packets[b], packets[c]
        wj2, W2 = pj.width ** 2, pb.width ** 2 + pc.width ** 2
        kmin = (pj.center[0] * W2 - (s + pb.center[0] + pc.center[0]) * wj2) / (wj2 + W2)
        h2 = (TAIL_WIDTHS ** 2 - _tail_exponent(j, (b, c), packets, -kmin - s, P, kmin, k1, (
            free, np.stack([s, u], axis=-1)))) * (wj2 * W2 / (wj2 + W2))
        h = np.sqrt(np.maximum(h2, 0.0))
        r = np.sqrt(P * P + 4.0 * m * m) if sb == sc else np.abs(P)
        ends = ((-np.inf, -s - r), (-s + r, np.inf))[sb < 0] if sb == sc else (-s - r, -s + r)
        lo, hi = np.maximum(kmin - h, ends[0]), np.minimum(kmin + h, ends[1])
        live = (h2 >= 0) & (lo <= hi)
        return np.where(live, lo, np.inf).min(axis=-1), np.where(live, hi, -np.inf).max(axis=-1)

    g.free_leg = free
    g.live_interval = live_interval
    return g


# Widest panel of a leg term's k0 table, in packet widths (wider panels
# under-resolve the packet's Gaussian at the default fold_nodes); panels also
# break half that far from each pole, near which the order-4 numerator can
# fall by orders of magnitude and 1/(k0 - p) weighs errors most.
PANEL_WIDTHS = 8.0


def oscillation_edges(lo, hi, t, nodes, quad: QuadratureSettings, max_panel=math.inf):
    """Equal sub-panels of the panels [lo, hi] (arrays) for an integrand
    oscillating like e^{i k t}: enough panels of the nodes-point rule for
    nodes_per_period * |t| * (hi - lo) / 2 pi nodes, and panels no longer than
    max_panel. Returns their (lo, hi) rows, on the edges np.linspace(lo, hi,
    count + 1) lays, and the panel each comes from."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = quad.nodes_per_period * abs(t) * (hi - lo) / (2 * math.pi)
    count = np.ceil(np.max([np.ones_like(n), n / nodes, (hi - lo) / max_panel], axis=0)).astype(int)
    panel = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(panel)) - (np.cumsum(count) - count)[panel]
    lo, hi, count = lo[panel], hi[panel], count[panel]
    return np.stack([np.where(i < count, i * ((hi - lo) / count) + lo, hi) for i in (k, k + 1)],
                    axis=-1), panel


def _pv_log(a, b, p):
    """ln|(b - p)/(a - p)|, the PV integral of 1/(k0 - p) over [a, b]; infinite with p on an end."""
    if p in (a, b):
        raise NumericalError(f"pv_fold: pole {p} on an end of the window [{a}, {b}] "
                             "where the numerator is nonzero")
    return math.log(abs((b - p) / (a - p)))


def pv_fold(numer, rows, quad: QuadratureSettings, t_hint: float = 0.0,
            max_panel: float = math.inf):
    """PV integrals over k0 of numer(k0, k1)/(k0 - p), one per row (k1, poles,
    windows) and pole p, over the windows (sorted break points [a, ..., b]
    each).

    A row's panels break at its poles and at p +/- max_panel / 2;
    oscillation_edges splits each into equal sub-panels of the one fold_nodes
    rule, all laid out in one pass. numer maps (N, 2) points (k0, k1) to
    (..., N) values, once per row, on its nodes and poles.
    The window [a, b] holding p (or the nearest) gives the sum of (numer(k0) -
    numer(p)) / (k0 - p) plus numer(p) ln|(b - p)/(a - p)| if numer(p) != 0;
    other windows are summed plainly. Per row: numer's leading axes, then pole.
    """
    spans, panels = [], []  # per row its windows' ends; (row, window, lo, hi)
    for r, (_, poles, windows) in enumerate(rows):
        windows = [e for e in windows if e[-1] > e[0]]
        spans.append(np.array([(e[0], e[-1]) for e in windows]).T)
        graded = [c for p in poles for c in (p - max_panel / 2, p + max_panel / 2)]
        for i, edges in enumerate(windows):
            a, b = edges[0], edges[-1]
            breaks = sorted({a, b, *(c for c in (*edges, *poles, *graded) if a < c < b)})
            panels += [(r, i, lo, hi) for lo, hi in zip(breaks[:-1], breaks[1:])]
    out = [np.zeros(len(poles), dtype=complex) for _, poles, _ in rows]
    if not panels:
        return out
    row, owner, lo, hi = map(np.array, zip(*panels))
    ends, panel = oscillation_edges(lo, hi, t_hint, quad.fold_nodes, quad, max_panel)
    k0, w = gauss_panels(ends, quad.fold_nodes)
    owner = np.repeat(owner[panel], quad.fold_nodes)
    bounds = quad.fold_nodes * np.searchsorted(row[panel], np.arange(len(rows) + 1))
    for r in np.flatnonzero(np.diff(bounds)):
        (k1, p, _), (a, b), (starts, stops) = rows[r], bounds[r:r + 2], spans[r]
        p = np.array(p)
        vals = numer(np.stack([np.append(k0[a:b], p), np.full(b - a + len(p), k1)], axis=-1))
        table, fp = vals[..., :b - a], vals[..., b - a:]
        near = np.argmin(np.maximum(starts - p[:, None], p[:, None] - stops), axis=-1)
        diff = table[..., None, :] - fp[..., None] * (owner[a:b] == near[:, None])
        logs = [_pv_log(starts[i], stops[i], x) if nz else 0.0 for i, x, nz in
                zip(near, p, np.any(fp.reshape(-1, len(p)), axis=0))]
        out[r] = np.sum(w[a:b] * diff / (k0[a:b] - p[:, None]), axis=-1) + fp * np.array(logs)
    return out


def _order3_pv_term(j: int, packets, ev: StructureEvaluator, weight) -> complex:
    """The order-3 PV leg term as a regular sum over the on-shell pair's
    spatial momenta (p_b, p_c): with k_l = (s_l omega(p_l), p_l) and k_j =
    -(k_b + k_c) it is the sum of f_b f_c f_j [w(ks)] / (4 omega_b omega_c
    (k_j^2 - m^2)). A same-sign pair has k_j^2 >= 4 m^2, an opposite-sign one
    k_j^2 <= 0, so |k_j^2 - m^2| >= m^2: no pole and no two-body threshold.
    Each leg takes outer_nodes per panel on two panels split at its packet
    centre; the sum runs one p_b node at a time, so memory grows with the
    node count, not its square."""
    m = ev.params.m
    legs = []
    for l in (l for l in range(3) if l != j):
        lo, hi = packets[l].support_interval(1)
        p, w = gauss_panels([lo, packets[l].center[1], hi], ev.quad.outer_nodes)
        wl = np.sqrt(p * p + m * m)
        k = np.stack([_leg_sign(l, j) * wl, p], axis=-1)
        legs.append((l, k, w * packets[l](k) / (2.0 * wl)))
    (b, kb, fb), (c, kc, fc) = legs
    ks = np.zeros((len(kc), 3, 2))
    ks[:, c] = kc
    total = 0.0 + 0.0j
    for kb_i, fb_i in zip(kb, fb):
        kj = -(kb_i + kc)
        vals = fb_i * fc * packets[j](kj) / (kj[:, 0] ** 2 - kj[:, 1] ** 2 - m * m)
        if weight is not None:
            ks[:, b], ks[:, j] = kb_i, kj
            vals = vals * weight(ks)
        total += np.sum(vals)
    return complex(total)


def leg_term(j: int, packets, ev: StructureEvaluator, sign: int = 0, weight=None,
             pv_multiplier=None, t_hint: float = 0.0, window_fn=None):
    """One leg term of a pairing: leg j carries one propagator atom, the other
    legs are reduced by g_j, and k1 runs over the packet's outer Gauss rule.

    sign +/-1 pins k_j to that shell, k0 = sign * omega(k1), with measure
    1/(2 omega); (j, -1) is the sign configuration of (j + 1, +1). It is 0,
    with nothing built, where shell_balance_possible fails (as for j = n,
    every leg backward). sign 0 is the principal-value atom: one pv_fold call
    tabulates g_j * f_j once per live k1 row on the packet's k0 support or the windows
    window_fn(omega) returns (such as pv_multiplier's support), each clipped to
    the row's live interval, and takes both poles +/-omega of a row from its table:
    sum_sigma sigma / (2 omega (k0 - sigma omega)) = 1/(k0^2 - omega^2).
    pv_multiplier may return one row per time, shape (T, N) for N k0 points;
    the term is then T values, on a grid sized by t_hint (the largest time).
    Order 3 has only its static PV term, the regular sum _order3_pv_term:
    its shell atoms and chi_t windows never balance.
    """
    n = len(packets)
    if sign and not shell_balance_possible(n, j, sign):
        return 0j
    if n == 3:
        if pv_multiplier is not None or window_fn is not None:
            raise ValueError("order 3 takes no pv_multiplier or window_fn")
        return _order3_pv_term(j, packets, ev, weight)
    pk = packets[j]
    g = reduced_integrand(j, packets, ev, weight=weight)
    ugrid = leg_term_u_grid(packets[g.free_leg], ev.quad)
    k1n, k1w = gauss_panels(pk.support_interval(1), ev.quad.outer_nodes)
    m = ev.params.m
    if sign:
        w = np.sqrt(k1n * k1n + m * m)
        k0 = sign * w
        vals = g(k0, k1n, ugrid)
        kj = np.stack([k0, k1n], axis=-1)
        return complex(np.sum(k1w * vals * pk(kj) / (2.0 * w)))
    lo0, hi0 = pk.support_interval(0)
    rows, weights = [], []
    for k1, wk, lo, hi in zip(k1n, k1w, *g.live_interval(k1n, ugrid)):
        w_sh = float(omega(k1, m))
        windows = [[max(e[0], lo, lo0), *e[1:-1], min(e[-1], hi, hi0)]  # g f_j = 0 outside
                   for e in ([[lo0, hi0]] if window_fn is None else window_fn(w_sh))]
        if any(e[-1] > e[0] for e in windows):
            rows.append((k1, (w_sh, -w_sh), windows))
            weights.append(wk)

    def numer(kj):
        # a fixed operand order: numpy may evaluate `v * x` as `x * v` in
        # place, and complex products do not commute bitwise
        v = np.multiply(g(kj[:, 0], kj[:, 1], ugrid), pk(kj))
        return v if pv_multiplier is None else np.multiply(v, pv_multiplier(kj))

    folds = pv_fold(numer, rows, ev.quad, t_hint=t_hint, max_panel=PANEL_WIDTHS * pk.width)
    total = 0.0 + 0.0j
    for (_, (w_sh, _), _), wk, vals in zip(rows, weights, folds):
        total += wk * (vals[..., 0] - vals[..., 1]) / (2.0 * w_sh)
    return total


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
    """Two-point shell integrand on the k rule over both packets' spatial
    support: omega_mu(k) and kw p1(ka) p2(kb) / (2 omega_mu), one row per mass
    mu, with ka = (-omega_mu, k) on the backward and kb = -ka on the forward
    mu shell."""
    p1, p2 = packets
    lo1, hi1 = p1.support_interval(1)
    lo2, hi2 = p2.support_interval(1)
    kn, kw = gauss_panels([min(lo1, -hi2), max(hi1, -lo2)], ev.quad.space_nodes)
    masses = np.asarray(masses, dtype=float)[:, None]
    w = np.sqrt(kn * kn + masses * masses)
    ka = np.stack([-w, np.broadcast_to(kn, w.shape)], axis=-1)
    return w, kw * (p1(ka) * p2(-ka)) / (2.0 * w)


def rho_continuum(packets, ev: StructureEvaluator, rho: SpectralDensity, t: float) -> complex:
    """The two-point pairing's rho continuum at time t: the mass integral of
    rho(mu) times the mu-shell term and the phase e^{-i(omega_m - omega_mu) t}
    of the backward-shell in-type multiplier (its cutoff factor dropped), over
    [support_low, support_low + mu_span m] on mu_nodes-point panels sized by
    oscillation_edges. t = 0 is the static continuum; 0 for a trivial rho."""
    if rho.trivial:
        return 0.0 + 0.0j
    m = ev.params.m
    mu_lo = rho.support_low
    edges, _ = oscillation_edges([mu_lo], [mu_lo + ev.quad.mu_span * m], t, ev.quad.mu_nodes,
                                 ev.quad)
    w_m = shell_table(packets, ev, [m])[0]
    total = 0.0 + 0.0j
    # one panel's table at a time: the panel count grows with t
    for panel in edges:
        mun, muw = gauss_panels(panel, ev.quad.mu_nodes)
        w, table = shell_table(packets, ev, mun)
        phase = np.exp(-1j * (w_m - w) * t)
        total += np.sum(muw[:, None] * rho(mun)[:, None] * table * phase)
    return complex(total)


def eval_Ghat_2(packets, ev: StructureEvaluator) -> complex:
    """Two-point pairing: backward m-shell term plus the rho continuum."""
    shell = complex(shell_table(packets, ev, [ev.params.m])[1].sum(axis=1)[0])
    return shell if ev.rho.trivial else shell + rho_continuum(packets, ev, ev.rho, 0.0)
