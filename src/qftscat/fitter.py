"""Bounded-energy phase-space sampling and invariant polynomial fitting.

Samples on-shell, momentum-conserving n-point configurations with the
outgoing energy capped, maps them to pairwise Minkowski invariants, and
fits real polynomials by least squares, in a maximal affinely independent
subset of the invariants, with degree escalation against a held-out
validation sample.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .kinematics import NumericalError, invariant_map, invariant_names, multi_indices
from .polymath import Poly, monomials
from .structure import complete_configurations, shell_signs
from .transfer import TransferFamily, TransferPolynomial, require_valid, symmetrize_realify


@dataclass(frozen=True)
class FitConfig:
    e_max: float
    epsilon: float = 1e-3
    max_degree: int = 10
    train_count: int = 2000
    validate_count: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0 or self.train_count <= 0 or self.validate_count <= 0:
            raise ValueError("epsilon and sample counts must be positive")
        if self.max_degree < 0:
            raise ValueError("max_degree must be non-negative")


@dataclass
class PhaseSpaceSample:
    n: int
    r: int
    points: np.ndarray  # (N, n, 2)
    acceptance_rate: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return self.points.shape[0] == 0


def recheck_constraints(points, r, e_max, m) -> np.ndarray:
    """Independent validation of every sampled configuration: on-shell and
    conserving to 1e-10 relative, sign pattern, outgoing energy cap. Returns
    a boolean mask."""
    ks = np.asarray(points, dtype=float)
    sq = ks[..., 0] ** 2 - ks[..., 1] ** 2
    on_shell = np.all(np.abs(sq - m * m) < 1e-10 * (1.0 + np.abs(sq)), axis=-1)
    total = ks.sum(axis=1)
    scale = 1.0 + np.abs(ks).max(axis=(1, 2))
    conserving = np.all(np.abs(total) < 1e-10 * scale[:, None], axis=-1)
    signs_in = np.all(ks[:, :r, 0] < 0, axis=-1)
    signs_out = np.all(ks[:, r:, 0] > 0, axis=-1)
    cap = ks[:, r:, 0].sum(axis=-1) <= e_max * (1.0 + 1e-12)
    return on_shell & conserving & signs_in & signs_out & cap


def sample_Qn(n: int, r: int, cfg: FitConfig, params) -> PhaseSpaceSample:
    """Rejection sampling of the bounded-energy on-shell region.

    Draws n-2 spatial momenta uniformly, solves the final two legs from
    energy-momentum conservation (random branch), and accepts when the
    sign pattern and the outgoing-energy cap hold, until cfg's train plus
    validate count is accepted or 2,000,000 draws are made. Deterministic
    per seed.
    """
    signs = shell_signs(n, r)
    m = params.m
    target = cfg.train_count + cfg.validate_count
    if n > cfg.e_max / m:
        return PhaseSpaceSample(n, r, np.zeros((0, n, 2)), 0.0,
                                {"reason": "empty: n exceeds e_max/m"})
    rng = np.random.default_rng(cfg.seed)
    pmax = math.sqrt(max(cfg.e_max**2 - m * m, 0.0))
    accepted = []
    drawn = 0
    batch = 8192
    rows = np.arange(batch)
    while sum(a.shape[0] for a in accepted) < target and drawn < 2_000_000:
        ps = rng.uniform(-pmax, pmax, size=(batch, n - 2))
        branch = rng.integers(0, 2, size=batch)
        drawn += batch
        ks, _, valid = complete_configurations(ps, signs, m)
        ok = valid[rows, branch]
        ks = ks[rows, branch]
        cap = ks[:, r:, 0].sum(axis=-1) <= cfg.e_max
        keep = ok & cap
        if keep.any():
            accepted.append(ks[keep])
    points = np.concatenate(accepted)[:target] if accepted else np.zeros((0, n, 2))
    rate = points.shape[0] / drawn if drawn else 0.0
    diagnostics = {"drawn": drawn}
    if points.shape[0] < target:
        diagnostics["reason"] = (
            f"acceptance rate {rate:.2e} too low: {points.shape[0]}/{target} accepted"
        )
        if rate < 1e-6:
            points = points[:0]
    if points.shape[0]:
        mask = recheck_constraints(points, r, cfg.e_max, m)
        if not mask.all():
            raise NumericalError("sampled point failed independent constraint recheck")
    return PhaseSpaceSample(n, r, points, rate, diagnostics)


@dataclass
class FitReport:
    polynomial: TransferPolynomial  # symmetrized, real
    raw_polynomial: TransferPolynomial
    achieved_sup_error: float  # raw fit on validation points
    symmetrized_sup_error: float
    degree_used: int
    train_count: int
    validate_count: int
    passed: bool
    symmetric_input: bool = True  # whether R passed the permutation probe
    history: list = field(default_factory=list)
    coordinates: list = field(default_factory=list)  # names of the fitted invariants


def _affine_coordinates(q) -> list:
    """Indices of a maximal affinely independent subset of the columns of q.

    Greedy column pivoting on the centred columns, each scaled by
    1 + max|q|: each step keeps the column of largest remaining norm, the
    lowest index among norms within 1e-9 relative of it (exact ties such as
    q34 = q12 on the 2->2 shell resolve the same on every build), and
    projects it out of the others, until that norm is at most 1e-9 of the
    first pick's. Every other column, a constant one included, is affine in
    the sorted result on the sample."""
    a = (q - q.mean(axis=0)) / (1.0 + np.abs(q).max(axis=0))
    kept, norms = [], np.linalg.norm(a, axis=0)
    first = norms.max(initial=0.0)
    while len(kept) < a.shape[1] and (top := norms.max()) > 1e-9 * first:
        i = int(np.flatnonzero(norms >= top * (1.0 - 1e-9))[0])
        kept.append(i)
        u = a[:, i] / norms[i]
        a -= np.outer(u, u @ a)
        norms = np.linalg.norm(a, axis=0)
    return sorted(kept)


def _basis_matrix(qs, exps_list):
    A = np.empty((qs.shape[0], len(exps_list)))
    for c, col in enumerate(monomials(qs, [(exps, 1.0) for exps in exps_list], float)):
        A[:, c] = col
    return A


def _assemble_polynomial(n, coeffs, exps_list, vary_idx, centers, scales):
    """Expand the fitted coefficients over centered-scaled coordinates into
    a polynomial in the raw invariant coordinates.

    One pass per varying coordinate v rewrites ((q_v - c_v)/s_v)^e in powers
    of q_v: lowering e by j carries C(e, j) (-c_v)^j s_v^-e. The multi-index
    set (total degree <= D) is downward closed, so every pass maps the terms
    onto themselves."""
    exps = np.zeros((len(exps_list), n * (n + 1) // 2), dtype=int)
    exps[:, vary_idx] = np.array(exps_list, dtype=int).reshape(len(exps_list), len(vary_idx))
    vals = np.asarray(coeffs, dtype=float)
    term_of = {e: t for t, e in enumerate(map(tuple, exps.tolist()))}
    top = int(exps.max(initial=0))
    binom = np.array([[math.comb(e, j) for j in range(top + 1)] for e in range(top + 1)])
    for v, cv, sv in zip(vary_idx, centers, scales):
        ev = exps[:, v]
        scale = sv ** -ev.astype(float)
        out = vals * scale
        for j in range(1, top + 1):
            src = np.flatnonzero(ev >= j)
            lowered = exps[src]
            lowered[:, v] -= j
            dst = [term_of[e] for e in map(tuple, lowered.tolist())]
            out[dst] += vals[src] * (binom[ev[src], j] * (-cv) ** j * scale[src])
        vals = out
    terms = dict(zip(map(tuple, exps.tolist()), vals.tolist()))
    return TransferPolynomial(n, Poly(exps.shape[1], terms))


def fit_polynomial(R, sample: PhaseSpaceSample, cfg: FitConfig) -> FitReport:
    """Least-squares fit of R in the invariant-monomial basis, escalating
    the total degree until the validation sup error beats epsilon.

    The monomials are in a maximal affinely independent subset of the
    invariants (`_affine_coordinates`); on the conserving shell the others
    are affine in it. Escalation stops before the basis has more columns
    than half of cfg.train_count.

    R must be real-valued, Lorentz invariant and permutation symmetric,
    callable on (N, n, 2) momentum arrays. The sample covers one sign-pattern
    chamber of the permutation-invariant region, so training data is
    augmented with leg-permuted copies; the later symmetrization of the fit
    then stays accurate on the sampled chamber. Returns a FAIL report
    (passed=False) when max_degree is reached; no exception."""
    n = sample.n
    need = cfg.train_count + cfg.validate_count
    if sample.points.shape[0] < need:
        raise ValueError("sample too small for the requested train/validate split")
    pts_tr = sample.points[: cfg.train_count]
    pts_va = sample.points[cfg.train_count : need]
    # one representative permutation per sign-pattern coset: permutations
    # inside a chamber only reshuffle already-covered configurations
    r = sample.r
    perms = []
    for S in itertools.combinations(range(n), r):
        sigma = np.empty(n, dtype=int)
        sigma[list(S)] = np.arange(r)
        sigma[[l for l in range(n) if l not in S]] = np.arange(r, n)
        perms.append(sigma)
    # augmenting with permuted copies is sound only when R itself is
    # permutation symmetric; probe empirically
    probe = pts_tr[: min(64, pts_tr.shape[0])]
    y0 = np.asarray(R(probe), dtype=float)
    pscale = 1.0 + np.abs(y0).max()
    symmetric_input = all(
        np.abs(np.asarray(R(probe[:, sigma, :]), dtype=float) - y0).max() <= 1e-9 * pscale
        for sigma in perms[1:]
    )
    if symmetric_input:
        pts_tr = np.concatenate([pts_tr[:, sigma, :] for sigma in perms])
    q_tr = invariant_map([pts_tr[:, l, :] for l in range(n)])
    q_va = invariant_map([pts_va[:, l, :] for l in range(n)])
    y_tr = np.asarray(R(pts_tr), dtype=float)
    y_va = np.asarray(R(pts_va), dtype=float)

    vary_idx = _affine_coordinates(q_tr)
    centers = q_tr[:, vary_idx].mean(axis=0)
    scales = np.maximum(np.abs(q_tr[:, vary_idx] - centers).max(axis=0), 1e-30)
    x_tr = (q_tr[:, vary_idx] - centers) / scales
    x_va = (q_va[:, vary_idx] - centers) / scales

    history = []
    best = None
    for deg in range(cfg.max_degree + 1):
        exps_list = list(multi_indices(len(vary_idx), deg))
        if deg and 2 * len(exps_list) > cfg.train_count:
            history.append({"degree": deg, "basis_size": len(exps_list),
                            "stopped": "more basis columns than half the training points"})
            break
        A = _basis_matrix(x_tr, exps_list)
        col_scale = np.maximum(np.abs(A).max(axis=0), 1e-30)
        coeffs, _, rank, sv = np.linalg.lstsq(A / col_scale, y_tr, rcond=None)
        coeffs = coeffs / col_scale
        val_pred = _basis_matrix(x_va, exps_list) @ coeffs
        sup_err = float(np.max(np.abs(val_pred - y_va)))
        history.append({"degree": deg, "sup_error": sup_err, "basis_size": len(exps_list),
                        "rank": int(rank), "cond": float(sv[0] / sv[rank - 1])})
        if best is None or sup_err < best[0]:
            best = (sup_err, deg, coeffs, exps_list)
        if sup_err < cfg.epsilon:
            break
    sup_err, deg, coeffs, exps_list = best
    raw = _assemble_polynomial(n, coeffs, exps_list, vary_idx, centers, scales)
    sym = symmetrize_realify(raw)
    sym_pred = np.real(sym(pts_va))
    sym_err = float(np.max(np.abs(sym_pred - y_va)))
    return FitReport(
        polynomial=sym, raw_polynomial=raw, achieved_sup_error=sup_err,
        symmetrized_sup_error=sym_err, degree_used=deg,
        train_count=cfg.train_count, validate_count=cfg.validate_count,
        passed=sup_err < cfg.epsilon,
        symmetric_input=symmetric_input, history=history,
        coordinates=[invariant_names(n)[i] for i in vary_idx],
    )


def build_family(fits: dict, l_max: int) -> TransferFamily:
    """Assemble a transfer family from fit reports: the fixed constant at
    order 2, fitted members elsewhere, absent orders defaulting to 1."""
    members = {2: TransferPolynomial.constant(2, 1.0)}
    for n, report in fits.items():
        if n == 2:
            raise ValueError("order 2 is fixed to the constant 1")
        if not report.passed:
            raise ValueError(f"order-{n} fit did not reach its target error")
        p = report.polynomial
        if max(p.per_argument_degrees(), default=0) > l_max:
            raise ValueError(f"order-{n} member exceeds the degree bound {l_max}")
        members[n] = p
    return require_valid(TransferFamily(members, l_max))


def reference_registry(params):
    """Built-in real Lorentz-invariant reference functions for the CLI."""
    m2 = params.m**2

    def exp_q12(points):
        ks = np.asarray(points, dtype=float)
        q12 = ks[:, 0, 0] * ks[:, 1, 0] - ks[:, 0, 1] * ks[:, 1, 1]
        return np.exp(-q12 / m2)

    def constant(points):
        return np.full(np.asarray(points).shape[0], 0.75)

    return {"exp_q12": exp_q12, "constant": constant}
