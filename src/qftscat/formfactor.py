"""Propagator atoms, form-factor pairings and truncated S-matrix amplitudes.

Per leg label the off-shell propagator splits into on-shell delta atoms and
a principal-value atom; the label 'loc' keeps the PV kernel, 'in'/'out'
replace it by -/+ i pi times the shell-measure difference. Fully on-shell
amplitudes carry the density 2 pi i M_n on conservation-constrained phase
space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import gauss_panels
from .structure import SpectralDensity, StructureEvaluator, eval_Ghat_2, leg_term, two_body_solutions
from .transfer import TransferFamily, require_valid

IN, LOC, OUT = "in", "loc", "out"
LABELS = (IN, LOC, OUT)


def _check_label(a: str) -> str:
    if a not in LABELS:
        raise ValueError(f"unknown leg label {a!r}")
    return a


def delta_hat_atoms(a: str):
    """Atom decomposition of the leg-label propagator: (coefficient, sign)
    pairs, each the coefficient times the forward (sign +1) or backward
    (sign -1) shell measure, or times the principal-value kernel (sign 0)."""
    _check_label(a)
    if a == LOC:
        return [(1.0, 0)]
    s = -1.0 if a == IN else 1.0
    return [(s * 1j * np.pi, 1), (-s * 1j * np.pi, -1)]


def eval_FG_n(labels, packets, ev: StructureEvaluator, weight=None) -> complex:
    """Form-factor pairing: like the structure pairing, but the PV leg's
    kernel is replaced per its label by the atom decomposition."""
    labels = [_check_label(a) for a in labels]
    n = len(packets)
    if len(labels) != n:
        raise ValueError("one label per leg required")
    if n < 2:
        raise ValueError("need at least two legs")
    if n == 2:
        if labels == [LOC, LOC]:
            return eval_Ghat_2(packets, ev)
        # the backward-shell pairing without the continuum
        ev0 = StructureEvaluator(ev.params, SpectralDensity.zero(ev.params), ev.quad)
        return eval_Ghat_2(packets, ev0)
    total = 0.0 + 0.0j
    for j in range(n):
        for coefficient, sign in delta_hat_atoms(labels[j]):
            total += coefficient * leg_term(j, packets, ev, sign, weight=weight)
    return total


def eval_F_n(labels, packets, ev: StructureEvaluator, fam: TransferFamily) -> complex:
    """Transfer-weighted form factor: the order-n integrand multiplied by M_n
    (M_2 = 1, and eval_FG_n's two-point pairing reads no weight)."""
    if fam is None:
        raise ValueError("transfer family required")
    require_valid(fam)
    return eval_FG_n(labels, packets, ev, weight=fam.eval)


@dataclass(frozen=True)
class AmplitudeRequest:
    """r incoming legs (backward shells) against n-r outgoing (forward)."""

    r: int
    in_packets: tuple
    out_packets: tuple

    def __post_init__(self):
        object.__setattr__(self, "in_packets", tuple(self.in_packets))
        object.__setattr__(self, "out_packets", tuple(self.out_packets))
        n = self.n
        if not (n >= 3 and 1 <= self.r <= n - 1):
            raise ValueError("need n >= 3 and 1 <= r <= n-1")
        if len(self.in_packets) != self.r:
            raise ValueError("in_packets count must equal r")
        for p in self.in_packets:
            if p.center[0] >= 0:
                raise ValueError("incoming packet centers must have negative energy")
        for p in self.out_packets:
            if p.center[0] <= 0:
                raise ValueError("outgoing packet centers must have positive energy")

    @property
    def n(self) -> int:
        return len(self.in_packets) + len(self.out_packets)

    @property
    def packets(self) -> tuple:
        return self.in_packets + self.out_packets

    def sign(self, l: int) -> int:
        return -1 if l < self.r else 1


def smatrix_amplitude(req: AmplitudeRequest, ev: StructureEvaluator,
                      fam: TransferFamily | None = None) -> complex:
    """Packet-integrated truncated S-matrix component.

    The first n-2 legs' spatial momenta are quadrature variables; the last
    two legs are solved from energy-momentum conservation with the Jacobian
    of the constraint, each leg carrying its 1/(2 omega) shell density.
    """
    packets = req.packets
    n = req.n
    m = ev.params.m
    free = list(range(n - 2))
    la, lb = n - 2, n - 1
    sa, sb = req.sign(la), req.sign(lb)

    axes_nodes, axes_wts = [], []
    for l in free:
        lo, hi = packets[l].support_interval(1)
        xn, xw = gauss_panels([lo, hi], ev.quad.outer_nodes)
        axes_nodes.append(xn)
        axes_wts.append(xw)
    grids = np.meshgrid(*axes_nodes, indexing="ij") if free else []
    wgrids = np.meshgrid(*axes_wts, indexing="ij") if free else []

    shape = grids[0].shape if free else ()
    E = np.zeros(shape)
    P = np.zeros(shape)
    weight = np.ones(shape)
    vals = np.ones(shape, dtype=complex)
    kfree = []
    for i, l in enumerate(free):
        p = grids[i]
        w = np.sqrt(p * p + m * m)
        s = req.sign(l)
        E -= s * w
        P -= p
        weight = weight * wgrids[i]
        kl = np.stack([s * w, p], axis=-1)
        kfree.append(kl)
        vals = vals * packets[l](kl) / (2.0 * w)

    pa, pb, wa, wb, jac, valid = two_body_solutions(E, P, sa, sb, m)
    ka = np.stack([sa * wa, pa], axis=-1)
    kb = np.stack([sb * wb, pb], axis=-1)
    fvals = vals[..., None] * packets[la](ka) * packets[lb](kb)
    if fam is not None:
        require_valid(fam)
        ks = np.zeros(ka.shape[:-1] + (n, 2))
        for i, l in enumerate(free):
            ks[..., l, :] = kfree[i][..., None, :]
        ks[..., la, :] = ka
        ks[..., lb, :] = kb
        fvals = fvals * fam.member(n)(ks)
    dens = 4.0 * wa * wb * np.abs(jac)
    contrib = np.where(valid, fvals / np.where(valid, dens, 1.0), 0.0).sum(axis=-1)
    total = np.sum(weight * contrib)
    return complex(2j * np.pi * total)
