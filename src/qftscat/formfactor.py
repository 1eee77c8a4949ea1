"""Form-factor pairings and truncated S-matrix amplitudes.

A leg label's shell sign s is -1 (in), 0 (loc) or +1 (out). A loc leg keeps
the principal-value kernel. An in/out leg j has two shell atoms: s_j i pi on
configuration b = j and -s_j i pi on b = j + 1, where configuration b puts
legs 0..b-1 on the backward shell and the rest on the forward one. So each
configuration b is integrated once, with coefficient i pi (s_b - s_{b-1}).
Fully on-shell amplitudes carry the density 2 pi i M_n on
conservation-constrained phase space. Both integrate configurations with
structure.shell_integral, on different leg orders.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structure import (SpectralDensity, StructureEvaluator, eval_Ghat_2, leg_term,
                        shell_balance_possible, shell_integral, shell_signs)
from .transfer import TransferFamily, require_valid

IN, LOC, OUT = "in", "loc", "out"
SHELL_SIGN = {IN: -1.0, LOC: 0.0, OUT: 1.0}  # the shell sign s of each leg label
LABELS = tuple(SHELL_SIGN)


def _check_label(a: str) -> str:
    if a not in LABELS:
        raise ValueError(f"unknown leg label {a!r}")
    return a


def eval_FG_n(labels, packets, ev: StructureEvaluator, weight=None) -> complex:
    """Form-factor pairing: the PV leg term of each loc leg, plus each sign
    configuration b (shell_signs(n, b)) whose coefficient i pi (s_b - s_{b-1})
    is nonzero (s is 0 past either end) and which can balance
    (shell_balance_possible), computed once by shell_integral in the k-space
    fold's leg order: legs b and the first other leg on packet rules, the
    other two solved. Such a configuration above order 4 is refused."""
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
    for j, a in enumerate(labels):
        if a == LOC:
            total += leg_term(j, packets, ev, weight=weight)
    s = [0.0, *(SHELL_SIGN[a] for a in labels), 0.0]
    for b in range(n + 1):
        if s[b + 1] != s[b] and shell_balance_possible(n, b, 1):
            if n != 4:
                raise NotImplementedError("shell configurations implemented for n = 4")
            order = (b, *(l for l in range(n) if l != b))
            total += 1j * np.pi * (s[b + 1] - s[b]) * shell_integral(
                packets, shell_signs(n, b), ev, weight, order=order)
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
        signs = shell_signs(self.n, self.r)
        if len(self.in_packets) != self.r:
            raise ValueError("in_packets count must equal r")
        if any(s * p.center[0] <= 0 for s, p in zip(signs, self.packets)):
            raise ValueError("packet centers need negative energy incoming, positive outgoing")

    @property
    def n(self) -> int:
        return len(self.in_packets) + len(self.out_packets)

    @property
    def packets(self) -> tuple:
        return self.in_packets + self.out_packets


def smatrix_amplitude(req: AmplitudeRequest, ev: StructureEvaluator,
                      fam: TransferFamily | None = None) -> complex:
    """Packet-integrated truncated S-matrix component: 2 pi i times the
    configuration integral of the packet product (shell_integral), weighted
    by M_n if a family is given. The first n-2 legs' spatial momenta run on
    their packets' Gauss-Hermite rules of inner_nodes (packet_rule); the last
    two legs are solved from energy-momentum conservation with the Jacobian
    of the constraint, each leg carrying its 1/(2 omega) shell density.
    """
    weight = None
    if fam is not None:
        require_valid(fam)
        weight = fam.member(req.n)
    return complex(2j * np.pi * shell_integral(req.packets, shell_signs(req.n, req.r), ev, weight))
