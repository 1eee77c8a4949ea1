"""Seeded inputs for the three benchmark workloads.

Seed 0 reproduces the ``tests/conftest.py`` fixtures and the README configs
exactly. Every other seed jitters packet momenta by up to 2% and widths by
up to 4%, keeping each packet centre on its mass shell: the 2->2 phase space
stays open and the 2->1 phase space stays empty. The fit keeps the README's
sample seed 3 for every seed: its degree escalation depends on the sample
(degree 7 instead of 6 for 4 of the sample seeds 3..34), which changes the
study's time by ~75% and its peak memory by ~30%, more than any bound allows.

Only generated inputs reach the library; nothing here calls into a workload.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qftscat.kinematics import ModelParams, WavePacket, omega
from qftscat.structure import StructureEvaluator
from qftscat.transfer import TransferFamily, TransferPolynomial

WORKLOADS = ("pairings", "convergence", "sectors_fit")

LABELS4 = ("in", "in", "out", "out")
LABELS3 = ("in", "in", "out")
T_MODERATE = 31.6
# Geometric grid from 1 to 100: the window-averaged pairing is within 1% of
# the form factor from t ~ 100 on, and the fold work at t_max still dominates.
T_GRID = (1.0, 100.0)
ROUNDTRIP_TUPLES = 200
FIT_EPSILON = 1e-3
FIT_TRAIN, FIT_VALIDATE = 1500, 400


class Jitter:
    """Relative perturbations drawn from the seed; all zero for seed 0."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.zero = seed == 0

    def __call__(self, x: float, rel: float) -> float:
        u = self.rng.uniform(-1.0, 1.0)
        return x if self.zero else x * (1.0 + rel * u)

    def momentum(self, k: float) -> float:
        return self(k, 0.02)

    def width(self, w: float) -> float:
        return self(w, 0.04)


def _shell_packet(sign: int, k: float, width: float, m: float) -> WavePacket:
    return WavePacket(center=np.array([sign * float(omega(k, m)), k]), width=width)


def _packet_block(p: WavePacket) -> dict:
    # 14 decimals reproduce the README's literal energies at seed 0
    return {"center": [round(float(p.center[0]), 14), float(p.center[1])],
            "width": float(p.width)}


def _sym_M4(degree: int) -> TransferPolynomial:
    terms = [({f"q{i + 1}{j + 1}": degree}, 1.0 / 6.0) for j in range(4) for i in range(j)]
    return TransferPolynomial.from_terms(4, terms)


@dataclass
class Inputs:
    workload: str
    seed: int
    params: ModelParams
    ev: StructureEvaluator
    ev_refined: StructureEvaluator
    packets4: tuple = ()
    trio: tuple = ()
    trio_scatter: tuple = ()
    fam_quad: TransferFamily | None = None
    amplitude_cfg: dict | None = None
    pairs: tuple = ()  # two-particle out-sector vectors as packet pairs
    gram_cfg: dict | None = None
    fit_cfg: dict | None = None
    kernel_coeffs: np.ndarray | None = None
    roundtrip_points: tuple = ()


def _packets4(jit: Jitter, m: float) -> tuple:
    k, w = 0.8, 0.25
    signs = ((-1, 1), (-1, -1), (1, 1), (1, -1))  # (energy sign, momentum sign)
    return tuple(_shell_packet(se, sk * jit.momentum(k), jit.width(w), m)
                 for se, sk in signs)


def _trio(jit: Jitter, m: float) -> tuple:
    ka, kb = jit.momentum(0.8), jit.momentum(-0.5)
    wa, wb = float(omega(ka, m)), float(omega(kb, m))
    # the off-shell leg sits on the momentum forced by conservation
    r0 = WavePacket(center=np.array([-(wa + wb), -(ka + kb)]), width=jit.width(0.35))
    r1 = WavePacket(center=np.array([wa, ka]), width=jit.width(0.3))
    r2 = WavePacket(center=np.array([wb, kb]), width=jit.width(0.3))
    return (r0, r1, r2)


def build(workload: str, seed: int) -> Inputs:
    """Everything a workload's study needs, generated from the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    jit = Jitter(seed)
    params = ModelParams()
    m = params.m
    ev = StructureEvaluator(params)
    inp = Inputs(workload, seed, params, ev, ev.refined())
    model = {"d": 2, "m": 1.0}
    if workload in ("pairings", "convergence"):
        inp.packets4 = _packets4(jit, m)
        inp.trio = _trio(jit, m)
        p3 = _shell_packet(1, jit.momentum(0.05), jit.width(0.25), m)
        inp.trio_scatter = (inp.packets4[0], inp.packets4[1], p3)
        inp.fam_quad = TransferFamily(
            {2: TransferPolynomial.constant(2, 1.0), 4: _sym_M4(2)}, l_max=2)
        inp.amplitude_cfg = {"model": model, "amplitude": {
            "packets_in": [_packet_block(p) for p in inp.packets4[:2]],
            "packets_out": [_packet_block(p) for p in inp.packets4[2:]],
            "transfer": None}}
    else:
        w = jit.width(0.3)
        inp.pairs = tuple(
            (_shell_packet(1, jit.momentum(ka), w, m), _shell_packet(1, jit.momentum(kb), w, m))
            for ka, kb in ((0.8, -0.8), (0.5, -0.5), (0.9, -0.3)))
        gram_packets = [_shell_packet(1, jit.momentum(k), jit.width(0.3), m)
                        for k in (-0.9, -0.3, 0.3, 0.9)]
        inp.gram_cfg = {"model": model, "gram": {
            "label": "in", "packets": [_packet_block(p) for p in gram_packets]}}
        inp.fit_cfg = {"model": model, "fit": {
            "n": 4, "r": 2, "e_max": 4.0, "epsilon": FIT_EPSILON,
            "train": FIT_TRAIN, "validate": FIT_VALIDATE, "seed": 3,
            "reference": "exp_q12"}}
        rng = np.random.default_rng(seed + 1)
        inp.kernel_coeffs = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        inp.roundtrip_points = tuple(
            tuple(float(x) for x in rng.normal(size=n))
            for n in range(1, 5) for _ in range(ROUNDTRIP_TUPLES))
    return inp
