"""Graded tensor-algebra vectors, Gram matrices and metric decomposition.

Vectors are finite sums of packet tensor products per order, with the
concatenation product and the reversal-conjugation involution (in momentum
space: conjugate, reverse legs, negate momenta). Pairings of such vectors
under a kernel functional give Hermitian Gram matrices whose sign spectrum
defines the metric operator eta and the inertia.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formfactor import IN, LOC, OUT, eval_FG_n
from .kinematics import schwartz_norm_1leg
from .structure import StructureEvaluator
from .transfer import require_valid
from .truncation import KernelFunctional, untruncate


class BorchersVector:
    """Scalar part f0 plus, per order n, a list of (coeff, n-tuple of packets)."""

    def __init__(self, f0=0.0, components=None):
        self.f0 = complex(f0)
        self.components = {}
        for n, terms in (components or {}).items():
            cleaned = [(complex(c), tuple(ps)) for c, ps in terms if c != 0]
            if any(len(ps) != n for _, ps in cleaned):
                raise ValueError(f"order-{n} component with wrong leg count")
            if cleaned:
                self.components[int(n)] = cleaned

    @classmethod
    def one_particle(cls, packet) -> "BorchersVector":
        return cls(components={1: [(1.0, (packet,))]})

    def scaled(self, c) -> "BorchersVector":
        return BorchersVector(
            f0=self.f0 * c,
            components={n: [(a * c, ps) for a, ps in terms]
                        for n, terms in self.components.items()},
        )

    def __add__(self, other: "BorchersVector") -> "BorchersVector":
        comps = {n: list(t) for n, t in self.components.items()}
        for n, terms in other.components.items():
            comps.setdefault(n, []).extend(terms)
        return BorchersVector(f0=self.f0 + other.f0, components=comps)


def borchers_product(f: BorchersVector, g: BorchersVector,
                     max_order: int = 8) -> BorchersVector:
    """Graded concatenation product."""
    comps: dict = {}
    for nf, tf in list(f.components.items()) + [(0, [(f.f0, ())])]:
        for ng, tg in list(g.components.items()) + [(0, [(g.f0, ())])]:
            n = nf + ng
            if n == 0:
                continue
            if n > max_order:
                raise ValueError("product order exceeds max_order")
            for cf, pf in tf:
                for cg, pg in tg:
                    c = cf * cg
                    if c != 0:
                        comps.setdefault(n, []).append((c, pf + pg))
    return BorchersVector(f0=f.f0 * g.f0, components=comps)


def borchers_involution(f: BorchersVector) -> BorchersVector:
    """Conjugate coefficients, reverse leg order, and apply the momentum-space
    leg involution k -> conj at -k."""
    comps = {
        n: [(np.conj(c), tuple(p.involute() for p in reversed(ps)))
            for c, ps in terms]
        for n, terms in f.components.items()
    }
    return BorchersVector(f0=np.conj(f.f0), components=comps)


def evaluate_vector(pairing, f: BorchersVector, w0: complex = 0.0) -> complex:
    """Apply a kernel functional to a vector: sum over components of the
    pairing of each packet tuple, weighted by coefficients; the scalar part
    pairs with the order-0 normalization w0 (0 for connected functionals,
    1 for the assembled full functional).

    pairing(packets tuple) -> complex must handle every populated order.
    """
    total = f.f0 * w0
    for n, terms in sorted(f.components.items()):
        for c, ps in terms:
            total += c * pairing(ps)
    return total


def full_pairing(connected, max_order: int = 4):
    """Assemble the full functional from a connected pairing: the sum over
    set partitions of products of connected block pairings (each block keeps
    its internal leg order). Orders above max_order raise."""
    kf = KernelFunctional(max_order, dict.fromkeys(range(1, max_order + 1), connected))
    return untruncate(kf).eval


def structure_pairing(ev: StructureEvaluator, label: str = LOC, fam=None):
    """Pairing of packet tuples under the connected kernels with every leg
    labeled label (loc: the two-point kernel at order 2 and the off-shell-leg
    kernels at orders 3 and 4), weighted by the transfer family fam if given;
    order 1 and order > 4 pair to zero. fam is validated here, once."""
    weight = None if fam is None else require_valid(fam).eval

    def pairing(packets) -> complex:
        n = len(packets)
        if n <= 1 or n > 4:
            return 0.0 + 0.0j
        return eval_FG_n([label] * n, list(packets), ev, weight=weight)

    return pairing


@dataclass
class GramMatrix:
    matrix: np.ndarray
    hermiticity_deviation: float
    size: int


def gram_matrix(pairing, family, w0: complex = 0.0) -> GramMatrix:
    """H_ij = functional(f_i^* tensor f_j), Hermitian-symmetrized with the
    deviation recorded. w0 is the functional's order-0 normalization."""
    k = len(family)
    H = np.zeros((k, k), dtype=complex)
    stars = [borchers_involution(f) for f in family]
    for i in range(k):
        for j in range(k):
            H[i, j] = evaluate_vector(
                pairing, borchers_product(stars[i], family[j]), w0=w0)
    dev = float(np.max(np.abs(H - H.conj().T)))
    scale = float(np.max(np.abs(H)))
    Hs = 0.5 * (H + H.conj().T)
    return GramMatrix(matrix=Hs, hermiticity_deviation=dev / scale if scale > 0 else 0.0,
                      size=k)


@dataclass
class MetricDecomposition:
    eta: np.ndarray
    inertia: tuple  # (n_plus, n_minus, n_zero)


def metric_decomposition(gram: GramMatrix) -> MetricDecomposition:
    """Spectral metric operator: eta = U sign(Lambda) U^* with eta^2 = I
    (null directions assigned +1), inertia from the eigenvalue signs, with
    |lambda| <= 1e-10 max |lambda| counted as null."""
    H = gram.matrix
    lam, U = np.linalg.eigh(H)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    thr = 1e-10 * scale
    n_plus = int(np.sum(lam > thr))
    n_minus = int(np.sum(lam < -thr))
    n_zero = int(lam.size - n_plus - n_minus)
    signs = np.where(lam < -thr, -1.0, 1.0)
    eta = (U * signs) @ U.conj().T
    return MetricDecomposition(eta=eta, inertia=(n_plus, n_minus, n_zero))


def vector_schwartz_norm(f: BorchersVector, K: int, L: int) -> float:
    """Norm surrogate: sum over terms of |coeff| times the product of
    per-leg norms (tensor norms factorize for the packet family)."""
    total = abs(f.f0)
    for terms in f.components.values():
        for c, ps in terms:
            prod = abs(c)
            for p in ps:
                prod *= schwartz_norm_1leg(p, K, L)
            total += prod
    return total


def hssc_estimate(gram: GramMatrix, family, K: int, L: int) -> float:
    """Empirical continuity constant of the family's Gram, as a float:
    max |H_ij| / (|f_i| |f_j|) with the Schwartz seminorms at (K, L)."""
    norms = np.array([vector_schwartz_norm(f, K, L) for f in family])
    if np.any(norms == 0):
        raise ValueError("zero Schwartz norm in the family")
    ratios = np.abs(gram.matrix) / np.outer(norms, norms)
    return float(np.max(ratios))


def inout_positivity_check(ev: StructureEvaluator, family, label: str, fam=None):
    """Gram of a uniformly in- or out-labeled family must be positive
    semidefinite, down to -1e-8 of its largest |eigenvalue|; returns
    (min eigenvalue, Gram, pass flag)."""
    if label not in (IN, OUT):
        raise ValueError("label must be 'in' or 'out'")
    connected = structure_pairing(ev, label, fam)
    gram = gram_matrix(full_pairing(connected), family, w0=1.0)
    lam = np.linalg.eigvalsh(gram.matrix)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    ok = bool(lam.min() >= -1e-8 * max(scale, 1e-300))
    return float(lam.min()), gram, ok
