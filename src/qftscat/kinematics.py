"""Minkowski geometry, mass shells, cutoffs, wave packets and Schwartz norms.

Shared substrate: metric signature (+,-,...,-), forward/backward shells
k^0 = +/- omega(k_vec), the smooth plateau cutoff phi, and the Gaussian x
polynomial packet family whose Schwartz norms are computable analytically.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .polymath import Poly

TAIL_WIDTHS = 12.0  # truncation of Gaussian packets, exp(-72) tails


class NumericalError(RuntimeError):
    """A numerical self-check failed: a grid too small, a sample off its constraints."""


@dataclass(frozen=True)
class ModelParams:
    """Model constants: dimension d (2 only), mass m, cutoff width eps_phi."""

    d: int = 2
    m: float = 1.0
    eps_phi: float | None = None

    def __post_init__(self):
        if self.d != 2:
            raise ValueError("only d = 2 (1+1 dimensions) is implemented")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.eps_phi is None:
            object.__setattr__(self, "eps_phi", 0.5 * self.m**2)
        if not 0 < self.eps_phi < self.m**2:
            raise ValueError("need 0 < eps_phi < m^2")


def minkowski_dot(x, y):
    """x.y = x^0 y^0 - x_vec . y_vec, broadcasting over leading axes."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError("dimension mismatch")
    return _dot_components([x[..., i] for i in range(x.shape[-1])],
                           [y[..., i] for i in range(y.shape[-1])])


def _dot_components(x, y):
    """minkowski_dot of two vectors given as sequences of their components."""
    spatial = [a * b for a, b in zip(x[1:], y[1:])]  # np.sum's order, d < 8
    time = x[0] * y[0]
    return time - functools.reduce(np.add, spatial) if spatial else time


def minkowski_sq(x):
    return minkowski_dot(x, x)


def omega(spatial, mass: float):
    """On-shell energy sqrt(|k_vec|^2 + mass^2); spatial shape (..., d-1) or scalar."""
    if mass < 0:
        raise ValueError("mass must be nonnegative")
    spatial = np.asarray(spatial, dtype=float)
    if spatial.ndim == 0:
        return np.sqrt(spatial**2 + mass**2)
    return np.sqrt(np.sum(spatial**2, axis=-1) + mass**2)


def invariant_map(points) -> np.ndarray:
    """Ordered vector of pairwise Minkowski products (k1^2, k1.k2, k2^2, ...).

    Ordering: for j = 1..n, for i = 1..j, entry q_{i,j} = k_i . k_j.
    """
    ks = [np.asarray(p, dtype=float) for p in points]
    d = ks[0].shape[-1]
    if any(k.shape[-1] != d for k in ks):
        raise ValueError("dimension mismatch")
    out = []
    for j in range(len(ks)):
        for i in range(j + 1):
            out.append(minkowski_dot(ks[i], ks[j]))
    return np.stack(out, axis=-1)


def invariant_index(i: int, j: int) -> int:
    """Flat index of q_{i,j} (0-based, i <= j) in invariant_map's ordering."""
    if i > j:
        i, j = j, i
    return j * (j + 1) // 2 + i


def invariant_names(n: int) -> list:
    return [f"q{i + 1}{j + 1}" for j in range(n) for i in range(j + 1)]


def phi(x, eps: float):
    """Smooth plateau bump: phi=1 on [-eps/2, eps/2], supp phi in (-eps, eps)."""
    x = np.abs(np.asarray(x, dtype=float))
    half = 0.5 * eps
    s = (x - half) / half
    out = np.where(s <= 0, 1.0, 0.0)
    # C^infty step e(s)=exp(-1/s): on 0 < s < 1 the bridge
    # e(1-s)/(e(s)+e(1-s)) falls 1 -> 0, and e(s)+e(1-s) > 0 there
    band = (s > 0) & (s < 1)
    sb = s[band]
    ea = np.exp(-1.0 / sb)
    eb = np.exp(-1.0 / (1.0 - sb))
    out[band] = eb / (ea + eb)
    return out


def chi_plus_minus(k, sign, params: ModelParams):
    """chi^+/-(k) = theta(+/- k^0) phi(k.k - m^2), phi of width params.eps_phi;
    sign may be an array broadcasting against k's leading axes."""
    k = np.asarray(k, dtype=float)
    step = (sign * k[..., 0] > 0).astype(float)
    return step * phi(minkowski_sq(k) - params.m**2, params.eps_phi)


def _finite_vector(name: str, x) -> np.ndarray:
    """x as a float array, or a ValueError naming the field if it is not real and finite."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be real") from None
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


@dataclass(frozen=True)
class WavePacket:
    """One-particle momentum-space packet poly(k) * exp(-|k-c|^2 / 2 w^2).

    Optionally carries a linear phase exp(-i a.k) (Minkowski dot) used to
    model translations. The family is closed under derivatives, conjugation
    and the Borchers involution.
    """

    center: np.ndarray
    width: float
    poly: Poly | None = None
    phase: np.ndarray | None = None  # translation vector a; factor exp(-i a.k)

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_vector("center", self.center))
        if self.center.ndim != 1 or not len(self.center):
            raise ValueError(f"center must be a nonempty vector, got shape {self.center.shape}")
        w = self.width
        if isinstance(w, bool) or not isinstance(w, numbers.Real) or not (math.isfinite(w) and w > 0):
            raise ValueError(f"width must be a positive finite real, got {w!r}")
        if self.poly is None:
            object.__setattr__(self, "poly", Poly.constant(self.dim, 1.0))
        if not isinstance(self.poly, Poly) or self.poly.nvars != self.dim:
            raise ValueError("poly must be a Poly in as many variables as the packet's dimension")
        if self.phase is not None:
            object.__setattr__(self, "phase", _finite_vector("phase", self.phase))
            if self.phase.shape != (self.dim,):
                raise ValueError(f"phase of shape {self.phase.shape} for a packet of dimension "
                                 f"{self.dim}")
        # evaluating the real constant 1 multiplies by 1.0, which is exact; a
        # complex 1+0j still makes the values complex (polymath.value_dtype)
        one = self.poly.terms.get((0,) * self.dim)
        object.__setattr__(self, "_unit", len(self.poly.terms) == 1 and one == 1
                           and isinstance(one, numbers.Real))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def __call__(self, k):
        """Values at momenta k, an array (..., dim) or a tuple of dim component
        arrays of one shape; float64 where the poly's are and no phase."""
        if isinstance(k, tuple):
            if len(k) != self.dim:
                raise ValueError(f"{len(k)} components for a packet of dimension {self.dim}")
            comps = [np.asarray(x, dtype=float) for x in k]
        else:
            k = np.asarray(k, dtype=float)
            if k.shape[-1:] != (self.dim,):
                raise ValueError(f"points of shape {k.shape} for a packet of dimension {self.dim}")
            comps = [k[..., i] for i in range(self.dim)]
        # one square per axis, added in order as np.sum over the last axis does for d < 8
        r2 = functools.reduce(np.add, ((x - c) ** 2 for x, c in zip(comps, self.center)))
        val = np.exp(r2 / (-2 * self.width**2))  # bitwise -r2 / (2 w^2), in one pass
        if not self._unit:
            val = self.poly(np.stack(comps, axis=-1) if isinstance(k, tuple) else k) * val
        if self.phase is not None:
            # np.multiply keeps the operand order for every array size (see structure.leg_term)
            val = np.multiply(val, np.exp(-1j * _dot_components(self.phase, comps)))
        return val

    def involute(self) -> "WavePacket":
        """Momentum-space involution leg factor: k -> conj(f(-k))."""
        return WavePacket(
            -self.center,
            self.width,
            self.poly.negate_vars().conj(),
            self.phase,  # conj(exp(-i a.(-k))) = exp(-i a.k)
        )

    def support_interval(self, axis: int):
        c = self.center[axis]
        return (c - TAIL_WIDTHS * self.width, c + TAIL_WIDTHS * self.width)

    def derivative(self, axis: int) -> "WavePacket":
        """d/dk_axis of the packet, again in the Gaussian x poly family; a
        phase exp(-i a.k) contributes -i a_axis_cov * f to the polynomial."""
        dpoly = self.poly.diff(axis)
        # Gaussian factor derivative: -(k_axis - c_axis)/w^2
        lin = Poly.variable(self.dim, axis, -1.0 / self.width**2) + Poly.constant(
            self.dim, self.center[axis] / self.width**2
        )
        new = dpoly + self.poly * lin
        if self.phase is not None:
            # d/dk exp(-i a.k): covariant components a^0, -a^i
            a_cov = self.phase[axis] * (1.0 if axis == 0 else -1.0)
            new = new + self.poly * Poly.constant(self.dim, -1j * a_cov)
        return WavePacket(self.center, self.width, new, self.phase)


def multi_indices(d: int, max_order: int):
    """All multi-indices beta in N_0^d with |beta| <= max_order."""
    if d == 0:
        yield ()
        return
    for first in range(max_order + 1):
        for rest in multi_indices(d - 1, max_order - first):
            yield (first,) + rest


def schwartz_norm_1leg(packet: WavePacket, K: int, L: int) -> float:
    """sup over k, |beta|<=K of (1+|k|^2)^{L/2} |D^beta f(k)| on a 241-point grid
    per axis; the sup on the grid's edge must stay below 1e-3 of it.

    D^beta f = P_beta G exp(-i a.k) with a real phase a, so the weighted
    modulus is E |P_beta| with one envelope E = (1+|k|^2)^{L/2} G for all beta.
    Each D^beta is one derivative of a lower one; after each beta's grid scan,
    six zoom levels refine every beta's argmax at once."""
    if K < 0 or L < 0:
        raise ValueError("K, L must be nonnegative")
    d = packet.dim
    reach = max(abs(packet.center).max() if d else 0.0, 0.0) + TAIL_WIDTHS * packet.width
    # weight grows polynomially, Gaussian wins; extend for large L
    reach += packet.width * math.sqrt(max(L, 1))
    axes = [np.linspace(-reach, reach, 241)] * d

    def envelope(grid):
        # one (..., n) array per axis, its leading (batch) axes kept in front
        cols = [x.reshape(x.shape[:-1] + (1,) * i + (-1,) + (1,) * (d - 1 - i))
                for i, x in enumerate(grid)]
        k2 = functools.reduce(np.add, (x**2 for x in cols))
        r2 = functools.reduce(np.add, ((x - c) ** 2 for x, c in zip(cols, packet.center)))
        return (1.0 + k2) ** (L / 2.0) * np.exp(-r2 / (2 * packet.width**2))

    env = envelope(axes)
    edge = np.ones(env.shape, dtype=bool)
    edge[(slice(1, -1),) * d] = False

    derivs, local, center = {}, [], []
    boundary_max = 0.0
    for beta in multi_indices(d, K):
        # D^beta = d/dk_axis D^(beta - e_axis) on its last nonzero axis: the
        # derivatives run in the order axis 0 first, as from f each time
        axis = max((i for i, b in enumerate(beta) if b), default=-1)
        g = derivs[beta] = packet if axis < 0 else \
            derivs[beta[:axis] + (beta[axis] - 1,) + beta[axis + 1:]].derivative(axis)
        vals = env * np.abs(g.poly.on_grid(axes))
        local.append(float(vals.max()))
        center.append([x[i] for x, i in zip(axes, np.unravel_index(np.argmax(vals), vals.shape))])
        boundary_max = max(boundary_max, float(vals[edge].max()))
    # zoom around each grid argmax so the sup is not limited by the mesh pitch
    polys = [g.poly for g in derivs.values()]
    local, center = np.array(local), np.array(center)
    h = 2.0 * reach / 240
    for _ in range(6):
        zoom = np.linspace(center - 2 * h, center + 2 * h, 17, axis=-1)  # (beta, axis, 17)
        zaxes = list(zoom.swapaxes(0, 1))
        zv = (envelope(zaxes) * np.abs(Poly.on_grids(polys, zaxes))).reshape(len(polys), -1)
        at = np.unravel_index(np.argmax(zv, axis=1), (17,) * d)
        center = np.stack([x[np.arange(len(polys)), i] for x, i in zip(zaxes, at)], axis=-1)
        local = np.maximum(local, zv.max(axis=1))
        h /= 4.0
    best = float(local.max())
    if best > 0 and boundary_max > 1e-3 * best:
        raise NumericalError(
            f"schwartz_norm grid too small: boundary {boundary_max:.3e} vs max {best:.3e}"
        )
    return best


@functools.lru_cache
def gauss_rule(nodes: int):
    """Gauss-Legendre nodes/weights on [-1, 1], built once and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache
def hermite_rule(nodes: int):
    """Gauss-Hermite nodes x with |x| <= TAIL_WIDTHS / sqrt(2) and their
    weights times e^{x^2}, built once and shared read-only.

    The nodes are the eigenvalues of the Jacobi matrix (G. H. Golub and J. H.
    Welsch, Math. Comp. 23 (1969)), polished by one Newton step. The weight
    1 / (n psi_{n-1}(x)^2) comes from the normalised Hermite functions psi_k,
    which stay finite at every node kept, where e^{-x^2} alone would not.
    """
    k = np.sqrt(np.arange(1, nodes) / 2.0)
    x = np.linalg.eigvalsh(np.diag(k, -1))
    x = 0.5 * (x - x[::-1])  # exactly symmetric, so the kept set is too
    x = x[np.abs(x) <= TAIL_WIDTHS / math.sqrt(2.0)]

    def psi(x):
        # psi_{n-1}, psi_n: psi_{k+1} = sqrt(2/(k+1)) x psi_k - sqrt(k/(k+1)) psi_{k-1}
        prev, cur = np.zeros_like(x), np.exp(-0.5 * x * x) / math.pi ** 0.25
        for i in range(nodes):
            prev, cur = cur, math.sqrt(2.0 / (i + 1)) * x * cur - math.sqrt(i / (i + 1)) * prev
        return prev, cur

    prev, cur = psi(x)
    x = x - cur / (math.sqrt(2.0 * nodes) * prev - x * cur)
    w = 1.0 / (nodes * psi(x)[0] ** 2)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def packet_rule(packet: WavePacket, nodes: int):
    """Gauss-Hermite rule over a packet's spatial axis, at its own centre c
    and width w: nodes c + sqrt(2) w x, weights sqrt(2) w w_i e^{x^2}, as
    fresh arrays; exact for the packet's Gaussian times a polynomial of
    degree below 2 nodes, up to the tail past TAIL_WIDTHS."""
    x, w = hermite_rule(nodes)
    scale = math.sqrt(2.0) * packet.width
    return packet.center[1] + scale * x, scale * w


def gauss_panels(edges, nodes: int):
    """Composite Gauss-Legendre rule of the given nodes on every panel between
    consecutive edges, or on each (lo, hi) row of an (S, 2) edges array, as
    fresh arrays."""
    x, w = gauss_rule(nodes)
    edges = np.asarray(edges, dtype=float)
    lo, hi = (edges[:-1], edges[1:]) if edges.ndim == 1 else edges.T
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()
