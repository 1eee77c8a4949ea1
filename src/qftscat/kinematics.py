"""Minkowski geometry, mass shells, cutoffs, wave packets and Fourier convention.

Shared substrate: metric signature (+,-,...,-), forward/backward shells
k^0 = +/- omega(k_vec), the smooth plateau cutoff phi, and the Gaussian x
polynomial packet family whose Schwartz norms are computable analytically.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .polymath import Poly

TAIL_WIDTHS = 12.0  # truncation of Gaussian packets, exp(-72) tails


@dataclass(frozen=True)
class ModelParams:
    """Model constants: dimension d, mass m, mass gap m0, cutoff width eps_phi."""

    d: int = 2
    m: float = 1.0
    m0: float | None = None
    eps_phi: float | None = None

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("spacetime dimension must be >= 2")
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.m0 is None:
            object.__setattr__(self, "m0", self.m)
        if not 0 < self.m0 <= self.m:
            raise ValueError("need 0 < m0 <= m")
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
    return x[..., 0] * y[..., 0] - np.sum(x[..., 1:] * y[..., 1:], axis=-1)


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


@dataclass(frozen=True)
class ShellPoint:
    """Point on the forward (sign=+1) or backward (sign=-1) mass shell."""

    spatial: tuple
    mass: float
    sign: int = 1

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "spatial", tuple(float(s) for s in self.spatial))

    @property
    def energy(self) -> float:
        return self.sign * float(omega(np.array(self.spatial), self.mass))

    def four_vector(self) -> np.ndarray:
        return np.array([self.energy, *self.spatial])


def boost_matrix(d: int, rapidity: float, axis: int = 1) -> np.ndarray:
    """Lorentz boost along a spatial axis (1..d-1)."""
    if not 1 <= axis < d:
        raise ValueError("boost axis out of range")
    L = np.eye(d)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    L[0, 0] = ch
    L[0, axis] = sh
    L[axis, 0] = sh
    L[axis, axis] = ch
    return L


def time_reflection(d: int) -> np.ndarray:
    T = np.eye(d)
    T[0, 0] = -1.0
    return T


def space_reflection(d: int, axis: int = 1) -> np.ndarray:
    P = np.eye(d)
    P[axis, axis] = -1.0
    return P


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


@dataclass(frozen=True)
class CutoffSpec:
    """Smooth plateau bump: phi=1 on [-eps/2, eps/2], supp phi in (-eps, eps)."""

    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def phi(self, x):
        x = np.abs(np.asarray(x, dtype=float))
        half = 0.5 * self.eps
        s = np.clip((x - half) / half, 0.0, 1.0)
        # C^infty step e(s)=exp(-1/s): bridge e(1-s)/(e(s)+e(1-s)) falls 1 -> 0
        with np.errstate(divide="ignore", over="ignore"):
            ea = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
            eb = np.where(s < 1, np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0)), 0.0)
        out = eb / (ea + eb + (ea + eb == 0))
        return np.where(s <= 0, 1.0, np.where(s >= 1, 0.0, out))

    @classmethod
    def for_params(cls, params: ModelParams) -> "CutoffSpec":
        return cls(eps=params.eps_phi)


def chi_plus_minus(k, sign: int, params: ModelParams, cutoff: CutoffSpec):
    """chi^+/-(k) = theta(+/- k^0) phi(k.k - m^2)."""
    k = np.asarray(k, dtype=float)
    step = (sign * k[..., 0] > 0).astype(float)
    return step * cutoff.phi(minkowski_sq(k) - params.m**2)


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
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.poly is None:
            object.__setattr__(self, "poly", Poly.constant(self.dim, 1.0))
        if self.poly.nvars != self.dim:
            raise ValueError("poly nvars != packet dimension")
        if self.phase is not None:
            object.__setattr__(self, "phase", np.asarray(self.phase, dtype=float))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        sq = (k - self.center) ** 2
        # added in order, as np.sum(sq, axis=-1) does for d < 8, minus its per-row cost
        r2 = functools.reduce(np.add, (sq[..., i] for i in range(self.dim)))
        gauss = np.exp(-r2 / (2 * self.width**2))
        val = self.poly(k) * gauss
        if self.phase is not None:
            val = val * np.exp(-1j * minkowski_dot(self.phase, k))
        return val

    def with_poly_factor(self, p: Poly) -> "WavePacket":
        return WavePacket(self.center, self.width, self.poly * p, self.phase)

    def translated(self, a) -> "WavePacket":
        a = np.asarray(a, dtype=float)
        new = a if self.phase is None else self.phase + a
        return WavePacket(self.center, self.width, self.poly, new)

    def involute(self) -> "WavePacket":
        """Momentum-space involution leg factor: k -> conj(f(-k))."""
        return WavePacket(
            -self.center,
            self.width,
            self.poly.negate_vars().conj(),
            self.phase,  # conj(exp(-i a.(-k))) = exp(-i a.k)
        )

    def support_interval(self, axis: int, widths: float = TAIL_WIDTHS):
        c = self.center[axis]
        return (c - widths * self.width, c + widths * self.width)

    def derivative(self, axis: int) -> "WavePacket":
        """d/dk_axis of the packet, again in the Gaussian x poly family.

        Only valid for phase-free packets or with the phase folded into a
        complex poly term; phases contribute -i a_axis_cov * f.
        """
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


class PacketProduct:
    """Tensor product of one-particle packets, evaluated at (..., n, d) arrays."""

    def __init__(self, packets, coeff=1.0):
        self.packets = tuple(packets)
        self.coeff = complex(coeff)
        if not self.packets:
            raise ValueError("empty packet product")
        d = self.packets[0].dim
        if any(p.dim != d for p in self.packets):
            raise ValueError("mixed packet dimensions")

    @property
    def n(self) -> int:
        return len(self.packets)

    @property
    def dim(self) -> int:
        return self.packets[0].dim

    def __call__(self, ks):
        ks = np.asarray(ks, dtype=float)
        out = np.full(ks.shape[:-2], self.coeff, dtype=complex)
        for l, p in enumerate(self.packets):
            out = out * p(ks[..., l, :])
        return out

    def involute(self) -> "PacketProduct":
        return PacketProduct(
            [p.involute() for p in reversed(self.packets)], np.conj(self.coeff)
        )


def _multi_indices(d: int, max_order: int):
    """All multi-indices beta in N_0^d with |beta| <= max_order."""
    if d == 0:
        yield ()
        return
    for first in range(max_order + 1):
        for rest in _multi_indices(d - 1, max_order - first):
            yield (first,) + rest


def schwartz_norm_1leg(
    packet: WavePacket,
    K: int,
    L: int,
    grid_points: int = 241,
    boundary_tol: float = 1e-3,
) -> float:
    """sup over k, |beta|<=K of (1+|k|^2)^{L/2} |D^beta f(k)| on a grid."""
    if K < 0 or L < 0:
        raise ValueError("K, L must be nonnegative")
    d = packet.dim
    reach = max(abs(packet.center).max() if d else 0.0, 0.0) + TAIL_WIDTHS * packet.width
    # weight grows polynomially, Gaussian wins; extend for large L
    reach += packet.width * math.sqrt(max(L, 1))
    axes = [np.linspace(-reach, reach, grid_points)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    weight = (1.0 + np.sum(mesh**2, axis=-1)) ** (L / 2.0)

    best = 0.0
    boundary_max = 0.0
    for beta in _multi_indices(d, K):
        g = packet
        for axis, order in enumerate(beta):
            for _ in range(order):
                g = g.derivative(axis)

        def expr(pts):
            w = (1.0 + np.sum(pts**2, axis=-1)) ** (L / 2.0)
            return w * np.abs(g(pts))

        vals = expr(mesh)
        local = float(vals.max())
        # zoom around the grid argmax so the sup is not limited by the mesh pitch
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        center = mesh[idx]
        h = 2.0 * reach / (grid_points - 1)
        for _ in range(6):
            zoom_axes = [np.linspace(c - 2 * h, c + 2 * h, 17) for c in center]
            zm = np.stack(np.meshgrid(*zoom_axes, indexing="ij"), axis=-1)
            zv = expr(zm)
            zi = np.unravel_index(np.argmax(zv), zv.shape)
            center = zm[zi]
            local = max(local, float(zv.max()))
            h /= 4.0
        best = max(best, local)
        edge = np.zeros(vals.shape, dtype=bool)
        for axis in range(d):
            sl = [slice(None)] * d
            sl[axis] = 0
            edge[tuple(sl)] = True
            sl[axis] = -1
            edge[tuple(sl)] = True
        boundary_max = max(boundary_max, float(vals[edge].max()))
    if best > 0 and boundary_max > boundary_tol * best:
        raise RuntimeError(
            f"schwartz_norm grid too small: boundary {boundary_max:.3e} vs max {best:.3e}"
        )
    return best


def schwartz_norm(packets, K: int, L: int, grid_points: int = 241) -> float:
    """Schwartz norm of a tensor product of packets (factorizes over legs)."""
    if isinstance(packets, WavePacket):
        packets = [packets]
    if isinstance(packets, PacketProduct):
        coeff = abs(packets.coeff)
        packets = packets.packets
    else:
        coeff = 1.0
    out = coeff
    for p in packets:
        out *= schwartz_norm_1leg(p, K, L, grid_points=grid_points)
    return out


def fourier_1d(f, t: float, support=(-30.0, 30.0), tol: float = 1e-10) -> complex:
    """(2 pi)^{-1/2} int exp(-i xi t) f(xi) d xi with error control."""
    a, b = support
    re, re_err = integrate.quad(
        lambda x: float(np.real(f(x) * np.exp(-1j * x * t))), a, b, limit=400
    )
    im, im_err = integrate.quad(
        lambda x: float(np.imag(f(x) * np.exp(-1j * x * t))), a, b, limit=400
    )
    if max(re_err, im_err) > max(tol, 1e-8 * (abs(re) + abs(im))):
        raise RuntimeError(f"fourier_1d quadrature error {max(re_err, im_err):.2e}")
    return (re + 1j * im) / math.sqrt(2 * math.pi)


@functools.lru_cache
def gauss_rule(nodes: int):
    """Gauss-Legendre nodes/weights on [-1, 1], built once and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(a: float, b: float, nodes: int):
    """Gauss-Legendre nodes/weights on [a, b], as fresh arrays."""
    x, w = gauss_rule(nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
