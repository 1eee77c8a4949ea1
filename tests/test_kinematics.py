"""Geometry, cutoffs, packets, norms and the Fourier convention."""
import math

import numpy as np
import pytest

from qftscat.kinematics import (
    CutoffSpec,
    ModelParams,
    PacketProduct,
    ShellPoint,
    WavePacket,
    boost_matrix,
    chi_plus_minus,
    fourier_1d,
    gauss_legendre,
    gauss_rule,
    invariant_index,
    invariant_map,
    invariant_names,
    minkowski_dot,
    minkowski_sq,
    omega,
    schwartz_norm,
    space_reflection,
    time_reflection,
)
from qftscat.polymath import Poly

RNG = np.random.default_rng(7)


def test_model_params_validation():
    p = ModelParams()
    assert p.d == 2 and p.m == 1.0 and p.m0 == 1.0 and p.eps_phi == 0.5
    with pytest.raises(ValueError):
        ModelParams(d=1)
    with pytest.raises(ValueError):
        ModelParams(m=-1.0)
    with pytest.raises(ValueError):
        ModelParams(m0=2.0)
    with pytest.raises(ValueError):
        ModelParams(eps_phi=1.5)


def test_minkowski_signature():
    x = np.array([2.0, 1.0])
    y = np.array([0.5, -3.0])
    assert minkowski_dot(x, y) == 2.0 * 0.5 - 1.0 * (-3.0)
    assert minkowski_sq(x) == 4.0 - 1.0
    with pytest.raises(ValueError):
        minkowski_dot(x, np.array([1.0, 2.0, 3.0]))


def test_omega_and_shell_point():
    assert omega(0.0, 1.0) == 1.0
    assert np.isclose(omega(3.0, 4.0), 5.0)
    sp = ShellPoint(spatial=(0.8,), mass=1.0, sign=-1)
    assert sp.energy == -float(omega(0.8, 1.0))
    assert np.isclose(minkowski_sq(sp.four_vector()), 1.0)
    with pytest.raises(ValueError):
        ShellPoint(spatial=(0.0,), mass=1.0, sign=2)


def test_lorentz_transforms_preserve_squares():
    L = boost_matrix(2, 0.7)
    k = RNG.normal(size=(10, 2))
    kb = k @ L.T
    assert np.allclose(minkowski_sq(kb), minkowski_sq(k), atol=1e-12)
    assert np.allclose(L @ time_reflection(2) @ L, L @ time_reflection(2) @ L)
    P = space_reflection(2)
    assert np.allclose(minkowski_sq(k @ P.T), minkowski_sq(k), atol=1e-14)


def test_invariant_map_ordering_and_boost_invariance():
    ks = [RNG.normal(size=2) for _ in range(3)]
    q = invariant_map(ks)
    assert q.shape == (6,)
    assert invariant_names(3) == ["q11", "q12", "q22", "q13", "q23", "q33"]
    assert q[invariant_index(0, 1)] == minkowski_dot(ks[0], ks[1])
    assert q[invariant_index(2, 2)] == minkowski_sq(ks[2])
    assert invariant_index(1, 0) == invariant_index(0, 1)
    L = boost_matrix(2, -1.3)
    qb = invariant_map([k @ L.T for k in ks])
    assert np.allclose(qb, q, atol=1e-12)


def test_cutoff_plateau():
    c = CutoffSpec(eps=0.5)
    x = np.linspace(-1.0, 1.0, 2001)
    v = c.phi(x)
    assert np.all((v >= 0) & (v <= 1))
    assert np.all(v[np.abs(x) <= 0.25] == 1.0)
    assert np.all(v[np.abs(x) >= 0.5] == 0.0)
    # nonincreasing across the bridge, strictly decreasing away from the
    # edges (the smooth bump is flat to double precision right at them)
    bridge = v[(x > 0.25) & (x < 0.5)]
    assert np.all(np.diff(bridge) <= 0)
    mid = v[(x > 0.3) & (x < 0.45)]
    assert np.all(np.diff(mid) < 0)
    with pytest.raises(ValueError):
        CutoffSpec(eps=0.0)


def test_chi_plus_minus_support():
    p = ModelParams()
    c = CutoffSpec.for_params(p)
    on_shell = np.array([float(omega(0.3, 1.0)), 0.3])
    assert chi_plus_minus(on_shell, 1, p, c) == 1.0
    assert chi_plus_minus(on_shell, -1, p, c) == 0.0
    assert chi_plus_minus(-on_shell, -1, p, c) == 1.0
    far = np.array([3.0, 0.0])  # k^2 - m^2 = 8 outside the window
    assert chi_plus_minus(far, 1, p, c) == 0.0


def test_packet_evaluation_and_derivative():
    pk = WavePacket(center=np.array([-1.2, 0.4]), width=0.3,
                    poly=Poly.variable(2, 1, 2.0) + Poly.constant(2, 0.5),
                    phase=np.array([0.3, -0.2]))
    k = np.array([-1.0, 0.6])
    h = 1e-6
    for axis in range(2):
        dk = np.zeros(2)
        dk[axis] = h
        fd = (pk(k + dk) - pk(k - dk)) / (2 * h)
        assert abs(pk.derivative(axis)(k) - fd) < 1e-7 * (1 + abs(fd))


def test_packet_involution():
    pk = WavePacket(center=np.array([-1.2, 0.4]), width=0.3,
                    poly=Poly.variable(2, 0, 1.0 + 0.5j) + Poly.constant(2, 0.2))
    k = RNG.normal(size=(8, 2))
    assert np.allclose(pk.involute()(k), np.conj(pk(-k)), atol=1e-14)
    assert np.allclose(pk.involute().involute()(k), pk(k), atol=1e-14)


def test_packet_translation_phase():
    pk = WavePacket(center=np.array([0.5, -0.1]), width=0.4)
    a = np.array([1.5, 0.7])
    k = RNG.normal(size=(5, 2))
    expected = pk(k) * np.exp(-1j * minkowski_dot(a, k))
    assert np.allclose(pk.translated(a)(k), expected, atol=1e-14)


def test_packet_product():
    p1 = WavePacket(center=np.array([0.3, 0.1]), width=0.5)
    p2 = WavePacket(center=np.array([-0.4, 0.2]), width=0.3)
    pp = PacketProduct([p1, p2], coeff=2.0 - 1.0j)
    ks = RNG.normal(size=(6, 2, 2))
    assert np.allclose(pp(ks), (2.0 - 1.0j) * p1(ks[:, 0, :]) * p2(ks[:, 1, :]))
    inv = pp.involute()
    assert np.allclose(inv(ks), np.conj(pp(-ks[:, ::-1, :])), atol=1e-14)
    with pytest.raises(ValueError):
        PacketProduct([])


def test_schwartz_norm_gaussian():
    g = WavePacket(center=np.array([0.0]), width=1.0)
    assert abs(schwartz_norm(g, 0, 0) - 1.0) < 1e-12
    # oracle: dense scan of (1 + x^2) exp(-x^2/2)
    xs = np.linspace(-20, 20, 1_000_001)
    oracle = float(np.max((1.0 + xs**2) * np.exp(-0.5 * xs**2)))
    assert abs(schwartz_norm(g, 0, 2) - oracle) < 1e-9 * oracle


def test_schwartz_norm_monotone():
    pk = WavePacket(center=np.array([0.7]), width=0.8,
                    poly=Poly.variable(1, 0, 0.5) + Poly.constant(1, 1.0))
    vals = [schwartz_norm(pk, K, L) for K in range(3) for L in range(3)]
    assert schwartz_norm(pk, 1, 0) >= schwartz_norm(pk, 0, 0)
    assert schwartz_norm(pk, 0, 2) >= schwartz_norm(pk, 0, 1) >= schwartz_norm(pk, 0, 0)
    assert schwartz_norm(pk, 2, 2) >= max(vals[:4])


def test_fourier_gaussian_and_linearity():
    g = lambda x: np.exp(-0.5 * np.asarray(x) ** 2)
    for t in (0.0, 0.7, 2.5):
        assert abs(fourier_1d(g, t) - math.exp(-0.5 * t * t)) < 1e-10
    h = lambda x: np.exp(-0.5 * (np.asarray(x) - 1.0) ** 2)
    combo = lambda x: 2.0 * g(x) + 0.5j * h(x)
    t = 1.3
    lhs = fourier_1d(combo, t)
    rhs = 2.0 * fourier_1d(g, t) + 0.5j * fourier_1d(h, t)
    assert abs(lhs - rhs) < 1e-12


def test_gauss_legendre_exactness():
    x, w = gauss_legendre(-1.5, 2.0, 8)
    # degree 15 polynomials integrate exactly
    val = float(np.sum(w * x**15))
    exact = (2.0**16 - (-1.5) ** 16) / 16.0
    assert abs(val - exact) < 1e-10 * abs(exact)


def test_gauss_rule_cached_read_only():
    x, w = gauss_rule(11)
    again = gauss_rule(11)
    assert again[0] is x and again[1] is w
    ref_x, ref_w = np.polynomial.legendre.leggauss(11)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    # the mapped rule is a fresh, writable pair on every call
    a, b = gauss_legendre(-1.0, 1.0, 11), gauss_legendre(-1.0, 1.0, 11)
    assert a[0] is not b[0] and a[1] is not b[1]
    assert a[0] is not x and a[1] is not w
    a[0][0] = 5.0
    assert gauss_legendre(-1.0, 1.0, 11)[0][0] == ref_x[0]
