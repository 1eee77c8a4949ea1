"""Geometry, cutoffs, packets and Schwartz norms."""
import math

import numpy as np
import pytest

from qftscat.kinematics import (
    ModelParams,
    NumericalError,
    WavePacket,
    chi_plus_minus,
    gauss_panels,
    gauss_rule,
    invariant_index,
    invariant_map,
    invariant_names,
    minkowski_dot,
    minkowski_sq,
    multi_indices,
    omega,
    phi,
    schwartz_norm_1leg,
)
from qftscat.polymath import Poly

RNG = np.random.default_rng(7)


def boost_matrix(rapidity):
    """Lorentz boost of 1+1 dimensional four-vectors."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return np.array([[ch, sh], [sh, ch]])


def test_model_params_validation():
    p = ModelParams()
    assert p.d == 2 and p.m == 1.0 and p.m0 == 1.0 and p.eps_phi == 0.5
    with pytest.raises(ValueError):
        ModelParams(d=1)
    with pytest.raises(ValueError):
        ModelParams(d=3)  # only 1+1 dimensions are implemented
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
    # a backward-shell point has Minkowski square m^2
    assert np.isclose(minkowski_sq(np.array([-float(omega(0.8, 1.0)), 0.8])), 1.0)
    with pytest.raises(ValueError):
        omega(0.8, -1.0)


def test_lorentz_transforms_preserve_squares():
    L = boost_matrix(0.7)
    k = RNG.normal(size=(10, 2))
    kb = k @ L.T
    assert np.allclose(minkowski_sq(kb), minkowski_sq(k), atol=1e-12)
    # space reflection
    assert np.allclose(minkowski_sq(k * [1.0, -1.0]), minkowski_sq(k), atol=1e-14)


def test_invariant_map_ordering_and_boost_invariance():
    ks = [RNG.normal(size=2) for _ in range(3)]
    q = invariant_map(ks)
    assert q.shape == (6,)
    assert invariant_names(3) == ["q11", "q12", "q22", "q13", "q23", "q33"]
    assert q[invariant_index(0, 1)] == minkowski_dot(ks[0], ks[1])
    assert q[invariant_index(2, 2)] == minkowski_sq(ks[2])
    assert invariant_index(1, 0) == invariant_index(0, 1)
    L = boost_matrix(-1.3)
    qb = invariant_map([k @ L.T for k in ks])
    assert np.allclose(qb, q, atol=1e-12)


def test_cutoff_plateau():
    x = np.linspace(-1.0, 1.0, 2001)
    v = phi(x, 0.5)
    assert np.all((v >= 0) & (v <= 1))
    assert np.all(v[np.abs(x) <= 0.25] == 1.0)
    assert np.all(v[np.abs(x) >= 0.5] == 0.0)
    # nonincreasing across the bridge, strictly decreasing away from the
    # edges (the smooth bump is flat to double precision right at them)
    bridge = v[(x > 0.25) & (x < 0.5)]
    assert np.all(np.diff(bridge) <= 0)
    mid = v[(x > 0.3) & (x < 0.45)]
    assert np.all(np.diff(mid) < 0)
    # the width is checked once, where the model is built
    with pytest.raises(ValueError):
        ModelParams(eps_phi=0.0)


def test_chi_plus_minus_support():
    p = ModelParams()
    on_shell = np.array([float(omega(0.3, 1.0)), 0.3])
    assert chi_plus_minus(on_shell, 1, p) == 1.0
    assert chi_plus_minus(on_shell, -1, p) == 0.0
    assert chi_plus_minus(-on_shell, -1, p) == 1.0
    far = np.array([3.0, 0.0])  # k^2 - m^2 = 8 outside the window
    assert chi_plus_minus(far, 1, p) == 0.0


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
    assert np.allclose(WavePacket(pk.center, pk.width, phase=a)(k), expected, atol=1e-14)


def test_packet_rejects_non_finite_parameters():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            WavePacket(center=np.array([bad, 0.4]), width=0.3)
        with pytest.raises(ValueError):
            WavePacket(center=np.array([1.2, 0.4]), width=bad)
        with pytest.raises(ValueError):
            WavePacket(center=np.array([1.2, 0.4]), width=0.3, phase=np.array([0.0, bad]))


def test_phased_packet_independent_of_batch_size():
    # a complex polynomial times the phase; 40,000 points pass numpy's
    # 256 KiB temporary-elision threshold, chunks of 1,000 do not
    pk = WavePacket(center=np.array([-1.2, 0.4]), width=0.3,
                    poly=Poly.variable(2, 0, 1.0 + 0.5j) + Poly.constant(2, 0.2j),
                    phase=np.array([0.3, -0.2]))
    k = RNG.normal(size=(40000, 2))
    whole = pk(k)
    chunked = np.concatenate([pk(c) for c in np.split(k, 40)])
    assert np.array_equal(whole, chunked)


def test_schwartz_norm_gaussian():
    g = WavePacket(center=np.array([0.0]), width=1.0)
    assert abs(schwartz_norm_1leg(g, 0, 0) - 1.0) < 1e-12
    # oracle: dense scan of (1 + x^2) exp(-x^2/2)
    xs = np.linspace(-20, 20, 1_000_001)
    oracle = float(np.max((1.0 + xs**2) * np.exp(-0.5 * xs**2)))
    assert abs(schwartz_norm_1leg(g, 0, 2) - oracle) < 1e-9 * oracle


def test_schwartz_norm_monotone():
    pk = WavePacket(center=np.array([0.7]), width=0.8,
                    poly=Poly.variable(1, 0, 0.5) + Poly.constant(1, 1.0))
    vals = [schwartz_norm_1leg(pk, K, L) for K in range(3) for L in range(3)]
    assert schwartz_norm_1leg(pk, 1, 0) >= schwartz_norm_1leg(pk, 0, 0)
    assert (schwartz_norm_1leg(pk, 0, 2) >= schwartz_norm_1leg(pk, 0, 1)
            >= schwartz_norm_1leg(pk, 0, 0))
    assert schwartz_norm_1leg(pk, 2, 2) >= max(vals[:4])


def _mesh_norm_1leg(packet, K, L, grid_points=241):
    """The seminorm evaluated pointwise on stacked meshgrids, as an oracle:
    (1+|k|^2)^{L/2} |D^beta f| from WavePacket.__call__ on the same grid and
    zoom rule as schwartz_norm_1leg (boundary check left out)."""
    d = packet.dim
    reach = abs(packet.center).max() + 12.0 * packet.width
    reach += packet.width * math.sqrt(max(L, 1))
    axes = [np.linspace(-reach, reach, grid_points)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    best = 0.0
    for beta in multi_indices(d, K):
        g = packet
        for axis, order in enumerate(beta):
            for _ in range(order):
                g = g.derivative(axis)

        def expr(pts):
            return (1.0 + np.sum(pts**2, axis=-1)) ** (L / 2.0) * np.abs(g(pts))

        vals = expr(mesh)
        local = float(vals.max())
        center = mesh[np.unravel_index(np.argmax(vals), vals.shape)]
        h = 2.0 * reach / (grid_points - 1)
        for _ in range(6):
            zoom_axes = [np.linspace(c - 2 * h, c + 2 * h, 17) for c in center]
            zm = np.stack(np.meshgrid(*zoom_axes, indexing="ij"), axis=-1)
            zv = expr(zm)
            center = zm[np.unravel_index(np.argmax(zv), zv.shape)]
            local = max(local, float(zv.max()))
            h /= 4.0
        best = max(best, local)
    return best


def _random_packet(rng, d, phase):
    terms = {tuple(int(e) for e in rng.integers(0, 3, size=d)): complex(*rng.normal(size=2))
             for _ in range(3)}
    return WavePacket(center=rng.normal(scale=0.8, size=d), width=float(rng.uniform(0.3, 1.0)),
                      poly=Poly(d, terms), phase=rng.normal(size=d) if phase else None)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("phase", [False, True])
def test_schwartz_norm_matches_mesh_oracle(d, phase):
    rng = np.random.default_rng(10 * d + phase)
    for K, L in [(K, L) for K in range(3) for L in range(4)]:
        pk = _random_packet(rng, d, phase)
        oracle = _mesh_norm_1leg(pk, K, L)
        assert abs(schwartz_norm_1leg(pk, K, L) - oracle) <= 1e-12 * oracle, (K, L)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_poly_on_grid_matches_pointwise_call(d):
    rng = np.random.default_rng(d)
    terms = {tuple(int(e) for e in rng.integers(0, 4, size=d)): complex(*rng.normal(size=2))
             for _ in range(6)}
    p = Poly(d, terms)
    axes = [rng.normal(scale=2.0, size=5 + i) for i in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    grid = p.on_grid(axes)
    assert grid.shape == tuple(len(x) for x in axes)
    assert np.allclose(grid, p(mesh), rtol=1e-12, atol=1e-12 * np.abs(p(mesh)).max())
    assert np.array_equal(Poly(d).on_grid(axes), np.zeros(grid.shape))
    with pytest.raises(ValueError):
        p.on_grid(axes[:-1] + [axes[0], axes[0]])


def test_schwartz_norm_grid_check_raises():
    # x^120 peaks at |x| = sqrt(120) * 0.3, past the grid's 12 widths
    pk = WavePacket(center=np.array([0.0]), width=0.3, poly=Poly(1, {(120,): 1.0}))
    with pytest.raises(NumericalError, match="grid too small"):
        schwartz_norm_1leg(pk, 2, 2)


def test_gauss_legendre_exactness():
    x, w = gauss_panels([-1.5, 2.0], 8)
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
    a, b = gauss_panels([-1.0, 1.0], 11), gauss_panels([-1.0, 1.0], 11)
    assert a[0] is not b[0] and a[1] is not b[1]
    assert a[0] is not x and a[1] is not w
    a[0][0] = 5.0
    assert gauss_panels([-1.0, 1.0], 11)[0][0] == ref_x[0]
