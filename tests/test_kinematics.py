"""Geometry, cutoffs, packets and Schwartz norms."""
import functools
import math

import numpy as np
import pytest

from qftscat.kinematics import (
    ModelParams,
    NumericalError,
    WavePacket,
    chi_plus_minus,
    TAIL_WIDTHS,
    gauss_panels,
    gauss_rule,
    hermite_rule,
    invariant_index,
    invariant_map,
    invariant_names,
    minkowski_dot,
    minkowski_sq,
    multi_indices,
    omega,
    packet_rule,
    phi,
    schwartz_norm_1leg,
)
from qftscat.polymath import Poly, value_dtype

RNG = np.random.default_rng(7)


def boost_matrix(rapidity):
    """Lorentz boost of 1+1 dimensional four-vectors."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return np.array([[ch, sh], [sh, ch]])


def test_model_params_validation():
    p = ModelParams()
    assert p.d == 2 and p.m == 1.0 and p.eps_phi == 0.5
    with pytest.raises(ValueError):
        ModelParams(d=1)
    with pytest.raises(ValueError):
        ModelParams(d=3)  # only 1+1 dimensions are implemented
    with pytest.raises(ValueError):
        ModelParams(m=-1.0)
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


@pytest.mark.parametrize("field, kw", [
    pytest.param("width", dict(width=True), id="bool_width"),
    pytest.param("width", dict(width=1 + 0j), id="complex_width"),
    pytest.param("center", dict(center=[[0.5, 1.0]]), id="matrix_center"),
    pytest.param("center", dict(center=[]), id="empty_center"),
    pytest.param("center", dict(center=["a", "b"]), id="text_center"),
    pytest.param("phase", dict(phase=[0.1, 0.2, 0.3]), id="long_phase"),
    pytest.param("phase", dict(phase=1.0), id="scalar_phase"),
    pytest.param("poly", dict(poly=2.0), id="number_poly"),
])
def test_packet_rejects_malformed_fields(field, kw):
    # each field fails where the packet is built, with its name
    with pytest.raises(ValueError, match=field):
        WavePacket(**{"center": np.array([1.2, 0.4]), "width": 0.3, **kw})


def test_packet_rejects_a_component_tuple_of_the_wrong_length():
    pk = WavePacket(center=np.array([1.2, 0.4]), width=0.3)
    with pytest.raises(ValueError, match="3 components for a packet of dimension 2"):
        pk((pk.center,) * 3)


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


def _minkowski_dot_oracle(x, y):
    """minkowski_dot as one broadcast product and a sum over the spatial axes,
    kept as the bitwise reference of its per-axis form."""
    x, y = np.asarray(x), np.asarray(y)
    return x[..., 0] * y[..., 0] - np.sum(x[..., 1:] * y[..., 1:], axis=-1)


def _packet_oracle(pk, k):
    """WavePacket.__call__ squaring k - center broadcast over the momentum
    axis, kept as the bitwise reference of its per-axis form."""
    k = np.asarray(k, dtype=float)
    sq = (k - pk.center) ** 2
    r2 = functools.reduce(np.add, (sq[..., i] for i in range(pk.dim)))
    val = pk.poly(k) * np.exp(-r2 / (2 * pk.width**2))
    if pk.phase is not None:
        val = np.multiply(val, np.exp(-1j * _minkowski_dot_oracle(pk.phase, k)))
    return val


# explicit constant prefactors: the real 1 (float or int) skips Poly.__call__,
# a complex 1+0j and any other constant take it
CONSTANTS = {"one": 1.0, "int_one": 1, "complex_one": 1 + 0j, "two": 2.0}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["gaussian", "poly", "phased", "poly_phased", *CONSTANTS])
def test_packet_and_minkowski_dot_bitwise_equal_broadcast_oracles(d, kind, monkeypatch):
    # 100 points stay below numpy's 256 KiB temporary-elision threshold,
    # 40,000 complex values pass it; the points come as one array and as a
    # tuple of per-axis components
    poly = Poly.variable(d, d - 1, 1.0 + 0.5j) + Poly.constant(d, -0.3) \
        if "poly" in kind else None
    if kind in CONSTANTS:
        poly = Poly.constant(d, CONSTANTS[kind])
    phase = np.linspace(0.3, -0.2, d) if "phased" in kind else None
    pk = WavePacket(center=np.linspace(-1.2, 0.4, d), width=0.3, poly=poly, phase=phase)
    calls, evaluate = [], Poly.__call__

    def counted(p, x):
        calls.append(len(x))
        return evaluate(p, x)

    rng = np.random.default_rng(11 + d)
    for n in (100, 40000):
        k = pk.center + 0.5 * rng.normal(size=(n, d))
        want = _packet_oracle(pk, k)
        monkeypatch.setattr(Poly, "__call__", counted)
        got = [pk(k), pk(tuple(k[:, i] for i in range(d))),
               pk(tuple(np.ascontiguousarray(k[:, i]) for i in range(d)))]
        monkeypatch.setattr(Poly, "__call__", evaluate)
        for g in got:
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()
        y = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        for x in (k, y):
            got, want = minkowski_dot(x, k[::-1]), _minkowski_dot_oracle(x, k[::-1])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert minkowski_sq(k).tobytes() == _minkowski_dot_oracle(k, k).tobytes()
    assert len(calls) == (0 if kind in ("gaussian", "phased", "one", "int_one") else 6)
    assert (pk(k).dtype == np.complex128) == (kind not in ("gaussian", "one", "int_one", "two"))


def test_packet_is_float64_exactly_without_phase_or_complex_coefficients():
    # a real polynomial times the Gaussian: the complex path's real part bit
    # for bit; a phase or a coefficient 1+0j gives complex values
    k = 0.5 * np.random.default_rng(12).normal(size=(50, 2))
    poly = Poly.variable(2, 1, 0.7) + Poly.constant(2, -0.3)
    real = WavePacket(center=np.array([-1.2, 0.4]), width=0.3, poly=poly)
    slow = WavePacket(real.center, real.width, poly * Poly.constant(2, 1 + 0j))
    phased = WavePacket(real.center, real.width, poly, phase=np.array([0.3, -0.2]))
    assert real(k).dtype == real.derivative(0)(k).dtype == np.float64
    assert slow(k).dtype == phased(k).dtype == np.complex128
    assert np.all(slow(k).imag == 0) and np.array_equal(real(k), slow(k).real)


def test_packet_rejects_points_of_the_wrong_width():
    # a one-column point once broadcast to (1.3, 1.3) on a 2-D packet, and a
    # third column would be dropped
    pk = WavePacket(center=np.array([1.0, 0.5]), width=0.5)
    for k in (np.array([[1.3]]), np.array([[1.3, 0.5, 0.2]]), np.array(1.3)):
        with pytest.raises(ValueError, match="dimension 2"):
            pk(k)
    line = WavePacket(center=np.array([1.0]), width=0.5)
    with pytest.raises(ValueError, match="dimension 1"):
        line(np.array([[1.3, 0.5]]))
    assert line(np.array([[1.3]])).shape == (1,)


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


def _tensordot_on_grid(poly, axes):
    """Poly.on_grid as it was before it became one row of Poly.on_grids: the
    coefficient array contracted with one power table per axis by tensordot."""
    exps = np.array(list(poly.terms) or [(0,) * poly.nvars], dtype=int)
    out = np.zeros(tuple(exps.max(axis=0) + 1), dtype=value_dtype(poly.terms.values(), *axes))
    for e, c in poly.terms.items():
        out[e] = c
    for x, top in zip(axes, out.shape):
        out = np.tensordot(out, np.asarray(x)[:, None] ** np.arange(top), axes=([0], [1]))
    return out


def _per_beta_norm_1leg(packet, K, L):
    """schwartz_norm_1leg as it was before the zoom was batched, kept as its
    bitwise reference: every beta rebuilds D^beta from f, axis 0 first, and
    zooms on its own."""
    d = packet.dim
    reach = max(abs(packet.center).max() if d else 0.0, 0.0) + 12.0 * packet.width
    reach += packet.width * math.sqrt(max(L, 1))
    axes = [np.linspace(-reach, reach, 241)] * d

    def envelope(grid):
        cols = [x.reshape((-1,) + (1,) * (d - 1 - i)) for i, x in enumerate(grid)]
        k2 = functools.reduce(np.add, (x**2 for x in cols))
        r2 = functools.reduce(np.add, ((x - c) ** 2 for x, c in zip(cols, packet.center)))
        return (1.0 + k2) ** (L / 2.0) * np.exp(-r2 / (2 * packet.width**2))

    env = envelope(axes)
    edge = np.ones(env.shape, dtype=bool)
    edge[(slice(1, -1),) * d] = False
    best = 0.0
    boundary_max = 0.0
    for beta in multi_indices(d, K):
        g = packet
        for axis, order in enumerate(beta):
            for _ in range(order):
                g = g.derivative(axis)
        vals = env * np.abs(_tensordot_on_grid(g.poly, axes))
        local = float(vals.max())
        center = [x[i] for x, i in zip(axes, np.unravel_index(np.argmax(vals), vals.shape))]
        h = 2.0 * reach / 240
        for _ in range(6):
            zoom_axes = [np.linspace(c - 2 * h, c + 2 * h, 17) for c in center]
            zv = envelope(zoom_axes) * np.abs(_tensordot_on_grid(g.poly, zoom_axes))
            zi = np.unravel_index(np.argmax(zv), zv.shape)
            center = [x[i] for x, i in zip(zoom_axes, zi)]
            local = max(local, float(zv.max()))
            h /= 4.0
        best = max(best, local)
        boundary_max = max(boundary_max, float(vals[edge].max()))
    if best > 0 and boundary_max > 1e-3 * best:
        raise NumericalError(
            f"schwartz_norm grid too small: boundary {boundary_max:.3e} vs max {best:.3e}"
        )
    return best


def _bitwise_packets(d, rng):
    """A Gaussian, its derivative, a random polynomial with a phase, and a
    translated (phased) derivative of a polynomial packet."""
    center = rng.normal(scale=0.8, size=d)
    plain = WavePacket(center=center, width=float(rng.uniform(0.3, 0.6)))
    poly = _random_packet(rng, d, phase=False)
    return {"gaussian": plain, "derivative": plain.derivative(d - 1),
            "phased": _random_packet(rng, d, phase=True),
            "translated": WavePacket(poly.center, poly.width, poly.poly,
                                     phase=rng.normal(scale=3.0, size=d)).derivative(0)}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["gaussian", "derivative", "phased", "translated"])
def test_schwartz_norm_bitwise_equals_per_beta_loop(d, kind):
    pk = _bitwise_packets(d, np.random.default_rng(100 * d))[kind]
    for K in range(4):
        for L in range(4):
            assert schwartz_norm_1leg(pk, K, L) == _per_beta_norm_1leg(pk, K, L), (K, L)


def test_schwartz_norm_bitwise_in_three_dimensions():
    # one case: each 241^3 grid scan holds a few 220 MB arrays
    pk = _bitwise_packets(3, np.random.default_rng(300))["translated"]
    assert schwartz_norm_1leg(pk, 1, 1) == _per_beta_norm_1leg(pk, 1, 1)


@pytest.mark.parametrize("d, K", [(1, 3), (2, 3)])
def test_schwartz_norm_takes_one_derivative_per_beta(d, K, monkeypatch):
    calls = []
    derivative = WavePacket.derivative

    def counted(self, axis):
        calls.append(axis)
        return derivative(self, axis)

    monkeypatch.setattr(WavePacket, "derivative", counted)
    schwartz_norm_1leg(WavePacket(center=np.full(d, 0.4), width=0.5), K, 2)
    assert len(calls) == len(list(multi_indices(d, K))) - 1


def _check_on_grids_rows(d, rng, const, coef):
    """Padded batches mixing polynomials of the first variable alone (a
    matrix-vector product in tensordot), the constant const, the zero
    polynomial and full ones, their coefficients drawn by coef(); on_grid is
    the batch of one."""
    polys = [Poly(d), Poly.constant(d, const)]
    for nterms in (2, 3, 5, 7):
        polys.append(Poly(d, {(int(e),) + (0,) * (d - 1): coef()
                              for e in rng.integers(0, 6, size=nterms)}))
        polys.append(Poly(d, {tuple(int(e) for e in rng.integers(0, 5, size=d)): coef()
                              for _ in range(nterms)}))
    for n in (17, 241 if d < 3 else 31):
        axes = [rng.normal(size=(len(polys), 1)) + rng.uniform(0.1, 3, size=(len(polys), 1))
                * np.linspace(-1, 1, n) for _ in range(d)]
        batch = Poly.on_grids(polys, axes)
        assert batch.dtype == np.result_type(coef())
        for b, p in enumerate(polys):
            rows = [x[b] for x in axes]
            assert np.array_equal(batch[b], _tensordot_on_grid(p, rows))
            assert np.array_equal(p.on_grid(rows), _tensordot_on_grid(p, rows))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_on_grids_rows_bitwise_equal_tensordot_on_grid(d):
    rng = np.random.default_rng(40 + d)
    _check_on_grids_rows(d, rng, 2 - 1j, lambda: complex(*rng.normal(size=2)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_real_on_grids_rows_bitwise_equal_tensordot_on_grid(d):
    # real coefficients and axes: float64 rows in the library and the oracle
    rng = np.random.default_rng(50 + d)
    _check_on_grids_rows(d, rng, 2.0, lambda: float(rng.normal()))


def test_schwartz_norm_grid_check_raises():
    # x^120 peaks at |x| = sqrt(120) * 0.3, past the grid's 12 widths
    pk = WavePacket(center=np.array([0.0]), width=0.3, poly=Poly(1, {(120,): 1.0}))
    with pytest.raises(NumericalError) as new:
        schwartz_norm_1leg(pk, 2, 2)
    with pytest.raises(NumericalError) as old:
        _per_beta_norm_1leg(pk, 2, 2)
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith("schwartz_norm grid too small: boundary ")


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


@pytest.mark.parametrize("nodes", [1, 24, 2000])
def test_hermite_rule_finite_at_every_node_count(nodes):
    # numpy's hermgauss gives NaN weights from 380 nodes on; refined() doubles
    # the largest inner_nodes the CLI accepts to 2000
    x, w = hermite_rule(nodes)
    assert hermite_rule(nodes)[0] is x and not x.flags.writeable and not w.flags.writeable
    assert np.all(np.isfinite(w) & (w > 0)) and np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.max(np.abs(x)) <= TAIL_WIDTHS / math.sqrt(2.0)
    # int e^{-x^2} x^{2k} dx = Gamma(k + 1/2), exact up to degree 2 nodes - 1;
    # at 2000 nodes the dropped tail nodes carry less than e^{-72}
    for k in range(min(nodes, 8)):
        got = np.sum(w * np.exp(-x * x) * x ** (2 * k))
        assert abs(got - math.gamma(k + 0.5)) < 1e-13 * math.gamma(k + 0.5), k
    if nodes == 24:
        X, W = np.polynomial.hermite.hermgauss(nodes)
        assert np.max(np.abs(x - X)) < 1e-14
        assert np.max(np.abs(w - W * np.exp(X * X)) / w) < 1e-13
    if nodes == 2000:
        assert len(x) < nodes


def test_packet_rule_integrates_the_packet_axis():
    pk = WavePacket(center=np.array([1.3, -0.4]), width=0.35)
    p, w = packet_rule(pk, 6)
    # int p^2 e^{-(p - c)^2 / 2 w^2} dp = sqrt(2 pi) w (c^2 + w^2)
    got = np.sum(w * p ** 2 * np.exp(-0.5 * ((p + 0.4) / 0.35) ** 2))
    want = math.sqrt(2 * math.pi) * 0.35 * (0.4 ** 2 + 0.35 ** 2)
    assert abs(got - want) < 1e-14 * want
    assert packet_rule(pk, 6)[0] is not p
