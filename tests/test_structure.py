"""Phase-space reduction, PV quadrature and structure-kernel pairings."""
import numpy as np
import pytest
import scipy.optimize as so
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from qftscat.kinematics import ModelParams, WavePacket, omega
from qftscat.structure import (
    QuadratureSettings,
    SpectralDensity,
    StructureEvaluator,
    default_u_grid,
    eval_Ghat_2,
    eval_Ghat_n,
    pair_with_leg_multipliers,
    pv_fold,
    reduced_integrand,
    root_possible,
    two_body_solutions,
    u_singular_points,
)


def test_evaluator_validation(params):
    with pytest.raises(NotImplementedError):
        StructureEvaluator(ModelParams(d=3))
    with pytest.raises(ValueError):
        StructureEvaluator(params, SpectralDensity(support_low=0.9, density=lambda mu: mu))
    with pytest.raises(ValueError):
        # continuum onset inside the cutoff window (1.1^2 < 1 + 0.5)
        StructureEvaluator(params, SpectralDensity(support_low=1.1, density=lambda mu: mu))


def test_quadrature_doubling():
    q = QuadratureSettings()
    d = q.doubled()
    assert d.outer_nodes == 2 * q.outer_nodes
    assert d.fold_nodes == 2 * q.fold_nodes
    assert d.mu_nodes == 2 * q.mu_nodes


def test_two_body_solutions_vs_brentq():
    m = 1.0
    E, P = 3.1, 0.4
    pa, pb, wa, wb, jac, valid = two_body_solutions(E, P, 1, 1, m)
    assert valid.shape == (2,) and valid.all()

    def constraint(p):
        return np.sqrt(p * p + m * m) + np.sqrt((P - p) ** 2 + m * m) - E

    roots = sorted(
        so.brentq(constraint, a, b, xtol=1e-14)
        for a, b in ((-5.0, P / 2), (P / 2, 5.0))
    )
    assert np.allclose(sorted(pa), roots, atol=1e-10)
    # residual and Jacobian consistency
    assert np.all(np.abs(np.sqrt(pa**2 + 1) + np.sqrt(pb**2 + 1) - E) < 1e-10)
    assert np.allclose(jac, pa / wa - pb / wb, atol=1e-12)


def test_two_body_mixed_sign_single_root():
    # sa=-1, sb=+1: exactly one genuine root for spacelike total momentum
    pa, pb, wa, wb, jac, valid = two_body_solutions(0.5, 2.0, -1, 1, 1.0)
    assert int(valid.sum()) == 1
    i = int(np.argmax(valid))
    res = -wa[i] + wb[i] - 0.5
    assert abs(res) < 1e-10


def test_two_body_below_threshold_empty():
    _, _, _, _, _, valid = two_body_solutions(1.5, 0.0, 1, 1, 1.0)  # E < 2m
    assert not valid.any()


def test_pv_fold_analytic():
    quad = QuadratureSettings()
    assert abs(pv_fold(lambda x: np.ones_like(x), 0.3, 2.0, quad)) < 1e-14
    assert abs(pv_fold(lambda x: x, 0.3, 2.0, quad) - 4.0) < 1e-12
    assert abs(pv_fold(lambda x: np.exp(-0.5 * x**2), 0.0, 8.0, quad)) < 1e-14
    assert pv_fold(lambda x: x, 0.3, -1.0, quad) == 0.0


def test_pv_fold_vs_cauchy_weight_oracle():
    quad = QuadratureSettings()
    pole, span = 0.4, 3.0

    def numer(x):
        return np.exp(-0.5 * (np.asarray(x) - 1.1) ** 2)

    val = pv_fold(numer, pole, span, quad)
    oracle, _ = integrate.quad(lambda x: float(numer(x)), pole - span, pole + span,
                               weight="cauchy", wvar=pole, limit=400)
    assert abs(val - oracle) < 1e-9 * max(abs(oracle), 1.0)


def test_reduced_integrand_order3_oracle(trio, ev):
    g = reduced_integrand(0, list(trio), ev)
    k0v, k1v = -2.35, -0.25
    val = complex(g(np.array(k0v), np.array(k1v)))
    r0, r1, r2 = trio

    def constraint(pa):
        return np.sqrt(pa * pa + 1) + np.sqrt((-k1v - pa) ** 2 + 1) + k0v

    xs = np.linspace(-40, 40, 4001)
    fs = constraint(xs)
    oracle = 0.0
    for i in np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]:
        pa = so.brentq(constraint, xs[i], xs[i + 1], xtol=1e-14)
        pb = -k1v - pa
        wa, wb = np.sqrt(pa * pa + 1), np.sqrt(pb * pb + 1)
        jac = pa / wa - pb / wb
        if abs(jac) < 1e-10:
            continue
        oracle += float(
            np.real(r1(np.array([wa, pa])) * r2(np.array([wb, pb])))
        ) / (4 * wa * wb * abs(jac))
    assert abs(val - oracle) < 1e-12 * abs(oracle)


def test_reduced_integrand_order4_oracle(packets4, ev):
    g = reduced_integrand(2, list(packets4), ev)
    k0v, k1v = 1.30, 0.75
    val = complex(g(np.array(k0v), np.array(k1v)))
    # brute-force oracle computed once by adaptive quadrature over the free
    # leg with root solving inside (legs 0, 1 backward, leg 3 forward)
    assert abs(val - 0.018591935616353153) < 3e-7 * 0.0186


def test_reduced_integrand_no_solution_is_zero(packets4, ev):
    g = reduced_integrand(0, list(packets4[:3]), ev)
    # energy far below every threshold
    assert g(np.array(0.01), np.array(0.0)) == 0.0


def test_u_singular_points_are_thresholds(packets4, ev):
    g = reduced_integrand(2, list(packets4), ev)
    pts = u_singular_points(2, list(packets4), ev, g.free_leg, g.solved_legs, 1.3, 0.75)
    m = ev.params.m
    for u in pts:
        E = -1.3 + np.sqrt(u * u + m * m)
        P = -0.75 - u
        Q = E * E - P * P
        assert abs(Q * (Q - 4 * m * m)) < 1e-8


def test_default_u_grid_integrates_gaussian(ev):
    pk = WavePacket(center=np.array([0.2, -0.4]), width=0.5)
    un, uw = default_u_grid(pk, ev.quad)
    val = float(np.sum(uw * np.exp(-0.5 * ((un + 0.4) / 0.5) ** 2)))
    exact = 0.5 * np.sqrt(2 * np.pi)
    assert abs(val - exact) < 1e-10


def test_ghat2_vs_quadrature_oracle(pair, ev, ev_rho):
    a, b = pair
    v_zero = eval_Ghat_2([a, b], ev)
    v_rho = eval_Ghat_2([a, b], ev_rho)

    def shell(kk, mass):
        w = np.sqrt(kk * kk + mass * mass)
        return float(np.real(a(np.array([-w, kk])) * b(np.array([w, -kk])))) / (2 * w)

    orc0, _ = integrate.quad(lambda kk: shell(kk, 1.0), -5, 5, limit=400, epsabs=1e-14)
    assert abs(v_zero - orc0) < 1e-12 * abs(orc0)
    rho = ev_rho.rho
    orc1, _ = integrate.dblquad(lambda kk, mu: float(rho(mu)) * shell(kk, mu),
                                1.5, 21.5, -5, 5, epsabs=1e-12)
    assert abs(v_rho - (orc0 + orc1)) < 1e-9 * abs(orc0 + orc1)
    assert abs(v_rho.imag) < 1e-14


def test_ghat3_value_and_leg_multiplier_consistency(trio, ev):
    val = eval_Ghat_n(list(trio), ev)
    assert abs(val - 0.01069128338057303) < 1e-10
    # trivial multipliers reproduce the plain pairing
    same = pair_with_leg_multipliers(list(trio), [None, None, None], ev)
    assert abs(same - val) < 1e-14
    # constant multipliers scale each leg
    two = pair_with_leg_multipliers(
        list(trio), [lambda k: 2.0 * np.ones(np.asarray(k).shape[:-1])] * 3, ev)
    assert abs(two - 8.0 * val) < 1e-10 * abs(8.0 * val)


def test_ghat_n_rejects_low_order(pair, ev):
    with pytest.raises(ValueError):
        eval_Ghat_n(list(pair), ev)
    with pytest.raises(ValueError):
        pair_with_leg_multipliers(list(pair), [None], ev)


def test_weight_enters_linearly(trio, ev, params):
    from qftscat.transfer import TransferFamily, TransferPolynomial

    val = eval_Ghat_n(list(trio), ev)
    fam = TransferFamily({2: TransferPolynomial.constant(2, 1.0),
                          3: TransferPolynomial.constant(3, 2.0)}, l_max=0)
    weighted = eval_Ghat_n(list(trio), ev, weight=fam.eval)
    assert abs(weighted - 2.0 * val) < 1e-12 * abs(val)


@settings(max_examples=400, deadline=None, derandomize=True)
@example(sa=1, sb=1, mass=1.0, E=2.0, P=0.0, near=None, offset=0.0)  # Q = 4 m^2
@example(sa=-1, sb=-1, mass=1.0, E=-2.5, P=1.5, near=None, offset=0.0)  # Q = 4 m^2
@example(sa=1, sb=-1, mass=1.0, E=0.75, P=0.75, near=None, offset=0.0)  # Q = 0
@given(
    sa=st.sampled_from([1, -1]),
    sb=st.sampled_from([1, -1]),
    mass=st.floats(0.1, 10.0),
    E=st.floats(-1e3, 1e3),
    P=st.floats(-1e3, 1e3),
    near=st.sampled_from([None, 0.0, 4.0]),
    offset=st.floats(-1e-9, 1e-9),
)
def test_root_possible_covers_every_valid_root(sa, sb, mass, E, P, near, offset):
    if near is not None:
        # move E onto Q = E^2 - P^2 = near * m^2, then off it by at most 1e-9
        E = np.copysign(np.sqrt(max(P * P + near * mass * mass + offset, 0.0)), E)
    E, P = np.float64(E), np.float64(P)
    valid = two_body_solutions(E, P, sa, sb, mass)[-1]
    if valid.any():
        assert root_possible(E, P, sa, sb, mass)


def _dense_reduced_integrand(j, packets, ev, weight=None, leg_factors=None):
    """g_j solved and evaluated at every point, without the root_possible
    mask, in exactly the expressions of the unmasked implementation."""
    n = len(packets)
    m = ev.params.m
    others = [l for l in range(n) if l != j]

    def sign(l):
        return -1 if l < j else 1

    def g3(k0, k1, ugrid=None):
        a, b = others
        k0, k1 = np.broadcast_arrays(np.asarray(k0, dtype=float), np.asarray(k1, dtype=float))
        pa, pb, wa, wb, jac, valid = two_body_solutions(-k0, -k1, sign(a), sign(b), m)
        ka = np.stack([sign(a) * wa, pa], axis=-1)
        kb = np.stack([sign(b) * wb, pb], axis=-1)
        vals = packets[a](ka) * packets[b](kb)
        if leg_factors is not None:
            if leg_factors[a] is not None:
                vals = vals * leg_factors[a](ka)
            if leg_factors[b] is not None:
                vals = vals * leg_factors[b](kb)
        if weight is not None:
            ks = np.zeros(ka.shape[:-1] + (3, 2))
            ks[..., a, :] = ka
            ks[..., b, :] = kb
            ks[..., j, 0] = k0[..., None]
            ks[..., j, 1] = k1[..., None]
            vals = vals * weight(ks)
        dens = 4.0 * wa * wb * np.abs(jac)
        out = np.where(valid, vals / np.where(valid, dens, 1.0), 0.0)
        return out.sum(axis=-1)

    def g4(k0, k1, ugrid=None):
        free, b, c = others
        sa, sb, sc = sign(free), sign(b), sign(c)
        k0, k1 = np.broadcast_arrays(np.asarray(k0, dtype=float), np.asarray(k1, dtype=float))
        un, uw = default_u_grid(packets[free], ev.quad) if ugrid is None else ugrid
        k0e = k0[..., None]
        k1e = k1[..., None]
        wu = np.sqrt(un * un + m * m)
        E = -k0e - sa * wu
        P = -k1e - un
        pb, pc, wb, wc, jac, valid = two_body_solutions(E, P, sb, sc, m)
        kfree = np.broadcast_to(np.stack([sa * wu, un], axis=-1), E.shape + (2,))[..., None, :]
        kb = np.stack([sb * wb, pb], axis=-1)
        kc = np.stack([sc * wc, pc], axis=-1)
        vals = packets[free](kfree) * packets[b](kb) * packets[c](kc)
        if leg_factors is not None:
            for leg, kk in ((free, kfree), (b, kb), (c, kc)):
                if leg_factors[leg] is not None:
                    vals = vals * leg_factors[leg](kk)
        if weight is not None:
            ks = np.zeros(kb.shape[:-1] + (4, 2))
            ks[..., free, :] = kfree
            ks[..., b, :] = kb
            ks[..., c, :] = kc
            ks[..., j, 0] = k0e[..., None]
            ks[..., j, 1] = k1e[..., None]
            vals = vals * weight(ks)
        dens = (2.0 * wu)[..., None] * 4.0 * wb * wc * np.abs(jac)
        out = np.where(valid, vals / np.where(valid, dens, 1.0), 0.0)
        return (out.sum(axis=-1) * uw).sum(axis=-1)

    return g3 if n == 3 else g4


def _every_leg_weight(ks):
    """A weight reading both components of every leg, each differently."""
    n = ks.shape[-2]
    return 1.0 + sum((l + 1) * ks[..., l, 0] + 0.5j * (l + 2) * ks[..., l, 1] ** 3
                     for l in range(n))


def _leg_factors(n):
    facs = [lambda k, l=l: np.exp(0.3j * (l + 1) * k[..., 0]) * (1.0 + 0.2 * k[..., 1] ** 3)
            for l in range(n)]
    facs[1] = None
    return facs


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("extras", ["plain", "weight", "leg_factors", "both"])
def test_masked_integrand_equals_dense(order, extras, trio, packets4, ev, fam_quad):
    packets = list(trio if order == 3 else packets4)
    weight = leg_factors = None
    if extras in ("weight", "both"):
        weight = _every_leg_weight if order == 3 else fam_quad.eval
    if extras in ("leg_factors", "both"):
        leg_factors = _leg_factors(order)
    # grids on both sides of numpy's 256 KiB in-place threshold, and 0-d points
    sizes = [(129, 65), (7, 5)] if order == 3 else [(37, 23), (3, 2)]
    for j in range(order):
        g = reduced_integrand(j, packets, ev, weight=weight, leg_factors=leg_factors)
        dense = _dense_reduced_integrand(j, packets, ev, weight=weight,
                                         leg_factors=leg_factors)
        lo0, hi0 = packets[j].support_interval(0)
        lo1, hi1 = packets[j].support_interval(1)
        grids = [None]
        if order == 4:
            grids.append(default_u_grid(packets[g.free_leg], ev.quad, panels=3))
        for n0, n1 in sizes:
            k0 = np.linspace(lo0 - 1.0, hi0 + 1.0, n0)[:, None]
            k1 = np.linspace(lo1, hi1, n1)[None, :]
            for ugrid in grids:
                got, want = g(k0, k1, ugrid), dense(k0, k1, ugrid)
                assert got.shape == want.shape == (n0, n1)
                assert np.array_equal(got, want)
        for ugrid in grids:
            for a, b in ((k0[1, 0], k1[0, 1]), (k0[2, 0], k1[0, 0])):
                got = g(np.array(a), np.array(b), ugrid)
                assert np.shape(got) == ()
                assert got == dense(np.array(a), np.array(b), ugrid)
        assert np.count_nonzero(dense(k0, k1)) > 0
