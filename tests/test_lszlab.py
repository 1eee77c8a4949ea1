"""Finite-time multipliers, PV limits, decay bounds."""
import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special

from qftscat import lszlab
from qftscat.formfactor import eval_FG_n
from qftscat.kinematics import WavePacket, gauss_panels, omega, phi
from qftscat.lszlab import (
    ENVELOPE_FLOOR,
    _chi_windows,
    _decade_envelope_nonincreasing,
    _leg_terms,
    chi_t,
    convergence_study,
    finite_time_pairing,
    l1_fourier_bound,
    pv_limit_demo,
    pv_oscillatory_integral,
    riemann_lebesgue_decay,
    sokhotsky_check,
)
from qftscat.structure import SpectralDensity, leg_term


def _gauss(x):
    return np.exp(-0.5 * np.asarray(x) ** 2)


def _translated(p, a):
    """The phase-free packet p translated by a: p times exp(-i a.k)."""
    assert p.phase is None
    return WavePacket(p.center, p.width, p.poly, phase=a)


def test_chi_t_is_one_on_shells(params):
    for k1 in (-0.8, 0.0, 1.3):
        w = float(omega(k1, params.m))
        for sign in (1.0, -1.0):
            k = np.array([sign * w, k1])
            for label in ("in", "out"):
                for t in (0.0, 17.3, 1000.0):
                    assert abs(chi_t(label, k, t, params) - 1.0) < 1e-14
    # loc is identically one
    k = np.array([[0.3, 0.1], [5.0, -2.0]])
    assert np.all(chi_t("loc", k, 5.0, params) == 1.0)
    with pytest.raises(ValueError):
        chi_t("bad", k, 0.0, params)


def test_chi_t_vanishes_off_window(params):
    k = np.array([3.0, 0.0])  # k^2 - m^2 = 8, far outside the cutoff window
    assert chi_t("in", k, 2.0, params) == 0.0
    assert abs(chi_t("out", k, 2.0, params)) == 0.0


def _chi_t_oracle(label, k, t, params):
    """In/out chi_t with omega and k.k summed over the broadcast spatial axis,
    kept as the bitwise reference of its component form."""
    t, k = np.asarray(t, dtype=float), np.asarray(k, dtype=float)
    t = t.reshape(t.shape + (1,) * (k.ndim - 1))
    w = np.sqrt(np.sum(k[..., 1:] ** 2, axis=-1) + params.m**2)
    sigma = np.where(k[..., 0] > 0, 1.0, -1.0)
    k2 = k[..., 0] * k[..., 0] - np.sum(k[..., 1:] * k[..., 1:], axis=-1)
    chi = (sigma * k[..., 0] > 0).astype(float) * phi(k2 - params.m**2, params.eps_phi)
    return 0.0 + chi * np.exp(1j * (-1.0 if label == "in" else 1.0) * (k[..., 0] - sigma * w) * t)


def test_chi_t_bitwise_equals_broadcast_oracle(params):
    # points near both shells, one time (100 points) and three times on
    # 12,000 points: below and past numpy's 256 KiB temporary-elision threshold
    rng = np.random.default_rng(4)
    for n, t in ((100, 31.6), (12000, [1.0, 17.3, 100.0])):
        k1 = rng.uniform(-2.0, 2.0, n)
        k0 = rng.choice([-1.0, 1.0], n) * np.sqrt(k1 * k1 + 1.0 + rng.uniform(-0.6, 0.6, n))
        k = np.stack([k0, k1], axis=-1)
        for label in ("in", "out"):
            got, want = chi_t(label, k, t, params), _chi_t_oracle(label, k, t, params)
            assert np.count_nonzero(got) > n // 4
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_chi_t_time_rows(params):
    k = np.stack([np.linspace(-3.0, 3.0, 401), np.linspace(-2.0, 2.0, 401)], axis=-1)
    times = np.array([0.0, 1.0, 17.3, 31.6, 1000.0])
    for label in ("in", "out", "loc"):
        rows = chi_t(label, k, times, params)
        assert rows.shape == (5, 401)
        for i, t in enumerate(times):
            assert np.array_equal(rows[i], chi_t(label, k, t, params))
    assert chi_t("in", k[7], times, params).shape == (5,)


def test_leg_term_time_rows_match_single_time(packets4, ev):
    # Leg 1 of the 2 -> 2 set can balance on its backward shell window
    # (shell_balance_possible), so its term is nonzero; the phase makes the
    # static numerator complex.
    packets = [_translated(packets4[0], [0.3, 0.2]), *packets4[1:]]
    single = _leg_terms(1, "in", [5.0], packets, ev)
    rows = _leg_terms(1, "in", [5.0] * 300, packets, ev)
    assert abs(single[0]) > 0
    assert rows.shape == (300,) and np.all(rows == single[0])


@pytest.mark.parametrize("weighted", [False, True])
def test_leg_terms_equal_their_quadrature(trio, trio_scatter, packets4, ev, weighted):
    # the terms are compared with the quadrature over both chi_t windows
    # (shell_balance_possible forced true), not for accuracy
    rng = np.random.default_rng(5)
    sets = [list(trio), list(trio_scatter), list(packets4)]
    sets += [[_translated(p, rng.uniform(-0.2, 0.2, 2)) for p in base]
             for base in (trio, packets4) for _ in range(3)]
    weight = None
    if weighted:
        def weight(ks):
            return 1.0 + ks[..., 0, 0] - 0.5j * ks[..., 2, 1] ** 2
    times = [1.0, 7.0]
    eps = ev.params.eps_phi
    static_nonzero = allowed = 0
    for packets in sets:
        n = len(packets)
        for j in range(n):
            static = leg_term(j, packets, ev, weight=weight)
            static_nonzero += static != 0
            assert np.all(_leg_terms(j, "loc", times, packets, ev, weight=weight) == static)
            for label in ("in", "out"):
                got = _leg_terms(j, label, times, packets, ev, weight=weight)
                if n == 3:
                    # no window balances; order 3's kinematic zeros are checked
                    # on the k-space path in test_structure, as leg_term
                    # refuses an order-3 multiplier
                    assert got.shape == (2,) and np.all(got == 0)
                    with pytest.raises(ValueError, match="order 3"):
                        leg_term(j, packets, ev, pv_multiplier=lambda k: chi_t(
                            label, k, times, ev.params), window_fn=lambda w: [[-w, w]])
                    continue
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(lszlab, "shell_balance_possible", lambda n, j, sigma: True)
                    want = leg_term(
                        j, packets, ev, weight=weight,
                        pv_multiplier=lambda k: chi_t(label, k, times, ev.params),
                        t_hint=max(times), window_fn=lambda w: _chi_windows(n, j, w, eps))
                assert got.shape == (2,)
                if _chi_windows(n, j, 1.0, eps):
                    # one window fewer in the fold's sums: a round-off drift
                    allowed += 1
                    assert np.all(got != 0) and np.all(abs(got - want) <= 1e-14 * abs(want))
                else:
                    assert np.all(got == 0) and np.all(want == 0), (n, j)
    # the zeros come from chi_t, not from an integrand that vanishes anyway
    assert static_nonzero >= 8 and allowed == 16


def test_decade_envelope_floor():
    t = np.array([1.0, 3.0, 10.0, 30.0, 100.0, 300.0])
    # converged to round-off after t = 10: the last decade's maximum is the
    # larger, but both lie below the floor
    settled = np.array([1e-3, 1e-6, 1e-14, 4e-16, 1e-16, 5e-11])
    assert not _decade_envelope_nonincreasing(t, settled)
    assert _decade_envelope_nonincreasing(t, settled, ENVELOPE_FLOOR)
    rising = settled.copy()
    rising[-1] = 2 * ENVELOPE_FLOOR
    assert not _decade_envelope_nonincreasing(t, rising, ENVELOPE_FLOOR)


def test_time_multiplier_and_schedule(params):
    k = np.array([float(omega(0.4, params.m)), 0.4])
    assert abs(chi_t("in", k, 3.0, params) - 1.0) < 1e-14


def _two_point_with_chi_t(labels, times, packets, ev):
    """The two-point pairing with each leg's packet multiplied by chi_t of
    its label and time at its shell points: the backward m shell plus the
    rho continuum, integrated as eval_Ghat_2 integrates them: the k rule on
    three panels over 12 widths either side of the spatial Gaussian of
    p1(k) p2(-k), the mass rule on one panel up to the packets' energy reach."""
    p1, p2 = packets
    (c1, w1), (c2, w2) = ((p.center[1], p.width) for p in packets)
    c = (c1 * w2 * w2 - c2 * w1 * w1) / (w1 * w1 + w2 * w2)
    wp = w1 * w2 / math.sqrt(w1 * w1 + w2 * w2)
    kn, kw = gauss_panels(c + wp * np.array([-12.0, -4.0, 4.0, 12.0]), ev.quad.fold_nodes)
    m = ev.params.m

    def shell_term(mass):
        w = np.sqrt(kn * kn + mass * mass)
        ka = np.stack([-w, kn], axis=-1)
        kb = np.stack([w, -kn], axis=-1)
        vals = p1(ka) * p2(kb)
        vals = vals * chi_t(labels[0], ka, times[0], ev.params)
        vals = vals * chi_t(labels[1], kb, times[1], ev.params)
        return np.sum(kw * vals / (2.0 * w))

    total = shell_term(m)
    if not ev.rho.trivial:
        mu_hi = min(abs(p.center[0]) + 12.0 * p.width for p in packets)
        mun, muw = gauss_panels([ev.rho.support_low, mu_hi], 2 * ev.quad.fold_nodes)
        total = total + sum(wmu * ev.rho(mu) * shell_term(mu) for mu, wmu in zip(mun, muw))
    return complex(total)


def test_finite_time_two_point_is_static(pair, ev, ev_rho):
    # on the m shell chi_t is exactly 1 and on the continuum exactly 0, so the
    # finite-time two-point pairing is the static form factor at every time
    rng = np.random.default_rng(11)
    pairs = [list(pair)]
    pairs += [[_translated(p, rng.uniform(-0.5, 0.5, 2)) for p in pair] for _ in range(2)]
    pairs += [[WavePacket(p.center + rng.uniform(-0.2, 0.2, 2), p.width * rng.uniform(0.8, 1.2),
                          phase=rng.uniform(-1.0, 1.0, 2)) for p in pair] for _ in range(2)]
    times = (0.0, 1.0, 25.0, 1e3, 1e5)
    for evaluator in (ev, ev_rho):
        for packets in pairs:
            for labels in itertools.product(("in", "loc", "out"), repeat=2):
                static = eval_FG_n(list(labels), packets, evaluator)
                for t1, t2 in [(t, t) for t in times] + list(zip(times, times[::-1])):
                    v = finite_time_pairing(list(labels), packets, [t1, t2], evaluator)
                    assert v == _two_point_with_chi_t(labels, (t1, t2), packets, evaluator)
                    assert v == static
    # the continuum term is not zero, so loc-loc does see it
    assert eval_FG_n(["loc", "loc"], pairs[0], ev_rho) != eval_FG_n(["loc", "loc"], pairs[0], ev)


def test_finite_time_vanishes_on_empty_phase_space(trio_scatter, ev):
    v = finite_time_pairing(["in", "in", "out"], list(trio_scatter), [5.0] * 3, ev)
    assert v == 0.0


def test_finite_time_argument_validation(pair, ev):
    with pytest.raises(ValueError):
        finite_time_pairing(["in"], list(pair), [1.0, 1.0], ev)
    with pytest.raises(ValueError):
        finite_time_pairing(["in", "out"], list(pair), [1.0], ev)


def test_finite_time_paths_reject_misaligned_input(trio_scatter, packets4, ev):
    trio = list(trio_scatter)
    with pytest.raises(ValueError, match="labels"):
        finite_time_pairing(["bogus", "in", "out"], trio, (1.0, 1.0, 1.0), ev)
    bad = [(["in", "in", "out", "out"], trio, None),
           (["in", "in", "out"], trio, [(0, 0, 0, 3)]),
           (["in", "in", "out"], list(packets4), None),
           (["in", "in", "out"], trio, [])]
    for labels, packets, orderings in bad:
        with pytest.raises(ValueError):
            convergence_study(labels, packets, ev, [1.0], orderings=orderings)


def test_convergence_study_exact_case(pair, ev):
    # the two-point pairing is exactly time independent: zero error, flat
    # envelope, ordering-independent limit
    a, b = pair
    target = eval_FG_n(["in", "out"], [a, b], ev)
    report = convergence_study(["in", "out"], [a, b], ev, [1.0, 10.0, 100.0],
                               target=target, window_points=2)
    first = list(report.values)[0]
    assert np.max(report.abs_err[first]) < 1e-12 * abs(target)
    assert report.envelope_nonincreasing
    assert report.ordering_spread < 1e-12 * abs(target)


@pytest.mark.parametrize("weighted", [False, True])
def test_convergence_study_values_are_schedule_pairings(packets4, ev, fam_quad, weighted):
    # every leg time is at most 20, where each fold panel needs only
    # fold_nodes, so sharing the grid of a leg's largest time moves no bit
    labels = ["in", "in", "out", "out"]
    fam = fam_quad if weighted else None
    ranks = (0, 0, 0, 1)
    report = convergence_study(labels, list(packets4), ev, [1.0, 10.0], fam=fam,
                               orderings=[ranks], window_points=1)
    for i, t in enumerate(report.t_grid):
        times = tuple(t * 2.0**r for r in ranks)
        assert report.values[ranks][i] == finite_time_pairing(labels, list(packets4), times,
                                                               ev, fam=fam)


def test_convergence_study_small_times_on_the_largest_grid(packets4, ev):
    # t = 1 is integrated on the finer grid of t = 100; t = 100 keeps its own
    labels = ["in", "in", "out", "out"]
    ranks = (0, 0, 0, 1)
    report = convergence_study(labels, list(packets4), ev, [1.0, 100.0],
                               orderings=[ranks], window_points=1)
    direct = [finite_time_pairing(labels, list(packets4),
                                  tuple(t * 2.0**r for r in ranks), ev)
              for t in report.t_grid]
    assert report.values[ranks][1] == direct[1]
    assert abs(report.values[ranks][0] - direct[0]) <= 5e-4 * abs(direct[0])


def test_convergence_study_rejects_bad_time_grid(pair, ev):
    for grid in ([], [1.0, math.nan], [math.inf]):
        with pytest.raises(ValueError):
            convergence_study(["in", "out"], list(pair), ev, grid)


def test_pv_oscillatory_integral_analytic():
    # PV int e^{ixt} e^{-x^2/(2 w^2)}/x dx = i pi erf(t w/sqrt(2)), to round-off
    # up to t = 1e4, where the fold lays 12 nodes per period
    for width in (0.1, 1.0, 2.0):
        def f(x, w=width):
            return np.exp(-0.5 * (np.asarray(x) / w) ** 2)

        for t in (0.5, 2.0, 8.0, 100.0, 1e3, 1e4):
            val = pv_oscillatory_integral(f, t, width)
            exact = 1j * math.pi * special.erf(t * width / math.sqrt(2.0))
            assert abs(val - exact) < 1e-13 * math.pi, (width, t)


def test_pv_limit_demo_converges():
    report = pv_limit_demo(_gauss, [1.0, 10.0, 100.0])
    key = (0,)
    assert report.envelope_nonincreasing
    assert report.abs_err[key][-1] < 1e-6 * abs(report.target)
    assert abs(report.target - 1j * math.pi) < 1e-15


def test_sokhotsky_identity_small_eps():
    lhs, rhs, diff = sokhotsky_check(_gauss, 1e-7)
    assert diff < 1e-6
    # the deficit is the exact smearing floor sqrt(2 pi) eps |f(0)|
    for eps in (1e-4, 1e-5, 1e-6):
        _, _, d = sokhotsky_check(_gauss, eps)
        floor = math.sqrt(2 * math.pi) * eps
        assert abs(d - floor) < 0.05 * floor


def test_sokhotsky_identity_asymmetric_function():
    g = lambda x: np.exp(-0.5 * (np.asarray(x) - 0.3) ** 2)
    _, _, d = sokhotsky_check(g, 1e-7)
    assert d < 1e-6


def test_riemann_lebesgue_trivial_rho(pair, ev, params):
    rho = SpectralDensity.zero(params)
    report = riemann_lebesgue_decay(rho, list(pair), [1.0, 10.0], ev)
    assert np.all(report.abs_err[(0,)] == 0.0)
    assert report.envelope_nonincreasing


def test_riemann_lebesgue_decays(params, ev_rho):
    a = WavePacket(center=np.array([-1.6, 0.4]), width=0.4)
    b = WavePacket(center=np.array([1.6, -0.4]), width=0.4)
    tg = np.array([0.0, 1.0, 30.0])
    report = riemann_lebesgue_decay(ev_rho.rho, [a, b], tg, ev_rho)
    vals = report.values[(0,)]
    assert abs(vals[0]) > 0
    assert abs(vals[2]) < 0.05 * abs(vals[0])


def test_l1_fourier_bound_gaussian():
    g = WavePacket(center=np.array([0.0]), width=1.0)
    lhs, rhs, ok = l1_fourier_bound(g)
    assert ok
    assert abs(lhs - math.sqrt(2 * math.pi)) < 1e-8
    assert lhs <= rhs


def test_l1_fourier_bound_polynomial_packet():
    from qftscat.polymath import Poly

    pk = WavePacket(center=np.array([0.6]), width=0.5,
                    poly=Poly.variable(1, 0, 1.0) + Poly.constant(1, 0.3))
    lhs, rhs, ok = l1_fourier_bound(pk)
    assert ok and lhs <= rhs


def _dense_l1_lhs(packet, xi_nodes=400, t_points=40001):
    """The lhs from one (t, x) exponential matrix, as before the blocked form."""
    lo, hi = packet.support_interval(0)
    xs, ws = gauss_panels([lo, hi], xi_nodes)
    T = 15.0 / packet.width + 2.0 * abs(packet.center[0])
    ts = np.linspace(-T, T, t_points)
    F = (np.exp(-1j * np.outer(ts, xs)) @ (ws * packet(xs[:, None]))) / math.sqrt(2.0 * math.pi)
    return float(integrate.simpson(np.abs(F), x=ts))


def test_l1_fourier_lhs_matches_dense_matrix():
    from qftscat.polymath import Poly

    for i, w in enumerate(np.geomspace(0.1, 10.0, 5)):
        poly = Poly.variable(1, 0, 1.0) + Poly.constant(1, 0.3) if i % 2 else None
        pk = WavePacket(center=np.array([0.4 * (i - 2)]), width=float(w), poly=poly)
        lhs, _, _ = l1_fourier_bound(pk)
        dense = _dense_l1_lhs(pk)
        assert abs(lhs - dense) <= 1e-12 * dense, (w, lhs, dense)


def test_l1_fourier_bound_requires_1d(pair):
    with pytest.raises(ValueError):
        l1_fourier_bound(pair[0])
