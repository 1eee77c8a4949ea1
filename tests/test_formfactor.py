"""Propagator atoms, mixed-label form factors and S-matrix amplitudes."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qftscat import formfactor, structure
from qftscat.formfactor import (
    AmplitudeRequest,
    eval_F_n,
    eval_FG_n,
    smatrix_amplitude,
)
from qftscat.gns import structure_pairing
from qftscat.kinematics import WavePacket, gauss_panels, omega, packet_rule
from qftscat.structure import (
    QuadratureSettings,
    StructureEvaluator,
    complete_configurations,
    eval_Ghat_2,
    eval_Ghat_n,
    leg_term,
    reduced_integrand,
    shell_signs,
)
from qftscat.transfer import TransferFamily, TransferPolynomial

# independent adaptive-quadrature oracle for the packets4 2->2 overlap
AMP4_ORACLE = 0.017911981248022433j


# each label's propagator atoms as (coefficient, sign) pairs: the
# coefficient times the forward (sign +1) or backward (sign -1) shell
# measure, or times the principal-value kernel (sign 0)
ATOMS = {"loc": [(1.0, 0)],
         "in": [(-1j * np.pi, 1), (1j * np.pi, -1)],
         "out": [(1j * np.pi, 1), (-1j * np.pi, -1)]}


def _per_atom_FG_n(labels, packets, ev, shell_atom, weight=None):
    """Oracle of eval_FG_n at order >= 3: every (leg, atom) term on its own,
    so each shell configuration's integral is computed once per atom that
    reaches it, in that atom's leg variables."""
    return sum(coefficient * (shell_atom(j, sign, packets, ev, weight) if sign else
                              leg_term(j, packets, ev, weight=weight))
               for j, a in enumerate(labels) for coefficient, sign in ATOMS[a])


def test_atom_decomposition():
    assert ATOMS["loc"] == [(1.0, 0)]
    assert ATOMS["in"] == [(-1j * np.pi, 1), (1j * np.pi, -1)]
    assert ATOMS["out"] == [(1j * np.pi, 1), (-1j * np.pi, -1)]
    # leg j's atom (j, +1) is configuration b = j, its atom (j, -1) is b = j + 1
    # (legs 0..b-1 backward); summed per b the atoms give eval_FG_n's
    # coefficient i pi (s_b - s_{b-1}), with s the label's shell sign
    for labels in itertools.product(formfactor.LABELS, repeat=4):
        summed = np.zeros(6, dtype=complex)
        for j, a in enumerate(labels):
            for coefficient, sign in ATOMS[a]:
                if sign:
                    summed[j + (sign < 0)] += coefficient
        s = [0.0] + [formfactor.SHELL_SIGN[a] for a in labels] + [0.0]
        assert np.array_equal(summed[:5], [1j * np.pi * (s[b + 1] - s[b]) for b in range(5)])


def test_configuration_sum_matches_per_atom_oracle(packets4, ev, fam_quad, shell_atom):
    # (in, in, out, out) reaches configuration b = 2 through the atoms (1, -1)
    # and (2, +1): the oracle's two copies differ by 2.0e-8 relative
    labels = ["in", "in", "out", "out"]
    for got, weight in ((eval_FG_n(labels, list(packets4), ev), None),
                        (eval_F_n(labels, list(packets4), ev, fam_quad), fam_quad.eval)):
        want = _per_atom_FG_n(labels, list(packets4), ev, shell_atom, weight)
        assert got != want and abs(got - want) <= 1e-6 * abs(want)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(momenta=st.lists(st.floats(-1.2, 1.2), min_size=4, max_size=4),
       offsets=st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=4),
       widths=st.lists(st.floats(0.2, 0.4), min_size=4, max_size=4),
       weighted=st.booleans())
def test_uniform_labels_order4_are_exact_zeros(momenta, offsets, widths, weighted, params,
                                               fam_quad):
    # 2 -> 2 packets near their shells: every configuration's coefficient
    # cancels between the two atoms that reach it, except b = 0 and b = 4,
    # which cannot balance; the term is 0j however the quadrature resolves T
    ev = StructureEvaluator(params, quad=QuadratureSettings(inner_nodes=12))
    packets = [WavePacket(center=np.array([s * float(omega(k, params.m)) + d, k]), width=w)
               for s, k, d, w in zip((-1, -1, 1, 1), momenta, offsets, widths)]
    weight = fam_quad.eval if weighted else None
    for label in ("in", "out"):
        assert eval_FG_n([label] * 4, packets, ev, weight=weight) == 0j


def test_all_loc_reduces_to_structure_kernel(pair, trio, packets4, ev, ev_rho, fam_quad):
    assert eval_FG_n(["loc"] * 3, list(trio), ev) == eval_Ghat_n(list(trio), ev)
    # the Gram pairing equals, bitwise, the per-order routes it replaced
    for fam in (None, fam_quad):
        weight = None if fam is None else fam.eval
        loc = structure_pairing(ev_rho, fam=fam)
        assert loc(pair) == eval_Ghat_2(list(pair), ev_rho)
        for packets in (trio, packets4):
            assert loc(packets) == eval_Ghat_n(list(packets), ev_rho, weight=weight)
        for label in ("in", "out"):
            pairing = structure_pairing(ev_rho, label, fam)
            for packets in (pair, trio, packets4):
                labels = [label] * len(packets)
                if fam is None:
                    want = eval_FG_n(labels, list(packets), ev_rho)
                else:
                    want = eval_F_n(labels, list(packets), ev_rho, fam)
                assert pairing(packets) == want


@pytest.mark.parametrize("labels, built", [(("in", "in", "out", "out"), 1),
                                           (("in",) * 4, 0), (("out",) * 4, 0),
                                           (("loc", "in", "out", "loc"), 3)],
                         ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
def test_each_configuration_is_computed_once(labels, built, packets4, params, fam_quad):
    # spy on the work eval_FG_n starts: one shell_integral per balanced
    # configuration, a static on-shell sum (_onshell_sum at legs 0 and 3,
    # _lone_leg_term at 1 and 2) per loc leg, and nothing of the k-space fold
    ev = StructureEvaluator(params, quad=QuadratureSettings(inner_nodes=12))
    builds, folded = [], []

    def spy(module, name, log):
        def counted(*args, **kw):
            log.append(name)
            return original(*args, **kw)
        original = getattr(module, name)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formfactor, "shell_integral", spy(formfactor, "shell_integral", builds))
        for name in ("_onshell_sum", "_lone_leg_term"):
            mp.setattr(structure, name, spy(structure, name, builds))
        for name in ("reduced_integrand", "pv_fold"):
            mp.setattr(structure, name, spy(structure, name, folded))
        eval_FG_n(list(labels), list(packets4), ev)
        eval_F_n(list(labels), list(packets4), ev, fam_quad)
    assert len(builds) == 2 * built
    assert builds.count("shell_integral") == 2 * ("in" in labels and "out" in labels)
    assert folded == []


def test_formfactor_binds_no_quadrature_helper():
    # Gauss rules live in kinematics (formfactor's free legs take packet_rule,
    # no Gauss-Legendre rule); leg terms and the PV fold stay in structure
    for name in ("reduced_integrand", "pv_fold", "gauss_rule", "gauss_panels"):
        assert not hasattr(formfactor, name)


def test_two_point_labels(pair, ev, ev_rho):
    a, b = pair
    # loc-loc keeps the continuum
    assert eval_FG_n(["loc", "loc"], [a, b], ev_rho) == eval_Ghat_2([a, b], ev_rho)
    # mixed labels: the cutoff window excludes the continuum entirely
    v0 = eval_FG_n(["in", "out"], [a, b], ev)
    v1 = eval_FG_n(["in", "out"], [a, b], ev_rho)
    assert v0 == v1
    assert abs(v0 - eval_Ghat_2([a, b], ev)) < 1e-14
    # while loc-loc does see it
    dv = eval_FG_n(["loc", "loc"], [a, b], ev_rho) - eval_FG_n(["loc", "loc"], [a, b], ev)
    assert abs(dv) > 1e-5


def test_label_and_arity_validation(pair, ev):
    with pytest.raises(ValueError):
        eval_FG_n(["loc", "bad"], list(pair), ev)
    with pytest.raises(ValueError):
        eval_FG_n(["loc"], list(pair), ev)
    with pytest.raises(ValueError):
        eval_FG_n(["loc"], [pair[0]], ev)


def test_order5_shell_configurations_are_refused(packets4, ev):
    # configuration b = 2 of (in, in, out, out, out) balances, and order 5
    # has no validated leg order for it; uniform labels compute nothing
    packets = [*packets4, packets4[3]]
    with pytest.raises(NotImplementedError, match="n = 4"):
        eval_FG_n(["in", "in", "out", "out", "out"], packets, ev)
    assert eval_FG_n(["in"] * 5, packets, ev) == 0j


def test_order3_scattering_formfactor_vanishes(trio_scatter, ev):
    # 2 -> 1 on-shell phase space is empty in d = 2
    assert eval_FG_n(["in", "in", "out"], list(trio_scatter), ev) == 0.0


def test_amplitude_order3_vanishes(trio_scatter, ev):
    pin1, pin2, p3 = trio_scatter
    req = AmplitudeRequest(r=2, in_packets=(pin1, pin2), out_packets=(p3,))
    assert smatrix_amplitude(req, ev) == 0.0


def test_amplitude_vs_independent_oracle(packets4, ev):
    pin1, pin2, pout1, pout2 = packets4
    req = AmplitudeRequest(r=2, in_packets=(pin1, pin2), out_packets=(pout1, pout2))
    val = smatrix_amplitude(req, ev)
    # 2.3e-8 at the defaults; the 40-node Legendre rule read 1.3e-3
    assert abs(val - AMP4_ORACLE) < 1e-6 * abs(AMP4_ORACLE)
    refined = smatrix_amplitude(req, ev.refined(), None)
    assert abs(refined - AMP4_ORACLE) < 1e-6 * abs(AMP4_ORACLE)
    # purely imaginary for real packets and trivial weight
    assert abs(val.real) < 1e-15 * abs(val)


def test_amplitude_symmetric_under_in_packet_swap(packets4, ev):
    pin1, pin2, pout1, pout2 = packets4
    a = smatrix_amplitude(AmplitudeRequest(2, (pin1, pin2), (pout1, pout2)), ev)
    b = smatrix_amplitude(AmplitudeRequest(2, (pin2, pin1), (pout1, pout2)), ev)
    c = smatrix_amplitude(AmplitudeRequest(2, (pin1, pin2), (pout2, pout1)), ev)
    assert abs(a - b) < 1e-10 * abs(a)
    assert abs(a - c) < 1e-10 * abs(a)


def test_formfactor_matches_amplitude(packets4, ev):
    F = eval_FG_n(["in", "in", "out", "out"], list(packets4), ev)
    assert abs(F - AMP4_ORACLE) < 5e-3 * abs(AMP4_ORACLE)


def _legendre_amplitude(req, ev, fam, nodes):
    """smatrix_amplitude on the rule it used before the packet rules, kept as
    an oracle that shares no rule with either path of criterion 9: each free
    leg on Gauss-Legendre nodes over its packet's support, a block of 64 of
    the first leg's nodes at a time."""
    packets, n = req.packets, req.n
    (x0, w0), *rest = [gauss_panels(packets[l].support_interval(1), nodes) for l in range(n - 2)]
    total = 0.0 + 0.0j
    for s in range(0, nodes, 64):
        axes = [x0[s:s + 64], *(x for x, _ in rest)]
        weight = np.prod(np.meshgrid(w0[s:s + 64], *(w for _, w in rest), indexing="ij"), axis=0)
        p = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        ks, dens, valid = complete_configurations(p, shell_signs(n, req.r), ev.params.m)
        vals = np.prod([packets[l](ks[..., l, :]) for l in range(n)], axis=0)
        vals = vals / np.prod([2.0 * np.abs(ks[..., l, 0]) for l in range(n - 2)], axis=0)
        if fam is not None:
            vals = vals * fam.member(n)(ks)
        total += np.sum(weight * np.where(valid, vals / np.where(valid, dens, 1.0), 0.0).sum(-1))
    return complex(2j * np.pi * total)


@pytest.mark.parametrize("case", ["packets4", "translated", "derivative"])
def test_amplitude_matches_the_refined_legendre_rule(case, packets4, ev, fam_quad):
    # under fam_quad, the free legs on their packet rules (24 nodes) against
    # 1,280 Legendre nodes per leg, relative: 1.5e-7 on packets4, 2.4e-6 with
    # legs 0 and 1 translated (32 nodes: 1.7e-8), 5.0e-6 differentiated;
    # 40 Legendre nodes miss by 1.2e-3, 6.5e-3 and 1.8e-2. On the derivative
    # packets the reference itself spreads by 2.7e-6 (1,000 against 1,280
    # nodes): the solved pair's density is singular where its roots merge
    packets = list(packets4)
    if case == "translated":
        packets[:2] = [WavePacket(p.center, p.width, p.poly, np.array(a, dtype=float))
                       for p, a in zip(packets, ((0.0, 3.0), (1.0, -3.6)))]
    elif case == "derivative":
        packets = [p.derivative(a) for p, a in zip(packets, (0, 1, 1, 0))]
    req = AmplitudeRequest(2, packets[:2], packets[2:])
    want = _legendre_amplitude(req, ev, fam_quad, 1280)
    tol = {"packets4": 1e-6, "translated": 5e-6, "derivative": 1e-5}[case]
    assert abs(smatrix_amplitude(req, ev, fam_quad) - want) <= tol * abs(want)
    assert abs(_legendre_amplitude(req, ev, fam_quad, 40) - want) > 1e-3 * abs(want)


def test_weighted_two_path_agreement(packets4, ev, fam_quad):
    pin1, pin2, pout1, pout2 = packets4
    req = AmplitudeRequest(2, (pin1, pin2), (pout1, pout2))
    FM = eval_F_n(["in", "in", "out", "out"], list(packets4), ev, fam_quad)
    ampM = smatrix_amplitude(req, ev.refined(), fam_quad)
    assert abs(FM - ampM) < 5e-3 * abs(ampM)


def test_hermiticity_involution(trio, ev):
    # value(f^*) = conj(value(f)) with legs reversed, packets involuted and
    # labels kept in reversed order
    for labels in (["loc", "out", "out"], ["loc", "in", "out"], ["in", "loc", "out"]):
        F = eval_FG_n(labels, list(trio), ev)
        Fs = eval_FG_n(list(reversed(labels)),
                       [p.involute() for p in reversed(trio)], ev)
        assert abs(F - np.conj(Fs)) <= 1e-12 * max(abs(F), 1e-300)


def test_hermiticity_involution_4pt(packets4, ev):
    labels = ["in", "in", "out", "out"]
    F = eval_FG_n(labels, list(packets4), ev)
    Fs = eval_FG_n(list(reversed(labels)),
                   [p.involute() for p in reversed(packets4)], ev)
    assert abs(F - np.conj(Fs)) <= 1e-12 * abs(F)


def test_amplitude_request_validation(packets4):
    pin1, pin2, pout1, pout2 = packets4
    with pytest.raises(ValueError):
        AmplitudeRequest(1, (pout1,), (pout2, pin1))  # wrong energy signs
    with pytest.raises(ValueError):
        AmplitudeRequest(2, (pin1, pin2), ())
    with pytest.raises(ValueError):
        AmplitudeRequest(1, (pin1, pin2), (pout1,))


def test_eval_F_n_requires_valid_family(packets4, ev):
    bad = TransferFamily({2: TransferPolynomial.constant(2, 2.0)}, l_max=2)
    with pytest.raises(ValueError):
        eval_F_n(["in", "in", "out", "out"], list(packets4), ev, bad)
    with pytest.raises(ValueError):
        eval_F_n(["in", "out"], list(packets4[:2]), ev, None)


def _onshell_leg_term_per_node(j, sign, packets, ev, weight=None):
    """The order-4 on-shell leg term one k1 node at a time, k1 and the free
    leg on their packets' Gauss-Hermite rules."""
    pk = packets[j]
    g = reduced_integrand(j, packets, ev, weight=weight)
    ugrid = packet_rule(packets[g.free_leg], ev.quad.inner_nodes)
    k1n, k1w = packet_rule(pk, ev.quad.inner_nodes)
    total = 0.0 + 0.0j
    for k1, wk in zip(k1n, k1w):
        w = float(omega(k1, ev.params.m))
        kj = np.array([sign * w, k1])
        v = g(np.array(sign * w), np.array(k1), ugrid)
        total += wk * complex(v) * complex(pk(kj)) / (2.0 * w)
    return total


@pytest.mark.parametrize("extras", ["plain", "weight"])
def test_batched_onshell_leg_term_equals_per_node(extras, packets4, ev, fam_quad, shell_atom):
    # the shell atoms as configuration integrals against the fold's g_j, one
    # k1 node at a time, in the same leg variables
    weight = fam_quad.eval if extras == "weight" else None
    nonzero = 0
    for j in range(4):
        for sign in (1, -1):
            got = shell_atom(j, sign, list(packets4), ev, weight)
            want = _onshell_leg_term_per_node(j, sign, list(packets4), ev, weight)
            assert abs(got - want) <= 1e-14 * abs(want)
            nonzero += want != 0
    assert nonzero >= 2
