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
from qftscat.kinematics import WavePacket, omega, packet_rule
from qftscat.structure import (
    QuadratureSettings,
    SpectralDensity,
    StructureEvaluator,
    eval_Ghat_2,
    eval_Ghat_n,
    leg_term,
    reduced_integrand,
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


def _per_atom_FG_n(labels, packets, ev, weight=None):
    """Oracle of eval_FG_n at order >= 3: every (leg, atom) term on its own,
    so each shell configuration's integral is computed once per atom that
    reaches it, in that atom's leg variables."""
    return sum(coefficient * leg_term(j, packets, ev, sign, weight=weight)
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


def test_configuration_sum_matches_per_atom_oracle(packets4, ev, fam_quad):
    # (in, in, out, out) reaches configuration b = 2 through the atoms (1, -1)
    # and (2, +1): the oracle's two copies differ by 2.0e-8 relative
    labels = ["in", "in", "out", "out"]
    for got, weight in ((eval_FG_n(labels, list(packets4), ev), None),
                        (eval_F_n(labels, list(packets4), ev, fam_quad), fam_quad.eval)):
        want = _per_atom_FG_n(labels, list(packets4), ev, weight)
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
    ev = StructureEvaluator(params, quad=QuadratureSettings(outer_nodes=8, inner_nodes=12))
    packets = [WavePacket(center=np.array([s * float(omega(k, params.m)) + d, k]), width=w)
               for s, k, d, w in zip((-1, -1, 1, 1), momenta, offsets, widths)]
    weight = fam_quad.eval if weighted else None
    for label in ("in", "out"):
        assert eval_FG_n([label] * 4, packets, ev, weight=weight) == 0j


def test_all_loc_reduces_to_structure_kernel(pair, trio, packets4, params, ev, fam_quad):
    assert eval_FG_n(["loc"] * 3, list(trio), ev) == eval_Ghat_n(list(trio), ev)
    # the Gram pairing equals, bitwise, the per-order routes it replaced; a
    # coarse k1 rule, since values are compared for equality, not accuracy
    coarse = StructureEvaluator(params, SpectralDensity.default_model(params),
                                QuadratureSettings(outer_nodes=8))
    for fam in (None, fam_quad):
        weight = None if fam is None else fam.eval
        loc = structure_pairing(coarse, fam=fam)
        assert loc(pair) == eval_Ghat_2(list(pair), coarse)
        for packets in (trio, packets4):
            assert loc(packets) == eval_Ghat_n(list(packets), coarse, weight=weight)
        for label in ("in", "out"):
            pairing = structure_pairing(coarse, label, fam)
            for packets in (pair, trio, packets4):
                labels = [label] * len(packets)
                if fam is None:
                    want = eval_FG_n(labels, list(packets), coarse)
                else:
                    want = eval_F_n(labels, list(packets), coarse, fam)
                assert pairing(packets) == want


@pytest.mark.parametrize("labels, built", [(("in", "in", "out", "out"), 1),
                                           (("in",) * 4, 0), (("out",) * 4, 0),
                                           (("loc", "in", "out", "loc"), 3)],
                         ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
def test_each_configuration_is_computed_once(labels, built, packets4, params):
    # spy on the leg terms eval_FG_n requests and on the work they start: a
    # reduced integrand per balanced configuration, a static on-shell sum
    # (_onshell_sum at legs 0 and 3, _lone_leg_term at 1 and 2) per loc leg
    ev = StructureEvaluator(params, quad=QuadratureSettings(outer_nodes=8, inner_nodes=12))
    requested, builds = [], []

    def spy_leg_term(j, packets, ev, sign=0, **kw):
        requested.append((j, sign))
        return leg_term(j, packets, ev, sign, **kw)

    def spy(name):
        def counted(j, *args, **kw):
            builds.append(j)
            return original(j, *args, **kw)
        original = getattr(structure, name)
        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formfactor, "leg_term", spy_leg_term)
        for name in ("reduced_integrand", "_onshell_sum", "_lone_leg_term"):
            mp.setattr(structure, name, spy(name))
        eval_FG_n(list(labels), list(packets4), ev)
    configurations = [b for b, sign in requested if sign]
    assert len(builds) == built
    assert len(set(configurations)) == len(configurations)
    assert all(sign in (0, 1) for _, sign in requested)


def test_formfactor_binds_no_quadrature_helper():
    # Gauss rules live in kinematics (formfactor maps its free legs with
    # gauss_panels); leg terms and the PV fold stay in structure
    for name in ("reduced_integrand", "pv_fold", "gauss_rule"):
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
    assert abs(val - AMP4_ORACLE) < 2e-3 * abs(AMP4_ORACLE)
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
def test_batched_onshell_leg_term_equals_per_node(extras, packets4, ev, fam_quad):
    weight = fam_quad.eval if extras == "weight" else None
    nonzero = 0
    for j in range(4):
        for sign in (1, -1):
            got = leg_term(j, list(packets4), ev, sign, weight=weight)
            want = _onshell_leg_term_per_node(j, sign, list(packets4), ev, weight)
            assert abs(got - want) <= 1e-14 * abs(want)
            nonzero += want != 0
    assert nonzero >= 2
