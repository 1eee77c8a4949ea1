"""Invariant transfer polynomials: symmetry, validation, serialization."""
import numpy as np
import pytest

from qftscat.kinematics import boost_matrix, minkowski_dot
from qftscat.transfer import (
    TransferFamily,
    TransferPolynomial,
    hermiticity_identity_check,
    is_permutation_symmetric,
    permute_legs,
    symmetrize_realify,
    validate_condition41,
)

RNG = np.random.default_rng(21)


def test_constant_and_q12_evaluation():
    c = TransferPolynomial.constant(3, 2.5)
    ks = RNG.normal(size=(4, 3, 2))
    assert np.allclose(c(ks), 2.5)
    p = TransferPolynomial.from_terms(3, [({"q12": 1}, 1.0)])
    expected = minkowski_dot(ks[:, 0, :], ks[:, 1, :])
    assert np.allclose(p(ks), expected, atol=1e-12)
    k1 = np.array([1.0, 0.0])
    assert np.isclose(complex(p(np.stack([k1, k1, k1]))), 1.0)


def test_lorentz_invariance_is_structural():
    p = TransferPolynomial.from_terms(
        4, [({"q12": 2}, 0.3), ({"q13": 1, "q24": 1}, -0.7), ({"q11": 1}, 1.1)]
    )
    ks = RNG.normal(size=(8, 4, 2))
    L = boost_matrix(2, 0.9)
    assert np.allclose(p(ks @ L.T), p(ks), atol=1e-10)


def test_permute_legs_action():
    p = TransferPolynomial.from_terms(3, [({"q12": 1}, 1.0)])
    q = permute_legs(p, (2, 0, 1))  # leg 0 -> 2, leg 1 -> 0: q12 -> q13
    ks = RNG.normal(size=(6, 3, 2))
    expected = minkowski_dot(ks[:, 2, :], ks[:, 0, :])
    assert np.allclose(q(ks), expected, atol=1e-12)


def test_symmetrize_and_symmetry_check():
    p = TransferPolynomial.from_terms(3, [({"q12": 1}, 6.0 + 1.0j)])
    ok, witness = is_permutation_symmetric(p)
    assert not ok and witness is not None
    s = symmetrize_realify(p)
    ok2, _ = is_permutation_symmetric(s, tol=1e-14)
    assert ok2 and s.is_real()
    # average of 6 real copies of q12 over pairs {12, 13, 23}, each hit twice
    ks = RNG.normal(size=(5, 3, 2))
    manual = 2.0 * (
        minkowski_dot(ks[:, 0, :], ks[:, 1, :])
        + minkowski_dot(ks[:, 0, :], ks[:, 2, :])
        + minkowski_dot(ks[:, 1, :], ks[:, 2, :])
    )
    assert np.allclose(np.real(s(ks)), manual, atol=1e-10)


def test_per_argument_degrees():
    p = TransferPolynomial.from_terms(3, [({"q11": 1, "q12": 1}, 1.0), ({"q23": 2}, 1.0)])
    assert p.per_argument_degrees() == [3, 2, 2]


def test_json_round_trip_exact():
    p = TransferPolynomial.from_terms(
        4, [({"q12": 2, "q34": 1}, 0.125), ({}, -3.0), ({"q14": 1}, 2.0)]
    )
    q = TransferPolynomial.from_json(p.to_json())
    assert q.poly.terms == p.poly.terms
    assert q.to_json() == p.to_json()


def test_family_defaults_and_identity():
    fam = TransferFamily.identity()
    assert fam.member(5).poly.is_constant()
    ks = RNG.normal(size=(3, 5, 2))
    assert np.allclose(fam.eval(ks), 1.0)


def test_validate_condition41_passes():
    sym3 = TransferPolynomial.from_terms(
        3, [({"q12": 1}, 1.0), ({"q13": 1}, 1.0), ({"q23": 1}, 1.0)]
    )
    fam = TransferFamily({2: TransferPolynomial.constant(2, 1.0), 3: sym3}, l_max=2)
    report = validate_condition41(fam)
    assert report["passed"] and report["violations"] == []


def test_validate_condition41_violations_with_witness():
    bad_m2 = TransferFamily({2: TransferPolynomial.constant(2, 2.0)}, l_max=2)
    r = validate_condition41(bad_m2)
    assert not r["passed"] and any(v["clause"] == "I2" for v in r["violations"])

    asym = TransferFamily(
        {2: TransferPolynomial.constant(2, 1.0),
         3: TransferPolynomial.from_terms(3, [({"q12": 1}, 1.0)])}, l_max=2)
    r = validate_condition41(asym)
    bad = [v for v in r["violations"] if v["clause"] == "I1"]
    assert bad and "witness_permutation" in bad[0]

    cplx = TransferFamily(
        {2: TransferPolynomial.constant(2, 1.0),
         3: TransferPolynomial.from_terms(3, [({}, 1.0 + 2.0j)])}, l_max=2)
    r = validate_condition41(cplx)
    assert any(v["clause"] == "I2" and "witness_coeff" in v for v in r["violations"])

    highdeg = TransferFamily(
        {2: TransferPolynomial.constant(2, 1.0),
         3: symmetrize_realify(TransferPolynomial.from_terms(3, [({"q12": 3}, 1.0)]))},
        l_max=2)
    r = validate_condition41(highdeg)
    assert any(v["clause"] == "I4" for v in r["violations"])


def test_hermiticity_identity_check():
    sym = symmetrize_realify(TransferPolynomial.from_terms(3, [({"q12": 1}, 1.0)]))
    assert hermiticity_identity_check(sym)
    # real but not reversal-invariant: q11 at order 2 maps to q22 under reversal
    asym = TransferPolynomial.from_terms(2, [({"q11": 1}, 1.0)])
    assert not hermiticity_identity_check(asym)


def test_from_terms_unknown_coordinate():
    with pytest.raises(ValueError):
        TransferPolynomial.from_terms(2, [({"q13": 1}, 1.0)])
