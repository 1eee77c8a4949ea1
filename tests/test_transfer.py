"""Invariant transfer polynomials: symmetry, validation, serialization."""
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qftscat.cli import _family, main
from qftscat.fitter import build_family
from qftscat.formfactor import AmplitudeRequest, eval_F_n, smatrix_amplitude
from qftscat.gns import structure_pairing
from qftscat.kinematics import invariant_index, invariant_names, minkowski_dot
from qftscat.polymath import Poly
from qftscat.transfer import (
    TransferFamily,
    TransferPolynomial,
    hermiticity_identity_check,
    _leg_columns,
    _term_arrays,
    is_permutation_symmetric,
    symmetrize_realify,
    validate_condition41,
)

RNG = np.random.default_rng(21)


def boost_matrix(rapidity):
    """Lorentz boost of 1+1 dimensional four-vectors."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return np.array([[ch, sh], [sh, ch]])


def test_constant_and_q12_evaluation():
    c = TransferPolynomial.constant(3, 2.5)
    ks = RNG.normal(size=(4, 3, 2))
    assert np.allclose(c(ks), 2.5)
    p = TransferPolynomial.from_terms(3, [({"q12": 1}, 1.0)])
    expected = minkowski_dot(ks[:, 0, :], ks[:, 1, :])
    assert np.allclose(p(ks), expected, atol=1e-12)
    k1 = np.array([1.0, 0.0])
    assert np.isclose(complex(p(np.stack([k1, k1, k1]))), 1.0)


def test_evaluation_is_float64_exactly_for_real_coefficients(fam_quad):
    # M_4's values are the complex path's real parts bit for bit
    ks = np.random.default_rng(22).normal(size=(6, 5, 4, 2))
    real = fam_quad.member(4)
    slow = TransferPolynomial(4, real.poly * Poly.constant(10, 1 + 0j))
    assert real(ks).dtype == fam_quad.eval(ks).dtype == np.float64
    assert slow(ks).dtype == TransferPolynomial.constant(4, 1 + 0j)(ks).dtype == np.complex128
    assert np.all(slow(ks).imag == 0) and np.array_equal(real(ks), slow(ks).real)


def test_lorentz_invariance_is_structural():
    p = TransferPolynomial.from_terms(
        4, [({"q12": 2}, 0.3), ({"q13": 1, "q24": 1}, -0.7), ({"q11": 1}, 1.1)]
    )
    ks = RNG.normal(size=(8, 4, 2))
    L = boost_matrix(0.9)
    assert np.allclose(p(ks @ L.T), p(ks), atol=1e-10)


def test_permute_legs_action():
    p = TransferPolynomial.from_terms(3, [({"q12": 1}, 1.0)])
    q = _oracle_permute_legs(p, (2, 0, 1))  # leg 0 -> 2, leg 1 -> 0: q12 -> q13
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
    text = json.dumps(p.to_json_dict(), sort_keys=True)
    q = TransferPolynomial.from_json_dict(json.loads(text))
    assert q.poly.terms == p.poly.terms
    assert json.dumps(q.to_json_dict(), sort_keys=True) == text


def test_family_defaults_and_identity():
    fam = TransferFamily({2: TransferPolynomial.constant(2, 1.0)}, 2)
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


def test_from_terms_sums_repeated_terms_as_poly_addition_did():
    terms = [({"q12": 1}, 0.1), ({}, 2.0), ({"q12": 1}, 0.2), ({"q13": 2}, 1.5),
             ({"q13": 2}, -1.5), ({"q23": 1}, 0.0), ({"q12": 1}, 1j), ({"q13": 2}, 0.25)]
    want = Poly(6)
    for degrees, coeff in terms:  # one Poly addition per term
        exps = [0] * 6
        for nm, deg in degrees.items():
            exps[invariant_names(3).index(nm)] = deg
        want = want + Poly(6, {tuple(exps): coeff})
    got = TransferPolynomial.from_terms(3, terms).poly.terms
    assert got == want.terms


def test_from_terms_unknown_coordinate():
    with pytest.raises(ValueError):
        TransferPolynomial.from_terms(2, [({"q13": 1}, 1.0)])


@pytest.mark.parametrize("deg", [-1, 1.5, 2.0, "2", True, None])
def test_from_terms_rejects_degrees_that_are_not_non_negative_integers(deg):
    # a Laurent term such as q12^-1 q13^-1 q23^-1 is no polynomial (condition 4.1)
    with pytest.raises(ValueError):
        TransferPolynomial.from_terms(3, [({}, 1.0), ({"q12": deg, "q13": 1}, 1.0)])
    assert TransferPolynomial.from_terms(
        3, [({"q12": np.int64(2), "q13": 0}, 1.0)]).poly.terms == {(0, 2, 0, 0, 0, 0): 1.0}


# The array implementations against the term-by-term ones they replaced, kept
# here as oracles.

def _oracle_permute_exponents(exps, sigma, n):
    out = [0] * len(exps)
    idx = 0
    for j in range(n):
        for i in range(j + 1):
            e = exps[idx]
            if e:
                out[invariant_index(sigma[i], sigma[j])] += e
            idx += 1
    return tuple(out)


def _oracle_permute_legs(p, sigma):
    terms = {}
    for exps, c in p.poly.terms.items():
        e2 = _oracle_permute_exponents(exps, sigma, p.n)
        terms[e2] = terms.get(e2, 0) + c
    return TransferPolynomial(p.n, Poly(p.ncoords, terms))


def _oracle_symmetrize_realify(p):
    perms = list(itertools.permutations(range(p.n)))
    acc = {}
    for sigma in perms:
        for exps, c in p.poly.terms.items():
            e2 = _oracle_permute_exponents(exps, sigma, p.n)
            acc[e2] = acc.get(e2, 0) + c
    scale = 1.0 / len(perms)
    terms = {e: float(np.real(c)) * scale for e, c in acc.items()}
    return TransferPolynomial(p.n, Poly(p.ncoords, terms))


def _oracle_is_permutation_symmetric(p, tol=0.0):
    for sigma in itertools.permutations(range(p.n)):
        q = _oracle_permute_legs(p, sigma)
        keys = set(p.poly.terms) | set(q.poly.terms)
        for k in keys:
            if abs(p.poly.terms.get(k, 0) - q.poly.terms.get(k, 0)) > tol:
                return False, sigma
    return True, None


def _oracle_per_argument_degrees(p):
    degs = [0] * p.n
    for exps in p.poly.terms:
        cur = [0] * p.n
        idx = 0
        for j in range(p.n):
            for i in range(j + 1):
                e = exps[idx]
                if e:
                    cur[i] += e
                    cur[j] += e
                idx += 1
        for l in range(p.n):
            degs[l] = max(degs[l], cur[l])
    return degs


def _oracle_validate_condition41(fam, rng=None, samples=32):
    rng = rng or np.random.default_rng(0)
    violations = []
    m2 = fam.member(2)
    if not (m2.poly.is_constant() and abs(m2.poly.constant_value() - 1.0) < 1e-15):
        violations.append({"clause": "I2", "detail": "M_2 != 1", "n": 2})
    for n, p in sorted(fam.members.items()):
        if p.n != n:
            violations.append({"clause": "structure", "detail": "order mismatch", "n": n})
            continue
        ok, witness = _oracle_is_permutation_symmetric(p, tol=1e-12)
        if not ok:
            violations.append(
                {"clause": "I1", "detail": "not permutation symmetric", "n": n,
                 "witness_permutation": [s + 1 for s in witness]}
            )
        if not p.is_real(tol=0.0):
            bad = next(c for c in p.poly.terms.values() if np.imag(c) != 0)
            violations.append(
                {"clause": "I2", "detail": "complex coefficient", "n": n,
                 "witness_coeff": [float(np.real(bad)), float(np.imag(bad))]}
            )
        degs = _oracle_per_argument_degrees(p)
        if max(degs, default=0) > fam.l_max:
            violations.append(
                {"clause": "I4", "detail": "per-argument degree exceeds bound", "n": n,
                 "witness_degrees": degs, "l_max": fam.l_max}
            )
        if ok and n <= 5:
            ks = rng.normal(size=(samples, n, 2))
            base = p(ks)
            for sigma in itertools.permutations(range(n)):
                v = p(ks[:, list(sigma), :])
                if np.max(np.abs(v - base)) > 1e-9 * max(1.0, np.max(np.abs(base))):
                    violations.append(
                        {"clause": "I1", "detail": "evaluation asymmetry", "n": n,
                         "witness_permutation": [s + 1 for s in sigma]}
                    )
                    break
    return {"passed": not violations, "violations": violations}


def _random_poly(n, terms, max_exp, rng, complex_coeffs=False):
    ncoords = n * (n + 1) // 2
    exps = rng.integers(0, max_exp + 1, size=(terms, ncoords))
    coeffs = rng.normal(size=terms)
    if complex_coeffs:
        coeffs = coeffs + 1j * rng.normal(size=terms)
    return TransferPolynomial(n, Poly(ncoords, dict(zip(map(tuple, exps.tolist()), coeffs))))


def _assert_same_terms(a, b, rel):
    assert set(a.poly.terms) == set(b.poly.terms)
    scale = max((abs(c) for c in b.poly.terms.values()), default=0.0)
    for k, c in b.poly.terms.items():
        assert abs(a.poly.terms[k] - c) <= rel * scale, (k, a.poly.terms[k], c)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_column_permutations_match_term_by_term_action(n):
    rng = np.random.default_rng(100 + n)
    for complex_coeffs in (False, True):
        p = _random_poly(n, 40 if n < 5 else 3, 3, rng, complex_coeffs)
        exps, coeffs = _term_arrays(p)
        for sigma in itertools.permutations(range(n)):
            rows = map(tuple, exps[:, _leg_columns(sigma, n)].tolist())
            q = TransferPolynomial(n, Poly(p.ncoords, dict(zip(rows, coeffs))))
            _assert_same_terms(q, _oracle_permute_legs(p, sigma), 0.0)
            assert list(q.poly.terms.values()) == list(p.poly.terms.values())
        s = symmetrize_realify(p)
        _assert_same_terms(s, _oracle_symmetrize_realify(p), 1e-15)
        assert s.per_argument_degrees() == _oracle_per_argument_degrees(s)
        assert p.per_argument_degrees() == _oracle_per_argument_degrees(p)
        for tol in (0.0, 1e-12):
            assert is_permutation_symmetric(p, tol) == _oracle_is_permutation_symmetric(p, tol)
            assert is_permutation_symmetric(s, tol) == _oracle_is_permutation_symmetric(s, tol)


def test_orbit_numbering_beyond_int64_codes_and_with_negative_exponents():
    rng = np.random.default_rng(3)
    big = _random_poly(5, 4, 40, rng)  # 41**15 distinct rows do not fit int64 codes
    neg = _random_poly(3, 20, 2, rng)
    neg = TransferPolynomial(3, Poly(6, {tuple(e - 1 for e in k): c
                                         for k, c in neg.poly.terms.items()}))
    for p in (big, neg, symmetrize_realify(neg)):
        _assert_same_terms(symmetrize_realify(p), _oracle_symmetrize_realify(p), 1e-15)
        assert is_permutation_symmetric(p) == _oracle_is_permutation_symmetric(p)


def test_symmetry_check_matches_on_near_symmetric_coefficients():
    # a symmetric polynomial with one coefficient nudged, or one small extra
    # term, by amounts either side of the tolerance: the witness (first failing
    # permutation in itertools order) must be the oracle's
    rng = np.random.default_rng(7)
    sym = symmetrize_realify(_random_poly(4, 12, 2, rng))
    key = sorted(sym.poly.terms)[3]
    lone = (0, 2, 0, 0, 1, 0, 0, 0, 0, 0)
    for delta in (5e-13, 1e-12, 2e-12, 1e-9):
        for extra in ({key: sym.poly.terms[key] + delta}, {lone: delta}):
            p = TransferPolynomial(4, Poly(10, {**sym.poly.terms, **extra}))
            for tol in (0.0, 1e-12):
                assert is_permutation_symmetric(p, tol) == \
                    _oracle_is_permutation_symmetric(p, tol)
    # sub-tolerance steps along a leg cycle that end at an absent term: only the
    # terms of p missing from the permuted copy show the asymmetry
    chain = TransferPolynomial.from_terms(3, [({"q13": 1}, 0.9e-12), ({"q23": 1}, 1.8e-12)])
    assert is_permutation_symmetric(chain, 1e-12) == (False, (1, 2, 0))
    assert _oracle_is_permutation_symmetric(chain, 1e-12) == (False, (1, 2, 0))
    empty = TransferPolynomial(3, Poly(6))
    assert is_permutation_symmetric(empty) == (True, None)
    assert empty.per_argument_degrees() == [0, 0, 0]
    assert symmetrize_realify(empty).poly.terms == {}


def _validation_families():
    one = TransferPolynomial.constant(2, 1.0)
    sym3 = TransferPolynomial.from_terms(
        3, [({"q12": 1}, 1.0), ({"q13": 1}, 1.0), ({"q23": 1}, 1.0)])
    q12 = TransferPolynomial.from_terms(3, [({"q12": 1}, 1.0)])
    # coefficients symmetric to 1e-12 but values not, through a degree-8 term
    tiny = TransferPolynomial.from_terms(3, [({}, 1.0), ({"q12": 8}, 1e-12)])
    sym5 = symmetrize_realify(TransferPolynomial.from_terms(5, [({"q12": 1, "q35": 1}, 1.0)]))
    return [
        TransferFamily({2: one}, 2),
        TransferFamily({2: one, 3: sym3}, l_max=2),
        TransferFamily({2: TransferPolynomial.constant(2, 2.0)}, l_max=2),
        TransferFamily({2: one, 3: q12}, l_max=2),
        TransferFamily({2: one, 3: q12}, l_max=1),  # criterion 3a's M_3 = q12
        TransferFamily({2: one, 3: TransferPolynomial.from_terms(3, [({}, 1.0 + 2.0j)])},
                       l_max=2),
        TransferFamily({2: one, 3: symmetrize_realify(
            TransferPolynomial.from_terms(3, [({"q12": 3}, 1.0)]))}, l_max=2),
        TransferFamily({2: one, 3: tiny}, l_max=16),
        TransferFamily({2: one, 5: sym5, 4: sym3}, l_max=2),
    ]


@pytest.mark.parametrize("index", range(len(_validation_families())))
def test_validate_condition41_matches_term_by_term_oracle(index):
    fam = _validation_families()[index]
    got = validate_condition41(fam)
    assert got == _oracle_validate_condition41(fam)
    if fam.l_max == 16:
        assert [v["detail"] for v in got["violations"]] == ["evaluation asymmetry"]


def test_pairings_study_validates_its_family_once(ev, packets4, fam_quad, validations):
    # a fresh family equal to fam_quad: the session fixture may carry its report already
    fam = TransferFamily(fam_quad.members, fam_quad.l_max)
    req = AmplitudeRequest(2, packets4[:2], packets4[2:])
    eval_F_n(("in", "in", "out", "out"), list(packets4), ev, fam)
    smatrix_amplitude(req, ev, fam)
    smatrix_amplitude(req, ev.refined(), fam)
    assert validations == [fam]


E08 = float(np.sqrt(0.8**2 + 1.0))
M4_LINEAR = {"n": 4, "terms": [{"degrees": {f"q{i}{j}": 1}, "coeff": 1.0 / 6.0}
                               for j in range(1, 5) for i in range(1, j)]}
ASYMMETRIC = {"n": 4, "terms": [{"degrees": {"q12": 1}, "coeff": 1.0}]}
TWO_POINT = [{"center": [-1.3, 0.4], "width": 0.3}, {"center": [1.3, -0.4], "width": 0.3}]
CLI_CONFIGS = {
    "amplitude": {"amplitude": {
        "packets_in": [{"center": [-E08, 0.8], "width": 0.25},
                       {"center": [-E08, -0.8], "width": 0.25}],
        "packets_out": [{"center": [E08, 0.8], "width": 0.25},
                        {"center": [E08, -0.8], "width": 0.25}],
        "transfer": M4_LINEAR}},
    "converge": {"converge": {"labels": ["in", "out"], "packets": TWO_POINT,
                              "t_grid": [1.0, 10.0], "orderings": [[0, 1]],
                              "transfer": M4_LINEAR}},
    "gram": {"gram": {"label": "in", "transfer": M4_LINEAR, "packets": [
        {"center": [float(np.sqrt(k * k + 1)), k], "width": 0.3} for k in (-0.3, 0.3)]}},
    "fit": {"fit": {"n": 4, "r": 2, "e_max": 4.0, "epsilon": 1e-3,
                    "train": 400, "validate": 100, "seed": 3, "reference": "exp_q12"}},
}


def _main(tmp_path, command, cfg):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps({"model": {"d": 2, "m": 1.0}, **cfg}))
    return main([command, "--config", str(path), "--out", str(tmp_path / command)])


@pytest.mark.parametrize("command", sorted(CLI_CONFIGS))
def test_cli_command_validates_its_family_once(tmp_path, command, validations):
    assert _main(tmp_path, command, CLI_CONFIGS[command]) == 0
    assert len(validations) == 1


def test_invalid_family_raises_at_every_call_site_on_every_use(ev, packets4, validations):
    req = AmplitudeRequest(2, packets4[:2], packets4[2:])
    sites = {
        "eval_F_n": lambda fam: eval_F_n(("in", "in", "out", "out"), list(packets4), ev, fam),
        "smatrix_amplitude": lambda fam: smatrix_amplitude(req, ev, fam),
        "structure_pairing": lambda fam: structure_pairing(ev, "in", fam),
    }
    bad = {}
    for site, call in sites.items():
        bad[site] = TransferFamily(
            {2: TransferPolynomial.constant(2, 1.0),
             4: TransferPolynomial.from_json_dict(ASYMMETRIC)}, l_max=2)
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid transfer family"):
                call(bad[site])
    # the failing report is kept: one validation per family, not per use
    assert validations == list(bad.values())
    # cli._family and build_family build a new family on every call
    fit = SimpleNamespace(passed=True, polynomial=TransferPolynomial.from_json_dict(ASYMMETRIC))
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid transfer family"):
            _family({**ASYMMETRIC, "l_max": None})
        with pytest.raises(ValueError, match="invalid transfer family"):
            build_family({4: fit}, l_max=2)


def test_invalid_transfer_block_is_a_config_error_on_every_run(tmp_path, capsys):
    cfg = {"amplitude": {**CLI_CONFIGS["amplitude"]["amplitude"], "transfer": ASYMMETRIC}}
    for _ in range(2):
        assert _main(tmp_path, "amplitude", cfg) == 1
        err = capsys.readouterr().err
        assert "config error: amplitude.transfer: invalid transfer family" in err


def test_families_and_polynomials_are_immutable(fam_quad):
    fam = TransferFamily(fam_quad.members, fam_quad.l_max)
    m4 = fam.member(4)
    key = next(iter(m4.poly.terms))
    assignments = [
        lambda: fam.members.__setitem__(4, TransferPolynomial.constant(4, 1.0)),
        lambda: setattr(fam, "members", {}),
        lambda: setattr(fam, "l_max", 3),
        lambda: setattr(m4, "poly", Poly.constant(10, 1.0)),
        lambda: setattr(m4, "n", 3),
        lambda: setattr(m4, "ncoords", 6),
        lambda: m4.poly.terms.__setitem__(key, 2.0),
        lambda: setattr(m4.poly, "terms", {}),
        lambda: setattr(m4.poly, "nvars", 3),
    ]
    for assign in assignments:
        with pytest.raises((AttributeError, TypeError)):
            assign()
    assert fam.members[4] is m4 and fam.l_max == 2 and m4.n == 4 and m4.poly.nvars == 10
    # the family copies its members: the caller's dict stays the caller's
    members = {2: TransferPolynomial.constant(2, 1.0)}
    fam = TransferFamily(members, 2)
    members[3] = TransferPolynomial.from_json_dict({**ASYMMETRIC, "n": 3})
    assert list(fam.members) == [2]
