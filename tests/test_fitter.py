"""Bounded-energy phase-space sampling and invariant polynomial recovery."""
import itertools

import numpy as np
import pytest
from scipy import linalg

from qftscat import fitter
from qftscat.fitter import (
    FitConfig,
    _assemble_polynomial,
    build_family,
    fit_polynomial,
    recheck_constraints,
    reference_registry,
    sample_Qn,
)
from qftscat.kinematics import invariant_map, invariant_names, multi_indices
from qftscat.polymath import Poly
from qftscat.transfer import (
    TransferPolynomial,
    hermiticity_identity_check,
    is_permutation_symmetric,
    validate_condition41,
)


def _planted_sym4():
    terms1 = [({f"q{i + 1}{j + 1}": 1}, -0.3) for j in range(4) for i in range(j)]
    terms2 = [({f"q{i + 1}{j + 1}": 2}, 0.05) for j in range(4) for i in range(j)]
    return TransferPolynomial.from_terms(4, [({}, 0.4)] + terms1 + terms2)


@pytest.fixture(scope="module")
def sample4(params):
    cfg = FitConfig(e_max=4.0, epsilon=1e-3, train_count=1500, validate_count=400, seed=3)
    return cfg, sample_Qn(4, 2, cfg, params)


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(e_max=4.0, epsilon=0.0)
    with pytest.raises(ValueError):
        FitConfig(e_max=4.0, train_count=0)


def test_empty_above_energy_cap(params):
    cfg = FitConfig(e_max=4.0, seed=0)
    s = sample_Qn(5, 2, cfg, params)
    assert s.empty
    assert "empty" in s.diagnostics["reason"]


def test_sample_constraints_and_determinism(params, sample4):
    cfg, s = sample4
    assert not s.empty and s.points.shape == (1900, 4, 2)
    assert 0 < s.acceptance_rate <= 1
    mask = recheck_constraints(s.points, 2, cfg.e_max, params.m)
    assert mask.all()
    # sign pattern and energy cap explicitly
    assert np.all(s.points[:, :2, 0] < 0)
    assert np.all(s.points[:, 2:, 0] > 0)
    assert np.all(s.points[:, 2:, 0].sum(axis=-1) <= cfg.e_max * (1 + 1e-12))
    s2 = sample_Qn(4, 2, cfg, params)
    assert np.array_equal(s.points, s2.points)


def test_recheck_catches_corruption(params, sample4):
    cfg, s = sample4
    bad = s.points[:4].copy()
    bad[0, 0, 0] *= -1.0  # wrong sign
    bad[1, 1, 1] += 0.1  # breaks conservation and the shell
    assert not recheck_constraints(bad, 2, cfg.e_max, params.m)[:2].any()
    assert recheck_constraints(bad, 2, cfg.e_max, params.m)[2:].all()


def test_planted_degree2_exact_recovery(sample4):
    cfg, s = sample4
    planted = _planted_sym4()
    report = fit_polynomial(lambda pts: np.real(planted(pts)), s, cfg)
    assert report.passed and report.degree_used == 2
    assert report.symmetric_input
    assert report.achieved_sup_error < 1e-10
    assert report.symmetrized_sup_error < 1e-10


def test_constant_reference_degree0(params, sample4):
    cfg, s = sample4
    R = reference_registry(params)["constant"]
    report = fit_polynomial(R, s, cfg)
    assert report.passed and report.degree_used == 0
    assert report.achieved_sup_error < 1e-12


def test_exp_reference_fit_and_family(params, sample4):
    cfg, s = sample4
    R = reference_registry(params)["exp_q12"]
    report = fit_polynomial(R, s, cfg)
    assert report.passed
    assert not report.symmetric_input  # exp(-q12) is not permutation symmetric
    assert report.achieved_sup_error < 1e-3
    assert [h["degree"] for h in report.history] == list(range(report.degree_used + 1))
    fam = build_family({4: report}, l_max=2 * report.degree_used + 2)
    assert validate_condition41(fam)["passed"]
    assert hermiticity_identity_check(fam.member(4))
    ok, _ = is_permutation_symmetric(fam.member(4), tol=1e-9)
    assert ok


def test_fit_failure_is_reported_not_raised(params, sample4):
    cfg, s = sample4
    strict = FitConfig(e_max=4.0, epsilon=1e-12, max_degree=1,
                       train_count=1500, validate_count=400, seed=3)
    R = reference_registry(params)["exp_q12"]
    report = fit_polynomial(R, s, strict)
    assert not report.passed
    assert report.degree_used <= 1


def test_fit_requires_enough_points(params, sample4):
    cfg, s = sample4
    big = FitConfig(e_max=4.0, train_count=5000, validate_count=1000, seed=3)
    with pytest.raises(ValueError):
        fit_polynomial(reference_registry(params)["constant"], s, big)


def test_build_family_rejections(sample4, params):
    cfg, s = sample4
    planted = _planted_sym4()
    good = fit_polynomial(lambda pts: np.real(planted(pts)), s, cfg)
    with pytest.raises(ValueError):
        build_family({2: good}, l_max=4)
    with pytest.raises(ValueError):
        build_family({4: good}, l_max=1)  # planted weight has degree 4 per leg
    bad = fit_polynomial(reference_registry(params)["exp_q12"], s,
                         FitConfig(e_max=4.0, epsilon=1e-12, max_degree=1,
                                   train_count=1500, validate_count=400, seed=3))
    with pytest.raises(ValueError):
        build_family({4: bad}, l_max=10)


def test_sampler_argument_validation(params):
    cfg = FitConfig(e_max=6.0)
    with pytest.raises(ValueError):
        sample_Qn(2, 1, cfg, params)
    with pytest.raises(ValueError):
        sample_Qn(4, 4, cfg, params)
    with pytest.raises(ValueError):
        # (n, r) is checked before the empty-region shortcut (e_max < n m)
        sample_Qn(4, 4, FitConfig(e_max=3.0), params)


def _oracle_assemble_polynomial(n, coeffs, exps_list, vary_idx, centers, scales):
    """The term-by-term assembly from Poly products that the array expansion replaced."""
    ncoords = n * (n + 1) // 2
    shifted = []
    for i, ci, si in zip(vary_idx, centers, scales):
        shifted.append(
            Poly.variable(ncoords, i, 1.0 / si) + Poly.constant(ncoords, -ci / si)
        )
    total = Poly(ncoords)
    for coeff, exps in zip(coeffs, exps_list):
        if coeff == 0:
            continue
        term = Poly.constant(ncoords, coeff)
        for p, e in zip(shifted, exps):
            for _ in range(e):
                term = term * p
        total = total + term
    return TransferPolynomial(n, total)


def _assert_assembly_matches_oracle(args):
    got = _assemble_polynomial(*args).poly.terms
    want = _oracle_assemble_polynomial(*args).poly.terms
    assert set(got) == set(want)
    scale = max(abs(c) for c in want.values())
    assert max(abs(got[k] - c) for k, c in want.items()) <= 1e-13 * scale


@pytest.mark.parametrize("seed, degree", [(3, 6), (7, 8)])
def test_assembly_matches_oracle_on_cli_fits(params, monkeypatch, seed, degree):
    # the README/CLI fit of exp(-q12) at 400 + 100 points; seed 7 needs degree 8
    calls = []

    def spy(*args):
        calls.append(args)
        return _assemble_polynomial(*args)

    monkeypatch.setattr(fitter, "_assemble_polynomial", spy)
    cfg = FitConfig(e_max=4.0, epsilon=1e-3, train_count=400, validate_count=100, seed=seed)
    report = fit_polynomial(reference_registry(params)["exp_q12"], sample_Qn(4, 2, cfg, params),
                            cfg)
    assert report.degree_used == degree and len(calls) == 1
    _assert_assembly_matches_oracle(calls[0])


@pytest.mark.parametrize("n", [3, 4])
def test_assembly_matches_oracle_on_random_centres(n):
    rng = np.random.default_rng(40 + n)
    vary_idx = [j * (j + 1) // 2 + i for j in range(n) for i in range(j)]  # the q_ij, i < j
    for degree in range(6):
        exps_list = list(multi_indices(len(vary_idx), degree))
        coeffs = rng.normal(size=len(exps_list))
        centers = rng.normal(scale=2.0, size=len(vary_idx))
        scales = rng.uniform(0.3, 3.0, size=len(vary_idx))
        _assert_assembly_matches_oracle((n, coeffs, exps_list, vary_idx, centers, scales))


def _spread_test_predictions(R, sample, cfg, degree):
    """The fit before the rank test, as an oracle: every invariant that is not
    constant on the training points (the per-coordinate spread test), centred
    and scaled, and the minimum-norm least-squares fit in all its monomials of
    total degree <= degree. R must fail the symmetry probe (no permuted
    copies). Returns the predictions on the validation points."""
    pts_tr = sample.points[: cfg.train_count]
    pts_va = sample.points[cfg.train_count : cfg.train_count + cfg.validate_count]
    q_tr = invariant_map([pts_tr[:, l, :] for l in range(sample.n)])
    q_va = invariant_map([pts_va[:, l, :] for l in range(sample.n)])
    spread = q_tr.max(axis=0) - q_tr.min(axis=0)
    vary = [i for i in range(q_tr.shape[1])
            if spread[i] > 1e-9 * (1.0 + np.abs(q_tr[:, i]).max())]
    centers = q_tr[:, vary].mean(axis=0)
    scales = np.abs(q_tr[:, vary] - centers).max(axis=0)
    exps_list = list(multi_indices(len(vary), degree))
    A = fitter._basis_matrix((q_tr[:, vary] - centers) / scales, exps_list)
    col_scale = np.abs(A).max(axis=0)
    coeffs = np.linalg.lstsq(A / col_scale, R(pts_tr), rcond=None)[0] / col_scale
    return fitter._basis_matrix((q_va[:, vary] - centers) / scales, exps_list) @ coeffs


@pytest.mark.parametrize("seed", [3, 7])
def test_rank_test_fit_matches_spread_test_oracle(params, seed):
    # the CLI fit of exp(-q12) at 400 + 100 points; seed 7 needs degree 8,
    # where the spread test's basis has 3,003 columns and the rank test's 45
    cfg = FitConfig(e_max=4.0, epsilon=1e-3, train_count=400, validate_count=100, seed=seed)
    s = sample_Qn(4, 2, cfg, params)
    R = reference_registry(params)["exp_q12"]
    report = fit_polynomial(R, s, cfg)
    assert report.passed and len(report.coordinates) == 2
    pts_va = s.points[cfg.train_count :]
    for h in report.history:
        pred = _spread_test_predictions(R, s, cfg, h["degree"])
        oracle_err = np.max(np.abs(pred - R(pts_va)))
        assert abs(h["sup_error"] - oracle_err) <= 1e-9 * oracle_err
        assert h["rank"] <= h["basis_size"] == len(list(multi_indices(2, h["degree"])))
    raw = np.real(report.raw_polynomial(pts_va))
    assert np.max(np.abs(raw - pred)) <= 1e-8


def test_dropped_invariants_are_affine_in_kept(sample4):
    cfg, s = sample4
    q = invariant_map([s.points[:, l, :] for l in range(4)])
    kept = fitter._affine_coordinates(q)
    assert len(kept) == 2
    basis = np.column_stack([np.ones(q.shape[0]), q[:, kept]])
    assert np.linalg.matrix_rank(basis) == 3
    for i in sorted(set(range(q.shape[1])) - set(kept)):
        coeffs, *_ = np.linalg.lstsq(basis, q[:, i], rcond=None)
        residual = np.max(np.abs(basis @ coeffs - q[:, i]))
        assert residual <= 1e-9 * (1.0 + np.abs(q[:, i]).max())
    # the permuted copies a symmetric fit trains on keep the same two dimensions
    report = fit_polynomial(lambda pts: np.real(_planted_sym4()(pts)), s, cfg)
    assert report.symmetric_input and report.coordinates == ["q12", "q23"]


def _qr_oracle(q):
    """Columns kept by LAPACK's column-pivoted QR (geqp3) of the same centred,
    scaled columns, with the same 1e-9 cut on |R_kk|."""
    R, piv = linalg.qr((q - q.mean(axis=0)) / (1.0 + np.abs(q).max(axis=0)),
                       mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    return sorted(piv[: np.count_nonzero(diag > 1e-9 * diag[0])].tolist())


@pytest.mark.parametrize("seed", range(6))
def test_affine_coordinates_match_pivoted_qr_on_distinct_norms(seed):
    # 8 columns affine in 3 random directions, plus a constant one
    rng = np.random.default_rng(seed)
    q = 2.0 + rng.normal(size=(300, 3)) @ rng.normal(size=(3, 8)) * rng.uniform(0.1, 10.0, 8)
    q = np.column_stack([q, np.full(300, 1.5)])[:, rng.permutation(9)]
    kept = fitter._affine_coordinates(q)
    assert len(kept) == 3 and kept == _qr_oracle(q)


def _shell_invariants(params, seed, augmented):
    """Invariants of the 1500 training points of the README fit's 2->2 sample,
    or of their leg-permuted copies, as fit_polynomial builds them."""
    cfg = FitConfig(e_max=4.0, epsilon=1e-3, train_count=1500, validate_count=400, seed=seed)
    pts = sample_Qn(4, 2, cfg, params).points[: cfg.train_count]
    if augmented:
        perms = [list(S) + [l for l in range(4) if l not in S]
                 for S in itertools.combinations(range(4), 2)]
        pts = np.concatenate([pts[:, np.argsort(p), :] for p in perms])
    return invariant_map([pts[:, l, :] for l in range(4)])


@pytest.mark.parametrize("augmented", [False, True])
def test_affine_coordinates_on_the_shell_break_ties_by_lowest_index(params, augmented):
    names = invariant_names(4)
    # conservation makes q34 = q12, q24 = q13 and q14 = q23 on the 2->2 shell
    swap = list(range(len(names)))
    for a, b in (("q12", "q34"), ("q13", "q24"), ("q14", "q23")):
        i, j = names.index(a), names.index(b)
        swap[i], swap[j] = j, i
    for seed in range(3, 35):
        q = _shell_invariants(params, seed, augmented)
        kept, oracle = fitter._affine_coordinates(q), _qr_oracle(q)
        assert len(kept) == 2, seed
        basis = np.column_stack([np.ones(q.shape[0]), q[:, kept]])
        for i in oracle:
            coeffs, *_ = np.linalg.lstsq(basis, q[:, i], rcond=None)
            assert np.max(np.abs(basis @ coeffs - q[:, i])) <= 1e-9 * (1.0 + np.abs(q[:, i]).max())
        assert fitter._affine_coordinates(q[:, swap]) == kept, seed
        if seed in (3, 7):
            # the seeds of the README fit, the benchmark and the tests above
            assert kept == oracle, seed


def test_planted_in_dropped_invariants_recovered(sample4):
    cfg, s = sample4
    planted = TransferPolynomial.from_terms(4, [({"q34": 2}, 1.0), ({"q24": 1}, 1.0)])
    report = fit_polynomial(lambda pts: np.real(planted(pts)), s, cfg)
    assert not {"q34", "q24"} & set(report.coordinates)
    assert report.passed and report.degree_used == 2
    pts_va = s.points[cfg.train_count :]
    assert np.max(np.abs(np.real(report.raw_polynomial(pts_va)) - planted(pts_va).real)) <= 1e-10


def test_escalation_stops_before_basis_exceeds_half_the_training_points(params):
    cfg = FitConfig(e_max=4.0, epsilon=1e-3, train_count=10, validate_count=10, seed=3)
    report = fit_polynomial(reference_registry(params)["exp_q12"], sample_Qn(4, 2, cfg, params),
                            cfg)
    assert not report.passed and report.degree_used == 1
    assert [h["degree"] for h in report.history] == [0, 1, 2]
    assert all(2 * h["basis_size"] <= cfg.train_count for h in report.history[:-1])
    stop = report.history[-1]
    assert stop["basis_size"] == 6 and "sup_error" not in stop
    assert stop["stopped"] == "more basis columns than half the training points"


def test_negative_max_degree_rejected():
    with pytest.raises(ValueError):
        FitConfig(e_max=4.0, max_degree=-1)
