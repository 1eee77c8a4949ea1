"""Sparse multivariate polynomial helper."""
import numpy as np
import pytest

from qftscat.polymath import Poly

RNG = np.random.default_rng(11)


def _random_poly(nvars, nterms, rng):
    p = Poly(nvars)
    for _ in range(nterms):
        exps = tuple(rng.integers(0, 3, size=nvars))
        p = p + Poly(nvars, {exps: complex(rng.normal(), rng.normal())})
    return p


def test_arithmetic_matches_pointwise():
    p = _random_poly(3, 5, RNG)
    q = _random_poly(3, 4, RNG)
    x = RNG.normal(size=(20, 3))
    assert np.allclose((p + q)(x), p(x) + q(x), atol=1e-12)
    assert np.allclose((p * q)(x), p(x) * q(x), atol=1e-10)
    assert np.allclose((2.5 * p)(x), 2.5 * p(x), atol=1e-12)


def test_diff_matches_finite_difference():
    p = _random_poly(2, 6, RNG)
    x = RNG.normal(size=(10, 2))
    h = 1e-6
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = h
        fd = (p(x + dx) - p(x - dx)) / (2 * h)
        assert np.allclose(p.diff(i)(x), fd, atol=1e-5, rtol=1e-5)


def test_negate_vars_and_conj():
    p = _random_poly(2, 6, RNG)
    x = RNG.normal(size=(10, 2))
    assert np.allclose(p.negate_vars()(x), p(-x), atol=1e-12)
    assert np.allclose(p.conj()(x), np.conj(p(np.asarray(x))), atol=1e-12)


def test_constructors_and_predicates():
    c = Poly.constant(3, 2.0)
    assert c.is_constant() and c.constant_value() == 2.0 and c.is_real()
    v = Poly.variable(3, 1, 1.0)
    assert v.terms == {(0, 1, 0): 1.0} and not v.is_constant()
    z = Poly(2, {(1, 1): 1j})
    assert not z.is_real()
    assert z.is_real(tol=2.0)
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1.0})


def test_zero_coefficients_dropped():
    p = Poly(2, {(1, 0): 1.0}) + Poly(2, {(1, 0): -1.0})
    assert p.terms == {}


def test_equality():
    p = Poly(2, {(2, 0): 1.5}) + Poly.constant(2, 1.0)
    q = Poly.constant(2, 1.0) + Poly(2, {(2, 0): 1.5})
    assert p == q


def _term_by_term(p, x):
    """Poly.__call__ as it was before powers were shared: every term takes its
    own powers, full(c) * x_i^e * ... in variable order, then out += term."""
    x = np.asarray(x)
    out = np.zeros(x.shape[:-1], dtype=complex)
    for exps, c in p.terms.items():
        term = np.full(x.shape[:-1], c, dtype=complex)
        for i, e in enumerate(exps):
            if e:
                term = term * x[..., i] ** e
        out += term
    return out


def _repeated_powers_poly():
    """Ten variables, 40 terms drawing exponents from {0, 1, 2, 3}, so most
    powers x_i^e appear in several terms."""
    rng = np.random.default_rng(24)
    terms = {tuple(int(e) for e in rng.integers(0, 4, size=10) * (rng.random(10) < 0.4)):
             complex(*rng.normal(size=2)) for _ in range(40)}
    return Poly(10, terms)


@pytest.mark.parametrize("which", ["repeated", "sparse_M4", "constant", "empty"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_call_bitwise_equals_term_by_term(which, kind, fam_quad):
    p = {"repeated": _repeated_powers_poly(), "sparse_M4": fam_quad.member(4).poly,
         "constant": Poly.constant(10, 0.5 - 2j), "empty": Poly(10)}[which]
    rng = np.random.default_rng(5)
    x = rng.normal(scale=1.5, size=(7, 33, 10))
    if kind == "complex":
        x = x + 1j * rng.normal(size=x.shape)
    assert np.array_equal(p(x), _term_by_term(p, x))
    assert np.array_equal(p(x[0, 0]), _term_by_term(p, x[0, 0]))


def test_bitwise_cases_cover_shared_and_unshared_powers(fam_quad):
    # M_4 has six terms q_ij^2, no power shared; the random polynomial shares most
    p = fam_quad.member(4).poly
    assert len(p.terms) == 6 and all(sorted(e) == [0] * 9 + [2] for e in p.terms)
    p2 = _repeated_powers_poly()
    needed = {(i, e) for exps in p2.terms for i, e in enumerate(exps) if e}
    assert 2 * len(needed) < sum(1 for exps in p2.terms for e in exps if e)


def test_basis_matrix_bitwise_equals_per_column():
    from qftscat.fitter import _basis_matrix

    rng = np.random.default_rng(6)
    qs = rng.normal(size=(50, 4))
    exps_list = [tuple(int(e) for e in row) for row in rng.integers(0, 4, size=(30, 4))]
    exps_list = [(0, 0, 0, 0)] + exps_list
    reference = np.empty((50, len(exps_list)))
    for c, exps in enumerate(exps_list):
        col = np.ones(50)
        for i, e in enumerate(exps):
            if e:
                col = col * qs[:, i] ** e
        reference[:, c] = col
    assert np.array_equal(_basis_matrix(qs, exps_list), reference)


def test_call_is_float64_exactly_for_real_coefficients_and_points():
    # the real values are the complex path's real parts bit for bit: a
    # product with a zero imaginary part rounds as the real product
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 7, 3))
    real = Poly(3, {(1, 0, 2): 0.5, (0, 1, 0): -2, (0, 0, 0): np.float64(1.5)})
    as_complex = Poly(3, {e: complex(c) for e, c in real.terms.items()})
    assert real(x).dtype == np.float64 and Poly(3)(x).dtype == np.float64
    for p, pts in [(as_complex, x), (real, x + 0j), (Poly.constant(3, 1 + 0j), x),
                   (Poly.constant(3, np.complex128(2)), x)]:
        assert p(pts).dtype == np.complex128
    want = as_complex(x)
    assert np.all(want.imag == 0) and np.array_equal(real(x), want.real)


def test_on_grids_is_float64_exactly_for_real_coefficients_and_axes():
    # a real gemm sums as the complex one's real part up to rounding: within
    # 1e-15 of the largest value
    rng = np.random.default_rng(9)
    real = [Poly(2, {(2, 1): 0.7, (0, 3): -1.1}), Poly(2, {(1, 0): 2.0}), Poly.constant(2, 3)]
    as_complex = [Poly(2, {e: complex(c) for e, c in p.terms.items()}) for p in real]
    axes = [rng.normal(size=(3, 9)), rng.normal(size=(3, 5))]
    got, want = Poly.on_grids(real, axes), Poly.on_grids(as_complex, axes)
    assert got.dtype == np.float64 and want.dtype == np.complex128
    assert Poly.on_grids(real, [axes[0], axes[1] + 0j]).dtype == np.complex128
    assert np.all(want.imag == 0)
    assert np.max(np.abs(got - want.real)) <= 1e-15 * np.max(np.abs(want))
