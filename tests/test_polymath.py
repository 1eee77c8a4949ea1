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
