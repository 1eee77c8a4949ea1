"""The moment/cumulant transforms over the subsets of a point tuple."""
import numpy as np
import pytest

from qftscat.truncation import (
    KernelFunctional,
    apply_leg_multiplier,
    bilinear_from_functional,
    truncate,
    truncate_bilinear,
    untruncate,
)


def _random_functional(max_order, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(max_order + 1, 3)) + 1j * rng.normal(size=(max_order + 1, 3))

    def make(n):
        a, b, c = coeffs[n]

        def W_n(points):
            s = sum(points)
            p = 1.0
            for x in points:
                p *= np.sin(0.9 * x + 0.2 * n)
            return a + b * np.cos(s) + c * p

        return W_n

    return KernelFunctional(max_order, {n: make(n) for n in range(1, max_order + 1)})


def test_round_trip_identity():
    w = _random_functional(5, seed=0)
    back = untruncate(truncate(w))
    rng = np.random.default_rng(1)
    for n in range(1, 6):
        for _ in range(100):
            pts = tuple(rng.normal(size=n))
            a, b = w.eval(pts), back.eval(pts)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)


def test_round_trip_calls_each_raw_kernel_once_per_subset():
    calls = []

    def kernel(points):
        calls.append(points)
        return 1.0 + 0.25 * sum(points)

    w = KernelFunctional(5, dict.fromkeys(range(1, 6), kernel))
    back = untruncate(truncate(w))
    for n in range(1, 6):
        calls.clear()
        back.eval(tuple(0.1 * (i + 1) for i in range(n)))
        assert len(calls) <= 2**n - 1
        assert len(set(calls)) == len(calls)


def _benchmark_family(seed):
    """sin(0.7x + 0.3n) kernels; coefficients and 200 points per order from seed + 1."""
    rng = np.random.default_rng(seed + 1)
    coeffs = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))

    def make(n):
        a, b, c = coeffs[n]

        def W_n(points):
            p = 1.0
            for x in points:
                p *= np.sin(0.7 * x + 0.3 * n)
            return a + b * np.cos(sum(points)) + c * p

        return W_n

    points = [tuple(float(x) for x in rng.normal(size=n))
              for n in range(1, 5) for _ in range(200)]
    return KernelFunctional(4, {n: make(n) for n in range(1, 5)}), points


@pytest.mark.parametrize("seed", [6, 55])
def test_round_trip_is_compensated(seed):
    # plain partition sums miss 1e-12 here by cancellation (1.3e-12, 5.2e-12)
    w, points = _benchmark_family(seed)
    back = untruncate(truncate(w))
    for pts in points:
        a, b = w.eval(pts), back.eval(pts)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30), pts


def test_product_functional_has_vanishing_cumulants():
    # W_n = prod h(p_i) is the untruncation of the pure order-1 family
    def make(n):
        def W_n(points):
            prod = 1.0 + 0.0j
            for x in points:
                prod *= np.exp(0.3j * x) + 0.5
            return prod

        return W_n

    w = KernelFunctional(4, {n: make(n) for n in range(1, 5)})
    wt = truncate(w)
    rng = np.random.default_rng(2)
    for n in range(2, 5):
        pts = tuple(rng.normal(size=n))
        assert abs(wt.eval(pts)) < 1e-12


def test_truncation_commutes_with_leg_multipliers():
    w = _random_functional(4, seed=3)

    def a(p):
        return np.cos(0.4 * p) + 0.3j * p

    lhs = truncate(apply_leg_multiplier(w, a))
    rhs = apply_leg_multiplier(truncate(w), a)
    rng = np.random.default_rng(4)
    for n in range(1, 5):
        for _ in range(25):
            pts = tuple(rng.normal(size=n))
            x, y = lhs.eval(pts), rhs.eval(pts)
            assert abs(x - y) <= 1e-12 * max(abs(x), 1e-30)


def test_bilinear_embedding_compatibility():
    # truncation commutes with the concatenation embedding
    w = _random_functional(4, seed=5)
    wt = truncate(w)
    st = truncate_bilinear(bilinear_from_functional(w))
    rng = np.random.default_rng(6)
    for r in range(0, 5):
        for q in range(0, 5 - r):
            if r + q == 0:
                continue
            for _ in range(20):
                left = tuple(rng.normal(size=r))
                right = tuple(rng.normal(size=q))
                a = st.eval(left, right)
                b = wt.eval(left + right)
                assert abs(a - b) <= 1e-12 * max(abs(b), 1e-30)


def test_functional_errors():
    w = _random_functional(3, seed=9)
    with pytest.raises(ValueError):
        w.eval((1.0, 2.0, 3.0, 4.0))
    bad = KernelFunctional(3, {}, w0=1.0)
    with pytest.raises(ValueError):
        untruncate(bad)
    assert w.eval(()) == 0.0
    assert KernelFunctional(2, {}).eval((0.5,)) == 0.0
