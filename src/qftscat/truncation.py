"""Moment/cumulant transforms on kernel families, over the subsets of one point tuple.

A kernel functional is a finite family of point-evaluable n-point kernels.
For one point tuple, a functional's values on all its sub-tuples form a table
keyed by subset bitmask. The connected (truncated) table is obtained from the
full one by Mobius recursion over set partitions, and untruncation is the
forward sum over partitions; both fill each entry once, on first read, with a
compensated sum.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice

DEFAULT_MAX_ORDER = 6


@lru_cache(maxsize=None)
def _partitions(mask: int) -> tuple:
    """Every set partition of the bits of mask, as tuples of block masks ordered
    by their lowest bit; the single block (mask,) comes first."""
    if mask == 0:
        return ((),)
    low = mask & -mask
    rest = mask ^ low
    out, sub = [], rest
    while True:
        out.extend(((low | sub),) + part for part in _partitions(rest ^ sub))
        if sub == 0:
            return tuple(out)
        sub = (sub - 1) & rest


def bell_number(n: int) -> int:
    return len(_partitions((1 << n) - 1))


def _mobius(mask: int, blocks, head: complex, sign: float) -> complex:
    """head + sign * (sum over partitions of mask into two or more blocks of the
    product of blocks[block]), summed with math.fsum per real and imaginary part.
    A product stops at its first zero block, so later blocks are not read."""
    re, im = [head.real], [head.imag]
    for part in islice(_partitions(mask), 1, None):
        prod = 1.0 + 0.0j
        for block in part:
            prod *= blocks[block]
            if prod == 0:
                break
        re.append(sign * prod.real)
        im.append(sign * prod.imag)
    return complex(math.fsum(re), math.fsum(im))


class _SubsetTable(dict):
    """Values on the sub-tuples of one point tuple, keyed by bitmask, each
    computed by entry(mask) on first read."""

    def __init__(self, entry):
        super().__init__()
        self.entry = entry

    def __missing__(self, mask):
        val = self[mask] = self.entry(mask)
        return val


class KernelFunctional:
    """Family {W_n}_{n<=N} of point-evaluable kernels plus a scalar W_0.

    kernels[n] is a callable taking a tuple of n argument points.
    Missing orders evaluate to 0.
    """

    def __init__(self, max_order: int = DEFAULT_MAX_ORDER, kernels=None, w0=0.0):
        self.max_order = int(max_order)
        self.kernels = dict(kernels or {})
        self.w0 = complex(w0)

    def eval(self, points) -> complex:
        points = tuple(points)
        n = len(points)
        if n == 0:
            return self.w0
        if n > self.max_order:
            raise ValueError(f"order {n} exceeds max_order {self.max_order}")
        k = self.kernels.get(n)
        return complex(k(points)) if k is not None else 0.0j

    def __call__(self, points) -> complex:
        return self.eval(points)

    def table(self, points) -> _SubsetTable:
        """This functional on every sub-tuple of points (order kept), by bitmask."""
        return _SubsetTable(lambda mask: self.eval(
            p for i, p in enumerate(points) if mask >> i & 1))


class _Transform(KernelFunctional):
    """Functional whose table is built from inner's table on the same points:
    entry(mask, inner table, own table) gives one entry."""

    def __init__(self, inner: KernelFunctional, entry):
        def whole(points):
            return self.table(points)[(1 << len(points)) - 1]

        super().__init__(inner.max_order, dict.fromkeys(range(1, inner.max_order + 1), whole))
        self.inner, self.entry = inner, entry

    def table(self, points) -> _SubsetTable:
        src = self.inner.table(points)
        own = _SubsetTable(lambda mask: self.entry(mask, src, own))
        return own


def truncate(w: KernelFunctional) -> KernelFunctional:
    """W^T(S) = W(S) - sum over partitions of S into two or more blocks of prod W^T."""
    return _Transform(w, lambda mask, full, wt: _mobius(mask, wt, full[mask], -1.0))


def untruncate(wt: KernelFunctional) -> KernelFunctional:
    """Assemble W(S) = sum over partitions of S of products of W^T(blocks)."""
    if wt.w0 != 0:
        raise ValueError("truncated functional must have vanishing scalar part")
    return _Transform(wt, lambda mask, conn, _own: _mobius(mask, conn, conn[mask], 1.0))


def apply_leg_multiplier(w: KernelFunctional, a) -> KernelFunctional:
    """Diagonal multiplier per argument: (W o A^tensor)_n = W_n * prod A(p_i)."""

    def make(n):
        def W_n(points):
            prod = 1.0 + 0.0j
            for p in points:
                prod *= a(p)
            return prod * w.eval(points) if prod != 0 else 0.0j

        return W_n

    kernels = {n: make(n) for n in range(1, w.max_order + 1)}
    return KernelFunctional(w.max_order, kernels, w0=w.w0)


class BilinearKernel:
    """Family S_{r,q} of (r+q)-point kernels, r+q <= max_order, as a view over
    a functional of (side, point) pairs, side 0 left and 1 right, whose every
    point tuple lists the left legs first."""

    def __init__(self, tagged: KernelFunctional):
        self.tagged = tagged

    def eval(self, left, right) -> complex:
        return self.tagged.eval(tuple((0, p) for p in left) + tuple((1, p) for p in right))


def truncate_bilinear(s: BilinearKernel) -> BilinearKernel:
    """S^T by the truncation core applied to (side, point)-tagged points."""
    return BilinearKernel(truncate(s.tagged))


def bilinear_from_functional(w: KernelFunctional) -> BilinearKernel:
    """Concatenation embedding: S(left; right) = W(left + right)."""

    def kernel(tagged):
        return w.eval(tuple(p for _, p in tagged))

    return BilinearKernel(KernelFunctional(
        w.max_order, dict.fromkeys(range(1, w.max_order + 1), kernel), w0=w.w0))
