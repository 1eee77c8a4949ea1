"""Set-partition combinatorics and moment/cumulant transforms on kernel families.

A kernel functional is a finite family of point-evaluable n-point kernels.
The connected (truncated) family is obtained by Mobius-style recursion over
set partitions; untruncation is the forward sum over partitions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

MAX_PARTITION_N = 12
DEFAULT_MAX_ORDER = 6


@dataclass(frozen=True)
class Partition:
    """Partition of (1,...,n) into disjoint blocks, natural order inside blocks."""

    blocks: tuple
    n: int

    def __post_init__(self):
        seen = []
        for b in self.blocks:
            if list(b) != sorted(b):
                raise ValueError("block not in natural order")
            seen.extend(b)
        if sorted(seen) != list(range(1, self.n + 1)):
            raise ValueError("blocks must partition 1..n")


@lru_cache(maxsize=None)
def _partitions_tuple(n: int):
    """All partitions of (1..n) as tuples of tuples (restricted growth strings)."""
    if n == 0:
        return ((),)
    out = []
    for prev in _partitions_tuple(n - 1):
        for i in range(len(prev)):
            out.append(prev[:i] + (prev[i] + (n,),) + prev[i + 1 :])
        out.append(prev + ((n,),))
    return tuple(out)


def enumerate_partitions(n: int):
    """Every partition of (1,...,n) exactly once; count = Bell(n)."""
    if not 1 <= n <= MAX_PARTITION_N:
        raise ValueError(f"n must be in 1..{MAX_PARTITION_N}")
    return [Partition(blocks=b, n=n) for b in _partitions_tuple(n)]


def bell_number(n: int) -> int:
    if n == 0:
        return 1
    return len(_partitions_tuple(n))


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


def untruncate(wt: KernelFunctional) -> KernelFunctional:
    """Assemble W(1..n) = sum over partitions of products of W^T(blocks)."""
    if wt.w0 != 0:
        raise ValueError("truncated functional must have vanishing scalar part")

    def make(n):
        def W_n(points):
            total = 0.0j
            for part in _partitions_tuple(n):
                prod = 1.0 + 0.0j
                for block in part:
                    prod *= wt.eval(tuple(points[i - 1] for i in block))
                    if prod == 0:
                        break
                total += prod
            return total

        return W_n

    kernels = {n: make(n) for n in range(1, wt.max_order + 1)}
    return KernelFunctional(wt.max_order, kernels, w0=0.0)


def truncate(w: KernelFunctional) -> KernelFunctional:
    """Invert untruncate: W^T(1..n) = W(1..n) - sum over proper partitions."""

    def wt_eval(points, idx, _cache):
        # memoize on the index subset; argument points may be unhashable
        if idx in _cache:
            return _cache[idx]
        val = w.eval(tuple(points[i] for i in idx))
        for part in _partitions_tuple(len(idx)):
            if len(part) == 1:
                continue
            prod = 1.0 + 0.0j
            for block in part:
                prod *= wt_eval(points, tuple(idx[i - 1] for i in block), _cache)
                if prod == 0:
                    break
            val -= prod
        _cache[idx] = val
        return val

    def make(n):
        def WT_n(points):
            points = tuple(points)
            return wt_eval(points, tuple(range(n)), {})

        return WT_n

    kernels = {n: make(n) for n in range(1, w.max_order + 1)}
    return KernelFunctional(w.max_order, kernels, w0=0.0)


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
    """Family S_{r,q} of (r+q)-point kernels, r+q <= max_order.

    components[(r, q)] is a callable taking (left points, right points).
    """

    def __init__(self, max_order: int = DEFAULT_MAX_ORDER, components=None, s00=0.0):
        self.max_order = int(max_order)
        self.components = dict(components or {})
        self.s00 = complex(s00)

    def eval(self, left, right) -> complex:
        left, right = tuple(left), tuple(right)
        r, q = len(left), len(right)
        if r == 0 and q == 0:
            return self.s00
        if r + q > self.max_order:
            raise ValueError("order exceeds max_order")
        k = self.components.get((r, q))
        return complex(k(left, right)) if k is not None else 0.0j


def untruncate_bilinear(st: BilinearKernel) -> BilinearKernel:
    """S(1..n; n+1..n+m) = sum over partitions of (1..n+m) of prod S^T(block splits)."""
    if st.s00 != 0:
        raise ValueError("truncated bilinear must have vanishing scalar part")

    def make(r, q):
        def S_rq(left, right):
            pts = tuple(left) + tuple(right)
            total = 0.0j
            for part in _partitions_tuple(r + q):
                prod = 1.0 + 0.0j
                for block in part:
                    lo = tuple(pts[i - 1] for i in block if i <= r)
                    hi = tuple(pts[i - 1] for i in block if i > r)
                    prod *= st.eval(lo, hi)
                    if prod == 0:
                        break
                total += prod
            return total

        return S_rq

    comps = {
        (r, q): make(r, q)
        for r in range(st.max_order + 1)
        for q in range(st.max_order + 1 - r)
        if r + q >= 1
    }
    return BilinearKernel(st.max_order, comps, s00=0.0)


def truncate_bilinear(s: BilinearKernel) -> BilinearKernel:
    """Invert untruncate_bilinear by recursion over proper partitions."""

    def st_eval(pts, r_full, idx, _cache):
        # idx: indices (0-based) into pts; positions < r_full are left legs
        if idx in _cache:
            return _cache[idx]
        lo = tuple(pts[i] for i in idx if i < r_full)
        hi = tuple(pts[i] for i in idx if i >= r_full)
        val = s.eval(lo, hi)
        for part in _partitions_tuple(len(idx)):
            if len(part) == 1:
                continue
            prod = 1.0 + 0.0j
            for block in part:
                prod *= st_eval(pts, r_full, tuple(idx[i - 1] for i in block), _cache)
                if prod == 0:
                    break
            val -= prod
        _cache[idx] = val
        return val

    def make(r, q):
        def ST_rq(left, right):
            pts = tuple(left) + tuple(right)
            return st_eval(pts, r, tuple(range(r + q)), {})

        return ST_rq

    comps = {
        (r, q): make(r, q)
        for r in range(s.max_order + 1)
        for q in range(s.max_order + 1 - r)
        if r + q >= 1
    }
    return BilinearKernel(s.max_order, comps, s00=0.0)


def bilinear_from_functional(w: KernelFunctional) -> BilinearKernel:
    """Concatenation embedding: S(left; right) = W(left + right)."""

    def make(r, q):
        def S_rq(left, right):
            return w.eval(tuple(left) + tuple(right))

        return S_rq

    comps = {
        (r, q): make(r, q)
        for r in range(w.max_order + 1)
        for q in range(w.max_order + 1 - r)
        if r + q >= 1
    }
    return BilinearKernel(w.max_order, comps, s00=w.w0)
