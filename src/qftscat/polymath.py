"""Small immutable multivariate polynomial helper (exponent tuples -> coefficient).

Used for wave-packet polynomial prefactors (analytic derivatives of
Gaussian x polynomial) and as the backing store of transfer polynomials.
"""
from __future__ import annotations

import numbers
from types import MappingProxyType

import numpy as np


def monomials(x, terms, dtype):
    """full(c) * x_i^e * ... for each (exponent tuple, c) of the re-iterable terms, in
    variable order; each power x_i^e is taken once and kept until its last term."""
    left = {}
    for exps, _ in terms:
        for i, e in enumerate(exps):
            if e:
                left[i, e] = left.get((i, e), 0) + 1
    pw = {}
    for exps, c in terms:
        term = np.full(x.shape[:-1], c, dtype=dtype)
        for i, e in enumerate(exps):
            if e:
                left[i, e] -= 1
                p = pw.pop((i, e)) if (i, e) in pw else x[..., i] ** e
                if left[i, e]:
                    pw[i, e] = p
                term = term * p
        yield term


def value_dtype(coefs, *points):
    """float when every coefficient is a real number (a Python complex, even
    1+0j, is not) and the points are real, else complex."""
    real = all(isinstance(c, numbers.Real) for c in coefs)
    return float if real and not any(np.iscomplexobj(x) for x in points) else complex


class Poly:
    """Immutable polynomial in `nvars` variables; `terms` is a read-only mapping
    exponent tuple -> real or complex coeff."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        nvars = int(nvars)
        acc = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError("exponent tuple length != nvars")
                if c != 0:
                    acc[exps] = acc.get(exps, 0) + c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", MappingProxyType(acc))

    def __setattr__(self, name, value):
        raise AttributeError(f"Poly is immutable: cannot assign {name!r}")

    @classmethod
    def constant(cls, nvars: int, c=1.0) -> "Poly":
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars: int, i: int, c=1.0) -> "Poly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): c})

    def __call__(self, x):
        """Evaluate at x (..., nvars), each power x_i^e taken once, as value_dtype."""
        x = np.asarray(x)
        dtype = value_dtype(self.terms.values(), x)
        out = np.zeros(x.shape[:-1], dtype=dtype)
        for term in monomials(x, self.terms.items(), dtype):
            out += term
        return out

    def on_grid(self, axes):
        """Values on the tensor grid of the 1-D arrays axes, shape (len(axes[0]), ...)."""
        if len(axes) != self.nvars:
            raise ValueError("need one axis per variable")
        return Poly.on_grids([self], [np.asarray(x)[None] for x in axes])[0]

    @staticmethod
    def on_grids(polys, axes):
        """Values of each polys[b] on the tensor grid of row b of the (B, n_i) arrays axes, shape
        (B, n_0, ...), dtype by value_dtype: the zero-padded coefficient arrays contracted with one
        power table per axis by a batched matmul, whose gemm sums over the power index in order, so
        the padding adds exact zeros and each row is that of its polynomial alone."""
        exps = [e for p in polys for e in p.terms] or [(0,) * len(axes)]
        dtype = value_dtype([c for p in polys for c in p.terms.values()], *axes)
        coef = np.zeros((len(polys), *np.max(exps, axis=0) + 1), dtype=dtype)
        for b, p in enumerate(polys):
            for e, c in p.terms.items():
                coef[(b, *e)] = c
        out = coef
        for x in axes:
            lhs, top = np.moveaxis(out, 1, -1), out.shape[1]
            table = (x[..., None] ** np.arange(top)).transpose(0, 2, 1)
            out = (lhs.reshape(len(polys), -1, top) @ table).reshape(lhs.shape[:-1] + (-1,))
        for b, p in enumerate(polys):
            # a polynomial in the first variable alone has one row in the first contraction,
            # where numpy's dot takes a matrix-vector product that sums in another order
            if any(e[0] for e in p.terms) and not any(any(e[1:]) for e in p.terms):
                top = 1 + max(e[0] for e in p.terms)
                zeros = (0,) * (len(axes) - 1)
                row = (axes[0][b][:, None] ** np.arange(top)) @ coef[(b, slice(top)) + zeros]
                out[b] = row.reshape((-1,) + (1,) * len(zeros))
        return out

    def __add__(self, other: "Poly") -> "Poly":
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        t = dict(self.terms)
        for exps, c in other.terms.items():
            t[exps] = t.get(exps, 0) + c
        return Poly(self.nvars, t)

    def __mul__(self, other):
        if np.isscalar(other):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch")
        t: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return Poly(self.nvars, t)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Poly":
        t: dict = {}
        for exps, c in self.terms.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                t[tuple(e)] = t.get(tuple(e), 0) + c * exps[i]
        return Poly(self.nvars, t)

    def conj(self) -> "Poly":
        return Poly(self.nvars, {e: np.conj(c) for e, c in self.terms.items()})

    def negate_vars(self) -> "Poly":
        """p(x) -> p(-x)."""
        return Poly(
            self.nvars,
            {e: c * (-1) ** (sum(e) % 2) for e, c in self.terms.items()},
        )

    def is_real(self, tol: float = 0.0) -> bool:
        return all(abs(np.imag(c)) <= tol for c in self.terms.values())

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get(tuple([0] * self.nvars), 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly) or other.nvars != self.nvars:
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(
            np.isclose(self.terms.get(k, 0), other.terms.get(k, 0), rtol=0, atol=0)
            for k in keys
        )

    def __repr__(self) -> str:
        return f"Poly(nvars={self.nvars}, terms={dict(self.terms)})"
