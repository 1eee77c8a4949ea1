"""Small multivariate polynomial helper (dict of exponent tuples -> coefficient).

Used for wave-packet polynomial prefactors (analytic derivatives of
Gaussian x polynomial) and as the backing store of transfer polynomials.
"""
from __future__ import annotations

import numpy as np


class Poly:
    """Polynomial in `nvars` variables, terms: exponent tuple -> complex coeff."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = int(nvars)
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars:
                    raise ValueError("exponent tuple length != nvars")
                if c != 0:
                    self.terms[exps] = self.terms.get(exps, 0) + c

    @classmethod
    def constant(cls, nvars: int, c=1.0) -> "Poly":
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars: int, i: int, c=1.0) -> "Poly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): c})

    def __call__(self, x):
        """Evaluate at x with shape (..., nvars)."""
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1], dtype=complex)
        for exps, c in self.terms.items():
            term = np.full(x.shape[:-1], c, dtype=complex)
            for i, e in enumerate(exps):
                if e:
                    term = term * x[..., i] ** e
            out += term
        return out

    def on_grid(self, axes):
        """Values on the tensor grid of the 1-D arrays axes, shape (len(axes[0]), ...):
        the coefficient array contracted with one power table per axis."""
        if len(axes) != self.nvars:
            raise ValueError("need one axis per variable")
        exps = np.array(list(self.terms) or [(0,) * self.nvars], dtype=int)
        out = np.zeros(tuple(exps.max(axis=0) + 1), dtype=complex)
        for e, c in self.terms.items():
            out[e] = c
        for x, top in zip(axes, out.shape):
            out = np.tensordot(out, np.asarray(x)[:, None] ** np.arange(top), axes=([0], [1]))
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
        return f"Poly(nvars={self.nvars}, terms={self.terms})"
