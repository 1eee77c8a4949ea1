"""Transfer polynomials: real symmetric Lorentz-invariant polynomial weights M_n.

Stored in invariant coordinates q_{i,j} = k_i . k_j (i <= j), so Lorentz
invariance is structural and permutation symmetry is a finite group action
on coordinate indices.
"""
from __future__ import annotations

import itertools
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .kinematics import invariant_index, invariant_map, invariant_names
from .polymath import Poly


@dataclass(frozen=True, eq=False)
class TransferPolynomial:
    """Immutable polynomial in the n(n+1)/2 invariant coordinates of an n-point configuration."""

    n: int
    poly: Poly

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.poly.nvars != self.ncoords:
            raise ValueError("poly nvars != n(n+1)/2")

    @property
    def ncoords(self) -> int:
        return self.n * (self.n + 1) // 2

    @classmethod
    def constant(cls, n: int, c: float = 1.0) -> "TransferPolynomial":
        ncoords = n * (n + 1) // 2
        return cls(n, Poly.constant(ncoords, c))

    @classmethod
    def from_terms(cls, n: int, terms) -> "TransferPolynomial":
        """terms: iterable of (degrees dict like {"q12": 1}, coeff); each degree
        must be a non-negative integer."""
        ncoords = n * (n + 1) // 2
        names = invariant_names(n)
        name_to_idx = {nm: i for i, nm in enumerate(names)}
        acc = {}
        for degrees, coeff in terms:
            exps = [0] * ncoords
            for nm, deg in degrees.items():
                if nm not in name_to_idx:
                    raise ValueError(f"unknown invariant coordinate {nm!r} at order {n}")
                if isinstance(deg, bool) or not isinstance(deg, numbers.Integral) or deg < 0:
                    raise ValueError(f"degree of {nm} must be a non-negative integer, got {deg!r}")
                exps[name_to_idx[nm]] = int(deg)
            acc[tuple(exps)] = acc.get(tuple(exps), 0) + coeff
        return cls(n, Poly(ncoords, acc))

    def __call__(self, momenta):
        """Evaluate at n four-vectors (array (..., n, d) or a list), dtype as Poly's."""
        ks = np.asarray(momenta, dtype=float)
        if ks.shape[-2] != self.n:
            raise ValueError(f"expected {self.n} momenta, got {ks.shape[-2]}")
        q = invariant_map([ks[..., l, :] for l in range(self.n)])
        return self.poly(q)

    def per_argument_degrees(self) -> list:
        """Degree in each k_l: q_{i,j} counts 1 for k_i and k_j, 2 when i=j."""
        pairs = np.array([(i, j) for j in range(self.n) for i in range(j + 1)])
        legs = (pairs[:, :, None] == np.arange(self.n)).sum(axis=1)  # (coordinates, legs)
        return (_term_arrays(self)[0] @ legs).max(axis=0, initial=0).tolist()

    def is_real(self, tol: float = 0.0) -> bool:
        return self.poly.is_real(tol)

    def to_json_dict(self) -> dict:
        names = invariant_names(self.n)
        terms = []
        for exps in sorted(self.poly.terms):
            c = self.poly.terms[exps]
            degrees = {names[i]: e for i, e in enumerate(exps) if e}
            entry = {"degrees": degrees, "coeff": float(np.real(c))}
            if np.imag(c) != 0:
                entry["coeff_im"] = float(np.imag(c))
            terms.append(entry)
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TransferPolynomial":
        terms = []
        for t in d["terms"]:
            c = t["coeff"] + 1j * t.get("coeff_im", 0.0)
            if t.get("coeff_im", 0.0) == 0.0:
                c = t["coeff"]
            terms.append((t.get("degrees", {}), c))
        return cls.from_terms(int(d["n"]), terms)


def _term_arrays(p: TransferPolynomial) -> tuple:
    """(exponents (terms x coordinates), coefficients) of p, in term order."""
    exps = np.array(list(p.poly.terms), dtype=int).reshape(len(p.poly.terms), p.ncoords)
    return exps, np.array(list(p.poly.terms.values()))


def _leg_columns(sigma, n: int) -> np.ndarray:
    """Columns with exps[:, cols] the exponents after relabelling leg l as sigma(l)."""
    cols = np.empty(n * (n + 1) // 2, dtype=int)
    for j in range(n):
        for i in range(j + 1):
            cols[invariant_index(sigma[i], sigma[j])] = invariant_index(i, j)
    return cols


def _orbit_rows(p: TransferPolynomial, perms) -> tuple:
    """Every leg-permuted copy of p's exponent rows, numbered once across copies:
    (coefficients, distinct rows, first occurrence of each, (len(perms), terms) ids)."""
    exps, coeffs = _term_arrays(p)
    rows = np.concatenate([exps[:, _leg_columns(s, p.n)] for s in perms])
    low = int(rows.min(initial=0))
    radix = int(rows.max(initial=0)) - low + 1
    # one integer per row where it fits in int64: sorting rows as records is slow
    keys = (rows - low) @ radix ** np.arange(p.ncoords) if radix ** p.ncoords < 2**63 else rows
    _, first, ids = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return coeffs, rows[first], first, ids.reshape(len(perms), len(coeffs))


def symmetrize_realify(p: TransferPolynomial) -> TransferPolynomial:
    """Average over leg permutations and drop imaginary parts of coefficients."""
    perms = list(itertools.permutations(range(p.n)))
    coeffs, uniq, first, ids = _orbit_rows(p, perms)
    # sums and orders terms as adding the copies one by one would, bit for bit
    acc = np.bincount(ids.ravel(), np.tile(np.real(coeffs), len(perms)), len(uniq))
    order = np.argsort(first)
    terms = zip(map(tuple, uniq[order].tolist()), (acc[order] * (1.0 / len(perms))).tolist())
    return TransferPolynomial(p.n, Poly(p.ncoords, dict(terms)))


def is_permutation_symmetric(p: TransferPolynomial, tol: float = 0.0) -> tuple:
    """(flag, witness permutation or None): coefficient-level symmetry check."""
    perms = list(itertools.permutations(range(p.n)))
    coeffs, uniq, _, ids = _orbit_rows(p, perms)
    base, moved = np.zeros((2, len(uniq)), dtype=coeffs.dtype)
    base[ids[0]] = coeffs  # perms[0] is the identity
    for sigma, row in zip(perms, ids):
        moved[row] = coeffs
        keys = np.concatenate([ids[0], row])
        if np.any(np.abs(base[keys] - moved[keys]) > tol):
            return False, sigma
        moved[row] = 0
    return True, None


@dataclass(frozen=True, eq=False)
class TransferFamily:
    """Immutable family {M_n} with per-argument degree bound l_max; orders without
    an explicit member default to 1. Construction does not check condition 4.1:
    require_valid does, on a family's first use, and keeps the report here."""

    members: Mapping[int, TransferPolynomial]
    l_max: int
    _report: dict | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "members", MappingProxyType(dict(self.members)))
        object.__setattr__(self, "l_max", int(self.l_max))

    def member(self, n: int) -> TransferPolynomial:
        if n in self.members:
            return self.members[n]
        return TransferPolynomial.constant(n, 1.0)

    def eval(self, momenta):
        ks = np.asarray(momenta, dtype=float)
        return self.member(ks.shape[-2])(ks)


def validate_condition41(fam: TransferFamily) -> dict:
    """Check symmetry, reality, M_2 = 1, polynomial form, per-argument degree bound;
    the symmetry also at 32 seeded random configurations per order up to 5.

    Returns {"passed": bool, "violations": [...]}, each violation with a witness.
    """
    rng = np.random.default_rng(0)
    violations = []
    m2 = fam.member(2)
    if not (m2.poly.is_constant() and abs(m2.poly.constant_value() - 1.0) < 1e-15):
        violations.append({"clause": "I2", "detail": "M_2 != 1", "n": 2})
    for n, p in sorted(fam.members.items()):
        if p.n != n:
            violations.append({"clause": "structure", "detail": "order mismatch", "n": n})
            continue
        ok, witness = is_permutation_symmetric(p, tol=1e-12)
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
        degs = p.per_argument_degrees()
        if max(degs, default=0) > fam.l_max:
            violations.append(
                {"clause": "I4", "detail": "per-argument degree exceeds bound", "n": n,
                 "witness_degrees": degs, "l_max": fam.l_max}
            )
        # randomized evaluation check of the symmetry (guards the coefficient action)
        if ok and n <= 5:
            ks = rng.normal(size=(32, n, 2))
            perms = list(itertools.permutations(range(n)))
            vals = p(ks[:, perms, :])  # (samples, n!); perms[0] is the identity
            bound = 1e-9 * max(1.0, np.max(np.abs(vals[:, 0])))
            bad = np.max(np.abs(vals - vals[:, :1]), axis=0) > bound
            if bad.any():
                violations.append(
                    {"clause": "I1", "detail": "evaluation asymmetry", "n": n,
                     "witness_permutation": [s + 1 for s in perms[int(np.argmax(bad))]]}
                )
    return {"passed": not violations, "violations": violations}


def require_valid(fam: TransferFamily) -> TransferFamily:
    """fam itself if it passes condition 4.1, else a ValueError listing the violations.
    The family is immutable, so its report is computed on the first call and kept on it."""
    if fam._report is None:
        object.__setattr__(fam, "_report", validate_condition41(fam))
    if not fam._report["passed"]:
        raise ValueError(f"invalid transfer family: {fam._report['violations']}")
    return fam


def hermiticity_identity_check(p: TransferPolynomial) -> bool:
    """conj(M(-k_n,...,-k_1)) == M(k_1,...,k_n) to 1e-12 relative at 100 seeded
    random real momenta in d = 2."""
    ks = np.random.default_rng(1).normal(size=(100, p.n, 2))
    lhs = np.conj(p(-ks[:, ::-1, :]))
    rhs = p(ks)
    return bool(np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs))))
