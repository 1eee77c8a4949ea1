"""Transfer polynomials: real symmetric Lorentz-invariant polynomial weights M_n.

Stored in invariant coordinates q_{i,j} = k_i . k_j (i <= j), so Lorentz
invariance is structural and permutation symmetry is a finite group action
on coordinate indices.
"""
from __future__ import annotations

import itertools
import json

import numpy as np

from .kinematics import invariant_index, invariant_map, invariant_names
from .polymath import Poly


class TransferPolynomial:
    """Polynomial in the n(n+1)/2 invariant coordinates of an n-point configuration."""

    def __init__(self, n: int, poly: Poly):
        self.n = int(n)
        self.ncoords = self.n * (self.n + 1) // 2
        if poly.nvars != self.ncoords:
            raise ValueError("poly nvars != n(n+1)/2")
        self.poly = poly

    @classmethod
    def constant(cls, n: int, c: float = 1.0) -> "TransferPolynomial":
        ncoords = n * (n + 1) // 2
        return cls(n, Poly.constant(ncoords, c))

    @classmethod
    def from_terms(cls, n: int, terms) -> "TransferPolynomial":
        """terms: iterable of (degrees dict like {"q12": 1}, coeff)."""
        ncoords = n * (n + 1) // 2
        names = invariant_names(n)
        name_to_idx = {nm: i for i, nm in enumerate(names)}
        p = Poly(ncoords)
        for degrees, coeff in terms:
            exps = [0] * ncoords
            for nm, deg in degrees.items():
                if nm not in name_to_idx:
                    raise ValueError(f"unknown invariant coordinate {nm!r} at order {n}")
                exps[name_to_idx[nm]] = int(deg)
            p = p + Poly.monomial(ncoords, exps, coeff)
        return cls(n, p)

    def __call__(self, momenta):
        """Evaluate at n four-vectors (array (..., n, d) or a list of vectors)."""
        ks = np.asarray(momenta, dtype=float)
        if ks.shape[-2] != self.n:
            raise ValueError(f"expected {self.n} momenta, got {ks.shape[-2]}")
        q = invariant_map([ks[..., l, :] for l in range(self.n)])
        return self.poly(q)

    def per_argument_degrees(self) -> list:
        """Degree in each k_l: q_{i,j} counts 1 for k_i and k_j, 2 when i=j."""
        degs = [0] * self.n
        for exps in self.poly.terms:
            cur = [0] * self.n
            idx = 0
            for j in range(self.n):
                for i in range(j + 1):
                    e = exps[idx]
                    if e:
                        cur[i] += e
                        cur[j] += e
                    idx += 1
            for l in range(self.n):
                degs[l] = max(degs[l], cur[l])
        return degs

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "TransferPolynomial":
        return cls.from_json_dict(json.loads(s))


def _permute_exponents(exps, sigma, n):
    """Induced action of a leg permutation on invariant-coordinate exponents."""
    out = [0] * len(exps)
    idx = 0
    for j in range(n):
        for i in range(j + 1):
            e = exps[idx]
            if e:
                out[invariant_index(sigma[i], sigma[j])] += e
            idx += 1
    return tuple(out)


def permute_legs(p: TransferPolynomial, sigma) -> TransferPolynomial:
    """p with leg l relabeled sigma(l); sigma is a 0-based permutation tuple."""
    terms = {}
    for exps, c in p.poly.terms.items():
        e2 = _permute_exponents(exps, sigma, p.n)
        terms[e2] = terms.get(e2, 0) + c
    return TransferPolynomial(p.n, Poly(p.ncoords, terms))


def symmetrize_realify(p: TransferPolynomial) -> TransferPolynomial:
    """Average over leg permutations and drop imaginary parts of coefficients."""
    perms = list(itertools.permutations(range(p.n)))
    acc = {}
    for sigma in perms:
        for exps, c in p.poly.terms.items():
            e2 = _permute_exponents(exps, sigma, p.n)
            acc[e2] = acc.get(e2, 0) + c
    scale = 1.0 / len(perms)
    terms = {e: float(np.real(c)) * scale for e, c in acc.items()}
    return TransferPolynomial(p.n, Poly(p.ncoords, terms))


def is_permutation_symmetric(p: TransferPolynomial, tol: float = 0.0) -> tuple:
    """(flag, witness permutation or None): coefficient-level symmetry check."""
    for sigma in itertools.permutations(range(p.n)):
        q = permute_legs(p, sigma)
        keys = set(p.poly.terms) | set(q.poly.terms)
        for k in keys:
            if abs(p.poly.terms.get(k, 0) - q.poly.terms.get(k, 0)) > tol:
                return False, sigma
    return True, None


class TransferFamily:
    """Validated family {M_n}; orders without an explicit member default to 1."""

    def __init__(self, members: dict, l_max: int):
        self.members = dict(members)
        self.l_max = int(l_max)

    def member(self, n: int) -> TransferPolynomial:
        if n in self.members:
            return self.members[n]
        return TransferPolynomial.constant(n, 1.0)

    def eval(self, momenta):
        ks = np.asarray(momenta, dtype=float)
        return self.member(ks.shape[-2])(ks)

    @classmethod
    def identity(cls, l_max: int = 2) -> "TransferFamily":
        return cls({2: TransferPolynomial.constant(2, 1.0)}, l_max)


def validate_condition41(fam: TransferFamily, rng=None, samples: int = 32) -> dict:
    """Check symmetry, reality, M_2 = 1, polynomial form, per-argument degree bound.

    Returns {"passed": bool, "violations": [...]}, each violation with a witness.
    """
    rng = rng or np.random.default_rng(0)
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


def hermiticity_identity_check(p: TransferPolynomial, rng=None, samples: int = 100,
                               d: int = 2, tol: float = 1e-12) -> bool:
    """conj(M(-k_n,...,-k_1)) == M(k_1,...,k_n) at random real momenta."""
    rng = rng or np.random.default_rng(1)
    ks = rng.normal(size=(samples, p.n, d))
    lhs = np.conj(p(-ks[:, ::-1, :]))
    rhs = p(ks)
    return bool(np.max(np.abs(lhs - rhs)) <= tol * max(1.0, np.max(np.abs(rhs))))
