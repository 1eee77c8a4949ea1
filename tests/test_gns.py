"""Graded vectors, Gram matrices, metric decomposition, sector positivity."""
import numpy as np
import pytest
from scipy import integrate

from qftscat.gns import (
    BorchersVector,
    borchers_involution,
    borchers_product,
    evaluate_vector,
    full_pairing,
    gram_matrix,
    hssc_estimate,
    inout_positivity_check,
    metric_decomposition,
    structure_pairing,
    vector_schwartz_norm,
)
from qftscat.kinematics import WavePacket, omega
from qftscat.transfer import TransferFamily, TransferPolynomial

RNG = np.random.default_rng(31)


def _one(k, width=0.3):
    return BorchersVector.one_particle(
        WavePacket(center=np.array([float(omega(k, 1.0)), k]), width=width))


def _synthetic_pairing(packets):
    """Multiplicative toy functional for algebra checks."""
    out = 1.0 + 0.0j
    for p in packets:
        out *= p.center[0] + 0.5j * p.center[1] + p.width
    return out


def test_vector_construction_and_arithmetic():
    f = _one(0.4)
    g = f.scaled(2.0 - 1.0j) + BorchersVector(f0=1.0)
    assert g.f0 == 1.0
    assert g.components[1][0][0] == 2.0 - 1.0j
    assert list(g.components) == [1]
    with pytest.raises(ValueError):
        BorchersVector(components={2: [(1.0, (f.components[1][0][1][0],))]})


def test_product_grading():
    f, g = _one(0.2), _one(-0.5)
    fg = borchers_product(f, g)
    assert list(fg.components) == [2]
    with pytest.raises(ValueError):
        borchers_product(fg, fg, max_order=3)


def test_involution_is_antimultiplicative_and_involutive():
    f = _one(0.7).scaled(1.0 + 2.0j) + BorchersVector(f0=1.0).scaled(0.5j)
    g = _one(-0.2)
    lhs = borchers_involution(borchers_product(f, g))
    rhs = borchers_product(borchers_involution(g), borchers_involution(f))
    assert abs(evaluate_vector(_synthetic_pairing, lhs, w0=1.0)
               - evaluate_vector(_synthetic_pairing, rhs, w0=1.0)) < 1e-14
    twice = borchers_involution(borchers_involution(f))
    assert abs(evaluate_vector(_synthetic_pairing, twice, w0=1.0)
               - evaluate_vector(_synthetic_pairing, f, w0=1.0)) < 1e-14
    u = borchers_involution(BorchersVector(f0=1.0))
    assert u.f0 == 1.0 and not u.components


def test_full_pairing_partition_sums():
    # constant connected kernels: full orders are Bell-weighted block products
    c = {1: 0.5 + 0.0j, 2: 2.0 + 0.0j, 3: -1.0 + 0.0j}

    def connected(pts):
        return c.get(len(pts), 0.0)

    pairing = full_pairing(connected, max_order=3)
    p = WavePacket(center=np.array([1.0, 0.0]), width=1.0)
    assert abs(pairing((p,)) - 0.5) < 1e-15
    assert abs(pairing((p, p)) - (2.0 + 0.25)) < 1e-15
    assert abs(pairing((p, p, p)) - (-1.0 + 3 * 0.5 * 2.0 + 0.125)) < 1e-15
    with pytest.raises(ValueError):
        pairing((p, p, p, p))


def test_gram_matrix_hermitian(ev):
    fam = [_one(-0.6), _one(0.1), _one(0.8)]
    pairing = structure_pairing(ev)
    gram = gram_matrix(pairing, fam)
    assert gram.size == 3
    assert np.allclose(gram.matrix, gram.matrix.conj().T)
    assert gram.hermiticity_deviation < 1e-12


def test_metric_decomposition_inertia():
    H = np.diag([2.0, -3.0, 0.0]).astype(complex)
    from qftscat.gns import GramMatrix

    dec = metric_decomposition(GramMatrix(matrix=H, hermiticity_deviation=0.0, size=3))
    assert dec.inertia == (1, 1, 1)
    assert np.allclose(dec.eta, np.diag([1.0, -1.0, 1.0]))
    assert np.max(np.abs(dec.eta @ dec.eta - np.eye(3))) < 1e-14
    # random Hermitian: eta^2 = I and eta commutes with H
    A = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
    H = A + A.conj().T
    dec = metric_decomposition(GramMatrix(matrix=H, hermiticity_deviation=0.0, size=5))
    assert np.max(np.abs(dec.eta @ dec.eta - np.eye(5))) < 1e-12
    assert np.max(np.abs(dec.eta @ H - H @ dec.eta)) < 1e-10


def test_in_sector_gram_equals_free_two_point(ev):
    fam = [_one(-0.9), _one(-0.3), _one(0.3), _one(0.9)]
    min_eig, gram, ok = inout_positivity_check(ev, fam, "in")
    assert ok and min_eig > 0
    assert gram.hermiticity_deviation < 1e-12
    packs = [f.components[1][0][1][0] for f in fam]

    def oracle(i, j):
        def integrand(u):
            w = np.sqrt(u * u + 1.0)
            return float(np.real(
                np.conj(packs[i](np.array([w, u]))) * packs[j](np.array([w, u])))
            ) / (2.0 * w)

        val, _ = integrate.quad(integrand, -6, 6, limit=200, epsabs=1e-13)
        return val

    for i in range(4):
        for j in range(4):
            assert abs(gram.matrix[i, j] - oracle(i, j)) < 1e-10


def test_out_sector_matches_in_sector(ev):
    fam = [_one(-0.5), _one(0.5)]
    _, gin, _ = inout_positivity_check(ev, fam, "in")
    _, gout, _ = inout_positivity_check(ev, fam, "out")
    assert np.allclose(gin.matrix, gout.matrix, atol=1e-12)
    with pytest.raises(ValueError):
        inout_positivity_check(ev, fam, "loc")


# the three two-particle out-sector vectors of the sectors_fit benchmark at
# seed 82: forward-shell packet pairs of one width
SEED82_PAIRS = (
    ((1.2877476610196072, 0.811353214365648), (1.2750008460539854, -0.7909659647787501)),
    ((1.1223614052996542, 0.5096029082591804), (1.1172175804199953, -0.49817177960971337)),
    ((1.355987355521972, 0.915806588934296), (1.0430836713230507, -0.29668762256079007)),
)
SEED82_WIDTH = 0.31194333005724634


def test_two_particle_out_gram_is_hermitian_and_psd(ev):
    # the all-out order-4 term is exactly 0, so the Gram is its disconnected
    # two-point part; when the term was the difference of two quadratures of
    # one shell integral, this Gram read deviation 0.96 and eigenvalue -0.0085
    vectors = [BorchersVector(components={2: [(1.0, tuple(
        WavePacket(center=np.array(c), width=SEED82_WIDTH) for c in pair))]})
        for pair in SEED82_PAIRS]
    min_eig, gram, ok = inout_positivity_check(ev, vectors, "out")
    assert ok and min_eig > 0
    assert gram.hermiticity_deviation < 1e-8


def test_two_particle_norm_factorizes(ev):
    # velocity-separated packets keep the quadrature clean; the disconnected
    # part of the full functional makes the 2-particle norm the product of
    # the 1-particle norms
    f1, f2 = _one(-1.5, width=0.15), _one(0.2, width=0.15)
    fam = [BorchersVector(f0=1.0), f1, f2, borchers_product(f1, f2)]
    min_eig, gram, ok = inout_positivity_check(ev, fam, "in")
    assert ok and min_eig > 0
    assert gram.hermiticity_deviation < 1e-12
    H = gram.matrix
    assert abs(H[0, 0] - 1.0) < 1e-14
    assert abs(H[3, 3] - H[1, 1] * H[2, 2]) < 1e-10 * abs(H[3, 3])
    # cross terms between different orders vanish
    assert abs(H[0, 1]) < 1e-14 and abs(H[1, 3]) < 1e-8


def test_vector_schwartz_norm():
    f = _one(0.0, width=1.0)
    assert abs(vector_schwartz_norm(f, 0, 0) - 1.0) < 1e-9
    two = borchers_product(f, f).scaled(3.0)
    assert abs(vector_schwartz_norm(two, 0, 0) - 3.0) < 1e-8
    assert vector_schwartz_norm(BorchersVector(f0=1.0), 2, 2) == 1.0


def test_hssc_estimate_scale_invariant(ev):
    fam = [_one(-0.6), _one(0.6)]
    scaled = [f.scaled(5.0) for f in fam]
    pairing = structure_pairing(ev)
    h1 = hssc_estimate(gram_matrix(pairing, fam), fam, 2, 2)
    h2 = hssc_estimate(gram_matrix(pairing, scaled), scaled, 2, 2)
    assert isinstance(h1, float)
    assert abs(h1 - h2) < 1e-10 * h1


def test_structure_pairing_validates_its_family_once(ev, fam_quad, validations):
    bad = TransferFamily({2: TransferPolynomial.constant(2, 2.0)}, l_max=2)
    for label in ("loc", "in", "out"):
        with pytest.raises(ValueError, match="invalid transfer family"):
            structure_pairing(ev, label, bad)
    # a fresh family equal to fam_quad: the session fixture may carry its report already
    fam = TransferFamily(fam_quad.members, fam_quad.l_max)
    pairing = structure_pairing(ev, "in", fam)
    gram_matrix(full_pairing(pairing), [_one(-0.6), _one(0.1), _one(0.8)], w0=1.0)
    assert validations == [bad, fam]
