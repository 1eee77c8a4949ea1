"""Shared fixtures: model constants, evaluators, reference packet sets,
the shell atom of one leg and a spy on transfer-family validation."""
import numpy as np
import pytest

from qftscat import transfer
from qftscat.kinematics import ModelParams, WavePacket, omega
from qftscat.structure import SpectralDensity, StructureEvaluator, shell_integral
from qftscat.transfer import TransferFamily, TransferPolynomial


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def ev(params):
    return StructureEvaluator(params)


@pytest.fixture(scope="session")
def ev_rho(params):
    return StructureEvaluator(params, SpectralDensity.default_model(params))


@pytest.fixture(scope="session")
def shell_atom():
    """Leg j's sigma shell atom(j, sigma, packets, ev, weight=None): legs
    before j backward, leg j on its sigma shell and the legs after it forward,
    integrated by shell_integral in the k-space fold's leg variables (leg j
    and the other legs but the last two on packet rules, those two solved),
    as eval_FG_n integrates its configurations. (j, -1) is the configuration of
    (j + 1, +1) in other variables."""
    def atom(j, sigma, packets, ev, weight=None):
        n = len(packets)
        signs = [-1] * j + [sigma] + [1] * (n - 1 - j)
        return shell_integral(packets, signs, ev, weight,
                              order=(j, *(l for l in range(n) if l != j)))
    return atom


@pytest.fixture(scope="session")
def packets4(params):
    """2 -> 2 configuration: two incoming backward-shell packets against two
    outgoing forward-shell packets, open phase space."""
    m = params.m
    k, w = 0.8, 0.25
    e = float(omega(k, m))
    pin1 = WavePacket(center=np.array([-e, k]), width=w)
    pin2 = WavePacket(center=np.array([-e, -k]), width=w)
    pout1 = WavePacket(center=np.array([e, k]), width=w)
    pout2 = WavePacket(center=np.array([e, -k]), width=w)
    return (pin1, pin2, pout1, pout2)


@pytest.fixture(scope="session")
def trio(params):
    """Order-3 configuration with the off-shell leg centered on the momentum
    forced by conservation of the two forward on-shell legs."""
    m = params.m
    w1, w2 = float(omega(0.8, m)), float(omega(-0.5, m))
    r0 = WavePacket(center=np.array([-(w1 + w2), -0.3]), width=0.35)
    r1 = WavePacket(center=np.array([w1, 0.8]), width=0.3)
    r2 = WavePacket(center=np.array([w2, -0.5]), width=0.3)
    return (r0, r1, r2)


@pytest.fixture(scope="session")
def trio_scatter(params, packets4):
    """2 -> 1 configuration (empty on-shell phase space in d=2)."""
    pin1, pin2, _, _ = packets4
    p3 = WavePacket(center=np.array([float(omega(0.05, params.m)), 0.05]), width=0.25)
    return (pin1, pin2, p3)


@pytest.fixture(scope="session")
def pair(params):
    """Two-point configuration: backward against forward one-particle packets."""
    a = WavePacket(center=np.array([-1.3, 0.4]), width=0.3)
    b = WavePacket(center=np.array([1.3, -0.4]), width=0.3)
    return (a, b)


def _sym_M4(degree: int) -> TransferPolynomial:
    terms = [({f"q{i + 1}{j + 1}": degree}, 1.0 / 6.0) for j in range(4) for i in range(j)]
    return TransferPolynomial.from_terms(4, terms)


@pytest.fixture(scope="session")
def fam_quad():
    """M_4 = (1/6) sum_{i<j} (q_ij)^2, the symmetric degree-2 weight."""
    return TransferFamily({2: TransferPolynomial.constant(2, 1.0), 4: _sym_M4(2)}, l_max=2)


@pytest.fixture
def validations(monkeypatch):
    """The families transfer.validate_condition41 runs on, in call order."""
    calls = []
    validate = transfer.validate_condition41
    monkeypatch.setattr(transfer, "validate_condition41",
                        lambda fam: calls.append(fam) or validate(fam))
    return calls


@pytest.fixture(scope="session")
def fam_lin():
    """M_4 = (1/6) sum_{i<j} q_ij, the symmetric degree-1 weight."""
    return TransferFamily({2: TransferPolynomial.constant(2, 1.0), 4: _sym_M4(1)}, l_max=1)
