"""Indefinite-metric scattering toolbox.

Truncated kernel functionals, structure-function pairings, finite-time
wave-operator limits, Gram/metric analysis and invariant polynomial fitting.
"""

__version__ = "0.1.0"

from .kinematics import ModelParams, WavePacket, omega

__all__ = ["ModelParams", "WavePacket", "omega", "__version__"]
