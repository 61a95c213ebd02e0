"""Shared test utilities."""

import numpy as np

from qrf_sim.channels import average_channel, selective_channel
from qrf_sim.kernels import to_bands
from qrf_sim.metrics import mean_angular_momentum


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart construction)."""
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / rho.trace()


def inclination(rho: np.ndarray, ops) -> float:
    v = mean_angular_momentum(rho, ops)
    return float(np.arctan2(v[0], v[2]))


def replay_outcomes(rho0: np.ndarray, outcomes, z: float, ops) -> np.ndarray:
    """Dense final state of an uncorrected record, from its outcome string
    replayed through the dense selective channel."""
    rho = rho0
    for outcome in outcomes:
        rho = selective_channel(rho, z, ops, int(outcome)).post_state
    return rho


def replay_average(rho0: np.ndarray, n_steps: int, z: float, ops) -> np.ndarray:
    """Dense state after n_steps of the dense average channel."""
    rho = rho0
    for _ in range(n_steps):
        rho = average_channel(rho, z, ops)
    return rho


def band_error(bands: np.ndarray, rho: np.ndarray) -> float:
    """Largest difference between a band array and the diagonals 0-2 of rho."""
    return float(np.abs(bands - to_bands(rho)).max())
