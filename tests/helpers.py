"""Shared test utilities."""

import numpy as np

from qrf_sim.channels import (
    OUTCOME_EPS,
    average_channel,
    hygiene,
    outcome_probabilities,
    selective_channel,
    selective_unnormalized,
    unitary_channel,
)
from qrf_sim.kernels import to_bands
from qrf_sim.metrics import band_p_succ, band_summary, mean_angular_momentum, summarize_frame
from qrf_sim.trajectory import (
    AlternatingAntipolarized,
    ConditionalTuned,
    CorrectionEvent,
    UnitaryAfterEachPlus,
    UnitaryEveryK,
    conditional_correction_step,
)


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


def reference_record(rho0: np.ndarray, n_measure: int, z: float, strategy, seed: int, ops):
    """One seeded record from a one-seed loop over the public band channels,
    with each strategy's rule written out here: (outcome string, correction
    events, p_succ series, inclination series, final band array).  The
    reference for the batched stochastic engine."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    summary0 = summarize_frame(rho0, ops)
    n_hat = summary0.mean_L / np.linalg.norm(summary0.mean_L)

    def checked(B):
        assert np.isfinite(B).all()
        return hygiene(B, bands=True)

    def measure(B, z):
        p_plus, _ = outcome_probabilities(B, z, ops, bands=True)
        u = rng.random()  # drawn for forced outcomes too
        if p_plus < OUTCOME_EPS:
            outcome = -1
        elif p_plus > 1.0 - OUTCOME_EPS:
            outcome = +1
        else:
            outcome = +1 if u < p_plus else -1
        sigma = selective_unnormalized(B, z, ops, outcome, bands=True)
        return outcome, checked(sigma / sigma[0].sum().real)

    def kick(B, z, gamma):
        return checked(unitary_channel(B, z, ops, gamma, bands=True))

    B = to_bands(rho0)
    outcomes, events = [], []
    probs, thetas = [band_p_succ(B, ops, n_hat)], [summary0.theta]
    for i in range(n_measure):
        outcome, B = measure(B, z)
        outcomes.append(outcome)
        if isinstance(strategy, AlternatingAntipolarized):
            bar, B = measure(B, -z)
            outcomes.append(bar)
            events.append(CorrectionEvent(i, "measure_antipolarized", source_z=-z, outcome=bar))
        elif (isinstance(strategy, UnitaryEveryK) and (i + 1) % strategy.k == 0
              or isinstance(strategy, UnitaryAfterEachPlus) and outcome > 0):
            B = kick(B, -z, strategy.gamma)
            events.append(CorrectionEvent(i, "unitary", strategy.gamma, -z))
        elif isinstance(strategy, ConditionalTuned):
            z_mag = abs(z) or 1.0
            target = summary0.theta if strategy.theta_known is None else strategy.theta_known
            choice = conditional_correction_step(B, target, outcome, ops, z_mag)
            B = kick(B, choice.source_sign * z_mag, choice.gamma)
            events.append(CorrectionEvent(i, "conditional", choice.gamma,
                                          choice.source_sign * z_mag, choice.residual, outcome))
        probs.append(band_p_succ(B, ops, n_hat))
        thetas.append(band_summary(B, ops).theta)
    return ("".join("+" if o > 0 else "-" for o in outcomes), events, np.array(probs),
            np.array(thetas), B)
