"""Shared test utilities."""

import numpy as np

from qrf_sim.channels import (
    HYGIENE_TRIGGER,
    OUTCOME_EPS,
    _coeffs_selective,
    _p_plus,
    average_channel,
    hygiene,
    selective_channel,
    unitary_channel,
)
from qrf_sim.kernels import apply_factors, band_factors, complex_sum, to_bands
from qrf_sim.metrics import UNPOLARIZED_EPS, mean_angular_momentum, summarize_frame
import qrf_sim.trajectory as trajectory
from qrf_sim.trajectory import (
    AlternatingAntipolarized,
    ConditionalTuned,
    CorrectionEvent,
    MeasureStep,
    NumericalInvariantError,
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


def dense_hygiene(rho: np.ndarray) -> np.ndarray:
    """The dense form of channels.hygiene: re-hermitize and renormalize a
    d x d state when its drift exceeds the same 1e-13 trigger."""
    herm_drift = np.abs(rho - rho.conj().T).max()
    tr_drift = abs(np.trace(rho) - 1.0)
    if herm_drift <= HYGIENE_TRIGGER and tr_drift <= HYGIENE_TRIGGER:
        return rho
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


def from_bands(B: np.ndarray) -> np.ndarray:
    """The Hermitian d x d matrix whose diagonals 0 and 1 a band array holds,
    zero beyond them."""
    d = B.shape[-1]
    upper = np.diag(B[1, :d - 1], 1)
    return np.diag(B[0].real) + upper + upper.conj().T


def dense_reads(B: np.ndarray, ops, n_hat: np.ndarray) -> tuple[float, float]:
    """(p_succ along n_hat, inclination) of a band array, from traces of the
    rebuilt matrix against the dense Lx, Ly, Lz; the inclination is NaN where
    the frame is unpolarized."""
    rho = from_bands(B)
    v = np.array([np.trace(rho @ L).real for L in (ops.Lx, ops.Ly, ops.Lz)])
    theta = np.arctan2(v[0], v[2]) if np.linalg.norm(v) > UNPOLARIZED_EPS else np.nan
    return 0.5 * (1.0 + n_hat @ v / (ops.l_value + 0.5)), theta


def band_error(bands: np.ndarray, rho: np.ndarray) -> float:
    """Largest difference between a band array and the diagonals 0 and 1 of rho."""
    return float(np.abs(bands - to_bands(rho)).max())


def reference_record(rho0: np.ndarray, n_measure: int, z: float, strategy, seed: int, ops):
    """One seeded record from a one-seed loop over the band kernel and
    channels, with each strategy's rule written out here: (outcome string,
    correction events, p_succ series, inclination series, final band
    array).  The reference for the batched stochastic engine; p_succ and the
    inclination are read from dense traces, not by the package's reader.
    Only the conditional target, the initial inclination, comes from
    summarize_frame, as the strategy gets it: a target one rounding away
    would choose other kicks."""
    rng = np.random.default_rng(np.random.Philox(key=seed))
    v0 = np.array([np.trace(rho0 @ L).real for L in (ops.Lx, ops.Ly, ops.Lz)])
    n_hat = v0 / np.linalg.norm(v0)

    def checked(B):
        assert np.isfinite(B).all()
        return hygiene(B)

    def measure(B, z):
        p_plus = _p_plus(B[0], z, ops)
        u = rng.random()  # drawn for forced outcomes too
        if p_plus < OUTCOME_EPS:
            outcome = -1
        elif p_plus > 1.0 - OUTCOME_EPS:
            outcome = +1
        else:
            outcome = +1 if u < p_plus else -1
        coeffs = _coeffs_selective(z, ops.d, outcome)
        sigma = apply_factors(B, *band_factors(ops.m_band, ops.ladder_band, coeffs))
        return outcome, checked(sigma * (1.0 / complex_sum(sigma[0]).real))

    def kick(B, z, gamma):
        return checked(unitary_channel(B, z, ops, gamma, bands=True))

    B = to_bands(rho0)
    outcomes, events, reads = [], [], [dense_reads(B, ops, n_hat)]
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
            target = strategy.theta_known
            if target is None:
                target = summarize_frame(rho0, ops).theta
            choice = conditional_correction_step(B, target, outcome, ops, z_mag)
            B = kick(B, choice.source_sign * z_mag, choice.gamma)
            events.append(CorrectionEvent(i, "conditional", choice.gamma,
                                          choice.source_sign * z_mag, choice.residual, outcome))
        reads.append(dense_reads(B, ops, n_hat))
    probs, thetas = np.array(reads).T
    return "".join("+" if o > 0 else "-" for o in outcomes), events, probs, thetas, B


def checked_average_steps(B: np.ndarray, n: int, z: float, ops) -> list:
    """The band states of n average steps, each checked before the next: the
    step function, a finite check and hygiene, the stepping loop's rule
    written out state by state."""
    states = []
    for _ in range(n):
        B, _ = trajectory._apply(B, MeasureStep(z), ops)
        if not np.isfinite(B).all():
            raise NumericalInvariantError("state left the finite domain during the run")
        B = hygiene(B)
        states.append(B)
    return states


def inject_after(monkeypatch, target: np.ndarray, delta: np.ndarray):
    """Add delta to the result of every average step the stepping loop takes
    from the state target: a fault tied to a state, so a replayed block
    meets it again."""
    def injecting(B, *args, **kwargs):
        out = average_channel(B, *args, **kwargs)
        return out + delta if np.array_equal(B, target) else out

    monkeypatch.setattr(trajectory, "average_channel", injecting)
