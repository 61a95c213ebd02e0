"""Sequential evolution of the frame: averaged runs, seeded measurement
records and the drift-correction strategies.

Every run converts its initial state once to the band array of its
diagonals 0-2 (kernels.to_bands) and steps that, O(d) per step; the records
hold the final band array, not a d x d matrix.

Trajectories are reproducible by construction: every stochastic run owns a
counter-based generator keyed by its seed (the algorithm identifier below is
recorded in every output file), so a record depends on its seed alone.
Ensembles run their seeds one after another in one thread: every numpy call
on a band array is short and holds the GIL, so threads only add overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    OUTCOME_EPS,
    average_channel,
    hygiene,
    outcome_probabilities,
    selective_unnormalized,
    unitary_channel,
)
from .kernels import to_bands
from .metrics import (
    FrameSummary,
    band_mean_L,
    band_p_succ,
    band_summary,
    summarize_frame,
)
from .spin import SpinOperators, as_polarization

RNG_ALGORITHM = "numpy-philox4x64"


class NumericalInvariantError(RuntimeError):
    """A run left the finite domain, drew an outcome probability outside
    [0, 1] or selected a branch of nonpositive weight."""


class LifetimeCapExceeded(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(f"p_succ did not cross the threshold within {cap} steps")
        self.cap = cap


# ---------------------------------------------------------------------------
# schedule steps and correction strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureStep:
    z: float
    corrective: bool = False


@dataclass(frozen=True)
class UnitaryStep:
    z: float
    gamma: float
    corrective: bool = False
    residual: float | None = None  # the inclination error a tuned kick leaves

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")


Schedule = Sequence["MeasureStep | UnitaryStep"]


def validate_schedule(schedule: Schedule) -> None:
    if len(schedule) == 0:
        raise ValueError("schedule must be nonempty")
    for step in schedule:
        if not isinstance(step, (MeasureStep, UnitaryStep)):
            raise TypeError(f"unknown step kind {step!r}")


def schedule_measurements(n: int, z: float) -> list:
    return [MeasureStep(z) for _ in range(n)]


def schedule_unitaries(n: int, z: float, gamma: float) -> list:
    return [UnitaryStep(z, gamma) for _ in range(n)]


# corrections(i, z, outcome, B, ops, theta0): the steps applied after primary measurement
# i (from 0) of a z source left the band state B; outcome is None under average evolution.

class NoAverageEvolution(ValueError):
    """An outcome-dependent strategy was asked for its average evolution."""

    def __init__(self, strategy):
        super().__init__(f"strategy {strategy!r} is outcome-dependent and has no average evolution")


@dataclass(frozen=True)
class AlternatingAntipolarized:
    """Follow every measurement with a measurement of an antipolarized source."""

    def corrections(self, i: int, z: float, outcome, B=None, ops=None, theta0=None) -> tuple:
        return (MeasureStep(-z, corrective=True),)


@dataclass(frozen=True)
class UnitaryEveryK:
    """Antipolarized unitary kick (angle gamma) after every k-th measurement.

    Deliberately takes no inclination input: the gamma = pi kick undoes the
    mean drift of two measurements without knowing the relative angle.
    """

    k: int
    gamma: float = np.pi

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")

    def corrections(self, i: int, z: float, outcome, B=None, ops=None, theta0=None) -> tuple:
        return (UnitaryStep(-z, self.gamma, corrective=True),) if (i + 1) % self.k == 0 else ()


@dataclass(frozen=True)
class UnitaryAfterEachPlus:
    """Antipolarized unitary kick after each + outcome."""

    gamma: float = np.pi

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")

    def corrections(self, i: int, z: float, outcome, B=None, ops=None, theta0=None) -> tuple:
        if outcome is None:
            raise NoAverageEvolution(self)
        return (UnitaryStep(-z, self.gamma, corrective=True),) if outcome > 0 else ()


@dataclass(frozen=True)
class ConditionalTuned:
    """Outcome-by-outcome correction tuned to a known inclination (default:
    the run's initial one, theta0).  Its kick, from conditional_correction_step,
    solves a + b cos gamma + c sin gamma = 0 for a hit, or else for the
    stationary inclination, <L> being affine in (1, cos gamma, sin gamma);
    residual ties go to the kick keeping most polarization along the target.
    """

    theta_known: float | None = None

    def __post_init__(self):
        if self.theta_known is not None and not 0.0 < self.theta_known < np.pi:
            raise ValueError(f"theta_known must lie in (0, pi), got {self.theta_known!r}")

    def corrections(self, i: int, z: float, outcome, B=None, ops=None, theta0=None) -> tuple:
        if outcome is None:
            raise NoAverageEvolution(self)
        z_mag = abs(z) or 1.0
        choice = conditional_correction_step(
            B, theta0 if self.theta_known is None else self.theta_known, outcome, ops, z_mag)
        return (UnitaryStep(choice.source_sign * z_mag, choice.gamma, True, choice.residual),)


@dataclass(frozen=True)
class CorrectionEvent:
    measurement_index: int
    kind: str
    gamma: float | None = None
    source_z: float | None = None
    residual: float | None = None
    outcome: int | None = None


@dataclass(frozen=True)
class CorrectionChoice:
    gamma: float
    source_sign: int
    corrected_bands: np.ndarray  # (3, d) band array, kernels.to_bands
    residual: float


@dataclass
class TrajectoryRecord:
    """One seeded measurement record: outcome string, per-step summaries and
    success probabilities, and the corrections that were applied."""

    seed: int
    outcomes: np.ndarray
    outcome_is_corrective: np.ndarray
    snapshots: list[FrameSummary]
    p_succ_series: np.ndarray
    correction_events: list[CorrectionEvent]
    final_bands: np.ndarray  # (3, d) band array, kernels.to_bands
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def outcome_string(self) -> str:
        return "".join("+" if o > 0 else "-" for o in self.outcomes)


# ---------------------------------------------------------------------------
# averaged evolution
# ---------------------------------------------------------------------------

@dataclass
class AverageRun:
    step_indices: np.ndarray
    summaries: list[FrameSummary]
    p_succ_series: np.ndarray
    final_bands: np.ndarray  # (3, d) band array, kernels.to_bands


def _checked(B: np.ndarray) -> np.ndarray:
    """Band hygiene: finiteness, then the O(d) trace and diagonal repair."""
    if not np.isfinite(B).all():
        raise NumericalInvariantError("state left the finite domain during the run")
    return hygiene(B, bands=True)


def apply_step(B: np.ndarray, step, ops: SpinOperators) -> np.ndarray:
    """One average-map step of a schedule on a band array (kernels.to_bands)."""
    if isinstance(step, MeasureStep):
        return average_channel(B, step.z, ops, bands=True)
    if isinstance(step, UnitaryStep):
        return unitary_channel(B, step.z, ops, step.gamma, bands=True)
    raise TypeError(f"unknown step kind {step!r}")


def run_average(rho0: np.ndarray, schedule: Schedule, ops: SpinOperators,
                record_every: int = 1, n_hat: np.ndarray | None = None,
                strategy=None) -> AverageRun:
    """Deterministic evolution under the average maps of a schedule.

    The strategy's corrections (outcome None) follow every schedule step and
    are not counted as steps.  Snapshots (frame summary and p_succ against
    n_hat, defaulting to the initial direction) are recorded every
    record_every steps and always for the initial and final states.
    """
    validate_schedule(schedule)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    summary0 = summarize_frame(rho0, ops)
    if n_hat is None:
        n_hat = summary0.mean_L / np.linalg.norm(summary0.mean_L)
    cur = to_bands(rho0)
    indices = [0]
    summaries = [summary0]
    probs = [band_p_succ(cur, ops, n_hat)]
    for i, step in enumerate(schedule, start=1):
        cur = _checked(apply_step(cur, step, ops))
        for fix in strategy.corrections(i - 1, step.z, None, cur, ops, summary0.theta) \
                if strategy else ():
            cur = _checked(apply_step(cur, fix, ops))
        if i % record_every == 0 or i == len(schedule):
            indices.append(i)
            summaries.append(band_summary(cur, ops))
            probs.append(band_p_succ(cur, ops, n_hat))
    return AverageRun(np.array(indices), summaries, np.array(probs), cur)


def average_lifetime_stepper(rho0: np.ndarray, q, ops: SpinOperators, threshold: float,
                             n_hat: np.ndarray, strategy, step_cap: int) -> int:
    """First measurement count at which p_succ drops below the threshold.

    Correction steps are applied but not counted on the measurement axis.
    Only outcome-independent strategies make sense under average evolution.
    """
    z = as_polarization(q)
    theta0 = float(np.arctan2(n_hat[0], n_hat[2]))
    cur = to_bands(rho0)
    for n in range(1, step_cap + 1):
        cur = _checked(average_channel(cur, z, ops, bands=True))
        for step in strategy.corrections(n - 1, z, None, cur, ops, theta0) if strategy else ():
            cur = _checked(apply_step(cur, step, ops))
        if band_p_succ(cur, ops, n_hat) < threshold:
            return n
    raise LifetimeCapExceeded(step_cap)


# ---------------------------------------------------------------------------
# conditional correction
# ---------------------------------------------------------------------------

def _trig_roots(a: float, b: float, c: float) -> tuple:
    """The roots in gamma of a + b cos(gamma) + c sin(gamma) = 0, if any."""
    h = np.hypot(b, c)
    if h == 0.0 or abs(a) > h:
        return ()
    phi, half_width = np.arctan2(c, b), np.arccos(-a / h)
    return (phi + half_width, phi - half_width)


def conditional_correction_step(B: np.ndarray, theta_known: float, outcome,
                                ops: SpinOperators, z_mag: float = 1.0) -> CorrectionChoice:
    """Best single unitary kick returning a post-measurement state to a known
    inclination t, in closed form.

    The channel is affine in (1, cos gamma, sin gamma), so either source sign
    kicks <L> = (x, y, z) to exactly P + Q cos gamma + R sin gamma, where
    P = (v0 + v_pi)/2, Q = (v0 - v_pi)/2, R = v_pi/2 - P from the current v0
    and trial kicks at pi and pi/2.  Candidates: no kick and, per sign, the
    roots of the hit condition x cos t - z sin t = 0 and of the stationary
    condition x z' - z x' = Q^R + (P^R) cos gamma - (P^Q) sin gamma = 0
    (^ the X-Z cross product), met by the best reachable inclination.  The
    least residual |atan2(x, z) - t| wins; residuals within 1e-12 of it tie
    and go to the largest forward component x sin t + z cos t.  That rule is
    load-bearing: both signs usually hit, and which one is taken sets the
    trajectory.  Remaining ties go to the first of no kick, sign +1, hit
    roots, phi + arccos.  B and the corrected state are band arrays
    (kernels.to_bands); on target, gamma = 0 and B itself are returned.
    """
    if not 0.0 < theta_known < np.pi:
        raise ValueError(f"theta_known must lie in (0, pi), got {theta_known!r}")
    cos_t, sin_t = np.cos(theta_known), np.sin(theta_known)

    def error(v):
        return abs(np.arctan2(v[0], v[2]) - theta_known)

    v0 = band_mean_L(B, ops)
    candidates = [(0.0, +1, v0)]
    for sign in (+1, -1) if error(v0) > 1e-12 else ():
        v_pi, v_half = (band_mean_L(unitary_channel(B, sign * z_mag, ops, g, bands=True), ops)
                        for g in (np.pi, 0.5 * np.pi))
        P, Q = 0.5 * (v0 + v_pi), 0.5 * (v0 - v_pi)
        R = v_half - P
        hit = _trig_roots(*(u[0] * cos_t - u[2] * sin_t for u in (P, Q, R)))
        stationary = _trig_roots(Q[0] * R[2] - Q[2] * R[0], P[0] * R[2] - P[2] * R[0],
                                 P[2] * Q[0] - P[0] * Q[2])
        candidates += [(g, sign, P + Q * np.cos(g) + R * np.sin(g))
                       for g in np.mod(hit + stationary, 2.0 * np.pi)]
    least = min(error(v) for _, _, v in candidates)
    gamma, sign, _ = max((c for c in candidates if error(c[2]) <= least + 1e-12),
                         key=lambda c: c[2][0] * sin_t + c[2][2] * cos_t)
    if gamma == 0.0:
        return CorrectionChoice(0.0, +1, B, error(v0))
    kicked = hygiene(unitary_channel(B, sign * z_mag, ops, gamma, bands=True), bands=True)
    return CorrectionChoice(float(gamma), sign, kicked, error(band_mean_L(kicked, ops)))


# ---------------------------------------------------------------------------
# stochastic trajectories
# ---------------------------------------------------------------------------

def _draw_outcome(rng, p_plus: float) -> int:
    if not np.isfinite(p_plus) or p_plus < -1e-9 or p_plus > 1.0 + 1e-9:
        raise NumericalInvariantError(f"outcome probability left [0, 1]: {p_plus!r}")
    u = rng.random()
    # near-certain branches are forced so conditioning stays well defined
    if p_plus < OUTCOME_EPS:
        return -1
    if p_plus > 1.0 - OUTCOME_EPS:
        return +1
    return +1 if u < p_plus else -1


def _measure(rng, B, z, ops):
    p_plus, _ = outcome_probabilities(B, z, ops, bands=True)
    outcome = _draw_outcome(rng, p_plus)
    sigma = selective_unnormalized(B, z, ops, outcome, bands=True)
    p = sigma[0].sum().real
    if p <= 0.0:
        raise NumericalInvariantError(f"selected branch has nonpositive weight {p!r}")
    return outcome, _checked(sigma / p)


def run_stochastic(rho0: np.ndarray, n_measure: int, q, strategy, seed: int,
                   ops: SpinOperators) -> TrajectoryRecord:
    """One seeded measurement record.

    Outcomes are drawn from the exact finite-l probabilities and the matching
    selective channel is applied; the strategy inserts its corrective steps
    after each primary measurement.  Snapshots and p_succ (against the
    initial direction) are recorded per primary measurement, corrections
    included, matching the convention that corrective particles do not count
    on the measurement axis.  A measurement can leave the frame unpolarized;
    its snapshot then has a NaN inclination while p_succ stays defined.
    """
    if n_measure < 1:
        raise ValueError("n_measure must be >= 1")
    z = as_polarization(q)
    rng = np.random.default_rng(np.random.Philox(key=seed))
    summary0 = summarize_frame(rho0, ops)
    v0, theta0 = summary0.mean_L, summary0.theta
    n_hat = v0 / np.linalg.norm(v0)

    outcomes: list[int] = []
    corrective_flags: list[bool] = []
    cur = to_bands(rho0)
    snapshots = [summary0]
    probs = [band_p_succ(cur, ops, n_hat)]
    events: list[CorrectionEvent] = []
    for i in range(n_measure):
        outcome, cur = _measure(rng, cur, z, ops)
        outcomes.append(outcome)
        corrective_flags.append(False)
        for step in strategy.corrections(i, z, outcome, cur, ops, theta0) if strategy else ():
            if isinstance(step, MeasureStep):
                bar_outcome, cur = _measure(rng, cur, step.z, ops)
                outcomes.append(bar_outcome)
                corrective_flags.append(step.corrective)
                events.append(CorrectionEvent(i, "measure_antipolarized", source_z=step.z,
                                              outcome=bar_outcome))
            else:
                cur = _checked(apply_step(cur, step, ops))
                tuned = step.residual is not None  # a conditional kick records its outcome
                events.append(CorrectionEvent(i, "conditional" if tuned else "unitary", step.gamma,
                                              step.z, step.residual, outcome if tuned else None))

        snapshots.append(band_summary(cur, ops))
        probs.append(band_p_succ(cur, ops, n_hat))

    return TrajectoryRecord(
        seed=int(seed),
        outcomes=np.array(outcomes, dtype=np.int8),
        outcome_is_corrective=np.array(corrective_flags, dtype=bool),
        snapshots=snapshots,
        p_succ_series=np.array(probs),
        correction_events=events,
        final_bands=cur,
    )


def run_ensemble(rho0: np.ndarray, n_measure: int, q, strategy, seeds,
                 ops: SpinOperators) -> list[TrajectoryRecord]:
    """Independent trajectories for each seed, in the order of the seed list."""
    return [run_stochastic(rho0, n_measure, q, strategy, s, ops) for s in seeds]


@dataclass
class EnsembleStatistics:
    n_records: int
    mean_L: np.ndarray          # (n_steps, 3)
    mean_L_stderr: np.ndarray
    theta: np.ndarray           # (n_steps,)
    theta_stderr: np.ndarray
    p_succ: np.ndarray
    p_succ_stderr: np.ndarray
    plus_fraction: np.ndarray   # per primary measurement
    plus_fraction_stderr: np.ndarray


def _mean_stderr(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = arr.mean(axis=0)
    if arr.shape[0] == 1:
        return mean, np.zeros_like(mean)
    return mean, arr.std(axis=0, ddof=1) / np.sqrt(arr.shape[0])


def ensemble_statistics(records: list[TrajectoryRecord]) -> EnsembleStatistics:
    """Per-step means and standard errors across an ensemble of records."""
    if not records:
        raise ValueError("no records supplied")
    n_steps = len(records[0].snapshots)
    n_out = len(records[0].outcomes)
    for rec in records:
        if len(rec.snapshots) != n_steps or len(rec.outcomes) != n_out:
            raise ValueError("records have mixed lengths")
    mean_L = np.array([[s.mean_L for s in rec.snapshots] for rec in records])
    theta = np.array([[s.theta for s in rec.snapshots] for rec in records])
    probs = np.array([rec.p_succ_series for rec in records])
    primary = ~records[0].outcome_is_corrective
    plus = np.array([(rec.outcomes[primary] > 0).astype(float) for rec in records])
    mL, mLs = _mean_stderr(mean_L)
    th, ths = _mean_stderr(theta)
    ps, pss = _mean_stderr(probs)
    pf, pfs = _mean_stderr(plus)
    return EnsembleStatistics(len(records), mL, mLs, th, ths, ps, pss, pf, pfs)
