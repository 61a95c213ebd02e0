"""Sequential evolution of the frame: averaged runs, seeded measurement
records and the drift-correction strategies.

Every run converts its initial state once to the band array of its
diagonals 0-2 (kernels.to_bands) and steps that, O(d) per step; the records
hold the final band array, not a d x d matrix.

Trajectories are reproducible by construction: every seed owns a
counter-based generator keyed by it (the algorithm identifier below is
recorded in every output file), so a record depends on its seed alone.
The stochastic engine steps the seeds of an ensemble together, in chunks of
CHUNK seeds held as one (S, 3, d) batch of band arrays: one kernel call per
channel step advances every seed of a chunk, each along its own outcomes.
The chunk size is a constant, so ensemble statistics accumulate in a fixed
order, give the same bytes on any machine and take memory that does not
grow with the seed count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .channels import (
    OUTCOME_EPS,
    _coeffs_selective,
    _coeffs_unitary,
    average_channel,
    hygiene,
    outcome_probabilities,
    unitary_channel,
)
from .kernels import apply_factors, band_factors, to_bands
from .metrics import (
    FrameSummary,
    band_mean_L,
    band_p_succ,
    band_p_succ_theta,
    band_summary,
    summarize_frame,
)
from .spin import SpinOperators, as_polarization

RNG_ALGORITHM = "numpy-philox4x64"
CHUNK = 256  # seeds stepped together; see the module docstring


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
    """An invariant unitary kick.  In the stochastic engine z, gamma and
    residual may be (S,) arrays, one value per seed of a chunk; where masks
    the seeds kicked (None: all of them), and bands holds the kicked batch
    when the strategy has applied the kick itself."""

    z: float
    gamma: float
    corrective: bool = False
    residual: float | None = None  # the inclination error a tuned kick leaves
    where: np.ndarray | None = None
    bands: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.gamma).all():
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
# i (from 0) of a z source left the band state B.  Under average evolution outcome is None
# and B one band array; in the stochastic engine outcome holds the (S,) outcomes of a chunk
# and B its (S, 3, d) batch.  A strategy whose corrections measure declares how many
# uniforms each primary measurement consumes as draws_per_measurement (default 1).

class NoAverageEvolution(ValueError):
    """An outcome-dependent strategy was asked for its average evolution."""

    def __init__(self, strategy):
        super().__init__(f"strategy {strategy!r} is outcome-dependent and has no average evolution")


@dataclass(frozen=True)
class AlternatingAntipolarized:
    """Follow every measurement with a measurement of an antipolarized source."""

    draws_per_measurement = 2

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
        plus = outcome > 0
        return (UnitaryStep(-z, self.gamma, corrective=True, where=plus),) if plus.any() else ()


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
        theta = theta0 if self.theta_known is None else self.theta_known
        choices = [conditional_correction_step(b, theta, o, ops, z_mag) for b, o in zip(B, outcome)]
        return (UnitaryStep(np.array([c.source_sign * z_mag for c in choices]),
                            np.array([c.gamma for c in choices]), True,
                            np.array([c.residual for c in choices]),
                            bands=np.array([c.corrected_bands for c in choices])),)


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
    n_hat, defaulting to the initial direction, which must then exist) are
    recorded every record_every steps and always for the initial and final
    states.
    """
    validate_schedule(schedule)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    cur = to_bands(rho0)
    if n_hat is None:
        summary0 = summarize_frame(rho0, ops)
        n_hat = summary0.mean_L / np.linalg.norm(summary0.mean_L)
    else:  # the start may be unpolarized: its inclination is then NaN
        summary0 = band_summary(cur, ops)
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

def _factors(cache: dict, ops: SpinOperators, z: float, gamma: float | None = None):
    """The kernel factors (kernels.band_factors) of a step a run repeats,
    formed once per run: the kick (z, gamma), or for gamma None the - and +
    branches of a z source, stacked in that order."""
    if (z, gamma) not in cache:
        coeffs = _coeffs_selective(z, ops.d, np.array([-1, 1]).reshape(2, 1, 1)) \
            if gamma is None else _coeffs_unitary(z, ops.d, gamma)
        cache[z, gamma] = band_factors(ops.m_band, ops.ladder_band, coeffs)
    return cache[z, gamma]


def _measure(B: np.ndarray, z: float, u: np.ndarray, ops: SpinOperators, cache: dict):
    """Draw every seed's outcome from its uniform u and apply that branch,
    normalized; near-certain branches are forced so that conditioning stays
    well defined, and their uniform is consumed all the same."""
    p_plus, _ = outcome_probabilities(B, z, ops, bands=True)
    valid = (p_plus >= -1e-9) & (p_plus <= 1.0 + 1e-9)  # False for NaN too
    if not valid.all():
        raise NumericalInvariantError(f"outcome probability left [0, 1]: {p_plus[~valid][0]!r}")
    plus = (p_plus > 1.0 - OUTCOME_EPS) | ((p_plus >= OUTCOME_EPS) & (u < p_plus))
    diagonal, up, down = _factors(cache, ops, z)
    sigma = apply_factors(B, diagonal[plus.astype(np.intp)], up, down)
    p = sigma[:, 0].sum(axis=-1).real
    if (p <= 0.0).any():
        raise NumericalInvariantError(f"selected branch has nonpositive weight {p.min()!r}")
    return np.where(plus, np.int8(1), np.int8(-1)), _checked(sigma / p[:, None, None])


def _correct(B: np.ndarray, step: UnitaryStep, ops: SpinOperators, cache: dict) -> np.ndarray:
    if step.bands is not None:
        return _checked(step.bands)
    kicked = apply_factors(B, *_factors(cache, ops, step.z, step.gamma))
    return _checked(kicked if step.where is None else np.where(step.where[:, None, None], kicked, B))


def _of_seed(value, s: int):
    """Seed s's entry of a per-seed array, or the value all seeds share."""
    return value[s].item() if isinstance(value, np.ndarray) else value


@dataclass
class _Chunk:
    """The seeds of one chunk, stepped together by _run_chunks."""

    seeds: list[int]
    outcomes: np.ndarray        # (S, n_outcomes) int8
    corrective: np.ndarray      # (n_outcomes,) bool
    reads: np.ndarray           # (2, S, n_measure + 1): p_succ and theta
    log: list                   # (i, step, outcomes) per correction step taken
    final: np.ndarray           # (S, 3, d)
    snapshots: list | None      # per primary measurement, the S frame summaries

    def events(self, s: int) -> list[CorrectionEvent]:
        events = []
        for i, step, outcome in self.log:
            if isinstance(step, MeasureStep):
                events.append(CorrectionEvent(i, "measure_antipolarized", source_z=step.z,
                                              outcome=int(outcome[s])))
            elif step.where is None or step.where[s]:
                tuned = step.residual is not None  # a conditional kick records its outcome
                events.append(CorrectionEvent(
                    i, "conditional" if tuned else "unitary", _of_seed(step.gamma, s),
                    _of_seed(step.z, s), _of_seed(step.residual, s),
                    int(outcome[s]) if tuned else None))
        return events

    def records(self) -> list[TrajectoryRecord]:
        return [TrajectoryRecord(seed, self.outcomes[s], self.corrective.copy(),
                                 [row[s] for row in self.snapshots], self.reads[0, s],
                                 self.events(s), self.final[s])
                for s, seed in enumerate(self.seeds)]


def _run_chunks(rho0: np.ndarray, n_measure: int, q, strategy, seeds,
                ops: SpinOperators, summarize: bool = False):
    """The stochastic engine: yield the seeds in chunks of CHUNK, each stepped
    as one (S, 3, d) batch, with p_succ (against the initial direction) and
    the inclination read once per primary measurement, corrections included;
    summarize also keeps every seed's frame summary there."""
    if n_measure < 1:
        raise ValueError("n_measure must be >= 1")
    z = as_polarization(q)
    summary0 = summarize_frame(rho0, ops)
    n_hat = summary0.mean_L / np.linalg.norm(summary0.mean_L)
    n_draws = n_measure * getattr(strategy, "draws_per_measurement", 1)
    B0 = to_bands(rho0)
    cache = {}
    seeds = iter(seeds)
    while chunk := [int(s) for s in islice(seeds, CHUNK)]:
        # each seed's uniforms in one call, in the order the measurements use them
        draws = iter(np.array([np.random.default_rng(np.random.Philox(key=s)).random(n_draws)
                               for s in chunk]).T)
        B = np.repeat(B0[None], len(chunk), axis=0)
        outcomes, corrective, log = [], [], []
        reads = np.empty((2, len(chunk), n_measure + 1))
        reads[:, :, 0] = band_p_succ_theta(B, ops, n_hat)
        snapshots = [[summary0] * len(chunk)] if summarize else None
        for i in range(n_measure):
            outcome, B = _measure(B, z, next(draws), ops, cache)
            outcomes.append(outcome)
            corrective.append(False)
            for step in strategy.corrections(i, z, outcome, B, ops, summary0.theta) \
                    if strategy else ():
                if isinstance(step, MeasureStep):
                    bar_outcome, B = _measure(B, step.z, next(draws), ops, cache)
                    outcomes.append(bar_outcome)
                    corrective.append(step.corrective)
                    log.append((i, step, bar_outcome))
                else:
                    B = _correct(B, step, ops, cache)
                    log.append((i, step, outcome))
            reads[:, :, i + 1] = band_p_succ_theta(B, ops, n_hat)
            if summarize:
                snapshots.append([band_summary(b, ops) for b in B])
        yield _Chunk(chunk, np.stack(outcomes, axis=1), np.array(corrective), reads, log, B,
                     snapshots)


def run_ensemble(rho0: np.ndarray, n_measure: int, q, strategy, seeds,
                 ops: SpinOperators) -> list[TrajectoryRecord]:
    """One seeded measurement record per seed, in the order of the seeds.

    Outcomes are drawn from the exact finite-l probabilities and the matching
    selective channel is applied; the strategy inserts its corrective steps
    after each primary measurement.  Snapshots and p_succ (against the
    initial direction) are recorded per primary measurement, corrections
    included, matching the convention that corrective particles do not count
    on the measurement axis.  A measurement can leave the frame unpolarized;
    its snapshot then has a NaN inclination while p_succ stays defined.  The
    seeds are stepped together (see the module docstring); only the frame
    summaries are read seed by seed.
    """
    return [record for chunk in _run_chunks(rho0, n_measure, q, strategy, seeds, ops, True)
            for record in chunk.records()]


def run_stochastic(rho0: np.ndarray, n_measure: int, q, strategy, seed: int,
                   ops: SpinOperators) -> TrajectoryRecord:
    """One seeded measurement record (see run_ensemble): a batch of one seed."""
    return run_ensemble(rho0, n_measure, q, strategy, [seed], ops)[0]


@dataclass
class EnsembleStatistics:
    n_records: int
    theta: np.ndarray           # (n_steps,)
    theta_stderr: np.ndarray
    p_succ: np.ndarray
    p_succ_stderr: np.ndarray
    plus_fraction: np.ndarray   # per primary measurement


class _Accumulator:
    """Per-step sums over chunks of seeds: of p_succ and theta as deviations
    from the first seed's values, and of the + outcomes per primary
    measurement.  The shift keeps the one-pass variance free of cancellation
    and makes the spread of identical records exactly zero; merging chunks
    is addition."""

    def __init__(self):
        self.n = 0

    def add(self, reads: np.ndarray, plus: np.ndarray) -> None:
        """reads: (2, S, n_steps) p_succ and theta; plus: (S, n_primary) bool."""
        if not self.n:
            self.shift, self.s1, self.s2, self.plus = reads[:, 0].copy(), 0.0, 0.0, 0
        dev = reads - self.shift[:, None]
        self.s1 = self.s1 + dev.sum(axis=1)
        self.s2 = self.s2 + np.square(dev, out=dev).sum(axis=1)
        self.plus = self.plus + plus.sum(axis=0)
        self.n += reads.shape[1]

    def statistics(self) -> EnsembleStatistics:
        n = self.n
        mean = self.shift + self.s1 / n
        var = (self.s2 - self.s1 * self.s1 / n) / max(n - 1, 1)
        stderr = np.sqrt(np.maximum(var, 0.0) / n)
        return EnsembleStatistics(n, mean[1], stderr[1], mean[0], stderr[0], self.plus / n)


def run_ensemble_statistics(rho0: np.ndarray, n_measure: int, q, strategy, seeds,
                            ops: SpinOperators) -> EnsembleStatistics:
    """Per-step means and standard errors of p_succ and the inclination, and
    the + fraction per primary measurement, over the records of run_ensemble
    for these seeds, without keeping the records."""
    acc = _Accumulator()
    for chunk in _run_chunks(rho0, n_measure, q, strategy, seeds, ops):
        acc.add(chunk.reads, chunk.outcomes[:, ~chunk.corrective] > 0)
        del chunk  # freed before the next chunk is stepped
    if not acc.n:
        raise ValueError("no seeds supplied")
    return acc.statistics()


def ensemble_statistics(records: list[TrajectoryRecord]) -> EnsembleStatistics:
    """Per-step means and standard errors across an ensemble of records."""
    if not records:
        raise ValueError("no records supplied")
    n_steps = len(records[0].snapshots)
    n_out = len(records[0].outcomes)
    for rec in records:
        if len(rec.snapshots) != n_steps or len(rec.outcomes) != n_out:
            raise ValueError("records have mixed lengths")
    primary = ~records[0].outcome_is_corrective
    acc = _Accumulator()
    for start in range(0, len(records), CHUNK):
        part = records[start:start + CHUNK]
        acc.add(np.array([[rec.p_succ_series for rec in part],
                          [[s.theta for s in rec.snapshots] for rec in part]]),
                np.array([rec.outcomes[primary] > 0 for rec in part]))
    return acc.statistics()
