"""Sequential evolution of the frame: averaged runs, the usable lifetime,
seeded measurement records and the drift-correction strategies.

Every run converts its initial state once to the band array of its
diagonals 0-2 (kernels.to_bands) and steps that, O(d) per step; the records
hold the final band array, not a d x d matrix.  All runs share one stepping
loop, _evolve, and one step function, _apply: run_average and
usable_lifetime feed it average-map steps, the stochastic engine
measurements with drawn outcomes.  A strategy inserts its corrections after
each step through the same hook in all of them.  Every step takes its
kernel factors from the memo channels.step_factors.  Every state is checked
to be finite and repaired by channels.hygiene, in blocks where no draw
waits on it (see _evolve).  Every run reads the polarization with
metrics.band_mean_L, a block at a time, and derives the inclination and
p_succ (against the initial direction, unless given) from it.

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

from dataclasses import dataclass, replace
from itertools import islice, repeat
from typing import Sequence

import numpy as np

from .channels import (OUTCOME_EPS, _drift, _p_plus, average_channel, hygiene, step_factors,
                       unitary_channel)
from .kernels import apply_factors, to_bands
from .metrics import (
    UnpolarizedFrame,
    band_mean_L,
    inclination_of,
    mean_angular_momentum,
    p_succ_of,
    unit_direction,
)
from .spin import SpinOperators, as_polarization

RNG_ALGORITHM = "numpy-philox4x64"
CHUNK = 256  # seeds stepped together; see the module docstring
STEP_BLOCK = 16  # steps checked and read at once without draws: larger blocks save no more


class NumericalInvariantError(RuntimeError):
    """A run left the finite domain, drew an outcome probability outside
    [0, 1] or selected a branch of nonpositive weight."""


class ThresholdOutOfRange(ValueError):
    """A usable-lifetime threshold outside (0.5, p_succ of the initial state)."""


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
    """One seeded measurement record: outcome string, inclination and success
    probability per primary measurement, and the corrections that were
    applied."""

    seed: int
    outcomes: np.ndarray
    outcome_is_corrective: np.ndarray
    theta_series: np.ndarray  # NaN where the frame is unpolarized
    p_succ_series: np.ndarray
    correction_events: list[CorrectionEvent]
    final_bands: np.ndarray  # (3, d) band array, kernels.to_bands
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def outcome_string(self) -> str:
        return "".join("+" if o > 0 else "-" for o in self.outcomes)


# ---------------------------------------------------------------------------
# the stepping loop
# ---------------------------------------------------------------------------

def _apply(B: np.ndarray, step, ops: SpinOperators, draws=None):
    """One step on a band array or an (S, 3, d) batch: (state, outcomes).

    A kick applies the unitary channel, or the kicked bands a strategy
    already formed, to the seeds its mask selects.  A measurement without
    draws is the average map.  With draws, every seed's outcome is drawn from its next
    uniform and that branch is applied, normalized; near-certain branches
    are forced so that conditioning stays well defined, and their uniform is
    consumed all the same.  Only a drawn measurement has outcomes, (S,) int8.
    The new state is returned unchecked; _evolve checks it (_checked).
    """
    outcome = None
    if isinstance(step, UnitaryStep):
        out = step.bands if step.bands is not None \
            else unitary_channel(B, step.z, ops, step.gamma, bands=True)
        if step.where is not None:
            out = np.where(step.where[:, None, None], out, B)
    elif draws is None:
        out = average_channel(B, step.z, ops, bands=True)
    else:
        p_plus = _p_plus(B[:, 0], step.z, ops)
        valid = (p_plus >= -1e-9) & (p_plus <= 1.0 + 1e-9)  # False for NaN too
        if not valid.all():
            raise NumericalInvariantError(
                f"outcome probability left [0, 1]: {p_plus[~valid][0]!r}")
        u = next(draws)
        plus = (p_plus > 1.0 - OUTCOME_EPS) | ((p_plus >= OUTCOME_EPS) & (u < p_plus))
        diagonal, up, down = step_factors(ops.l.twice_l, "selective", step.z)
        out = apply_factors(B, diagonal[plus.astype(np.intp)], up, down)
        p = out[:, 0].sum(axis=-1).real
        if (p <= 0.0).any():
            raise NumericalInvariantError(f"selected branch has nonpositive weight {p.min()!r}")
        out, outcome = out / p[:, None, None], np.where(plus, np.int8(1), np.int8(-1))
    return out, outcome


def _checked(B: np.ndarray) -> np.ndarray:
    """A stepped state, checked to be finite and then repaired by hygiene."""
    if not np.isfinite(B).all():
        raise NumericalInvariantError("state left the finite domain during the run")
    return hygiene(B)


def _evolve(B: np.ndarray, steps, strategy, ops: SpinOperators, theta0: float, draws=None):
    """The one stepping loop of every run: apply each step, then the
    corrections the strategy inserts after it (given the step's outcomes,
    None under average evolution), and yield blocks of primary steps as
    (states, log): the state after each one's corrections, stacked, and per
    step [(step, outcomes), (correction, outcomes), ...].

    With draws, a block is one step, checked (_checked) before the next draw.
    Without, STEP_BLOCK steps are taken by the kernel alone, then all their
    states get one finite and one silent drift check (_drift); a block that
    fails or raises is replayed from its start with _checked after every
    step, so states, repairs, warnings and errors are those of checking each
    state.
    """
    def run(B, block, check):
        states, ends, log = [], [], []
        for i, step in block:
            B, outcome = _apply(B, step, ops, draws)
            states.append(B := check(B))
            log.append([(step, outcome)])
            for fix in strategy.corrections(i, step.z, outcome, B, ops, theta0) if strategy else ():
                B, fix_outcome = _apply(B, fix, ops, draws)
                states.append(B := check(B))
                log[-1].append((fix, fix_outcome))
            ends.append(len(states) - 1)
        return states, ends, log

    steps = enumerate(steps)
    while block := list(islice(steps, STEP_BLOCK if draws is None else 1)):
        clean = False
        if draws is None:
            try:  # a replay raises, and warns, as checking each state does
                with np.errstate(all="ignore"):
                    states, ends, log = run(B, block, lambda state: state)
                stack = np.array(states)
                clean = _drift(stack)[0].all() and np.isfinite(stack).all()
            except Exception:
                pass
        if not clean:
            states, ends, log = run(B, block, _checked)
            # a drawn block is one step: its batch is kept, not copied into a stack
            stack = np.array(states) if draws is None else states[-1][None]
        B = states[-1]
        yield stack if len(ends) == len(stack) else stack[ends], log


# ---------------------------------------------------------------------------
# averaged evolution
# ---------------------------------------------------------------------------

def _initial_direction(rho0: np.ndarray, ops: SpinOperators):
    """The polarization v of rho0, the unit vector along it and its
    inclination; raises UnpolarizedFrame when rho0 has no direction."""
    v = mean_angular_momentum(rho0, ops)
    theta = float(inclination_of(v))
    if np.isnan(theta):
        raise UnpolarizedFrame(f"|<L>| = {np.linalg.norm(v):.3e}; the initial state has no "
                               "direction")
    return v, v / np.linalg.norm(v), theta


@dataclass
class AverageRun:
    """The reads of an averaged run at its recorded steps."""

    step_indices: np.ndarray
    mean_L: np.ndarray          # (n_rec, 3) polarization vectors
    theta_series: np.ndarray    # NaN where the frame is unpolarized
    p_succ_series: np.ndarray
    final_bands: np.ndarray     # (3, d) band array, kernels.to_bands


def run_average(rho0: np.ndarray, schedule: Schedule, ops: SpinOperators,
                record_every: int = 1, n_hat: np.ndarray | None = None,
                strategy=None) -> AverageRun:
    """Deterministic evolution under the average maps of a schedule.

    The strategy's corrections (outcome None) follow every schedule step and
    are not counted as steps.  The polarization, the inclination and p_succ
    against the unit vector n_hat (default: the initial direction, which
    must then exist) are recorded every record_every steps and always for
    the initial and final states.
    """
    validate_schedule(schedule)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    cur = to_bands(rho0)
    reads = [band_mean_L(cur[None], ops)]
    if n_hat is None:
        _, n_hat, theta0 = _initial_direction(rho0, ops)
    else:  # the start may be unpolarized: its inclination is then NaN
        n_hat, theta0 = unit_direction(n_hat), float(inclination_of(reads[0][0]))
    at = np.arange(len(schedule) + 1)
    keep = (at % record_every == 0) | (at == len(schedule))
    n = 0
    for states, _ in _evolve(cur, schedule, strategy, ops, theta0):
        reads.append(band_mean_L(states[keep[n + 1:n + 1 + len(states)]], ops))
        n, cur = n + len(states), states[-1]
    mean_L = np.concatenate(reads)
    return AverageRun(at[keep], mean_L, inclination_of(mean_L),
                      p_succ_of(mean_L, n_hat, ops), cur)


def usable_lifetime(rho0: np.ndarray, q, ops: SpinOperators, threshold: float,
                    strategy=None, *, step_cap: int = 10**6) -> int:
    """Number of measurements before p_succ (along the initial direction)
    falls below the threshold, under average evolution with the given
    correction strategy.

    Steps forward one average channel at a time and reads each checked
    block of _evolve at once, returning the first crossing; correction steps
    are applied but not counted, and only outcome-independent strategies
    have an average evolution.  The cap is reported by exception if the
    threshold is never crossed within step_cap steps.
    """
    v0, n_hat, theta0 = _initial_direction(rho0, ops)
    p0 = float(p_succ_of(v0, n_hat, ops))
    if not 0.5 < threshold < p0:
        raise ThresholdOutOfRange(f"threshold must lie in (0.5, p_succ(rho0)) = (0.5, {p0:.6f}), "
                                  f"got {threshold!r}")
    steps = repeat(MeasureStep(as_polarization(q)), step_cap)
    n = 0
    for states, _ in _evolve(to_bands(rho0), steps, strategy, ops, theta0):
        below = p_succ_of(band_mean_L(states, ops), n_hat, ops) < threshold
        if below.any():
            return n + int(below.argmax()) + 1
        n += len(states)
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
    trajectory.  Forward components within 1e-12 of the largest tie too, and
    such ties go to the first of no kick, sign +1, hit roots, phi + arccos,
    so rounding never picks between the mirror kicks gamma, 2 pi - gamma of
    an in-plane state.  B and the corrected state are band arrays
    (kernels.to_bands); corrected_bands is returned as the channel gives it,
    without the hygiene repair the stepping loop applies.  On target,
    gamma = 0 and B itself are returned.
    """
    if not 0.0 < theta_known < np.pi:
        raise ValueError(f"theta_known must lie in (0, pi), got {theta_known!r}")
    cos_t, sin_t = np.cos(theta_known), np.sin(theta_known)

    def error(v):
        return abs(np.arctan2(v[0], v[2]) - theta_known)

    v0 = band_mean_L(B, ops)
    candidates = [(0.0, +1, v0)]
    for sign in (+1, -1) if error(v0) > 1e-12 else ():
        v_pi, v_half = band_mean_L(np.array([unitary_channel(B, sign * z_mag, ops, g, bands=True)
                                             for g in (np.pi, 0.5 * np.pi)]), ops)
        P, Q = 0.5 * (v0 + v_pi), 0.5 * (v0 - v_pi)
        R = v_half - P
        hit = _trig_roots(*(u[0] * cos_t - u[2] * sin_t for u in (P, Q, R)))
        stationary = _trig_roots(Q[0] * R[2] - Q[2] * R[0], P[0] * R[2] - P[2] * R[0],
                                 P[2] * Q[0] - P[0] * Q[2])
        candidates += [(g, sign, P + Q * np.cos(g) + R * np.sin(g))
                       for g in np.mod(hit + stationary, 2.0 * np.pi)]
    least = min(error(v) for _, _, v in candidates)
    tied = [(g, sign, v[0] * sin_t + v[2] * cos_t) for g, sign, v in candidates
            if error(v) <= least + 1e-12]
    most = max(forward for _, _, forward in tied)
    gamma, sign = next((g, sign) for g, sign, forward in tied if forward >= most - 1e-12)
    if gamma == 0.0:
        return CorrectionChoice(0.0, +1, B, error(v0))
    kicked = unitary_channel(B, sign * z_mag, ops, gamma, bands=True)
    return CorrectionChoice(float(gamma), sign, kicked, error(band_mean_L(kicked, ops)))


# ---------------------------------------------------------------------------
# stochastic trajectories
# ---------------------------------------------------------------------------

def _of_seed(value, s: int):
    """Seed s's entry of a per-seed array, or the value all seeds share."""
    return value[s].item() if isinstance(value, np.ndarray) else value


@dataclass
class _Chunk:
    """The seeds of one chunk, stepped together by _run_chunks."""

    seeds: list[int]
    log: list                   # per primary measurement, the (step, outcomes) taken
    reads: np.ndarray           # (2, S, n_measure + 1): p_succ and theta
    final: np.ndarray           # (S, 3, d)

    def events(self, s: int) -> list[CorrectionEvent]:
        events = []
        for i, ((_, primary), *fixes) in enumerate(self.log):
            for step, outcome in fixes:
                if isinstance(step, MeasureStep):
                    events.append(CorrectionEvent(i, "measure_antipolarized", source_z=step.z,
                                                  outcome=int(outcome[s])))
                elif step.where is None or step.where[s]:
                    tuned = step.residual is not None  # a conditional kick records its outcome
                    events.append(CorrectionEvent(
                        i, "conditional" if tuned else "unitary", _of_seed(step.gamma, s),
                        _of_seed(step.z, s), _of_seed(step.residual, s),
                        int(primary[s]) if tuned else None))
        return events

    def records(self) -> list[TrajectoryRecord]:
        drawn = [(step, o) for taken in self.log for step, o in taken if o is not None]
        outcomes = np.stack([o for _, o in drawn], axis=1)
        corrective = np.array([step.corrective for step, _ in drawn])
        return [TrajectoryRecord(seed, outcomes[s], corrective.copy(), self.reads[1, s],
                                 self.reads[0, s], self.events(s), self.final[s])
                for s, seed in enumerate(self.seeds)]


def _run_chunks(rho0: np.ndarray, n_measure: int, q, strategy, seeds, ops: SpinOperators):
    """The stochastic engine: yield the seeds in chunks of CHUNK, each stepped
    as one (S, 3, d) batch by _evolve, with p_succ (against the initial
    direction) and the inclination read once per primary measurement,
    corrections included."""
    if n_measure < 1:
        raise ValueError("n_measure must be >= 1")
    steps = [MeasureStep(as_polarization(q))] * n_measure
    _, n_hat, theta0 = _initial_direction(rho0, ops)

    def read(B):
        v = band_mean_L(B, ops)
        return p_succ_of(v, n_hat, ops), inclination_of(v)

    n_draws = n_measure * getattr(strategy, "draws_per_measurement", 1)
    B0 = to_bands(rho0)
    seeds = iter(seeds)
    while chunk := [int(s) for s in islice(seeds, CHUNK)]:
        # each seed's uniforms in one call, in the order the measurements use them
        draws = iter(np.array([np.random.default_rng(np.random.Philox(key=s)).random(n_draws)
                               for s in chunk]).T)
        B = np.repeat(B0[None], len(chunk), axis=0)
        log = []
        reads = np.empty((2, len(chunk), n_measure + 1))
        reads[:, :, 0] = read(B)
        for i, (states, (taken,)) in enumerate(_evolve(B, steps, strategy, ops, theta0, draws), 1):
            B = states[0]
            # the log keeps no kicked batch: one per step would outgrow the state
            log.append([(replace(step, bands=None) if getattr(step, "bands", None) is not None
                         else step, o) for step, o in taken])
            reads[:, :, i] = read(B)
        yield _Chunk(chunk, log, reads, B)


def run_ensemble(rho0: np.ndarray, n_measure: int, q, strategy, seeds,
                 ops: SpinOperators) -> list[TrajectoryRecord]:
    """One seeded measurement record per seed, in the order of the seeds.

    Outcomes are drawn from the exact finite-l probabilities and the matching
    selective channel is applied; the strategy inserts its corrective steps
    after each primary measurement.  The inclination and p_succ (against the
    initial direction) are recorded per primary measurement, corrections
    included, matching the convention that corrective particles do not count
    on the measurement axis.  A measurement can leave the frame unpolarized;
    its inclination is then NaN while p_succ stays defined.  The seeds are
    stepped together (see the module docstring).
    """
    return [record for chunk in _run_chunks(rho0, n_measure, q, strategy, seeds, ops)
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


def run_ensemble_statistics(rho0: np.ndarray, n_measure: int, q, strategy, seeds,
                            ops: SpinOperators) -> EnsembleStatistics:
    """Per-step means and standard errors of p_succ and the inclination, and
    the + fraction per primary measurement, over the records of run_ensemble
    for these seeds, without keeping the records.

    The per-step sums run over chunks of seeds, of p_succ and theta as
    deviations from the first seed's values: the shift keeps the one-pass
    variance free of cancellation and makes the spread of identical records
    exactly zero, and merging chunks is addition.
    """
    n, s1, s2, plus = 0, 0.0, 0.0, 0
    for chunk in _run_chunks(rho0, n_measure, q, strategy, seeds, ops):
        if not n:
            shift = chunk.reads[:, 0].copy()
        dev = chunk.reads - shift[:, None]
        s1 = s1 + dev.sum(axis=1)
        s2 = s2 + np.square(dev, out=dev).sum(axis=1)
        plus = plus + (np.stack([taken[0][1] for taken in chunk.log], axis=1) > 0).sum(axis=0)
        n += len(chunk.seeds)
        del chunk, dev  # freed before the next chunk is stepped
    if not n:
        raise ValueError("no seeds supplied")
    mean = shift + s1 / n
    var = (s2 - s1 * s1 / n) / max(n - 1, 1)
    stderr = np.sqrt(np.maximum(var, 0.0) / n)
    return EnsembleStatistics(n, mean[1], stderr[1], mean[0], stderr[0], plus / n)
