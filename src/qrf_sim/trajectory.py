"""Sequential evolution of the frame: averaged runs, the usable lifetime,
seeded measurement records and the drift-correction strategies.

Every run converts its initial state once to the two-row band array of its
diagonals 0 and 1 (kernels.to_bands) and steps that, O(d) per step; the
records hold the final band array, not a d x d matrix.  All runs share one
stepping loop, _evolve, and one step function per run, _stepper:
run_average and usable_lifetimes feed it average-map steps, the stochastic
engine measurements with drawn outcomes.  A strategy inserts its corrections
after each step through the same hook in all of them; _evolve logs each
primary step first and its corrections after it, and that position is the
only record of which drawn outcomes are corrections.  Every step takes its
kernel factors from the memo channels.step_factors: a step that takes no
draw, an average map or an unmasked kick, looks them up once per run and is
then applied by kernels.apply_factors alone; a drawn measurement, a masked
kick and per-seed kicked bands go through _apply.  Every state is checked
to be finite and repaired by channels.hygiene, a block of steps at a time
(see _evolve), and _evolve reads each block's polarization with
metrics.band_mean_L; the runs derive the inclination and p_succ (against
the initial direction from metrics.frame_direction, unless given) from it.

Trajectories are reproducible by construction: every seed owns a
counter-based generator keyed by it (the algorithm identifier below is
recorded in every output file), so a record depends on its seed alone.
The stochastic engine steps the seeds of an ensemble together, in chunks of
CHUNK seeds.  A chunk is arms x seeds: the A arms of run_arm_statistics, one
per strategy, each of the chunk's S seeds, held as one (A S, 2, d) batch of
band arrays, arm a on rows [a S, (a + 1) S).  The arms share the seeds'
draws, so one kernel call per channel step advances every seed of every
arm, each along its own outcomes, and each arm's statistics are those of
its strategy run alone.  The chunk size is a constant, so ensemble
statistics accumulate in a fixed order, give the same bytes on any machine
and take memory that does not grow with the seed count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice, repeat, tee
from typing import Sequence

import numpy as np

# average_channel is unused here but stays bound: see the comment above it in channels
from .channels import (OUTCOME_EPS, _drift, _p_plus, average_channel, hygiene, step_factors,
                       unitary_channel)
from .kernels import apply_factors, apply_factors_transposed, complex_sum, to_bands
from .metrics import band_mean_L, frame_direction, inclination_of, p_succ_of, unit_direction
from .spin import SpinOperators, SpinQuantum, as_polarization, build_spin_operators

RNG_ALGORITHM = "numpy-philox4x64"
CHUNK = 256  # seeds stepped together; see the module docstring
STEP_BLOCK = 16  # primary steps checked and read at once: larger blocks save no more
BLOCK_BYTES = 2**18  # caps a block's memory: fewer steps where 16 states outgrow it, one at least
NO_DRAWS = repeat(None)  # the draws of an average run: every measurement is the average map


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


@dataclass(frozen=True)
class UnitaryStep:
    """An invariant unitary kick.  In the stochastic engine z, gamma and
    residual may be (S,) arrays, one value per seed of a chunk; where masks
    the seeds kicked (None: all of them), and bands holds the whole kicked
    batch, with no mask, when the strategy has applied the kick itself."""

    z: float
    gamma: float
    residual: float | None = None  # the inclination error a tuned kick leaves
    where: np.ndarray | None = None
    bands: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.gamma) if isinstance(self.gamma, float)
                else np.isfinite(self.gamma).all()):
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
# and B its (S, 2, d) batch.  A strategy whose corrections measure declares how many
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
        return (MeasureStep(-z),)


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
        return (UnitaryStep(-z, self.gamma),) if (i + 1) % self.k == 0 else ()


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
        return (UnitaryStep(-z, self.gamma, where=plus),) if plus.any() else ()


@dataclass(frozen=True)
class ConditionalTuned:
    """Outcome-by-outcome correction tuned to a known inclination (default:
    the run's initial one, theta0).  Each seed's kick, from
    conditional_correction_step, solves a + b cos gamma + c sin gamma = 0 for
    a hit, or else for the stationary inclination, <L> being affine in
    (1, cos gamma, sin gamma) with coefficients read from one weighted sum
    over the seed's state; residual ties go to the kick keeping most
    polarization along the target.  The step applies the chosen kicks itself,
    one channel call per kicked seed, and hands the engine the kicked batch.
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
                            np.array([c.gamma for c in choices]),
                            np.array([c.residual for c in choices]),
                            bands=np.array([c.corrected_bands for c in choices])),)


@dataclass(frozen=True)
class _Arms:
    """The strategies of arms stepped as one batch, arm a on the rows
    [a S, (a + 1) S) of an (A S, 2, d) batch: each arm's corrections come from
    its own rows, and kicks with the same scalar (z, gamma) at the same
    position merge into one step masked to every row they kick.  The arms
    share the draws and each step, so they must take the same uniforms per
    measurement and correct by kicks alone; ValueError otherwise."""

    strategies: tuple

    def __post_init__(self):
        if len({getattr(s, "draws_per_measurement", 1) for s in self.strategies}) > 1:
            raise ValueError(f"arms {self.strategies!r} draw unequal uniforms per measurement")

    def corrections(self, i: int, z: float, outcome, B=None, ops=None, theta0=None) -> tuple:
        size = len(B) // len(self.strategies)
        merged: dict = {}  # (position, z, gamma) -> the rows kicked
        for a, strategy in enumerate(self.strategies):
            rows = slice(a * size, (a + 1) * size)
            fixes = strategy.corrections(i, z, outcome[rows], B[rows], ops, theta0) if strategy \
                else ()
            for j, fix in enumerate(fixes):
                if isinstance(fix, MeasureStep) or fix.bands is not None:
                    raise ValueError(f"arm {strategy!r} corrects by a measurement or by per-seed "
                                     "bands, which arms cannot share")
                mask = merged.setdefault((j, fix.z, fix.gamma), np.zeros(len(B), dtype=bool))
                mask[rows] = True if fix.where is None else fix.where
        # by position, so each arm's kicks keep their order
        return tuple(UnitaryStep(z, gamma, where=mask)
                     for (_, z, gamma), mask in sorted(merged.items(), key=lambda kv: kv[0][0]))


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
    corrected_bands: np.ndarray  # (2, d) band array, kernels.to_bands
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
    final_bands: np.ndarray  # (2, d) band array, kernels.to_bands
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def outcome_string(self) -> str:
        return "".join("+" if o > 0 else "-" for o in self.outcomes)


# ---------------------------------------------------------------------------
# the stepping loop
# ---------------------------------------------------------------------------

def _apply(B: np.ndarray, step, ops: SpinOperators, draws=NO_DRAWS):
    """A step that needs a draw, a mask or per-seed arrays, on a band array or
    an (S, 2, d) batch: (state, outcomes).  Every other step is resolved by
    _stepper.

    A kick with bands replaces the batch with the kicked bands its strategy
    formed (no strategy masks such a kick); a masked kick without applies the
    unitary channel to the selected rows alone.  A
    measurement draws each seed's outcome from its uniform in the next draw
    and applies that branch, normalized; near-certain branches are forced so
    that conditioning stays well defined, their uniform consumed all the
    same.  Only a measurement has outcomes, (S,) int8.  The state is returned
    unchecked (see _evolve).
    """
    if isinstance(step, UnitaryStep):
        if step.bands is not None:
            out = step.bands
        else:
            kicked = unitary_channel(B[step.where], step.z, ops, step.gamma, bands=True)
            out = B.astype(np.result_type(B, kicked))  # a copy, complex if the kick is
            out[step.where] = kicked
        return out, None
    u = next(draws)
    p_plus = _p_plus(B[:, 0], step.z, ops)
    valid = (p_plus >= -1e-9) & (p_plus <= 1.0 + 1e-9)  # False for NaN too
    if not valid.all():
        raise NumericalInvariantError(f"outcome probability left [0, 1]: {p_plus[~valid][0]!r}")
    plus = (p_plus > 1.0 - OUTCOME_EPS) | ((p_plus >= OUTCOME_EPS) & (u < p_plus))
    diagonal, up, down = step_factors(ops.l.twice_l, "selective", step.z)
    out = apply_factors(B, diagonal[plus.astype(np.intp)], up, down)
    p = complex_sum(out[:, 0]).real
    if (p <= 0.0).any():
        raise NumericalInvariantError(f"selected branch has nonpositive weight {p.min()!r}")
    out *= (1.0 / p)[:, None, None]  # the bits of out / p for complex out, as for real
    return out, np.where(plus, np.int8(1), np.int8(-1))


def _stepper(ops: SpinOperators, draw_free: bool = True):
    """The step function of one run, take(B, step, draws) -> (state,
    outcomes).  A step that takes no draw, the average map of a draw-free
    run or an unmasked kick (whose z and gamma are scalars), is resolved once
    per run: validated by as_polarization, looked up in channels.step_factors
    and from then on applied with kernels.apply_factors alone, for a kick
    the bits of unitary_channel with bands=True.  The last step
    resolved matches by identity, so a repeated step object costs no lookup,
    and any other by value; every other step goes to _apply."""
    resolved = {}  # (kind, z[, gamma]) -> factors
    last = [None, None]  # the last step resolved and its factors

    def take(B: np.ndarray, step, draws=NO_DRAWS):
        if step is last[0]:
            return apply_factors(B, *last[1]), None
        if isinstance(step, MeasureStep):
            key = ("average", step.z) if draw_free else None
        else:
            key = ("unitary", step.z, step.gamma) \
                if step.where is None and step.bands is None else None
        if key is None:
            return _apply(B, step, ops, draws)
        factors = resolved.get(key)
        if factors is None:
            kind, z, *gamma = key
            factors = resolved[key] = step_factors(ops.l.twice_l, kind, as_polarization(z), *gamma)
        last[:] = step, factors
        return apply_factors(B, *factors), None

    return take


def _checked(B: np.ndarray) -> np.ndarray:
    """A stepped state, checked to be finite and then repaired by hygiene."""
    if not np.isfinite(B).all():
        raise NumericalInvariantError("state left the finite domain during the run")
    return hygiene(B)


def _evolve(B: np.ndarray, steps, strategy, ops: SpinOperators, theta0: float, draws=NO_DRAWS):
    """The one stepping loop of every run: apply each step, then the
    corrections the strategy inserts after it (given the step's outcomes,
    None under average evolution), and yield blocks of primary steps as
    (v, state, log): the polarization after each one's corrections, the last
    state, and per step [(step, outcomes), (correction, outcomes), ...].
    Every step goes through one step function per run (_stepper), which
    resolves each distinct step that takes no draw to its memo factors once.

    A block is min(STEP_BLOCK, BLOCK_BYTES // B.nbytes) primary steps from
    the state B it starts at, at least one, taken by the kernel alone; then
    its states, stacked, get one finite and one silent drift check (_drift),
    and the states that end primary steps one read (band_mean_L).  A block
    that fails or raises is replayed from its start, on the same draws, with
    _checked after every step, so states, outcomes, repairs, warnings and
    errors are those of checking each state.
    """
    steps = enumerate(steps)
    take = _stepper(ops, draws is NO_DRAWS)

    def run(B, block, checked):
        states, ends, log = [], [], []
        for i, step in block:
            B, outcome = take(B, step, draws)
            states.append(B := _checked(B) if checked else B)
            log.append([(step, outcome)])
            for fix in strategy.corrections(i, step.z, outcome, B, ops, theta0) if strategy else ():
                B, fix_outcome = take(B, fix, draws)
                states.append(B := _checked(B) if checked else B)
                log[-1].append((fix, fix_outcome))
            ends.append(len(states) - 1)
        return states, ends, log

    while block := list(islice(steps, min(STEP_BLOCK, max(1, BLOCK_BYTES // B.nbytes)))):
        draws, replay = (draws, draws) if draws is NO_DRAWS else tee(draws)
        try:  # a replay raises, and warns, as checking each state does
            with np.errstate(all="ignore"):
                states, ends, log = run(B, block, False)
            stack = np.array(states)
            clean = _drift(stack)[0].all() and np.isfinite(stack).all()
        except Exception:
            clean = False
        if not clean:
            draws = replay
            states, ends, log = run(B, block, True)
            stack = np.array(states)
        B = states[-1]
        yield band_mean_L(stack if len(ends) == len(states) else stack[ends], ops), B, log


# ---------------------------------------------------------------------------
# averaged evolution
# ---------------------------------------------------------------------------

@dataclass
class AverageRun:
    """The reads of an averaged run at its recorded steps."""

    step_indices: np.ndarray
    mean_L: np.ndarray          # (n_rec, 3) polarization vectors
    theta_series: np.ndarray    # NaN where the frame is unpolarized
    p_succ_series: np.ndarray
    final_bands: np.ndarray     # (2, d) band array, kernels.to_bands


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
        _, n_hat, theta0 = frame_direction(rho0, ops)
    else:  # the start may be unpolarized: its inclination is then NaN
        n_hat, theta0 = unit_direction(n_hat), float(inclination_of(reads[0][0]))
    at = np.arange(len(schedule) + 1)
    keep = (at % record_every == 0) | (at == len(schedule))
    for v, cur, _ in _evolve(cur, schedule, strategy, ops, theta0):
        reads.append(v)
    mean_L = np.concatenate(reads)[keep]
    return AverageRun(at[keep], mean_L, inclination_of(mean_L),
                      p_succ_of(mean_L, n_hat, ops), cur)


def usable_lifetimes(rho0: np.ndarray, q, ops: SpinOperators, thresholds, strategy=None, *,
                     step_cap: int = 10**6) -> list:
    """Per threshold, the number of measurements before p_succ (along the
    initial direction) falls below it under average evolution with the
    strategy, or None if not within step_cap steps.  One pass steps until
    every threshold is crossed and reads each first crossing from the checked
    blocks of _evolve; corrections are not counted, and only
    outcome-independent strategies have an average evolution."""
    v0, n_hat, theta0 = frame_direction(rho0, ops)
    p0 = float(p_succ_of(v0, n_hat, ops))
    for threshold in thresholds:
        if not 0.5 < threshold < p0:
            raise ThresholdOutOfRange(f"threshold must lie in (0.5, p_succ(rho0)) = "
                                      f"(0.5, {p0:.6f}), got {threshold!r}")
    lives, levels = [None] * len(thresholds), np.array(thresholds, dtype=float)
    steps = repeat(MeasureStep(as_polarization(q)), step_cap)
    n = 0
    top = levels.max(initial=-np.inf)
    for v, _, _ in _evolve(to_bands(rho0), steps, strategy, ops, theta0):
        p = p_succ_of(v, n_hat, ops)
        if p.min() < top:  # else the block lies above every threshold
            below = p[:, None] < levels
            for i in np.flatnonzero(below.any(axis=0)):
                lives[i] = lives[i] or n + int(below[:, i].argmax()) + 1
        if all(lives):
            break
        n += len(v)
    return lives


def usable_lifetime(rho0: np.ndarray, q, ops: SpinOperators, threshold: float,
                    strategy=None, *, step_cap: int = 10**6) -> int:
    """usable_lifetimes for one threshold; LifetimeCapExceeded reports a
    threshold not crossed within step_cap steps."""
    life, = usable_lifetimes(rho0, q, ops, [threshold], strategy, step_cap=step_cap)
    if life is None:
        raise LifetimeCapExceeded(step_cap)
    return life


# ---------------------------------------------------------------------------
# conditional correction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _kick_read_weights(twice_l: int, z_mag: float) -> np.ndarray:
    """(5, 2, d) weights whose sums along a band array B (kernels.to_bands)
    give band_mean_L's reads, <Lz> from row 0 and <Lx> - i<Ly> from row 1, of
    B and of B kicked at gamma = pi and pi/2 by a source sign * z_mag, sign +1
    and then -1: the read vectors pulled back through the memo's factors of
    each kick (kernels.apply_factors_transposed), built once per (l, |z|)."""
    ops = build_spin_operators(SpinQuantum(twice_l))
    read = np.zeros((2, ops.d), dtype=np.complex128)
    read[0], read[1, :-1] = ops.m_diag, ops.ladder[1:]  # band_mean_L's read vectors
    weights = np.array([read] + [
        apply_factors_transposed(read, *step_factors(twice_l, "unitary",
                                                     as_polarization(sign * z_mag), gamma))
        for sign in (+1, -1) for gamma in (np.pi, 0.5 * np.pi)])
    weights.flags.writeable = False
    return weights


def _kick_reads(B: np.ndarray, ops: SpinOperators, z_mag: float):
    """The polarization v0 = (x, y, z) of a band array B, as floats, and per
    source sign +1 and -1 the (P, Q, R) with P + Q cos gamma + R sin gamma the
    polarization after a kick by gamma: P = (v0 + v_pi)/2, Q = (v0 - v_pi)/2
    and R = v_pi/2 - P from the reads of the kicks at pi and pi/2, all from one
    weighted sum over B (_kick_read_weights)."""
    sums = np.add.reduce(_kick_read_weights(ops.l.twice_l, z_mag) * B, axis=-1).tolist()
    v0, *kicked = [(row1.real, -row1.imag, row0.real) for row0, row1 in sums]
    terms = []
    for v_pi, v_half in (kicked[:2], kicked[2:]):
        P = tuple(0.5 * (a + b) for a, b in zip(v0, v_pi))
        Q = tuple(0.5 * (a - b) for a, b in zip(v0, v_pi))
        terms.append((P, Q, tuple(h - p for h, p in zip(v_half, P))))
    return v0, terms


def _trig_roots(a: float, b: float, c: float) -> tuple:
    """The roots in gamma of a + b cos(gamma) + c sin(gamma) = 0, if any."""
    h = math.hypot(b, c)
    if h == 0.0 or abs(a) > h:
        return ()
    phi, half_width = math.atan2(c, b), math.acos(-a / h)
    return (phi + half_width, phi - half_width)


def conditional_correction_step(B: np.ndarray, theta_known: float, outcome,
                                ops: SpinOperators, z_mag: float = 1.0) -> CorrectionChoice:
    """Best single unitary kick returning a post-measurement state to a known
    inclination t, in closed form.

    The channel is linear in B and affine in (1, cos gamma, sin gamma), so
    either source sign kicks <L> = (x, y, z) to exactly P + Q cos gamma +
    R sin gamma, where P = (v0 + v_pi)/2, Q = (v0 - v_pi)/2, R = v_pi/2 - P
    from the current v0 and the kicks at pi and pi/2.  No kick is tried: v0,
    P, Q and R come from one weighted sum over B (_kick_reads), and the
    candidates are chosen in Python floats.  Candidates: no kick and, per
    sign, the roots of the hit condition x cos t - z sin t = 0 and of the
    stationary condition x z' - z x' = Q^R + (P^R) cos gamma - (P^Q) sin gamma
    = 0 (^ the X-Z cross product), met by the best reachable inclination.  The
    least residual |atan2(x, z) - t| wins; residuals within 1e-12 of it tie
    and go to the largest forward component x sin t + z cos t.  That rule is
    load-bearing: both signs usually hit, and which one is taken sets the
    trajectory.  Forward components within 1e-12 of the largest tie too, and
    such ties go to the first of no kick, sign +1, hit roots, phi + arccos,
    so rounding never picks between the mirror kicks gamma, 2 pi - gamma of
    an in-plane state.  B and the corrected state are band arrays
    (kernels.to_bands); the chosen kick is the one unitary_channel call, and
    corrected_bands is returned as the channel gives it, without the hygiene
    repair the stepping loop applies.  The residual is that of
    band_mean_L(corrected_bands).  On target, gamma = 0 and B itself are
    returned.
    """
    if not 0.0 < theta_known < np.pi:
        raise ValueError(f"theta_known must lie in (0, pi), got {theta_known!r}")
    cos_t, sin_t = math.cos(theta_known), math.sin(theta_known)

    def scored(gamma, sign, x, z):  # (residual, gamma, sign, forward component)
        return abs(math.atan2(x, z) - theta_known), gamma, sign, x * sin_t + z * cos_t

    v0, terms = _kick_reads(B, ops, z_mag)
    candidates = [scored(0.0, +1, v0[0], v0[2])]
    for sign, (P, Q, R) in zip((+1, -1), terms) if candidates[0][0] > 1e-12 else ():
        hit = _trig_roots(*(u[0] * cos_t - u[2] * sin_t for u in (P, Q, R)))
        stationary = _trig_roots(Q[0] * R[2] - Q[2] * R[0], P[0] * R[2] - P[2] * R[0],
                                 P[2] * Q[0] - P[0] * Q[2])
        for g in hit + stationary:
            g %= 2.0 * math.pi
            c, s = math.cos(g), math.sin(g)
            candidates.append(scored(g, sign, P[0] + Q[0] * c + R[0] * s,
                                     P[2] + Q[2] * c + R[2] * s))
    least = min(residual for residual, *_ in candidates)
    tied = [choice for choice in candidates if choice[0] <= least + 1e-12]
    most = max(forward for *_, forward in tied)
    _, gamma, sign, _ = next(choice for choice in tied if choice[3] >= most - 1e-12)
    kicked = B if gamma == 0.0 else unitary_channel(B, sign * z_mag, ops, gamma, bands=True)
    v = band_mean_L(kicked, ops)
    residual = float(abs(np.arctan2(v[0], v[2]) - theta_known))
    return CorrectionChoice(gamma, sign if gamma else +1, kicked, residual)


# ---------------------------------------------------------------------------
# stochastic trajectories
# ---------------------------------------------------------------------------

def _of_seed(value, s: int):
    """Seed s's entry of a per-seed array, or the value all seeds share."""
    return value[s].item() if isinstance(value, np.ndarray) else value


@dataclass
class _Chunk:
    """The seeds of one chunk, stepped together by _run_chunks; records and
    events read a chunk of one arm."""

    seeds: list[int]
    log: list                   # per primary measurement, the (step, outcomes) taken, itself first
    reads: np.ndarray           # (2, A S, n_measure + 1): p_succ and theta
    final: np.ndarray           # (A S, 2, d)

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
        drawn = [(j > 0, o) for taken in self.log for j, (_, o) in enumerate(taken)
                 if o is not None]  # j > 0: a correction
        outcomes = np.stack([o for _, o in drawn], axis=1)
        corrective = np.array([fix for fix, _ in drawn])
        return [TrajectoryRecord(seed, outcomes[s], corrective.copy(), self.reads[1, s],
                                 self.reads[0, s], self.events(s), self.final[s])
                for s, seed in enumerate(self.seeds)]


def _run_chunks(rho0: np.ndarray, n_measure: int, q, strategies: tuple, seeds,
                ops: SpinOperators):
    """The stochastic engine: yield the seeds in chunks of CHUNK, each stepped
    by _evolve as one (A S, 2, d) batch of A arms, one per strategy, each of
    the S seeds of the chunk, with p_succ (against the initial direction) and
    the inclination derived a block at a time from the polarization _evolve
    reads after each primary measurement's corrections.  Every arm steps
    along the seeds' own draws; one arm's strategy runs itself, several run
    as _Arms."""
    if n_measure < 1:
        raise ValueError("n_measure must be >= 1")
    steps = [MeasureStep(as_polarization(q))] * n_measure
    _, n_hat, theta0 = frame_direction(rho0, ops)
    strategy = strategies[0] if len(strategies) == 1 else _Arms(tuple(strategies))

    def read(v):  # (2, A S, n) reads of the (n, A S, 3) polarizations of n primary steps
        return np.array([p_succ_of(v, n_hat, ops), inclination_of(v)]).transpose(0, 2, 1)

    n_draws = n_measure * getattr(strategies[0], "draws_per_measurement", 1)  # all alike: _Arms
    B0 = to_bands(rho0)
    seeds = iter(seeds)
    while chunk := [int(s) for s in islice(seeds, CHUNK)]:
        # each seed's uniforms in one call, in the order the measurements use them
        draws = np.array([np.random.default_rng(np.random.Philox(key=s)).random(n_draws)
                          for s in chunk]).T
        draws = iter(np.tile(draws, (1, len(strategies))))
        B = np.repeat(B0[None], len(strategies) * len(chunk), axis=0)
        log, reads = [], [read(band_mean_L(B, ops)[None])]
        for v, B, taken in _evolve(B, steps, strategy, ops, theta0, draws):
            reads.append(read(v))
            # the log keeps no kicked batch: one per step would outgrow the state
            log += [[(replace(step, bands=None) if getattr(step, "bands", None) is not None
                      else step, o) for step, o in fixes] for fixes in taken]
        # concatenate keeps the blocks' strides; C order keeps the ensemble sums' order
        yield _Chunk(chunk, log, np.concatenate(reads, axis=2).copy(), B)


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
    return [record for chunk in _run_chunks(rho0, n_measure, q, (strategy,), seeds, ops)
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


def run_arm_statistics(rho0: np.ndarray, n_measure: int, q, strategies, seeds,
                       ops: SpinOperators) -> list[EnsembleStatistics]:
    """Per arm, one per strategy, the per-step means and standard errors of
    p_succ and the inclination, and the + fraction per primary measurement,
    over the records of run_ensemble for these seeds, without keeping the
    records.  The arms step together on the same draws (_run_chunks), and
    each arm's statistics are those of its strategy run alone.

    The per-step sums run over chunks of seeds, of p_succ and theta as
    deviations from each arm's first seed's values: the shift keeps the
    one-pass variance free of cancellation and makes the spread of identical
    records exactly zero, and merging chunks is addition.
    """
    arms = len(strategies)
    n, s1, s2, plus = 0, 0.0, 0.0, 0
    for chunk in _run_chunks(rho0, n_measure, q, tuple(strategies), seeds, ops):
        size = len(chunk.seeds)
        reads = chunk.reads.reshape(2, arms, size, -1)  # (2, A, S, n_measure + 1)
        if not n:
            shift = reads[:, :, 0].copy()
        dev = reads - shift[:, :, None]
        s1 = s1 + dev.sum(axis=2)
        s2 = s2 + np.square(dev, out=dev).sum(axis=2)
        primary = np.stack([taken[0][1] for taken in chunk.log], axis=1)
        plus = plus + (primary.reshape(arms, size, -1) > 0).sum(axis=1)
        n += size
        del chunk, reads, dev  # freed before the next chunk is stepped
    if not n:
        raise ValueError("no seeds supplied")
    mean = shift + s1 / n
    var = (s2 - s1 * s1 / n) / max(n - 1, 1)
    stderr = np.sqrt(np.maximum(var, 0.0) / n)
    return [EnsembleStatistics(n, mean[1, a], stderr[1, a], mean[0, a], stderr[0, a], plus[a] / n)
            for a in range(arms)]


def run_ensemble_statistics(rho0: np.ndarray, n_measure: int, q, strategy, seeds,
                            ops: SpinOperators) -> EnsembleStatistics:
    """run_arm_statistics of one arm."""
    return run_arm_statistics(rho0, n_measure, q, (strategy,), seeds, ops)[0]
