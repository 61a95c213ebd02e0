"""Measurement projectors, induced POVM and the frame back-action channels.

Each channel is implemented twice, on independent code paths:

* a *tensor* route that builds the joint frame+qubit operator, multiplies the
  projectors (or the invariant unitary) explicitly and partial-traces the
  qubit out -- the reference used by the tests, and
* a *structured* route through :mod:`qrf_sim.kernels` that applies the same
  map from its six coefficients: an O(d^2) update of a d x d matrix here,
  and in the run loops an O(d) update of the (2, d) band array of the
  diagonals 0 and 1, the only state a run steps.

The two routes agree to 1e-12 and disagreeing beyond that is treated as a
bug in the structured coefficients, never in the tensor form.  step_factors
builds a step's band-kernel factors from the same coefficient builders and
keeps none: a run holds its own table (trajectory._stepper).  ``hygiene``
repairs band arrays only.  unitary_channel still takes ``bands=True`` for
the band kernel; see the comment above it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .kernels import apply_factors, apply_structured, band_factors, complex_sum
from .spin import SpinOperators, SpinQuantum, as_polarization, build_spin_operators, source_state

OUTCOME_EPS = 1e-12

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


class OutcomeImpossible(RuntimeError):
    """Requested measurement outcome has (numerically) zero probability."""


class ChoiDimensionError(ValueError):
    """Choi-matrix certification requested above the dimension cap."""


@dataclass(frozen=True)
class ProjectorPair:
    """Projectors onto total angular momentum j = l + 1/2 and j = l - 1/2."""

    pi_plus: np.ndarray
    pi_minus: np.ndarray


@dataclass(frozen=True)
class SelectiveOutcome:
    outcome: int
    probability: float
    post_state: np.ndarray


@lru_cache(maxsize=None)
def _projector_pair(twice_l: int) -> ProjectorPair:
    ops = build_spin_operators(SpinQuantum(twice_l))
    d = ops.d
    ident = np.eye(2 * d, dtype=np.complex128)
    K = ident.copy()
    for name, L in (("x", ops.Lx), ("y", ops.Ly), ("z", ops.Lz)):
        K += 4.0 * np.kron(L, PAULI[name] / 2.0)
    pi_plus = 0.5 * (ident + K / d)
    pi_minus = 0.5 * (ident - K / d)
    return ProjectorPair(pi_plus, pi_minus)


def build_projectors(ops: SpinOperators) -> ProjectorPair:
    """Coupled-space projectors for the relative-orientation measurement (cached)."""
    return _projector_pair(ops.l.twice_l)


def _trace_out_qubit(M: np.ndarray, d: int) -> np.ndarray:
    return M.reshape(d, 2, d, 2).trace(axis1=1, axis2=3)


def _trace_out_frame(M: np.ndarray, d: int) -> np.ndarray:
    return M.reshape(d, 2, d, 2).trace(axis1=0, axis2=2)


def _sign(outcome) -> int:
    if outcome in (1, +1, "+", "plus"):
        return +1
    if outcome in (-1, "-", "minus"):
        return -1
    raise ValueError(f"outcome must be +1/-1 (or '+'/'-'), got {outcome!r}")


# ---------------------------------------------------------------------------
# structured coefficients
# ---------------------------------------------------------------------------

def _coeffs_average(z: float, d: int):
    d2 = d * d
    return (
        0.5 + 0.5 / d2,      # id
        (1.0 + z) / d2,      # L+ . L-
        (1.0 - z) / d2,      # L- . L+
        2.0 / d2,            # Lz . Lz
        z / d2,              # {Lz, .}
        0.0,                 # [Lz, .]
    )


def _coeffs_selective(z: float, d: int, sign: int):
    d2 = d * d
    return (
        0.25 + sign * 0.5 / d + 0.25 / d2,
        (1.0 + z) / (2.0 * d2),
        (1.0 - z) / (2.0 * d2),
        1.0 / d2,
        sign * z / (2.0 * d) + z / (2.0 * d2),
        0.0,
    )


def _coeffs_unitary(z: float, d: int, gamma: float):
    # sin(gamma) is exactly 0 at |gamma| = pi, not float sin(pi) = 1.2e-16, so the
    # maximal kick of a real state stays real and custom's Ly_over_l reads an exact 0
    d2 = d * d
    s2 = np.sin(gamma / 2.0) ** 2
    sin = np.where(np.abs(gamma) == np.pi, 0.0, np.sin(gamma))[()]
    return (
        np.cos(gamma / 2.0) ** 2 + s2 / d2,
        2.0 * (1.0 + z) * s2 / d2,
        2.0 * (1.0 - z) * s2 / d2,
        4.0 * s2 / d2,
        2.0 * z * s2 / d2,
        1j * z * sin / d,
    )


def step_factors(twice_l: int, kind: str, z: float, gamma: float | None = None) -> tuple:
    """The band-kernel factors (kernels.band_factors) of a z source's
    "average" step, "unitary" kick by gamma or "selective" measurement (the -
    and + branches' diagonals stacked in that order), built afresh on each
    call and read-only, so a run's table (trajectory._stepper) may share
    them.  -0.0 gives 0.0's factors, the same bits."""
    ops = build_spin_operators(SpinQuantum(twice_l))
    if kind == "average":
        coeffs = _coeffs_average(z, ops.d)
    elif kind == "selective":
        coeffs = _coeffs_selective(z, ops.d, np.array([-1, 1]).reshape(2, 1, 1))
    else:
        coeffs = _coeffs_unitary(z, ops.d, gamma)
    factors = band_factors(ops.m_band, ops.ladder_band, coeffs)
    for f in factors:
        f.flags.writeable = False
    return factors


# ---------------------------------------------------------------------------
# channels, structured route (default)
# ---------------------------------------------------------------------------

# Dense only: the stepping loop applies an average step's factors itself
# (trajectory._stepper).  trajectory still imports this function, unused, because
# perfbench/test_perfbench.py pins the tracer's span on that binding.
def average_channel(rho: np.ndarray, q, ops: SpinOperators) -> np.ndarray:
    """Frame back-action of one measurement with the outcome discarded."""
    z = as_polarization(q)
    return apply_structured(rho, ops.m_diag, ops.ladder, _coeffs_average(z, ops.d))


def selective_unnormalized(rho: np.ndarray, q, ops: SpinOperators, outcome) -> np.ndarray:
    """Unnormalized branch map; its trace is the outcome probability."""
    z = as_polarization(q)
    sign = _sign(outcome)
    return apply_structured(rho, ops.m_diag, ops.ladder, _coeffs_selective(z, ops.d, sign))


def selective_channel(rho: np.ndarray, q, ops: SpinOperators, outcome) -> SelectiveOutcome:
    """Frame back-action conditioned on one measurement outcome.

    Raises OutcomeImpossible when the requested branch has probability
    below 1e-12 (the measurement is then deterministic).
    """
    sign = _sign(outcome)
    sigma = selective_unnormalized(rho, q, ops, sign)
    p = float(sigma.trace().real)
    if p < OUTCOME_EPS:
        raise OutcomeImpossible(f"outcome {'+' if sign > 0 else '-'} has probability {p:.3e}")
    return SelectiveOutcome(sign, p, sigma / p)


# bands=True steps a band array with step_factors' factors, for the conditional kick alone:
# every other kick takes its factors from its run's table (trajectory._stepper)
def unitary_channel(rho: np.ndarray, q, ops: SpinOperators, gamma: float, *,
                    bands: bool = False) -> np.ndarray:
    """Frame back-action of the rotationally invariant unitary coupling.

    gamma is the accumulated phase between the two total-spin sectors;
    gamma = 0 is the identity, gamma = pi the maximal kick.
    """
    z = as_polarization(q)
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    if bands:
        return apply_factors(rho, *step_factors(ops.l.twice_l, "unitary", z, gamma))
    return apply_structured(rho, ops.m_diag, ops.ladder, _coeffs_unitary(z, ops.d, gamma))


def _p_plus(diagonal: np.ndarray, z: float, ops: SpinOperators):
    """1/2 + (2 z <Lz> + 1)/(2d) from a main diagonal, or (S, d) of them, with
    <Lz> summed as band_mean_L sums it: the same bits in any batch."""
    return 0.5 + (2.0 * z * np.add.reduce(diagonal.real * ops.m_diag, axis=-1) + 1.0) / (2 * ops.d)


def outcome_probabilities(rho: np.ndarray, q, ops: SpinOperators) -> tuple[float, float]:
    """Exact finite-l outcome probabilities (p_plus, p_minus)."""
    p_plus = _p_plus(np.diag(rho), as_polarization(q), ops)
    return p_plus, 1.0 - p_plus


# ---------------------------------------------------------------------------
# channels, tensor route (reference path)
# ---------------------------------------------------------------------------

def average_channel_tensor(rho: np.ndarray, q, ops: SpinOperators) -> np.ndarray:
    pair = build_projectors(ops)
    W = np.kron(rho, source_state(q))
    out = pair.pi_plus @ W @ pair.pi_plus + pair.pi_minus @ W @ pair.pi_minus
    return _trace_out_qubit(out, ops.d)


def selective_channel_tensor(rho: np.ndarray, q, ops: SpinOperators, outcome) -> SelectiveOutcome:
    pair = build_projectors(ops)
    sign = _sign(outcome)
    pi = pair.pi_plus if sign > 0 else pair.pi_minus
    W = np.kron(rho, source_state(q))
    sigma = _trace_out_qubit(pi @ W @ pi, ops.d)
    p = float(sigma.trace().real)
    if p < OUTCOME_EPS:
        raise OutcomeImpossible(f"outcome {'+' if sign > 0 else '-'} has probability {p:.3e}")
    return SelectiveOutcome(sign, p, sigma / p)


def unitary_channel_tensor(rho: np.ndarray, q, ops: SpinOperators, gamma: float) -> np.ndarray:
    pair = build_projectors(ops)
    U = pair.pi_plus + np.exp(-1j * gamma) * pair.pi_minus
    W = np.kron(rho, source_state(q))
    return _trace_out_qubit(U @ W @ U.conj().T, ops.d)


def induced_povm(rho: np.ndarray, ops: SpinOperators) -> tuple[np.ndarray, np.ndarray]:
    """Effective two-outcome POVM seen by the measured qubit, (Lambda+, Lambda-)."""
    pair = build_projectors(ops)
    W = np.kron(rho, np.eye(2, dtype=np.complex128))
    lam_plus = _trace_out_frame(pair.pi_plus @ W, ops.d)
    lam_minus = _trace_out_frame(pair.pi_minus @ W, ops.d)
    return lam_plus, lam_minus


# ---------------------------------------------------------------------------
# numerical hygiene and CPTP certification
# ---------------------------------------------------------------------------

logger = logging.getLogger(__name__)

HYGIENE_TRIGGER = 1e-13
HYGIENE_WARN = 1e-10
CHOI_L_CAP = 8.0


def _drift(B: np.ndarray) -> tuple:
    """(clean, hermiticity drift, trace drift) of each band array of a (2, d)
    array or an (..., 2, d) batch, clean within 1e-13 and never for NaN.  A
    band array loses hermiticity only on its main diagonal, where the drift
    is the |rho - rho^dag| a dense check finds."""
    diag = B[..., 0, :]
    # the ufunc reductions themselves, not their method wrappers: every block runs this;
    # a real array's .imag is a fresh array of zeros, so its drift is zero unscanned
    herm_drift = 2.0 * np.maximum.reduce(abs(diag.imag), axis=-1) if diag.dtype.kind == "c" \
        else np.zeros(diag.shape[:-1])[()]
    tr_drift = abs(complex_sum(diag) - 1.0)
    return np.maximum(herm_drift, tr_drift) <= HYGIENE_TRIGGER, herm_drift, tr_drift


def hygiene(B: np.ndarray) -> np.ndarray:
    """Renormalize each band array (kernels.to_bands) of a (2, d) array or an
    (..., 2, d) batch whose drift (_drift) exceeds 1e-13, so rounding cannot
    accumulate over a run, and log corrections above 1e-10, one line per
    array.  A clean input is returned as is."""
    clean, herm_drift, tr_drift = _drift(B)
    if clean.all():
        return B
    drifted = ~clean
    large = drifted & ((herm_drift > HYGIENE_WARN) | (tr_drift > HYGIENE_WARN))
    for herm, tr in zip(herm_drift[large], tr_drift[large]):
        logger.warning("state hygiene correction is large: hermiticity %.3e, trace %.3e",
                       herm, tr)
    out = B.copy()
    fix = out[drifted]
    fix[..., 0, :] = fix[..., 0, :].real
    out[drifted] = fix * (1.0 / complex_sum(fix[..., 0, :]).real)[..., None, None]
    return out


@dataclass(frozen=True)
class ChoiReport:
    dim: int
    min_eigenvalue: float
    tp_defect: float


def verify_cptp(channel: Callable[[np.ndarray], np.ndarray], ops: SpinOperators) -> ChoiReport:
    """Certify a frame channel by building its Choi matrix explicitly.

    The channel acts on one half of a maximally entangled pair; complete
    positivity is the positivity of the resulting d^2 x d^2 matrix and trace
    preservation the defect of the traced-out half.  Capped at l <= CHOI_L_CAP
    (the Choi matrix grows as d^2).
    """
    if ops.l_value > CHOI_L_CAP:
        raise ChoiDimensionError(f"l = {ops.l_value} exceeds the Choi cap l <= {CHOI_L_CAP}")
    d = ops.d
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    tp_defect = 0.0
    basis = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            basis[:] = 0.0
            basis[i, j] = 1.0
            out = channel(basis)
            choi[i * d:(i + 1) * d, j * d:(j + 1) * d] = out
            tp_defect = max(tp_defect, abs(out.trace() - (1.0 if i == j else 0.0)))
    choi /= d
    choi = 0.5 * (choi + choi.conj().T)
    min_eig = float(np.linalg.eigvalsh(choi).min())
    return ChoiReport(d, min_eig, tp_defect)
