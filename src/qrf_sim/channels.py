"""Measurement projectors, induced POVM and the frame back-action channels.

Each channel is implemented twice, on independent code paths:

* a *tensor* route that builds the joint frame+qubit operator, multiplies the
  projectors (or the invariant unitary) explicitly and partial-traces the
  qubit out -- the reference used by the tests, and
* a *structured* route through :mod:`qrf_sim.kernels` that applies the same
  map as a banded O(d^2) update -- the default used everywhere else.

The two routes agree to 1e-12 and disagreeing beyond that is treated as a
bug in the structured coefficients, never in the tensor form.  The run
loops step the (3, d) band array of the diagonals 0-2 with the same
(elementwise) coefficient builders through the O(d) band kernel, and
``hygiene`` repairs band arrays only.  Two functions still take
``bands=True`` for that kernel; see the comment above average_channel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .kernels import apply_band, apply_structured
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
    d2 = d * d
    s2 = np.sin(gamma / 2.0) ** 2
    return (
        np.cos(gamma / 2.0) ** 2 + s2 / d2,
        2.0 * (1.0 + z) * s2 / d2,
        2.0 * (1.0 - z) * s2 / d2,
        4.0 * s2 / d2,
        2.0 * z * s2 / d2,
        1j * z * np.sin(gamma) / d,
    )


# ---------------------------------------------------------------------------
# channels, structured route (default)
# ---------------------------------------------------------------------------

def _apply(rho: np.ndarray, ops: SpinOperators, coeffs, bands: bool) -> np.ndarray:
    if bands:
        return apply_band(rho, ops.m_band, ops.ladder_band, coeffs)
    return apply_structured(rho, ops.m_diag, ops.ladder, coeffs)


# bands=True steps a band array.  It stays on this function and on unitary_channel
# only because perfbench/test_perfbench.py pins the tracer's spans of both.
def average_channel(rho: np.ndarray, q, ops: SpinOperators, *, bands: bool = False) -> np.ndarray:
    """Frame back-action of one measurement with the outcome discarded."""
    z = as_polarization(q)
    return _apply(rho, ops, _coeffs_average(z, ops.d), bands)


def selective_unnormalized(rho: np.ndarray, q, ops: SpinOperators, outcome) -> np.ndarray:
    """Unnormalized branch map; its trace is the outcome probability."""
    z = as_polarization(q)
    sign = _sign(outcome)
    return _apply(rho, ops, _coeffs_selective(z, ops.d, sign), False)


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


# bands=True: kept for the perfbench spans of the conditional trial kicks; see above
def unitary_channel(rho: np.ndarray, q, ops: SpinOperators, gamma: float, *,
                    bands: bool = False) -> np.ndarray:
    """Frame back-action of the rotationally invariant unitary coupling.

    gamma is the accumulated phase between the two total-spin sectors;
    gamma = 0 is the identity, gamma = pi the maximal kick.
    """
    z = as_polarization(q)
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    return _apply(rho, ops, _coeffs_unitary(z, ops.d, gamma), bands)


def _p_plus(diagonal: np.ndarray, z: float, ops: SpinOperators):
    """1/2 + (2 z <Lz> + 1)/(2d) from a main diagonal, or (S, d) of them."""
    return 0.5 + (2.0 * z * (diagonal.real @ ops.m_diag) + 1.0) / (2.0 * ops.d)


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


def hygiene(B: np.ndarray) -> np.ndarray:
    """Renormalize a band array (kernels.to_bands) when float drift exceeds
    1e-13, or each drifted one of an (S, 3, d) batch on its own.

    Used by the long stepping loops to stop rounding from accumulating;
    corrections above 1e-10 are logged as suspicious.  A band array is
    Hermitian by construction except for the imaginary part of its main
    diagonal, so the check and correction are O(d); the drift measured is
    the |rho - rho^dag| entry a dense check would find there.  A clean input
    comes back as the same object.
    """
    if B.ndim == 3:
        diag = B[:, 0]
        clean = ((2.0 * np.abs(diag.imag).max(axis=-1) <= HYGIENE_TRIGGER)
                 & (np.abs(diag.sum(axis=-1) - 1.0) <= HYGIENE_TRIGGER))
        return B if clean.all() else np.array(
            [b if ok else hygiene(b) for b, ok in zip(B, clean)])
    herm_drift = 2.0 * np.abs(B[0].imag).max()
    tr_drift = abs(B[0].sum() - 1.0)
    if herm_drift <= HYGIENE_TRIGGER and tr_drift <= HYGIENE_TRIGGER:
        return B
    if herm_drift > HYGIENE_WARN or tr_drift > HYGIENE_WARN:
        logger.warning(
            "state hygiene correction is large: hermiticity %.3e, trace %.3e",
            herm_drift,
            tr_drift,
        )
    B = B.copy()
    B[0] = B[0].real
    return B / B[0].sum().real


@dataclass(frozen=True)
class ChoiReport:
    dim: int
    min_eigenvalue: float
    tp_defect: float


def verify_cptp(channel: Callable[[np.ndarray], np.ndarray], ops: SpinOperators,
                l_cap: float = 8.0) -> ChoiReport:
    """Certify a frame channel by building its Choi matrix explicitly.

    The channel acts on one half of a maximally entangled pair; complete
    positivity is the positivity of the resulting d^2 x d^2 matrix and trace
    preservation the defect of the traced-out half.  Capped at l <= l_cap
    (the Choi matrix grows as d^2).
    """
    if ops.l_value > l_cap:
        raise ChoiDimensionError(f"l = {ops.l_value} exceeds the Choi cap l <= {l_cap}")
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
