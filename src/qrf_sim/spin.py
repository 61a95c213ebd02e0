"""Spin operators, rotations and the state families of the reference frame.

Conventions used throughout the package:

* basis ordering is descending magnetic number, ``m = l, l-1, ..., -l``
  (index 0 holds the top state),
* angular momentum is dimensionless (``hbar = 1``),
* half-integer spins are first class: ``l`` is stored as the integer ``2l``
  so that quantum numbers stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
THERMAL_TOL = 1e-12  # |<L'z>/l - r| at which the thermal bisection stops


class DensityMatrixError(ValueError):
    """A matrix failed the density-matrix invariants."""


class SpinValueError(ValueError):
    """A spin or magnetic quantum number is out of range."""


@dataclass(frozen=True)
class SpinQuantum:
    """Spin magnitude stored as twice its value, so l = 1/2, 1, 3/2, ... are exact."""

    twice_l: int

    def __post_init__(self):
        if not isinstance(self.twice_l, (int, np.integer)) or self.twice_l < 1:
            raise SpinValueError(f"twice_l must be a positive integer, got {self.twice_l!r}")

    @property
    def l(self) -> float:
        return self.twice_l / 2.0

    @property
    def d(self) -> int:
        """Hilbert-space dimension 2l + 1."""
        return self.twice_l + 1


def as_spin(l) -> SpinQuantum:
    """Coerce an int, float or SpinQuantum into a SpinQuantum."""
    if isinstance(l, SpinQuantum):
        return l
    twice = 2 * l
    if abs(twice - round(twice)) > 1e-12:
        raise SpinValueError(f"l must be integer or half-integer, got {l!r}")
    return SpinQuantum(int(round(twice)))


@dataclass(frozen=True)
class SpinOperators:
    """The angular momentum algebra for one l.

    ``m_diag`` is the diagonal of Lz and ``ladder`` holds the raising
    coefficients: ``ladder[k] = <m_{k-1}| L+ |m_k>`` with ``ladder[0] = 0``.
    The two vectors are what the dense structured kernel consumes.  The band
    kernel reads them along the diagonals k = 0, 1 instead:
    ``m_band[k, i] = m_{i+k}`` and ``ladder_band[k, i] = ladder[i+1] *
    ladder[i+k+1]``, zero where the index leaves the matrix.  No run reads
    more; the dense d x d Lx, Ly, Lz, Lplus and Lminus are built on first use,
    by the tensor oracles, rotation_y, quadratic_bloch_state and the
    brute-force traces, and then kept.
    """

    l: SpinQuantum
    m_diag: np.ndarray
    ladder: np.ndarray
    m_band: np.ndarray
    ladder_band: np.ndarray

    @property
    def d(self) -> int:
        return self.l.d

    @property
    def l_value(self) -> float:
        return self.l.l

    @cached_property
    def Lz(self) -> np.ndarray:
        return np.diag(self.m_diag).astype(np.complex128)

    @cached_property
    def Lplus(self) -> np.ndarray:
        return np.diag(self.ladder[1:], 1).astype(np.complex128)

    @cached_property
    def Lminus(self) -> np.ndarray:
        return self.Lplus.conj().T

    @cached_property
    def Lx(self) -> np.ndarray:
        return (self.Lplus + self.Lminus) / 2.0

    @cached_property
    def Ly(self) -> np.ndarray:
        return (self.Lplus - self.Lminus) / 2.0j


@lru_cache(maxsize=None)
def _build_spin_operators(twice_l: int) -> SpinOperators:
    l = SpinQuantum(twice_l)
    d = l.d
    # 2m runs over twice_l, twice_l - 2, ..., -twice_l (exact integers)
    twice_m = twice_l - 2 * np.arange(d)
    m = twice_m / 2.0
    # ladder[k] = sqrt(l(l+1) - m_k(m_k + 1)) for the step m_k -> m_k + 1,
    # computed from integer arithmetic: 4*(l(l+1) - m(m+1)) is exact.
    ladder = np.zeros(d)
    ladder[1:] = np.sqrt(
        (twice_l * (twice_l + 2) - twice_m[1:] * (twice_m[1:] + 2)) / 4.0
    )
    m_band = np.array([m, np.append(m[1:], 0.0)])
    # the dense kernel's ladder products ladder[i+1] ladder[i+k+1] along diagonal k
    ladder_band = np.array([np.append(ladder[1:] * ladder[1:], 0.0),
                            np.append(ladder[1:-1] * ladder[2:], [0.0, 0.0])])
    return SpinOperators(l, m, ladder, m_band, ladder_band)


def build_spin_operators(l) -> SpinOperators:
    """The spin operators for magnitude l (cached, shared); see SpinOperators."""
    return _build_spin_operators(as_spin(l).twice_l)


@lru_cache(maxsize=None)
def _ly_eigensystem(twice_l: int):
    ops = _build_spin_operators(twice_l)
    evals, evecs = np.linalg.eigh(ops.Ly)
    return evals, evecs


def rotation_y(beta: float, ops: SpinOperators) -> np.ndarray:
    """Unitary exp(-i beta Ly), via the eigendecomposition of Ly."""
    if not np.isfinite(beta):
        raise ValueError(f"rotation angle must be finite, got {beta!r}")
    evals, evecs = _ly_eigensystem(ops.l.twice_l)
    phases = np.exp(-1j * beta * evals)
    return (evecs * phases) @ evecs.conj().T


def check_density_matrix(rho: np.ndarray, *, name: str = "state") -> np.ndarray:
    """Validate hermiticity, unit trace and positivity; returns rho unchanged."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DensityMatrixError(f"{name} must be a square matrix, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise DensityMatrixError(f"{name} is not hermitian: max deviation {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise DensityMatrixError(f"{name} trace is {tr:.15g}, expected 1")
    lo = np.linalg.eigvalsh(rho).min()
    if lo < -POSITIVITY_TOL:
        raise DensityMatrixError(f"{name} is not positive semidefinite: min eigenvalue {lo:.3e}")
    return rho


@dataclass(frozen=True)
class SourceQubit:
    """Spin-1/2 source with signed polarization z along the background Z axis.

    z > 0 is the primary ensemble, z < 0 the antipolarized one.
    """

    z: float

    def __post_init__(self):
        if not np.isfinite(self.z) or abs(self.z) > 1.0:
            raise ValueError(f"polarization must lie in [-1, 1], got {self.z!r}")


def as_polarization(q) -> float:
    """Coerce a SourceQubit or bare float into a validated polarization."""
    z = q.z if isinstance(q, SourceQubit) else float(q)
    if not math.isfinite(z) or abs(z) > 1.0:
        raise ValueError(f"polarization must lie in [-1, 1], got {q!r}")
    return z


def source_state(q) -> np.ndarray:
    """Qubit density matrix (I + z sigma_z)/2 for a source of polarization z."""
    z = as_polarization(q)
    return np.array([[(1 + z) / 2, 0.0], [0.0, (1 - z) / 2]], dtype=np.complex128)


def _magnetic_index(l: SpinQuantum, k) -> int:
    """Index of |l, k> in the descending-m basis."""
    twice_k = 2 * k
    if abs(twice_k - round(twice_k)) > 1e-12:
        raise SpinValueError(f"magnetic number must be integer or half-integer, got {k!r}")
    twice_k = int(round(twice_k))
    if (twice_k - l.twice_l) % 2 != 0:
        raise SpinValueError(f"magnetic number {k} has wrong parity for l={l.l}")
    if abs(twice_k) > l.twice_l:
        raise SpinValueError(f"magnetic number {k} out of range for l={l.l}")
    return (l.twice_l - twice_k) // 2


def dicke_state(l, k) -> np.ndarray:
    """Projector |l,k><l,k| in the descending-m basis."""
    spin = as_spin(l)
    rho = np.zeros((spin.d, spin.d), dtype=np.complex128)
    idx = _magnetic_index(spin, k)
    rho[idx, idx] = 1.0
    return rho


def rotated_dicke_state(l, k, theta: float) -> np.ndarray:
    """|l,k><l,k| tilted by theta about the Y axis; polarization r = k/l."""
    spin = as_spin(l)
    ops = build_spin_operators(spin)
    R = rotation_y(theta, ops)
    return R @ dicke_state(spin, k) @ R.conj().T


def coherent_state(l, theta: float) -> np.ndarray:
    """Maximal-projection state tilted by theta: <L> = l (sin t, 0, cos t).

    Built as outer(c, c), in the real part of one complex matrix, from the
    amplitudes c_n = sqrt(C(2l, n)) cos(theta/2)^(2l-n) sin(theta/2)^n in
    O(d^2); the magnitudes are taken in log space so large l cannot
    overflow, the signs from the integer powers.  rotated_dicke_state(l, l,
    theta) is the rotation-route oracle.
    """
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    n_max = as_spin(l).twice_l
    n = np.arange(n_max + 1)
    log_c = 0.5 * np.array([math.lgamma(n_max + 1) - math.lgamma(k + 1) - math.lgamma(n_max - k + 1)
                            for k in range(n_max + 1)])
    sign = np.ones(n_max + 1)
    for power, x in ((n_max - n, math.cos(theta / 2.0)), (n, math.sin(theta / 2.0))):
        # x^0 = 1 also for x = 0, which the log would turn into 0 * -inf
        log_c += np.where(power > 0, power * math.log(abs(x)) if x != 0.0 else -np.inf, 0.0)
        sign *= np.where(power % 2 == 1, math.copysign(1.0, x), 1.0)
    c = sign * np.exp(log_c)
    rho = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    np.outer(c, c, out=rho.real)
    return rho


def mixed_dicke_state(l, k1, k2, p: float, beta: float) -> np.ndarray:
    """p-weighted mixture of two tilted |l,k> projectors, tilt angle beta."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must lie in [0, 1], got {p!r}")
    spin = as_spin(l)
    return p * rotated_dicke_state(spin, k1, beta) + (1 - p) * rotated_dicke_state(spin, k2, beta)


def _diagonal_thermal_weights(beta: float, m: np.ndarray) -> np.ndarray:
    """Normalized weights exp(-beta m)/Z, computed stably."""
    logw = -beta * m
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def thermal_partial_coherent(l, r: float, theta: float) -> np.ndarray:
    """Maximum-entropy state with polarization <L'z>/l = r at inclination theta.

    Solves exp(-beta L'z)/Z for beta by bisection on [-50, 50];
    <Lz>(beta) is strictly decreasing so the root is unique.  The tolerance
    THERMAL_TOL (in r) leaves |<L'z> - r l| below 1e-9 for every l this
    package targets.  r = 0 is the maximally mixed state (beta = 0);
    |r| >= 1 is unreachable at finite beta.
    """
    spin = as_spin(l)
    ops = build_spin_operators(spin)
    if not np.isfinite(r) or abs(r) >= 1.0:
        raise ValueError(f"target polarization must satisfy |r| < 1, got {r!r}")
    lval = spin.l
    if r == 0.0:
        diag = np.full(spin.d, 1.0 / spin.d)
    else:
        lo, hi = -50.0, 50.0

        def mean_pol(beta):
            return float(_diagonal_thermal_weights(beta, ops.m_diag) @ ops.m_diag) / lval

        # mean_pol is decreasing in beta; bracket then bisect
        beta_lo, beta_hi = lo, hi
        for _ in range(200):
            mid = 0.5 * (beta_lo + beta_hi)
            if (pol := mean_pol(mid)) > r:
                beta_lo = mid
            else:
                beta_hi = mid
            if abs(pol - r) <= THERMAL_TOL:
                break
        else:
            raise RuntimeError(f"thermal bisection failed to reach |<L'z>/l - r| <= {THERMAL_TOL}")
        diag = _diagonal_thermal_weights(mid, ops.m_diag)
    R = rotation_y(theta, ops)
    return R @ np.diag(diag).astype(np.complex128) @ R.conj().T


@dataclass(frozen=True)
class QuadraticBlochSpec:
    """Polarization vector and quadratic anisotropy tensor of a quadratic state.

    ``R`` is the fractional polarization (the built state has <L> = l R);
    ``T`` is the raw symmetric traceless coefficient tensor of the
    anticommutator terms.
    """

    R: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=float)
        T = np.asarray(self.T, dtype=float)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "T", T)
        if R.shape != (3,):
            raise ValueError(f"R must be a 3-vector, got shape {R.shape}")
        if T.shape != (3, 3):
            raise ValueError(f"T must be a 3x3 tensor, got shape {T.shape}")
        if np.abs(T - T.T).max() > 1e-12:
            raise ValueError("T must be symmetric")
        if abs(np.trace(T)) > 1e-12:
            raise ValueError(f"T must be traceless, got trace {np.trace(T):.3e}")


def quadratic_bloch_state(l, spec: QuadraticBlochSpec) -> np.ndarray:
    """State (1/d)(I + c R.L + (1/2) sum_ab T_ab {La, Lb}) with c = 3/(l+1).

    The coefficient on the linear term makes R the fractional polarization,
    <L> = l R; at l = 1/2 this reduces R = (0,0,1) to (I + sigma_z)/2.
    Positivity is checked, never assumed.
    """
    spin = as_spin(l)
    ops = build_spin_operators(spin)
    d = spin.d
    Ls = (ops.Lx, ops.Ly, ops.Lz)
    lin_coeff = 3.0 / (spin.l + 1.0)
    rho = np.eye(d, dtype=np.complex128)
    for Ri, Li in zip(spec.R, Ls):
        rho += lin_coeff * Ri * Li
    for a in range(3):
        for b in range(3):
            if spec.T[a, b] != 0.0:
                rho += 0.5 * spec.T[a, b] * (Ls[a] @ Ls[b] + Ls[b] @ Ls[a])
    rho /= d
    lo = np.linalg.eigvalsh(rho).min()
    if lo < -POSITIVITY_TOL:
        raise DensityMatrixError(
            f"quadratic state is not positive semidefinite: min eigenvalue {lo:.6e}"
        )
    return rho
