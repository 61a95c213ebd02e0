"""Frame descriptors (polarization, inclination, rotated quadratic moments)
and the operational success probability.  The first and second moments are
exact Re Tr[rho op] for any square rho; every such op lives on the diagonals
|k| <= 2, so they read only those diagonals of rho, O(d) work per call."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PAULI, build_projectors
from .predictions import RotationPrediction
from .spin import SpinOperators

UNPOLARIZED_EPS = 1e-10
OUT_OF_PLANE_THRESHOLD = 1e-8


class UnpolarizedFrame(ValueError):
    """The frame has no polarization vector, so its inclination is undefined."""


@dataclass(frozen=True)
class FrameSummary:
    """Polarization vector, fractional magnitude r = |<L>|/l, inclination
    theta = atan2(<Lx>, <Lz>), out-of-plane fraction |<Ly>|/|<L>| and the
    symmetrized quadratic moments <{L'_i, L'_j}>/2 in the frame rotated to
    put z' along the in-plane polarization."""

    mean_L: np.ndarray
    r: float
    theta: float
    out_of_plane: float
    quad: np.ndarray

    @property
    def in_plane(self) -> bool:
        return self.out_of_plane <= OUT_OF_PLANE_THRESHOLD


def _band_pair(rho: np.ndarray, k: int, coeff: np.ndarray) -> tuple:
    # (Tr[rho A], Tr[rho A^T]) for the real A with coeff on its k-th superdiagonal
    return np.diagonal(rho, -k) @ coeff, np.diagonal(rho, k) @ coeff


def mean_angular_momentum(rho: np.ndarray, ops: SpinOperators) -> np.ndarray:
    """Expectation vector (<Lx>, <Ly>, <Lz>), each Re Tr[rho L_a]."""
    plus, minus = _band_pair(rho, 1, ops.ladder[1:])  # <L+>, <L->
    lz = np.diagonal(rho) @ ops.m_diag
    return np.array([0.5 * (plus + minus).real, 0.5 * (plus - minus).imag, lz.real])


def quadratic_moments(rho: np.ndarray, ops: SpinOperators) -> np.ndarray:
    """Symmetrized second moments M_ij = Re Tr[rho {L_i, L_j}]/2 in the
    background frame, from L+- = Lx +- i Ly expanded to second order."""
    m, a = ops.m_diag, ops.ladder
    pp, mm = _band_pair(rho, 2, a[1:-1] * a[2:])              # <L+^2>, <L-^2>
    zp, zm = _band_pair(rho, 1, a[1:] * (m[:-1] + m[1:]))     # <{Lz,L+}>, <{Lz,L-}>
    diag = np.diagonal(rho)
    # diag(L-L+)[i] = a[i]^2 and diag(L+L-)[i] = a[i+1]^2, with a[0] = 0
    pm = ((diag[1:] + diag[:-1]) @ (a[1:] * a[1:])).real      # <L+L- + L-L+>
    xx = 0.25 * (pm + (pp + mm).real)
    yy = 0.25 * (pm - (pp + mm).real)
    xy = 0.25 * (pp - mm).imag
    xz = 0.25 * (zp + zm).real
    yz = 0.25 * (zp - zm).imag
    zz = (diag @ (m * m)).real
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def summarize_frame(rho: np.ndarray, ops: SpinOperators) -> FrameSummary:
    """Extract the polarization, inclination and rotated quadratic moments.

    The inclination solves Tr[L'_x(theta) rho] = 0 for in-plane states;
    out-of-plane states (unitary dynamics) still get the projected angle but
    carry a nonzero out_of_plane fraction.
    """
    v = mean_angular_momentum(rho, ops)
    norm = np.linalg.norm(v)
    if norm <= UNPOLARIZED_EPS:
        raise UnpolarizedFrame(f"|<L>| = {norm:.3e}; no direction to summarize")
    theta = float(np.arctan2(v[0], v[2]))
    out_of_plane = abs(v[1]) / norm
    c, s = np.cos(theta), np.sin(theta)
    # rows are the rotated axes x', y', z' (z' along the in-plane polarization)
    R = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    quad = R @ quadratic_moments(rho, ops) @ R.T
    return FrameSummary(v, float(norm / ops.l_value), theta, float(out_of_plane), quad)


def background_moments(summary: FrameSummary) -> tuple[float, float]:
    """(<Lz^2>, <{Lz,Lx}>) in the background frame, from a summary's rotated
    moments; the shape consumed by the implicit-angle residual."""
    c, s = np.cos(summary.theta), np.sin(summary.theta)
    R = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    M = R.T @ summary.quad @ R
    return float(M[2, 2]), float(2.0 * M[0, 2])


def rotation_between(before: FrameSummary, after: FrameSummary) -> float:
    """Signed in-plane rotation after.theta - before.theta, wrapped to (-pi, pi]."""
    for which, s in (("before", before), ("after", after)):
        if not s.in_plane:
            raise ValueError(
                f"{which} state is out of plane (|<Ly>|/|<L>| = {s.out_of_plane:.3e}); "
                "use axis_angle_fit instead"
            )
    delta = after.theta - before.theta
    return float((delta + np.pi) % (2.0 * np.pi) - np.pi)


def axis_angle_fit(before: np.ndarray, after: np.ndarray) -> RotationPrediction:
    """Least-change rotation taking one polarization vector to another.

    Axis along before x after, angle from the dot product.  Parallel vectors
    fit a zero rotation about Z by convention; antiparallel vectors have no
    least-change axis and are rejected.
    """
    b = np.asarray(before, dtype=float)
    a = np.asarray(after, dtype=float)
    nb, na = np.linalg.norm(b), np.linalg.norm(a)
    if nb < 1e-300 or na < 1e-300:
        raise ValueError("cannot fit a rotation to a zero vector")
    cross = np.cross(b, a)
    ncross = np.linalg.norm(cross)
    cosang = float(np.clip(b @ a / (nb * na), -1.0, 1.0))
    if ncross < 1e-14 * nb * na:
        if cosang < 0.0:
            raise ValueError("vectors are antiparallel; rotation axis is degenerate")
        return RotationPrediction(0.0, np.array([0.0, 0.0, 1.0]), "unitary")
    return RotationPrediction(float(np.arccos(cosang)), cross / ncross, "unitary")


def p_succ(rho: np.ndarray, ops: SpinOperators, n_hat: np.ndarray) -> float:
    """Probability of reproducing the ideal outcome along direction n_hat,
    (1 + n_hat . <L>/(l + 1/2))/2."""
    n_hat = np.asarray(n_hat, dtype=float)
    if abs(np.linalg.norm(n_hat) - 1.0) > 1e-9:
        raise ValueError(f"n_hat must be a unit vector, |n| = {np.linalg.norm(n_hat)!r}")
    v = mean_angular_momentum(rho, ops)
    return float(0.5 * (1.0 + n_hat @ v / (ops.l_value + 0.5)))


def p_succ_trace(rho: np.ndarray, ops: SpinOperators, n_hat: np.ndarray) -> float:
    """The defining trace form of p_succ: project the frame+test-qubit pair
    onto the matched total-spin sectors for qubits along +-n_hat."""
    n_hat = np.asarray(n_hat, dtype=float)
    if abs(np.linalg.norm(n_hat) - 1.0) > 1e-9:
        raise ValueError(f"n_hat must be a unit vector, |n| = {np.linalg.norm(n_hat)!r}")
    pair = build_projectors(ops)
    n_sigma = n_hat[0] * PAULI["x"] + n_hat[1] * PAULI["y"] + n_hat[2] * PAULI["z"]
    ident = np.eye(2, dtype=np.complex128)
    xi_plus = 0.5 * (ident + n_sigma)
    xi_minus = 0.5 * (ident - n_sigma)
    val = np.trace(pair.pi_plus @ np.kron(rho, xi_plus)).real
    val += np.trace(pair.pi_minus @ np.kron(rho, xi_minus)).real
    return float(0.5 * val)


def usable_lifetime(rho0: np.ndarray, q, ops: SpinOperators, threshold: float,
                    strategy=None, *, step_cap: int = 10**6) -> int:
    """Number of measurements before p_succ (along the initial direction)
    falls below the threshold, under average evolution with the given
    correction strategy.

    Steps forward one average channel at a time; the cap is reported by
    exception if the threshold is never crossed.
    """
    # imported here to keep metrics importable from the trajectory engine
    from .trajectory import average_lifetime_stepper

    v0 = mean_angular_momentum(rho0, ops)
    n0 = np.linalg.norm(v0)
    if n0 <= UNPOLARIZED_EPS:
        raise UnpolarizedFrame("initial state has no direction")
    n_hat = v0 / n0
    p0 = p_succ(rho0, ops, n_hat)
    if not 0.5 < threshold < p0:
        raise ValueError(f"threshold must lie in (0.5, p_succ(rho0)) = (0.5, {p0:.6f}), "
                         f"got {threshold!r}")
    return average_lifetime_stepper(rho0, q, ops, threshold, n_hat, strategy, step_cap)
