"""Frame descriptors (polarization, inclination, rotated quadratic moments)
and the operational success probability.  The first and second moments are
exact Re Tr[rho op]; every such op lives on the diagonals |k| <= 2, so they
read only those diagonals, O(d) work per call.  The readers are written on
band arrays (kernels.to_bands); a band array stands for a Hermitian matrix,
and the optional ``lower`` band array supplies the lower diagonals of a
non-Hermitian one.  The dense functions are wrappers that pass both
triangles, so they stay exact for any square rho."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PAULI, build_projectors
from .kernels import to_bands
from .predictions import RotationPrediction
from .spin import SpinOperators

UNPOLARIZED_EPS = 1e-10
OUT_OF_PLANE_THRESHOLD = 1e-8


class UnpolarizedFrame(ValueError):
    """The frame has no polarization vector, so its inclination is undefined."""


class ThresholdOutOfRange(ValueError):
    """A usable-lifetime threshold outside (0.5, p_succ of the initial state)."""


@dataclass(frozen=True)
class FrameSummary:
    """Polarization vector, fractional magnitude r = |<L>|/l, inclination
    theta = atan2(<Lx>, <Lz>), out-of-plane fraction |<Ly>|/|<L>| and the
    symmetrized quadratic moments <{L'_i, L'_j}>/2 in the frame rotated to
    put z' along the in-plane polarization.  For an unpolarized frame,
    |<L>| <= 1e-10, the direction is undefined and theta, out_of_plane and
    quad are NaN."""

    mean_L: np.ndarray
    r: float
    theta: float
    out_of_plane: float
    quad: np.ndarray

    @property
    def in_plane(self) -> bool:
        return self.out_of_plane <= OUT_OF_PLANE_THRESHOLD


def _sums(B: np.ndarray, ops: SpinOperators, lower: np.ndarray | None):
    # upper[k, c] and lower[k, c]: column c of the table read along the k-th
    # upper (rho[i, i+k]) and lower (rho[i+k, i]) diagonal
    upper = B @ ops.readout
    return upper, upper.conj() if lower is None else lower @ ops.readout


def _mean_L(upper, lower) -> np.ndarray:
    plus, minus = lower[1, 3], upper[1, 3]  # <L+>, <L->
    return np.array([0.5 * (plus + minus).real, 0.5 * (plus - minus).imag, upper[0, 0].real])


def band_mean_L(B: np.ndarray, ops: SpinOperators, lower: np.ndarray | None = None) -> np.ndarray:
    """Expectation vector (<Lx>, <Ly>, <Lz>), each Re Tr[rho L_a]."""
    return _mean_L(*_sums(B, ops, lower))


def mean_angular_momentum(rho: np.ndarray, ops: SpinOperators) -> np.ndarray:
    """Expectation vector (<Lx>, <Ly>, <Lz>), each Re Tr[rho L_a]."""
    return band_mean_L(to_bands(rho), ops, to_bands(rho.T))


def _quadratic(upper, lower) -> np.ndarray:
    # from L+- = Lx +- i Ly expanded to second order
    pp, mm = lower[2, 5], upper[2, 5]                         # <L+^2>, <L-^2>
    zp, zm = lower[1, 4], upper[1, 4]                         # <{Lz,L+}>, <{Lz,L-}>
    pm = upper[0, 2].real                                     # <L+L- + L-L+>
    xx = 0.25 * (pm + (pp + mm).real)
    yy = 0.25 * (pm - (pp + mm).real)
    xy = 0.25 * (pp - mm).imag
    xz = 0.25 * (zp + zm).real
    yz = 0.25 * (zp - zm).imag
    zz = upper[0, 1].real
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def quadratic_moments(rho: np.ndarray, ops: SpinOperators) -> np.ndarray:
    """Symmetrized second moments M_ij = Re Tr[rho {L_i, L_j}]/2 in the
    background frame."""
    return _quadratic(*_sums(to_bands(rho), ops, to_bands(rho.T)))


def band_summary(B: np.ndarray, ops: SpinOperators,
                 lower: np.ndarray | None = None) -> FrameSummary:
    """Polarization, inclination and rotated quadratic moments of a band
    array; an unpolarized frame gets NaN for its direction (see FrameSummary)."""
    upper, lower = _sums(B, ops, lower)
    v = _mean_L(upper, lower)
    norm = np.linalg.norm(v)
    if norm <= UNPOLARIZED_EPS:
        return FrameSummary(v, float(norm / ops.l_value), np.nan, np.nan, np.full((3, 3), np.nan))
    theta = float(np.arctan2(v[0], v[2]))
    out_of_plane = abs(v[1]) / norm
    c, s = np.cos(theta), np.sin(theta)
    # rows are the rotated axes x', y', z' (z' along the in-plane polarization)
    R = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    quad = R @ _quadratic(upper, lower) @ R.T
    return FrameSummary(v, float(norm / ops.l_value), theta, float(out_of_plane), quad)


def summarize_frame(rho: np.ndarray, ops: SpinOperators) -> FrameSummary:
    """Extract the polarization, inclination and rotated quadratic moments.

    The inclination solves Tr[L'_x(theta) rho] = 0 for in-plane states;
    out-of-plane states (unitary dynamics) still get the projected angle but
    carry a nonzero out_of_plane fraction.  Raises UnpolarizedFrame when the
    frame has no direction.
    """
    summary = band_summary(to_bands(rho), ops, to_bands(rho.T))
    if np.isnan(summary.theta):
        raise UnpolarizedFrame(f"|<L>| = {np.linalg.norm(summary.mean_L):.3e}; "
                               "no direction to summarize")
    return summary


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


def band_p_succ(B: np.ndarray, ops: SpinOperators, n_hat: np.ndarray,
                lower: np.ndarray | None = None) -> float:
    """Probability of reproducing the ideal outcome along direction n_hat,
    (1 + n_hat . <L>/(l + 1/2))/2."""
    n_hat = np.asarray(n_hat, dtype=float)
    if abs(np.linalg.norm(n_hat) - 1.0) > 1e-9:
        raise ValueError(f"n_hat must be a unit vector, |n| = {np.linalg.norm(n_hat)!r}")
    v = band_mean_L(B, ops, lower)
    return float(0.5 * (1.0 + n_hat @ v / (ops.l_value + 0.5)))


def band_p_succ_theta(B: np.ndarray, ops: SpinOperators,
                      n_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p_succ along the unit vector n_hat and the inclination of every band
    array of an (S, 3, d) batch; the inclination is NaN where the frame is
    unpolarized, as in band_summary."""
    # <Lz> from band 0 and <L-> = <Lx> - i<Ly> from band 1, as elementwise
    # sums: a matrix product here would go to a threaded BLAS call per step
    minus = (B[:, 1] * ops.readout[:, 3]).sum(axis=-1)
    v = np.array([minus.real, -minus.imag, (B[:, 0].real * ops.m_diag).sum(axis=-1)])
    theta = np.where(np.linalg.norm(v, axis=0) > UNPOLARIZED_EPS, np.arctan2(v[0], v[2]), np.nan)
    return 0.5 * (1.0 + n_hat @ v / (ops.l_value + 0.5)), theta


def p_succ(rho: np.ndarray, ops: SpinOperators, n_hat: np.ndarray) -> float:
    """Probability of reproducing the ideal outcome along direction n_hat,
    (1 + n_hat . <L>/(l + 1/2))/2."""
    return band_p_succ(to_bands(rho), ops, n_hat, to_bands(rho.T))


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
        raise ThresholdOutOfRange(f"threshold must lie in (0.5, p_succ(rho0)) = (0.5, {p0:.6f}), "
                         f"got {threshold!r}")
    return average_lifetime_stepper(rho0, q, ops, threshold, n_hat, strategy, step_cap)
