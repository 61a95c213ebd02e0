"""Frame descriptors: the polarization <L>, the inclination and success
probability that follow from it, and the rotated quadratic moments.

Every figure reads one quantity per step, the polarization <L>, each
component exact Re Tr[rho L_a].  band_mean_L is its one reader, on the
two-row band array of a state (kernels.to_bands) or an (..., 2, d) batch
of them: <Lz> comes from the main diagonal and <L-> from the first, as
elementwise sums, O(d) per array with no matrix product.  inclination_of and
p_succ_of derive theta and p_succ from its output, one formula each, and
frame_direction is the one rule for a frame that must have a direction:
its polarization, unit direction and inclination, or UnpolarizedFrame.  A band
array stands for a Hermitian matrix; the optional ``lower`` band array
supplies the lower diagonals of a non-Hermitian one.  The dense functions
are wrappers that pass both triangles, so they stay exact for any square
rho.  summarize_frame adds the second moments, which live on the diagonals
|k| <= 2 of the dense rho; quadratic_moments reads them there, with the
weights of each moment written out in it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import PAULI, build_projectors
from .kernels import complex_sum, to_bands
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
    put z' along the in-plane polarization.  Only a polarized frame,
    |<L>| > 1e-10, has a summary."""

    mean_L: np.ndarray
    r: float
    theta: float
    out_of_plane: float
    quad: np.ndarray

    @property
    def in_plane(self) -> bool:
        return self.out_of_plane <= OUT_OF_PLANE_THRESHOLD


def band_mean_L(B: np.ndarray, ops: SpinOperators, lower: np.ndarray | None = None) -> np.ndarray:
    """Polarization vectors (<Lx>, <Ly>, <Lz>), each Re Tr[rho L_a], of a
    (2, d) band array or an (..., 2, d) batch, shape (..., 3)."""
    # <L-> = <Lx> - i<Ly> on the first upper diagonal, <L+> on the first lower one
    # (its conjugate for Hermitian rho), summed in complex order for either dtype
    minus = complex_sum(B[..., 1, :-1] * ops.ladder[1:])
    if lower is None:
        x, y = minus.real, -minus.imag
    else:
        plus = complex_sum(lower[..., 1, :-1] * ops.ladder[1:])
        x, y = 0.5 * (plus + minus).real, 0.5 * (plus - minus).imag
    v = np.array([x, y, np.add.reduce(B[..., 0, :].real * ops.m_diag, axis=-1)])
    return v.transpose(*range(1, v.ndim), 0)  # a view, no copy per step


def inclination_of(v: np.ndarray) -> np.ndarray:
    """theta = atan2(<Lx>, <Lz>) of (..., 3) polarization vectors; NaN where
    the frame is unpolarized, |<L>| <= 1e-10, and has no direction."""
    return np.where(np.linalg.norm(v, axis=-1) > UNPOLARIZED_EPS,
                    np.arctan2(v[..., 0], v[..., 2]), np.nan)


def p_succ_of(v: np.ndarray, n_hat: np.ndarray, ops: SpinOperators) -> np.ndarray:
    """Probability of reproducing the ideal outcome along the unit vector
    n_hat, (1 + n_hat . <L>/(l + 1/2))/2, of (..., 3) polarization vectors.
    The dot product runs elementwise in a fixed order: a matrix product picks
    its loop by the layout of v, so a seed's p_succ would depend on the
    batch it was read in."""
    terms = v * n_hat
    return 0.5 * (1.0 + (terms[..., 0] + terms[..., 1] + terms[..., 2]) / (ops.l_value + 0.5))


def unit_direction(n_hat) -> np.ndarray:
    """n_hat as a float array, checked to be a unit vector."""
    n_hat = np.asarray(n_hat, dtype=float)
    if abs(np.linalg.norm(n_hat) - 1.0) > 1e-9:
        raise ValueError(f"n_hat must be a unit vector, |n| = {np.linalg.norm(n_hat)!r}")
    return n_hat


def mean_angular_momentum(rho: np.ndarray, ops: SpinOperators) -> np.ndarray:
    """Expectation vector (<Lx>, <Ly>, <Lz>), each Re Tr[rho L_a]."""
    return band_mean_L(to_bands(rho), ops, to_bands(rho.T))


def quadratic_moments(rho: np.ndarray, ops: SpinOperators) -> np.ndarray:
    """Symmetrized second moments M_ij = Re Tr[rho {L_i, L_j}]/2 in the
    background frame, read from the diagonals |k| <= 2 of rho."""
    # L+- = Lx +- i Ly expanded to second order: each moment is a weighted sum along
    # one diagonal, the upper one rho[i, i+k] for L-, the lower one rho[i+k, i] for L+
    m, a, a2 = ops.m_diag, ops.ladder, ops.ladder ** 2
    diag = np.diagonal(rho).real
    zz = diag @ (m * m)                                           # <Lz^2>
    pm = diag @ (a2 + np.append(a2[1:], 0.0))                     # <L+L- + L-L+>
    w1, w2 = a[1:] * (m[:-1] + m[1:]), a[1:-1] * a[2:]
    zp, zm = np.diagonal(rho, -1) @ w1, np.diagonal(rho, 1) @ w1  # <{Lz,L+}>, <{Lz,L-}>
    pp, mm = np.diagonal(rho, -2) @ w2, np.diagonal(rho, 2) @ w2  # <L+^2>, <L-^2>
    xx = 0.25 * (pm + (pp + mm).real)
    yy = 0.25 * (pm - (pp + mm).real)
    xy = 0.25 * (pp - mm).imag
    xz = 0.25 * (zp + zm).real
    yz = 0.25 * (zp - zm).imag
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def _rotation(theta: float) -> np.ndarray:
    # rows are the rotated axes x', y', z' (z' along the in-plane polarization)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def frame_direction(rho: np.ndarray, ops: SpinOperators):
    """The polarization v of rho, the unit vector along it and its inclination
    theta; UnpolarizedFrame if |<L>| <= 1e-10, when the frame has no direction."""
    v = mean_angular_momentum(rho, ops)
    theta, norm = float(inclination_of(v)), np.linalg.norm(v)
    if np.isnan(theta):
        raise UnpolarizedFrame(f"|<L>| = {norm:.3e}; the frame has no direction")
    return v, v / norm, theta


def summarize_frame(rho: np.ndarray, ops: SpinOperators) -> FrameSummary:
    """Extract the polarization, inclination and rotated quadratic moments.

    The inclination solves Tr[L'_x(theta) rho] = 0 for in-plane states;
    out-of-plane states (unitary dynamics) still get the projected angle but
    carry a nonzero out_of_plane fraction.  Raises UnpolarizedFrame when the
    frame has no direction.
    """
    v, _, theta = frame_direction(rho, ops)
    norm, R = np.linalg.norm(v), _rotation(theta)
    return FrameSummary(v, float(norm / ops.l_value), theta, float(abs(v[1]) / norm),
                        R @ quadratic_moments(rho, ops) @ R.T)


def background_moments(summary: FrameSummary) -> tuple[float, float]:
    """(<Lz^2>, <{Lz,Lx}>) in the background frame, from a summary's rotated
    moments; the shape consumed by the implicit-angle residual."""
    R = _rotation(summary.theta)
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
    return float(p_succ_of(mean_angular_momentum(rho, ops), unit_direction(n_hat), ops))


def p_succ_trace(rho: np.ndarray, ops: SpinOperators, n_hat: np.ndarray) -> float:
    """The defining trace form of p_succ: project the frame+test-qubit pair
    onto the matched total-spin sectors for qubits along +-n_hat."""
    n_hat = unit_direction(n_hat)
    pair = build_projectors(ops)
    n_sigma = n_hat[0] * PAULI["x"] + n_hat[1] * PAULI["y"] + n_hat[2] * PAULI["z"]
    ident = np.eye(2, dtype=np.complex128)
    xi_plus = 0.5 * (ident + n_sigma)
    xi_minus = 0.5 * (ident - n_sigma)
    val = np.trace(pair.pi_plus @ np.kron(rho, xi_plus)).real
    val += np.trace(pair.pi_minus @ np.kron(rho, xi_minus)).real
    return float(0.5 * val)
