"""Structured channel-application kernels.

Every channel in this package is a fixed linear combination of six
superoperators whose ingredients are the diagonal of Lz and the single
off-diagonal of the ladder operators:

    out = c_id * rho
        + c_plus  * L+ rho L-
        + c_minus * L- rho L+
        + c_zz    * Lz rho Lz
        + c_anti  * (Lz rho + rho Lz)
        + c_comm  * (Lz rho - rho Lz)

which is an O(d^2) banded update rather than an O(d^3) chain of dense
products.  `apply_structured` does it on a d x d matrix: one outer product
for the Lz terms and two shifted slices for the ladder terms.

Every such map commutes with rotations about Z, so it sends each diagonal
rho[i, i+k] to itself with a tridiagonal update along it.  Everything the
package records reads only the diagonals |k| <= 2, so the run loops carry a
state as its band array B[..., k, i] = rho[i, i+k], k = 0, 1, 2, zero-padded
to length d (the lower diagonals are the conjugates).  `band_factors` forms
a step's factors from its coefficients and `apply_factors` steps that array
in O(d) with the same per-element expression as the dense kernel, so its
output equals the dense kernel's diagonals bit for bit.  The run loops take
the factors of every step they repeat from the memo channels.step_factors,
which calls `band_factors` once per process for each step.
"""

from __future__ import annotations

import numpy as np


def apply_structured(rho: np.ndarray, m: np.ndarray, a: np.ndarray, coeffs) -> np.ndarray:
    """Apply the six-term structured superoperator to rho."""
    c_id, c_plus, c_minus, c_zz, c_anti, c_comm = (complex(c) for c in coeffs)
    rho = np.ascontiguousarray(rho, dtype=np.complex128)
    # c_id + c_zz m_i m_j + c_anti (m_i + m_j) + c_comm (m_i - m_j) = w_i + u_i m_j
    w = c_id + (c_anti + c_comm) * m
    u = c_zz * m + (c_anti - c_comm)
    out = (w[:, None] + np.outer(u, m)) * rho
    aa = np.outer(a[1:], a[1:])
    out[:-1, :-1] += c_plus * aa * rho[1:, 1:]
    out[1:, 1:] += c_minus * aa * rho[:-1, :-1]
    return out


def band_factors(m_band: np.ndarray, ladder_band: np.ndarray, coeffs):
    """The factors a step multiplies a band array by, from the per-l tables
    of SpinOperators: w_i + u_i m_{i+k} on element (k, i) and the ladder
    products c_+ ladder, c_- ladder on B[k, i +- 1].  A coefficient may be an
    array broadcasting against the band array, such as one of shape (S, 1, 1)
    for an (S, 3, d) batch."""
    try:
        c_id, c_plus, c_minus, c_zz, c_anti, c_comm = map(complex, coeffs)
    except TypeError:  # an array coefficient
        c_id, c_plus, c_minus, c_zz, c_anti, c_comm = (
            np.asarray(c, dtype=np.complex128) for c in coeffs)
    m = m_band[0]
    w = c_id + (c_anti + c_comm) * m
    u = c_zz * m + (c_anti - c_comm)
    return w + u * m_band, c_plus * ladder_band, c_minus * ladder_band


def apply_factors(B: np.ndarray, diagonal: np.ndarray, up: np.ndarray,
                  down: np.ndarray) -> np.ndarray:
    """Apply the factors of band_factors to a (..., 3, d) band array."""
    B = np.asarray(B, dtype=np.complex128)
    out = diagonal * B
    out[..., :-1] += up * B[..., 1:]
    out[..., 1:] += down * B[..., :-1]
    return out


def to_bands(rho: np.ndarray) -> np.ndarray:
    """The (3, d) band array of the diagonals 0, 1, 2 of a d x d matrix."""
    d = rho.shape[0]
    B = np.zeros((3, d), dtype=np.complex128)
    for k in range(3):
        B[k, :d - k] = np.diagonal(rho, k)
    return B
