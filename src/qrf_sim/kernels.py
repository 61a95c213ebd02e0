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
for the Lz terms and two shifted slices for the ladder terms.  The Lz terms
multiply element (i, j) by w_i + u_i m_j; `_element_factor` is the one
place that forms w and u, for both kernels.

Every such map commutes with rotations about Z, so it sends each diagonal
rho[i, i+k] to itself with a tridiagonal update along it.  Everything a run
records is read from the polarization <L>, which lives on the diagonals 0
and 1, so the run loops carry a state as its band array B[..., k, i] =
rho[i, i+k], k = 0, 1, zero-padded to length d (the lower diagonals are the
conjugates).  `band_factors` forms a step's factors from its coefficients
and `apply_factors` steps that array in O(d) with the same per-element
expression as the dense kernel, so its output equals the dense kernel's
diagonals bit for bit, whatever the number of rows.  The run loops take the
factors of every step they repeat from the memo channels.step_factors, which
calls `band_factors` once per process for each step.
`apply_factors_transposed` pulls a linear read of the stepped array back to
weights on the array before the step, O(d) too.

A band array is float64 or complex128: `to_bands` and `band_factors` give
float64 where the diagonals or the coefficients are real, and `apply_factors`
follows numpy's type promotion, so a state turns complex at its first complex
step.  A real step is the real part of the complex one bit for bit; sums run
in complex order (`complex_sum`) and normalizations multiply by a reciprocal,
as numpy divides a complex by a real, so a real state writes the bits of its
complex copy.
"""

from __future__ import annotations

import numpy as np


def _element_factor(m: np.ndarray, c_id, c_zz, c_anti, c_comm):
    """(w, u) with c_id + c_zz m_i m_j + c_anti (m_i + m_j) + c_comm (m_i - m_j)
    = w_i + u_i m_j, the factor of element (i, j) from the Lz terms."""
    return c_id + (c_anti + c_comm) * m, c_zz * m + (c_anti - c_comm)


def apply_structured(rho: np.ndarray, m: np.ndarray, a: np.ndarray, coeffs) -> np.ndarray:
    """Apply the six-term structured superoperator to rho."""
    c_id, c_plus, c_minus, c_zz, c_anti, c_comm = (complex(c) for c in coeffs)
    rho = np.ascontiguousarray(rho, dtype=np.complex128)
    w, u = _element_factor(m, c_id, c_zz, c_anti, c_comm)
    out = (w[:, None] + np.outer(u, m)) * rho
    aa = np.outer(a[1:], a[1:])
    out[:-1, :-1] += c_plus * aa * rho[1:, 1:]
    out[1:, 1:] += c_minus * aa * rho[:-1, :-1]
    return out


def band_factors(m_band: np.ndarray, ladder_band: np.ndarray, coeffs):
    """The factors a step multiplies a band array by, from the per-l tables
    of SpinOperators: w_i + u_i m_{i+k} on element (k, i) and the ladder
    products c_+ ladder, c_- ladder on B[k, i +- 1], each row ending in a
    zero.  A coefficient may be an array broadcasting against the band array,
    such as one of shape (S, 1, 1) for an (S, 2, d) batch.  The factors are
    float64 if every coefficient is real, else complex128."""
    try:
        coeffs = [complex(c) for c in coeffs]
        real = not any(c.imag for c in coeffs)
    except TypeError:  # an array coefficient
        coeffs = [np.asarray(c, dtype=np.complex128) for c in coeffs]
        real = not any(c.imag.any() for c in coeffs)
    c_id, c_plus, c_minus, c_zz, c_anti, c_comm = (c.real for c in coeffs) if real else coeffs
    w, u = _element_factor(m_band[0], c_id, c_zz, c_anti, c_comm)
    return w + u * m_band, c_plus * ladder_band, c_minus * ladder_band


def apply_factors(B: np.ndarray, diagonal: np.ndarray, up: np.ndarray,
                  down: np.ndarray) -> np.ndarray:
    """Apply the factors of band_factors to a (..., 2, d) band array, float64
    if both are: one array with its rows end to end (the zero ending each row
    of up and down parts them), a batch row by row, faster at many seeds."""
    out = np.multiply(diagonal, B, order="C")  # so out.ravel() is a view
    if out.ndim == 2:  # ravel: the views reshape(-1) gives, at less call overhead
        flat, B = out.ravel(), B.ravel()
        flat[:-1] += up.ravel()[:-1] * B[1:]
        flat[1:] += down.ravel()[:-1] * B[:-1]
    else:
        out[..., :-1] += up[..., :-1] * B[..., 1:]
        out[..., 1:] += down[..., :-1] * B[..., :-1]
    return out


def apply_factors_transposed(W: np.ndarray, diagonal: np.ndarray, up: np.ndarray,
                             down: np.ndarray) -> np.ndarray:
    """The transpose of apply_factors's stencil on a (..., 2, d) weight array:
    the weights W' with sum(W' * B) = sum(W * apply_factors(B, ...)) along
    each row of every band array B, so a linear read of a stepped state is a
    weighted sum over the state before the step."""
    W = np.asarray(W, dtype=np.complex128)
    out = diagonal * W
    out[..., 1:] += up[..., :-1] * W[..., :-1]
    out[..., :-1] += down[..., :-1] * W[..., 1:]
    return out


def complex_sum(x: np.ndarray) -> np.ndarray:
    """The sum along the last axis in complex128's pairwise order, for either
    dtype: numpy groups the terms of a float64 sum otherwise."""
    return np.add.reduce(x.astype(np.complex128, copy=False), axis=-1)


def to_bands(rho: np.ndarray) -> np.ndarray:
    """The (2, d) band array of the diagonals 0 and 1 of a d x d matrix,
    float64 when their imaginary parts are all zero and complex128 otherwise."""
    d = rho.shape[0]
    B = np.zeros((2, d), dtype=np.complex128)
    B[0] = np.diagonal(rho)
    B[1, :d - 1] = np.diagonal(rho, 1)
    return B if B.imag.any() else B.real.copy()
