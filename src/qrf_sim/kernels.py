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
products.  The numba kernel fuses the whole update into one pass; the pure
numpy path does the same arithmetic with slicing.  Select the backend with
the QRF_SIM_BACKEND environment variable ("numba", "numpy" or "auto").
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def _apply_numpy(rho, m, a, c_id, c_plus, c_minus, c_zz, c_anti, c_comm):
    # c_id + c_zz m_i m_j + c_anti (m_i + m_j) + c_comm (m_i - m_j) = w_i + u_i m_j
    w = c_id + (c_anti + c_comm) * m
    u = c_zz * m + (c_anti - c_comm)
    out = (w[:, None] + np.outer(u, m)) * rho
    aa = np.outer(a[1:], a[1:])
    out[:-1, :-1] += c_plus * aa * rho[1:, 1:]
    out[1:, 1:] += c_minus * aa * rho[:-1, :-1]
    return out


@njit(cache=True, nogil=True)
def _apply_numba(rho, m, a, c_id, c_plus, c_minus, c_zz, c_anti, c_comm):  # pragma: no cover
    d = rho.shape[0]
    out = np.empty((d, d), dtype=np.complex128)
    for i in range(d):
        mi = m[i]
        for j in range(d):
            mj = m[j]
            v = (c_id + c_zz * (mi * mj) + c_anti * (mi + mj) + c_comm * (mi - mj)) * rho[i, j]
            if i + 1 < d and j + 1 < d:
                v += c_plus * a[i + 1] * a[j + 1] * rho[i + 1, j + 1]
            if i >= 1 and j >= 1:
                v += c_minus * a[i] * a[j] * rho[i - 1, j - 1]
            out[i, j] = v
    return out


def _resolve(name: str | None):
    if name is None:
        name = os.environ.get("QRF_SIM_BACKEND", "auto").lower()
    if name == "auto":
        name = "numba" if HAVE_NUMBA else "numpy"
    if name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("QRF_SIM_BACKEND=numba but numba is not importable")
        return _apply_numba
    if name == "numpy":
        return _apply_numpy
    raise ValueError(f"unknown kernel backend {name!r} (use 'numba', 'numpy' or 'auto')")


_active = _resolve(None)


def backend_name() -> str:
    return "numba" if _active is _apply_numba else "numpy"


def set_backend(name: str | None = None) -> str:
    """Select the kernel backend; None re-reads QRF_SIM_BACKEND."""
    global _active
    _active = _resolve(name)
    return backend_name()


def apply_structured(rho: np.ndarray, m: np.ndarray, a: np.ndarray, coeffs) -> np.ndarray:
    """Apply the six-term structured superoperator with the active backend."""
    c_id, c_plus, c_minus, c_zz, c_anti, c_comm = (complex(c) for c in coeffs)
    rho = np.ascontiguousarray(rho, dtype=np.complex128)
    return _active(rho, m, a, c_id, c_plus, c_minus, c_zz, c_anti, c_comm)
