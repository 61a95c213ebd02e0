import numpy as np
import pytest

from qrf_sim.channels import _coeffs_average, _coeffs_selective, _coeffs_unitary
from qrf_sim.kernels import apply_factors, apply_structured, band_factors, to_bands
from qrf_sim.spin import build_spin_operators

from helpers import random_density


def dense_reference(rho, ops, coeffs):
    c_id, c_plus, c_minus, c_zz, c_anti, c_comm = coeffs
    out = c_id * rho
    out = out + c_plus * ops.Lplus @ rho @ ops.Lminus
    out = out + c_minus * ops.Lminus @ rho @ ops.Lplus
    out = out + c_zz * ops.Lz @ rho @ ops.Lz
    out = out + c_anti * (ops.Lz @ rho + rho @ ops.Lz)
    out = out + c_comm * (ops.Lz @ rho - rho @ ops.Lz)
    return out


@pytest.mark.parametrize("twice_l", [1, 2, 5, 16])
def test_structured_matches_dense_operator_products(twice_l):
    rng = np.random.default_rng(twice_l)
    ops = build_spin_operators(twice_l / 2)
    rho = random_density(ops.d, rng)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    got = apply_structured(rho, ops.m_diag, ops.ladder, coeffs)
    want = dense_reference(rho, ops, coeffs)
    assert np.abs(got - want).max() < 1e-12


def test_kernel_works_on_nonhermitian_input():
    # channel linearity must hold on arbitrary matrices (Choi construction)
    rng = np.random.default_rng(5)
    ops = build_spin_operators(2)
    M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
    got = apply_structured(M, ops.m_diag, ops.ladder, coeffs)
    want = dense_reference(M, ops, coeffs)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("twice_l", [1, 2, 3, 7, 32, 256])
def test_band_step_equals_dense_diagonals_exactly(twice_l):
    rng = np.random.default_rng(100 + twice_l)
    ops = build_spin_operators(twice_l / 2)
    rho = random_density(ops.d, rng)
    z, gamma = rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi)
    for coeffs in (_coeffs_average(z, ops.d), _coeffs_selective(z, ops.d, +1),
                   _coeffs_selective(z, ops.d, -1), _coeffs_unitary(z, ops.d, gamma)):
        dense = apply_structured(rho, ops.m_diag, ops.ladder, coeffs)
        band = apply_factors(to_bands(rho), *band_factors(ops.m_band, ops.ladder_band, coeffs))
        for k in range(3):
            assert np.array_equal(band[k, :ops.d - k], np.diagonal(dense, k))
            assert not band[k, ops.d - k:].any()  # the padding stays zero


def test_band_step_with_per_seed_coefficients_equals_one_step_per_seed():
    rng = np.random.default_rng(7)
    ops = build_spin_operators(3.5)
    B = np.array([to_bands(random_density(ops.d, rng)) for _ in range(5)])
    sign = np.array([1, -1, -1, 1, -1])
    z, gamma = rng.uniform(-1, 1, 5), rng.uniform(0, 2 * np.pi, 5)
    batch = {
        "selective": (_coeffs_selective(z[:, None, None], ops.d, sign[:, None, None]),
                      [_coeffs_selective(z[s], ops.d, int(sign[s])) for s in range(5)]),
        "unitary": (_coeffs_unitary(z[:, None, None], ops.d, gamma[:, None, None]),
                    [_coeffs_unitary(z[s], ops.d, gamma[s]) for s in range(5)]),
    }
    for per_seed, one_by_one in batch.values():
        out = apply_factors(B, *band_factors(ops.m_band, ops.ladder_band, per_seed))
        for s, coeffs in enumerate(one_by_one):
            one = apply_factors(B[s], *band_factors(ops.m_band, ops.ladder_band, coeffs))
            assert np.array_equal(out[s], one)
