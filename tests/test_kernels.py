import numpy as np
import pytest

from qrf_sim.channels import (_coeffs_average, _coeffs_selective, _coeffs_unitary, hygiene,
                              step_factors)
from qrf_sim.kernels import apply_factors, apply_structured, band_factors, complex_sum, to_bands
from qrf_sim.metrics import band_mean_L
from qrf_sim.spin import (build_spin_operators, coherent_state, mixed_dicke_state,
                          rotated_dicke_state, thermal_partial_coherent)

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


def three_row_tables(ops):
    """m_band, ladder_band and a band-array builder over the diagonals 0, 1, 2,
    from m_diag and ladder as SpinOperators builds its two rows: the kernel
    does not depend on the row count, so a third row checks diagonal 2 too."""
    d, m, a = ops.d, ops.m_diag, ops.ladder
    m_band, ladder_band = np.zeros((3, d)), np.zeros((3, d))
    for k in range(3):
        m_band[k, :d - k] = m[k:]
        ladder_band[k, :max(d - 1 - k, 0)] = a[1:d - k] * a[k + 1:]

    def bands(rho):
        B = np.zeros((3, d), dtype=np.complex128)
        for k in range(3):
            B[k, :d - k] = np.diagonal(rho, k)
        return B

    return m_band, ladder_band, bands


@pytest.mark.parametrize("twice_l", [1, 2, 3, 7, 32, 256])
def test_band_step_equals_dense_diagonals_exactly(twice_l):
    rng = np.random.default_rng(100 + twice_l)
    ops = build_spin_operators(twice_l / 2)
    rho = random_density(ops.d, rng)
    m_band, ladder_band, bands = three_row_tables(ops)
    assert np.array_equal(m_band[:2], ops.m_band)
    assert np.array_equal(ladder_band[:2], ops.ladder_band)
    assert np.array_equal(bands(rho)[:2], to_bands(rho))
    z, gamma = rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi)
    for coeffs in (_coeffs_average(z, ops.d), _coeffs_selective(z, ops.d, +1),
                   _coeffs_selective(z, ops.d, -1), _coeffs_unitary(z, ops.d, gamma)):
        dense = apply_structured(rho, ops.m_diag, ops.ladder, coeffs)
        band = apply_factors(bands(rho), *band_factors(m_band, ladder_band, coeffs))
        two = apply_factors(to_bands(rho), *band_factors(ops.m_band, ops.ladder_band, coeffs))
        assert np.array_equal(two, band[:2])
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


def test_bands_and_factors_are_real_where_the_physics_is_real():
    ops = build_spin_operators(16)
    assert to_bands(coherent_state(16, 1.1)).dtype == np.float64  # an X-Z plane start
    # the starts rotation_y tilts into the X-Z plane are real too: exp(-i beta Ly) is real
    for start in (rotated_dicke_state(16, 10, 1.0), mixed_dicke_state(16, 10, 4, 0.3, 1.0),
                  thermal_partial_coherent(16, 0.6, 1.0)):
        assert to_bands(start).dtype == np.float64
    phase = np.exp(0.3j * ops.m_diag)  # the same start turned out of the plane about Z
    assert to_bands(coherent_state(16, 1.1) * np.outer(phase, phase.conj())).dtype == np.complex128
    # a kick's [Lz, .] coefficient i z sin(gamma)/d is the only complex one; it is
    # exactly 0 at |gamma| = pi, where float sin(pi) would leave 1.2e-16, so the
    # maximal kick is real at any z
    for kind, z, gamma, dtype in [("average", 1.0, None, np.float64),
                                  ("selective", -0.4, None, np.float64),
                                  ("unitary", 0.0, np.pi / 2, np.float64),
                                  ("unitary", -1.0, np.pi, np.float64),
                                  ("unitary", 1.0, -np.pi, np.float64),
                                  ("unitary", 1.0, np.pi / 2, np.complex128)]:
        assert {f.dtype for f in step_factors(32, kind, z, gamma)} == {np.dtype(dtype)}


@pytest.mark.parametrize("twice_l", [1, 7, 32, 256])
def test_a_real_state_steps_and_reads_as_its_complex_copy(twice_l):
    # real factors on a real band array give the real part of the complex
    # step bit for bit, and the reads, sums and repair give the same bits
    rng = np.random.default_rng(200 + twice_l)
    ops = build_spin_operators(twice_l / 2)
    A = rng.normal(size=(3, ops.d, ops.d))
    B = np.array([to_bands(a @ a.T / np.trace(a @ a.T)) for a in A])
    assert B.dtype == np.float64
    z = rng.uniform(-1, 1)
    for coeffs in (_coeffs_average(z, ops.d), _coeffs_selective(z, ops.d, -1),
                   _coeffs_unitary(0.0, ops.d, 1.3)):
        factors = band_factors(ops.m_band, ops.ladder_band, coeffs)
        real = apply_factors(B, *factors)
        held = apply_factors(B.astype(np.complex128),
                             *(f.astype(np.complex128) for f in factors))
        assert real.dtype == np.float64 and not held.imag.any()
        assert np.array_equal(real, held.real)
        assert np.array_equal(band_mean_L(real, ops), band_mean_L(held, ops))
        assert np.array_equal(complex_sum(real[:, 0]), complex_sum(held[:, 0]))
        drifted = real * (1.0 + 1e-12)
        assert np.array_equal(hygiene(drifted), hygiene(drifted.astype(np.complex128)).real)
