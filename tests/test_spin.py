import numpy as np
import pytest

from qrf_sim import spin
from qrf_sim.spin import (
    DensityMatrixError,
    QuadraticBlochSpec,
    SourceQubit,
    SpinQuantum,
    SpinValueError,
    as_polarization,
    build_spin_operators,
    check_density_matrix,
    coherent_state,
    dicke_state,
    mixed_dicke_state,
    quadratic_bloch_state,
    rotated_dicke_state,
    rotation_y,
    source_state,
    thermal_partial_coherent,
)
from qrf_sim.metrics import mean_angular_momentum, summarize_frame

from helpers import random_density


SX = np.array([[0, 1], [1, 0]]) / 2
SY = np.array([[0, -1j], [1j, 0]]) / 2
SZ = np.array([[1, 0], [0, -1]]) / 2


def test_spin_half_is_pauli_over_two():
    ops = build_spin_operators(0.5)
    assert np.abs(ops.Lx - SX).max() < 1e-15
    assert np.abs(ops.Ly - SY).max() < 1e-15
    assert np.abs(ops.Lz - SZ).max() < 1e-15


def test_spin_one_ladder_coefficients():
    ops = build_spin_operators(1)
    expected = np.array([[0, np.sqrt(2), 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
    assert np.abs(ops.Lplus - expected).max() < 1e-15


def test_casimir_l16():
    ops = build_spin_operators(16)
    cas = ops.Lx @ ops.Lx + ops.Ly @ ops.Ly + ops.Lz @ ops.Lz
    assert np.abs(cas - 272.0 * np.eye(33)).max() < 1e-12


def test_lz_descending_and_ladder_adjoint():
    for l in (0.5, 1, 2.5, 7):
        ops = build_spin_operators(l)
        assert np.allclose(np.diag(ops.Lz).real, np.arange(l, -l - 0.5, -1), atol=0)
        assert np.abs(ops.Lplus - (ops.Lx + 1j * ops.Ly)).max() < 1e-15
        assert np.abs(ops.Lminus - ops.Lplus.conj().T).max() == 0.0


@pytest.mark.parametrize("l", [0.5, 1, 1.5, 2, 8, 16, 32, 64])
def test_commutation_relations(l):
    ops = build_spin_operators(l)
    triples = [(ops.Lx, ops.Ly, ops.Lz), (ops.Ly, ops.Lz, ops.Lx), (ops.Lz, ops.Lx, ops.Ly)]
    for A, B, C in triples:
        assert np.abs(A @ B - B @ A - 1j * C).max() <= 1e-12
    cas = ops.Lx @ ops.Lx + ops.Ly @ ops.Ly + ops.Lz @ ops.Lz
    assert np.abs(cas - l * (l + 1) * np.eye(ops.d)).max() <= 1e-12


def test_commutation_relations_l100_float64_floor():
    # entries carry sqrt-rounding of size ~u*l(l+1) ~ 2.2e-12, so the algebra
    # cannot close tighter than that at l=100 in float64
    ops = build_spin_operators(100)
    comm = ops.Lx @ ops.Ly - ops.Ly @ ops.Lx - 1j * ops.Lz
    assert np.abs(comm).max() <= 4e-12


DENSE = ("Lx", "Ly", "Lz", "Lplus", "Lminus")


def test_dense_operators_built_on_first_use_equal_the_eager_construction():
    for twice_l in range(1, 65):
        ops = build_spin_operators(twice_l / 2)
        # the eager construction, from the O(d) tables with one Lplus entry at a time
        Lplus = np.zeros((ops.d, ops.d), dtype=np.complex128)
        for k in range(1, ops.d):
            Lplus[k - 1, k] = ops.ladder[k]
        Lminus = Lplus.conj().T
        eager = {"Lx": (Lplus + Lminus) / 2.0, "Ly": (Lplus - Lminus) / 2.0j,
                 "Lz": np.diag(ops.m_diag).astype(np.complex128), "Lplus": Lplus,
                 "Lminus": Lminus}
        for name in DENSE:
            lazy = getattr(ops, name)
            assert lazy.dtype == np.complex128 and lazy.tobytes() == eager[name].tobytes(), \
                (twice_l, name)
            assert getattr(ops, name) is lazy  # built once, then kept


def test_spin_operators_hold_no_dense_matrix_until_read():
    spin._build_spin_operators.cache_clear()
    ops = build_spin_operators(1024)
    assert max(v.size for v in vars(ops).values() if isinstance(v, np.ndarray)) == 2 * ops.d
    assert not set(DENSE) & set(vars(ops))


def test_invalid_spin_rejected():
    with pytest.raises(SpinValueError):
        SpinQuantum(0)
    with pytest.raises(SpinValueError):
        build_spin_operators(0.3)


def test_rotation_identity_and_double_cover():
    for l, sign in ((1, 1.0), (16, 1.0), (0.5, -1.0), (1.5, -1.0)):
        ops = build_spin_operators(l)
        assert np.abs(rotation_y(0.0, ops) - np.eye(ops.d)).max() < 1e-12
        assert np.abs(rotation_y(2 * np.pi, ops) - sign * np.eye(ops.d)).max() < 1e-10


def test_rotation_unitary_and_quarter_turn():
    ops = build_spin_operators(9)
    R = rotation_y(0.7, ops)
    assert np.abs(R @ R.conj().T - np.eye(ops.d)).max() < 1e-12
    rho = rotation_y(np.pi / 2, ops) @ dicke_state(9, 9) @ rotation_y(np.pi / 2, ops).conj().T
    v = mean_angular_momentum(rho, ops)
    assert np.abs(v - np.array([9.0, 0.0, 0.0])).max() < 1e-10


def test_rotation_rejects_nonfinite():
    ops = build_spin_operators(1)
    with pytest.raises(ValueError):
        rotation_y(np.inf, ops)


def test_coherent_state_basics():
    ops = build_spin_operators(16)
    assert np.abs(coherent_state(16, 0.0) - dicke_state(16, 16)).max() < 1e-14
    rho = coherent_state(16, np.pi / 2)
    v = mean_angular_momentum(rho, ops)
    assert abs(v[0] - 16.0) < 1e-10 and abs(v[2]) < 1e-10
    for theta in (0.3, 1.2, 2.9):
        rho = coherent_state(16, theta)
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
        v = mean_angular_momentum(rho, ops)
        assert np.abs(v - 16.0 * np.array([np.sin(theta), 0.0, np.cos(theta)])).max() < 1e-10


@pytest.mark.parametrize("l", [0.5, 1, 3.5, 16, 64, 128])
def test_coherent_state_closed_form_matches_rotation(l):
    for theta in (0.0, 0.3, np.pi / 2, 2.9, np.pi):
        assert np.abs(coherent_state(l, theta) - rotated_dicke_state(l, l, theta)).max() <= 1e-13


def test_rotated_dicke_polarization_fraction():
    ops = build_spin_operators(100)
    rho = rotated_dicke_state(100, 34, 0.8)
    assert abs(summarize_frame(rho, ops).r - 0.34) < 1e-12
    assert np.abs(rotated_dicke_state(50, 50, 1.1) - coherent_state(50, 1.1)).max() < 1e-14


def test_rotated_dicke_second_moments_frozen():
    # |50,25> has <L'z^2> = 625 and <L'x^2> = (50*51 - 625)/2 = 962.5
    ops = build_spin_operators(50)
    frame = summarize_frame(rotated_dicke_state(50, 25, 0.9), ops)
    assert abs(frame.quad[2, 2] - 625.0) < 1e-9
    assert abs(frame.quad[0, 0] - 962.5) < 1e-9


def test_rotated_dicke_matches_unrotated_quadratic_moments():
    # the rotated family reproduces every <l,k| Li Lj |l,k> product exactly
    l, k, theta = 12, 5, 1.05
    ops = build_spin_operators(l)
    R = rotation_y(theta, ops)
    rho = rotated_dicke_state(l, k, theta)
    ket = dicke_state(l, k)
    mats = (ops.Lx, ops.Ly, ops.Lz)
    for A in mats:
        for B in mats:
            rotated = np.trace(rho @ (R @ A @ R.conj().T) @ (R @ B @ R.conj().T))
            plain = np.trace(ket @ A @ B)
            assert abs(rotated - plain) < 1e-9


def test_dicke_magnetic_number_validation():
    with pytest.raises(SpinValueError):
        dicke_state(2, 3)
    with pytest.raises(SpinValueError):
        dicke_state(2, 0.5)  # wrong parity


def test_mixed_dicke_polarization_arithmetic():
    ops = build_spin_operators(100)
    rho = mixed_dicke_state(100, 10, 40, 0.2, 0.6)
    assert abs(summarize_frame(rho, ops).r - 0.34) < 1e-12
    same = rotated_dicke_state(100, 10, 0.6)
    assert np.abs(mixed_dicke_state(100, 10, 40, 1.0, 0.6) - same).max() < 1e-14
    balanced = mixed_dicke_state(20, 10, -10, 0.5, 0.6)
    ops20 = build_spin_operators(20)
    assert np.linalg.norm(mean_angular_momentum(balanced, ops20)) < 1e-10
    with pytest.raises(ValueError):
        mixed_dicke_state(20, 10, -10, 1.2, 0.6)


def test_thermal_limits_and_target():
    ops = build_spin_operators(16)
    near_mixed = thermal_partial_coherent(16, 1e-9, 0.7)
    assert np.abs(near_mixed - np.eye(33) / 33).max() < 1e-6
    rho = thermal_partial_coherent(16, 0.9, 0.7)
    R = rotation_y(0.7, ops)
    lz_rot = R @ ops.Lz @ R.conj().T
    assert abs(np.trace(rho @ lz_rot).real - 14.4) < 1e-9
    lx_rot = R @ ops.Lx @ R.conj().T
    ly_rot = R @ ops.Ly @ R.conj().T
    assert abs(np.trace(rho @ lx_rot)) < 1e-10
    assert abs(np.trace(rho @ ly_rot)) < 1e-10


def test_thermal_equatorial_components():
    ops = build_spin_operators(12)
    for r in (0.3, -0.6):
        rho = thermal_partial_coherent(12, r, np.pi / 2)
        v = mean_angular_momentum(rho, ops)
        assert abs(v[2]) < 1e-9
        assert abs(v[0] - r * 12) < 1e-9


def test_thermal_rejects_unreachable_polarization():
    for r in (1.0, -1.0, 1.2):
        with pytest.raises(ValueError):
            thermal_partial_coherent(8, r, 0.5)


def test_thermal_second_moments_exceed_dicke_values():
    # maximum-entropy states do not reproduce the |l, rl> second moments:
    # the violation is real and measured, not assumed away
    ops = build_spin_operators(20)
    r = 0.5
    rho = thermal_partial_coherent(20, r, 0.0)
    lz2 = np.trace(rho @ ops.Lz @ ops.Lz).real
    assert lz2 > (r * 20) ** 2 + 1.0


def test_quadratic_bloch_trivial_and_pure_cases():
    d3 = quadratic_bloch_state(1, QuadraticBlochSpec(np.zeros(3), np.zeros((3, 3))))
    assert np.abs(d3 - np.eye(3) / 3).max() < 1e-15
    up = quadratic_bloch_state(0.5, QuadraticBlochSpec(np.array([0, 0, 1.0]), np.zeros((3, 3))))
    assert np.abs(up - np.diag([1.0, 0.0])).max() < 1e-12


def test_quadratic_bloch_polarization_convention():
    ops = build_spin_operators(4)
    spec = QuadraticBlochSpec(np.array([0.05, 0.0, 0.12]), np.zeros((3, 3)))
    rho = quadratic_bloch_state(4, spec)
    v = mean_angular_momentum(rho, ops)
    assert np.abs(v - 4.0 * spec.R).max() < 1e-12


def test_quadratic_bloch_positivity_guard():
    with pytest.raises(DensityMatrixError) as err:
        quadratic_bloch_state(1, QuadraticBlochSpec(np.array([0, 0, 3.0]), np.zeros((3, 3))))
    assert "eigenvalue" in str(err.value)


def test_quadratic_bloch_spec_validation():
    with pytest.raises(ValueError):
        QuadraticBlochSpec(np.zeros(3), np.diag([1.0, 0.0, 0.0]))  # not traceless
    with pytest.raises(ValueError):
        QuadraticBlochSpec(np.zeros(3), np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))


def test_source_state_values():
    assert np.abs(source_state(1.0) - np.diag([1.0, 0.0])).max() == 0.0
    assert np.abs(source_state(0.0) - np.eye(2) / 2).max() == 0.0
    assert np.abs(source_state(SourceQubit(-1.0)) - np.diag([0.0, 1.0])).max() == 0.0
    with pytest.raises(ValueError):
        source_state(1.5)
    with pytest.raises(ValueError):
        SourceQubit(-1.0001)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float64(np.nan),
                                 np.float64(np.inf), np.float64(-np.inf), 1.0 + 1e-12, -1.5, 2])
def test_as_polarization_rejects_non_finite_and_out_of_range(bad):
    with pytest.raises(ValueError, match="polarization"):
        as_polarization(bad)


def test_as_polarization_accepts_sources_ints_and_numpy_floats():
    for q, z in [(SourceQubit(-0.25), -0.25), (1, 1.0), (0, 0.0), (-1, -1.0),
                 (np.float64(0.4), 0.4), (np.float64(-1.0), -1.0)]:
        got = as_polarization(q)
        assert got == z and isinstance(got, float)


def test_all_state_families_are_density_matrices():
    rng = np.random.default_rng(7)
    states = [
        coherent_state(8, 1.3),
        rotated_dicke_state(8, 3, 2.0),
        mixed_dicke_state(8, -2, 5, 0.35, 0.4),
        thermal_partial_coherent(8, -0.4, 1.9),
        quadratic_bloch_state(8, QuadraticBlochSpec(
            np.array([0.0, 0.0, 0.1]), np.diag([0.004, 0.004, -0.008]))),
        source_state(rng.uniform(-1, 1)),
    ]
    for rho in states:
        check_density_matrix(rho)


def test_check_density_matrix_rejects_violations():
    with pytest.raises(DensityMatrixError):
        check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not hermitian
    with pytest.raises(DensityMatrixError):
        check_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(DensityMatrixError):
        check_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    rng = np.random.default_rng(0)
    check_density_matrix(random_density(9, rng))
