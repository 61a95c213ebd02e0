import logging

import numpy as np
import pytest

from qrf_sim.channels import (
    ChoiDimensionError,
    OutcomeImpossible,
    _coeffs_average,
    _coeffs_selective,
    _coeffs_unitary,
    _drift,
    _p_plus,
    average_channel,
    average_channel_tensor,
    build_projectors,
    hygiene,
    induced_povm,
    outcome_probabilities,
    selective_channel,
    selective_channel_tensor,
    step_factors,
    unitary_channel,
    unitary_channel_tensor,
    verify_cptp,
)
from qrf_sim.kernels import band_factors, to_bands
from qrf_sim.metrics import mean_angular_momentum
from qrf_sim.spin import build_spin_operators, coherent_state, rotated_dicke_state, source_state

from helpers import dense_hygiene, inclination, random_density


def rank_of(P):
    return int((np.linalg.eigvalsh(P) > 0.5).sum())


@pytest.mark.parametrize("l", [0.5, 1, 16])
def test_projector_algebra(l):
    ops = build_spin_operators(l)
    pair = build_projectors(ops)
    dim = 2 * ops.d
    assert np.abs(pair.pi_plus + pair.pi_minus - np.eye(dim)).max() <= 1e-12
    for p in (pair.pi_plus, pair.pi_minus):
        assert np.abs(p @ p - p).max() <= 1e-12
        assert np.abs(p - p.conj().T).max() <= 1e-12
    assert np.abs(pair.pi_plus @ pair.pi_minus).max() <= 1e-12
    assert rank_of(pair.pi_plus) == ops.l.twice_l + 2
    assert rank_of(pair.pi_minus) == ops.l.twice_l


def test_spin_half_projectors_are_triplet_singlet():
    pair = build_projectors(build_spin_operators(0.5))
    assert rank_of(pair.pi_plus) == 3
    assert rank_of(pair.pi_minus) == 1
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert np.abs(pair.pi_minus - np.outer(singlet, singlet.conj())).max() < 1e-12


def test_coupling_eigenvalues_are_plus_minus_d():
    # the projectors are idempotent because 4 L.S + I has eigenvalues +-d
    ops = build_spin_operators(3)
    pair = build_projectors(ops)
    K = ops.d * (pair.pi_plus - pair.pi_minus)
    evals = np.sort(np.linalg.eigvalsh(K))
    assert np.abs(evals[: 2 * 3] + ops.d).max() < 1e-12
    assert np.abs(evals[2 * 3:] - ops.d).max() < 1e-12


def test_induced_povm_properties():
    ops = build_spin_operators(6)
    rng = np.random.default_rng(1)
    rho = random_density(ops.d, rng)
    lam_p, lam_m = induced_povm(rho, ops)
    assert np.abs(lam_p + lam_m - np.eye(2)).max() < 1e-12
    assert np.linalg.eigvalsh(lam_p).min() > -1e-12
    assert np.linalg.eigvalsh(lam_m).min() > -1e-12
    # closed form: ((l+1)/d) I + n.S with n = <L>/(l+1/2)
    v = mean_angular_momentum(rho, ops) / (6 + 0.5)
    sx = np.array([[0, 1], [1, 0]]) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.array([[1, 0], [0, -1]]) / 2
    closed = (7 / 13) * np.eye(2) + v[0] * sx + v[1] * sy + v[2] * sz
    assert np.abs(lam_p - closed).max() < 1e-12


def test_induced_povm_maximally_mixed():
    ops = build_spin_operators(4)
    lam_p, lam_m = induced_povm(np.eye(ops.d) / ops.d, ops)
    assert np.abs(lam_p - (5 / 9) * np.eye(2)).max() < 1e-12
    assert np.abs(lam_m - (4 / 9) * np.eye(2)).max() < 1e-12


def test_induced_povm_fuzzy_limit():
    # partially coherent frame, large l: the qubit sees (I +- 2 r n.S)/2
    l, r = 200, 0.5
    ops = build_spin_operators(l)
    rho = rotated_dicke_state(l, 100, 0.0)
    lam_p, _ = induced_povm(rho, ops)
    sz = np.array([[1, 0], [0, -1]]) / 2
    fuzzy = 0.5 * np.eye(2) + 2 * r * 0.5 * sz
    assert np.abs(lam_p - fuzzy).max() < 2.0 / ops.d


def test_induced_povm_coherent_limit_is_projective():
    # fully polarized frame, large l: the induced measurement approaches the
    # ideal projector (I/2 + S_z)
    l = 200
    ops = build_spin_operators(l)
    lam_p, _ = induced_povm(coherent_state(l, 0.0), ops)
    sz = np.array([[1, 0], [0, -1]]) / 2
    assert np.abs(lam_p - (0.5 * np.eye(2) + sz)).max() < 2.0 / ops.d


@pytest.mark.parametrize("l", [0.5, 2, 16])
def test_average_dual_paths_agree(l):
    rng = np.random.default_rng(int(2 * l))
    ops = build_spin_operators(l)
    for _ in range(5):
        rho = random_density(ops.d, rng)
        z = rng.uniform(-1, 1)
        assert np.abs(average_channel(rho, z, ops)
                      - average_channel_tensor(rho, z, ops)).max() <= 1e-12


def test_average_unpolarized_source_form():
    # z = 0: E = (1/2 + 1/2d^2) rho + (2/d^2) sum_i Li rho Li
    ops = build_spin_operators(3)
    rng = np.random.default_rng(9)
    rho = random_density(ops.d, rng)
    d2 = ops.d ** 2
    want = (0.5 + 0.5 / d2) * rho
    for L in (ops.Lx, ops.Ly, ops.Lz):
        want = want + (2.0 / d2) * L @ rho @ L
    assert np.abs(average_channel(rho, 0.0, ops) - want).max() < 1e-13


def test_average_drift_direction_from_maximally_mixed():
    ops = build_spin_operators(5)
    rho = np.eye(ops.d) / ops.d
    out = average_channel(rho, 0.8, ops)
    lz = np.trace(out @ ops.Lz).real
    # brute prediction: <Lz> after one step is 4 z c2 / (3 d^2)
    want = 4 * 0.8 * 5 * 6 / (3 * ops.d ** 2)
    assert lz > 0
    assert abs(lz - want) < 1e-12


def test_average_single_step_drift_coherent():
    ops = build_spin_operators(16)
    rho = coherent_state(16, np.pi / 2)
    omega = inclination(average_channel(rho, 1.0, ops), ops) - np.pi / 2
    assert abs(omega - (-1 / 32)) <= 3 / 16**2


def test_unpolarized_fixed_point():
    ops = build_spin_operators(7)
    rho = np.eye(ops.d) / ops.d
    assert np.abs(average_channel(rho, 0.0, ops) - rho).max() <= 1e-12


def test_selective_certain_outcome():
    ops = build_spin_operators(4)
    rho = coherent_state(4, 0.0)
    out = selective_channel(rho, 1.0, ops, +1)
    assert abs(out.probability - 1.0) < 1e-12
    with pytest.raises(OutcomeImpossible):
        selective_channel(rho, 1.0, ops, -1)


def test_selective_equatorial_probability():
    for l in (4, 16):
        ops = build_spin_operators(l)
        rho = coherent_state(l, np.pi / 2)
        out = selective_channel(rho, 1.0, ops, +1)
        assert abs(out.probability - (0.5 + 0.5 / ops.d)) < 1e-12
        p_plus, p_minus = outcome_probabilities(rho, 1.0, ops)
        assert abs(p_plus - out.probability) < 1e-12
        assert abs(p_plus + p_minus - 1.0) < 1e-15


def test_selective_minus_keeps_coherent_inclination():
    ops = build_spin_operators(16)
    theta = np.pi / 3
    rho = coherent_state(16, theta)
    out = selective_channel(rho, 1.0, ops, -1)
    assert abs(inclination(out.post_state, ops) - theta) <= 1e-9


def test_mixture_identity_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(200):
        twice_l = int(rng.integers(1, 41))
        ops = build_spin_operators(twice_l / 2)
        rho = random_density(ops.d, rng)
        z = rng.uniform(-1, 1)
        sp = selective_channel(rho, z, ops, +1)
        sm = selective_channel(rho, z, ops, -1)
        avg = average_channel(rho, z, ops)
        recon = sp.probability * sp.post_state + sm.probability * sm.post_state
        assert np.abs(recon - avg).max() <= 1e-12
        assert abs(sp.probability + sm.probability - 1.0) <= 1e-12


def test_selective_dual_paths_agree():
    rng = np.random.default_rng(11)
    for l in (1.5, 8):
        ops = build_spin_operators(l)
        rho = random_density(ops.d, rng)
        z = rng.uniform(-1, 1)
        for outcome in (+1, -1):
            a = selective_channel(rho, z, ops, outcome)
            b = selective_channel_tensor(rho, z, ops, outcome)
            assert abs(a.probability - b.probability) <= 1e-12
            assert np.abs(a.post_state - b.post_state).max() <= 1e-12


def test_unitary_identity_at_zero_kick():
    ops = build_spin_operators(9)
    rng = np.random.default_rng(2)
    rho = random_density(ops.d, rng)
    assert np.abs(unitary_channel(rho, 0.7, ops, 0.0) - rho).max() == 0.0


def test_full_period_coupling_gives_pi_kick():
    # duration t = 2 pi means gamma = 2 pi (l + 1/2), which is pi mod 2 pi
    # for every integer l
    for l in (1, 5, 16):
        gamma = (2 * np.pi * (l + 0.5)) % (2 * np.pi)
        assert abs(gamma - np.pi) < 1e-9


def test_unitary_dual_paths_agree():
    rng = np.random.default_rng(23)
    for l in (0.5, 3, 10):
        ops = build_spin_operators(l)
        rho = random_density(ops.d, rng)
        z = rng.uniform(-1, 1)
        gamma = rng.uniform(0, 2 * np.pi)
        assert np.abs(unitary_channel(rho, z, ops, gamma)
                      - unitary_channel_tensor(rho, z, ops, gamma)).max() <= 1e-12


def test_unitary_pi_kick_doubles_measurement_rotation():
    ops = build_spin_operators(16)
    rho = coherent_state(16, np.pi / 2)
    omega = inclination(unitary_channel(rho, 1.0, ops, np.pi), ops) - np.pi / 2
    assert abs(omega - (-1 / 16)) <= 4 / 16**2


def test_equatorial_symmetry_states_stay_in_plane():
    # the state families are real matrices here, and measurement maps
    # preserve that, so <Ly> stays zero
    ops = build_spin_operators(12)
    for theta in (0.4, 1.8):
        rho = rotated_dicke_state(12, 5, theta)
        for out in (average_channel(rho, 0.9, ops),
                    selective_channel(rho, 0.9, ops, +1).post_state,
                    selective_channel(rho, 0.9, ops, -1).post_state):
            assert abs(np.trace(out @ ops.Ly)) <= 1e-10


def test_antipolarized_kick_undoes_two_measurements():
    deviations = {}
    for l in (16, 32):
        ops = build_spin_operators(l)
        rho = coherent_state(l, np.pi / 2)
        out = average_channel(rho, 1.0, ops)
        out = average_channel(out, 1.0, ops)
        out = unitary_channel(out, -1.0, ops, np.pi)
        dev = mean_angular_momentum(out, ops) - mean_angular_momentum(rho, ops)
        deviations[l] = np.abs(dev).max() / l
    assert 3.0 <= deviations[16] / deviations[32] <= 5.0


def test_verify_cptp_average_and_unitary():
    ops = build_spin_operators(2)
    rep = verify_cptp(lambda rho: average_channel(rho, 0.7, ops), ops)
    assert rep.min_eigenvalue >= -1e-10
    assert rep.tp_defect <= 1e-12
    rep = verify_cptp(lambda rho: unitary_channel(rho, 0.7, ops, 1.3), ops)
    assert rep.min_eigenvalue >= -1e-10
    assert rep.tp_defect <= 1e-12


def test_verify_cptp_flags_corrupted_channel():
    ops = build_spin_operators(2)
    pair = build_projectors(ops)
    bad_plus = 1.01 * pair.pi_plus

    def corrupted(rho):
        W = np.kron(rho, source_state(0.5))
        out = bad_plus @ W @ bad_plus + pair.pi_minus @ W @ pair.pi_minus
        return out.reshape(ops.d, 2, ops.d, 2).trace(axis1=1, axis2=3)

    rep = verify_cptp(corrupted, ops)
    assert rep.tp_defect > 1e-3


def test_verify_cptp_dimension_cap():
    ops = build_spin_operators(16)
    with pytest.raises(ChoiDimensionError):
        verify_cptp(lambda rho: rho, ops)


@pytest.mark.parametrize("l", [0.5, 16])
def test_step_factors_memo_equals_fresh_factors_bit_for_bit(l):
    ops = build_spin_operators(l)
    step_factors.cache_clear()
    for z in (0.0, -0.0, 0.4):  # -0.0 after 0.0 shares its entry
        signs = np.array([-1, 1]).reshape(2, 1, 1)
        fresh = {("average", None): _coeffs_average(z, ops.d),
                 ("selective", None): _coeffs_selective(z, ops.d, signs),
                 **{("unitary", g): _coeffs_unitary(z, ops.d, g)
                    for g in (np.pi, 0.5 * np.pi, 1.3)}}
        for (kind, gamma), coeffs in fresh.items():
            memo = step_factors(ops.l.twice_l, kind, z, gamma)
            for got, want in zip(memo, band_factors(ops.m_band, ops.ladder_band, coeffs)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[...] = 0.0
        # the stacked selective diagonals are the - and + branches' own factors
        diagonal, up, down = step_factors(ops.l.twice_l, "selective", z)
        for row, sign in zip(diagonal, (-1, +1)):
            want = band_factors(ops.m_band, ops.ladder_band, _coeffs_selective(z, ops.d, sign))
            for got, expected in zip((row, up, down), want):
                assert got.tobytes() == expected.tobytes()


def test_hygiene_restores_hermiticity_and_trace():
    # a band array drifts only on its main diagonal: the imaginary part and
    # the trace; the repair matches the dense reference's diagonals
    rng = np.random.default_rng(4)
    rho = random_density(5, rng)
    dirty = rho + 1e-11 * np.diag(rng.normal(size=5) + 1j * rng.normal(size=5))
    clean = hygiene(to_bands(dirty))
    assert not clean[0].imag.any()
    assert abs(clean[0].sum() - 1.0) < 1e-15
    assert np.abs(clean - to_bands(dense_hygiene(dirty))).max() < 1e-16
    B = to_bands(rho)
    assert hygiene(B) is B  # clean input untouched


def test_band_hygiene_and_probabilities_of_a_batch_go_seed_by_seed(caplog):
    rng = np.random.default_rng(8)
    ops = build_spin_operators(2)
    rhos = [random_density(ops.d, rng) for _ in range(3)]
    B = np.array([to_bands(rho) for rho in rhos])
    assert hygiene(B) is B  # a clean batch comes back untouched
    p_plus = _p_plus(B[:, 0], 0.4, ops)  # the stochastic engine's read
    for s in range(3):
        assert abs(p_plus[s] - outcome_probabilities(rhos[s], 0.4, ops)[0]) <= 1e-15
    dirty = B.copy()
    dirty[1, 0, 2] += 1e-9j             # hermiticity drift above the warning level
    dirty[2, 0] *= 1.0 + 1e-12          # trace drift above the trigger only
    with caplog.at_level(logging.WARNING, logger="qrf_sim.channels"):
        fixed = hygiene(dirty)
    assert len(caplog.records) == 1
    assert np.array_equal(fixed[0], dirty[0])
    for s in (1, 2):
        assert np.array_equal(fixed[s], hygiene(dirty[s]))
        assert not fixed[s, 0].imag.any()
        assert abs(fixed[s, 0].sum() - 1.0) <= 1e-15


def test_drift_is_the_rule_hygiene_repairs_by_and_logs_nothing(caplog):
    # one measure for the stepping loop's silent block check and for hygiene:
    # clean exactly where hygiene returns its input, NaN never clean
    ops = build_spin_operators(2)
    B = np.repeat(to_bands(coherent_state(2, 1.0))[None], 5, axis=0)
    B[1, 0, 2] += 2e-9j                 # hermiticity drift 4e-9, above the warning level
    B[2, 0] *= 1.0 + 1e-12              # trace drift above the trigger only
    B[3, 0, 0] += 4e-14j                # hermiticity drift 8e-14, within the trigger
    B[4, 0, 1] = np.nan
    with caplog.at_level(logging.WARNING, logger="qrf_sim.channels"):
        clean, herm, tr = _drift(B)
    assert not caplog.records
    assert clean.tolist() == [True, False, False, True, False]
    assert herm[1] == 4e-9 and tr[2] > 1e-13
    for row, row_clean in zip(B[:4], clean):
        assert (hygiene(row) is row) == row_clean


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, np.float64(np.nan),
                                   np.float64(np.inf)])
def test_unitary_channel_rejects_a_non_finite_gamma(gamma):
    ops = build_spin_operators(2)
    rho = coherent_state(2, 1.0)
    for bands in (False, True):
        with pytest.raises(ValueError, match="gamma"):
            unitary_channel(to_bands(rho) if bands else rho, 1.0, ops, gamma, bands=bands)
