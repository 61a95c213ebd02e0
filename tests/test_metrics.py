import numpy as np
import pytest

from qrf_sim.channels import (
    average_channel,
    average_channel_tensor,
    selective_channel,
    unitary_channel,
    unitary_channel_tensor,
)
from qrf_sim.kernels import to_bands
from qrf_sim.metrics import (
    UnpolarizedFrame,
    axis_angle_fit,
    background_moments,
    band_mean_L,
    frame_direction,
    mean_angular_momentum,
    p_succ,
    p_succ_trace,
    quadratic_moments,
    rotation_between,
    summarize_frame,
)
from qrf_sim.spin import build_spin_operators, coherent_state, dicke_state, rotated_dicke_state
from qrf_sim.trajectory import (
    AlternatingAntipolarized,
    ConditionalTuned,
    LifetimeCapExceeded,
    UnitaryAfterEachPlus,
    UnitaryEveryK,
    usable_lifetime,
)

from helpers import random_density


@pytest.mark.parametrize("twice_l", [1, 2, 3, 5, 16])
@pytest.mark.parametrize("hermitian", [True, False])
def test_moments_match_dense_operator_traces(twice_l, hermitian):
    # twice_l = 1 leaves the +-2 diagonals empty; the non-hermitian input
    # catches a readout that uses only one side of the diagonal
    rng = np.random.default_rng(twice_l)
    ops = build_spin_operators(twice_l / 2)
    if hermitian:
        rhos = [random_density(ops.d, rng) for _ in range(4)]
    else:
        rhos = [rng.normal(size=(ops.d, ops.d)) + 1j * rng.normal(size=(ops.d, ops.d))
                for _ in range(4)]
    mats = (ops.Lx, ops.Ly, ops.Lz)
    want_v = np.array([[np.trace(rho @ L).real for L in mats] for rho in rhos])
    # each matrix's bound scales with its own largest entry
    tols = 1e-12 * max(1.0, (twice_l / 2) ** 2) * np.array([np.abs(r).max() for r in rhos])
    rho, tol = rhos[0], tols[0]
    want_M = np.array([[0.5 * np.trace(rho @ (A @ B + B @ A)).real for B in mats]
                       for A in mats])
    assert np.abs(mean_angular_momentum(rho, ops) - want_v[0]).max() <= tol
    assert np.abs(quadratic_moments(rho, ops) - want_M).max() <= tol
    # an (S, 2, d) batch reads as its arrays one by one, with or without the
    # lower diagonals
    upper = np.array([to_bands(r) for r in rhos])
    lower = np.array([to_bands(r.T) for r in rhos])
    batch = band_mean_L(upper, ops, lower)
    assert batch.shape == (4, 3)
    assert np.array_equal(batch, [mean_angular_momentum(r, ops) for r in rhos])
    assert np.all(np.abs(batch - want_v).max(axis=1) <= tols)
    if hermitian:
        batch = band_mean_L(upper, ops)
        assert np.array_equal(batch, [band_mean_L(b, ops) for b in upper])
        assert np.all(np.abs(batch - want_v).max(axis=1) <= tols)


def test_summary_of_coherent_state_is_identity():
    ops = build_spin_operators(16)
    for theta in (0.05, 1.0, 2.4):
        s = summarize_frame(coherent_state(16, theta), ops)
        assert abs(s.r - 1.0) <= 1e-10
        assert abs(s.theta - theta) <= 1e-10
        assert s.in_plane


def test_summary_rejects_unpolarized():
    ops = build_spin_operators(4)
    with pytest.raises(UnpolarizedFrame):
        summarize_frame(np.eye(ops.d) / ops.d, ops)


def test_frame_direction_is_the_summary_direction_or_raises():
    ops = build_spin_operators(4)
    with pytest.raises(UnpolarizedFrame, match=r"\|<L>\|"):
        frame_direction(np.eye(ops.d) / ops.d, ops)
    rho = rotated_dicke_state(4, 2, 0.7)
    v, n_hat, theta = frame_direction(rho, ops)
    s = summarize_frame(rho, ops)
    assert np.array_equal(v, s.mean_L) and theta == s.theta
    assert np.array_equal(n_hat, v / np.linalg.norm(v))


def test_summary_quad_matches_dicke_moments():
    ops = build_spin_operators(50)
    s = summarize_frame(rotated_dicke_state(50, 25, np.pi / 3), ops)
    ket = dicke_state(50, 25)
    mats = (ops.Lx, ops.Ly, ops.Lz)
    for a in range(3):
        for b in range(3):
            want = 0.5 * np.trace(ket @ (mats[a] @ mats[b] + mats[b] @ mats[a])).real
            assert abs(s.quad[a, b] - want) <= 1e-9


def test_summary_quad_trace_is_casimir():
    ops = build_spin_operators(20)
    rng = np.random.default_rng(8)
    rho = random_density(ops.d, rng)
    s = summarize_frame(rho, ops)
    assert abs(np.trace(s.quad) - 20 * 21) <= 1e-9


def test_summary_flags_out_of_plane_after_unitary():
    ops = build_spin_operators(16)
    rho = coherent_state(16, np.pi / 2)
    for _ in range(5):
        rho = unitary_channel(rho, 1.0, ops, np.pi / 2)
    s = summarize_frame(rho, ops)
    assert s.out_of_plane > 1e-8
    assert not s.in_plane


def test_background_moments_consistency():
    ops = build_spin_operators(14)
    rho = rotated_dicke_state(14, 5, 0.8)
    s = summarize_frame(rho, ops)
    lz2, lzlx = background_moments(s)
    assert abs(lz2 - np.trace(rho @ ops.Lz @ ops.Lz).real) <= 1e-9
    direct = np.trace(rho @ (ops.Lz @ ops.Lx + ops.Lx @ ops.Lz)).real
    assert abs(lzlx - direct) <= 1e-9


def test_rotation_between_basics():
    ops = build_spin_operators(16)
    s = summarize_frame(coherent_state(16, 1.0), ops)
    assert rotation_between(s, s) == 0.0
    s2 = summarize_frame(coherent_state(16, 1.2), ops)
    assert abs(rotation_between(s, s2) - 0.2) < 1e-10
    assert rotation_between(s, s2) == -rotation_between(s2, s)


def test_rotation_between_average_step():
    ops = build_spin_operators(16)
    rho = coherent_state(16, np.pi / 2)
    before = summarize_frame(rho, ops)
    after = summarize_frame(average_channel(rho, 1.0, ops), ops)
    assert abs(rotation_between(before, after) - (-0.03125)) < 2e-3


def test_rotation_between_minus_branch_coherent():
    ops = build_spin_operators(16)
    rho = coherent_state(16, 0.9)
    before = summarize_frame(rho, ops)
    after = summarize_frame(selective_channel(rho, 1.0, ops, -1).post_state, ops)
    assert abs(rotation_between(before, after)) <= 1e-9


def test_rotation_between_rejects_out_of_plane():
    ops = build_spin_operators(16)
    rho = coherent_state(16, np.pi / 2)
    tilted = unitary_channel(rho, 1.0, ops, np.pi / 2)
    s1 = summarize_frame(rho, ops)
    s2 = summarize_frame(tilted, ops)
    with pytest.raises(ValueError):
        rotation_between(s1, s2)


def test_axis_angle_fit_geometry():
    fit = axis_angle_fit(np.array([16.0, 0, 0]), np.array([0, 0, 16.0]))
    assert np.abs(fit.axis - np.array([0.0, -1.0, 0.0])).max() < 1e-12
    assert abs(fit.omega - np.pi / 2) < 1e-12
    same = axis_angle_fit(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 6.0]))
    assert same.omega == 0.0
    with pytest.raises(ValueError):
        axis_angle_fit(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]))


def test_axis_angle_fit_pi_kick_is_y_axis():
    ops = build_spin_operators(32)
    rho = coherent_state(32, 1.1)
    before = mean_angular_momentum(rho, ops)
    after = mean_angular_momentum(unitary_channel(rho, 1.0, ops, np.pi), ops)
    fit = axis_angle_fit(before, after)
    assert min(np.abs(fit.axis - [0, 1, 0]).max(), np.abs(fit.axis + [0, 1, 0]).max()) < 1e-6


def test_p_succ_values():
    ops = build_spin_operators(16)
    rho = coherent_state(16, np.pi / 2)
    x_hat = np.array([1.0, 0.0, 0.0])
    assert abs(p_succ(rho, ops, x_hat) - (0.5 * (1 + 16 / 16.5))) < 1e-12
    assert abs(p_succ(rho, ops, np.array([0.0, 0.0, 1.0])) - 0.5) < 1e-12
    ops400 = build_spin_operators(400)
    anti = p_succ(coherent_state(400, np.pi), ops400, np.array([0.0, 0.0, 1.0]))
    assert anti < 1e-3


def test_p_succ_dual_paths_agree():
    rng = np.random.default_rng(12)
    for _ in range(100):
        twice_l = int(rng.integers(1, 41))
        ops = build_spin_operators(twice_l / 2)
        rho = random_density(ops.d, rng)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        assert abs(p_succ(rho, ops, n) - p_succ_trace(rho, ops, n)) <= 1e-12


def test_p_succ_requires_unit_direction():
    ops = build_spin_operators(4)
    rho = coherent_state(4, 0.3)
    with pytest.raises(ValueError):
        p_succ(rho, ops, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        p_succ_trace(rho, ops, np.array([0.5, 0.0, 0.0]))


def test_average_alignment_is_monotone():
    ops = build_spin_operators(16)
    rho = coherent_state(16, 2.0)
    thetas = [2.0]
    for _ in range(60):
        rho = average_channel(rho, 1.0, ops)
        thetas.append(summarize_frame(rho, ops).theta)
    assert all(a > b for a, b in zip(thetas, thetas[1:]))
    assert thetas[-1] > 0.0


def test_usable_lifetime_threshold_validation_and_cap():
    ops = build_spin_operators(8)
    rho = coherent_state(8, np.pi / 2)
    with pytest.raises(ValueError):
        usable_lifetime(rho, 1.0, ops, 0.99, None)
    with pytest.raises(ValueError):
        usable_lifetime(rho, 1.0, ops, 0.4, None)
    with pytest.raises(LifetimeCapExceeded):
        usable_lifetime(rho, 0.0, ops, 0.9, None, step_cap=3)


def test_usable_lifetime_scales_with_threshold():
    ops = build_spin_operators(8)
    rho = coherent_state(8, np.pi / 2)
    loose = usable_lifetime(rho, 1.0, ops, 0.85, None)
    tight = usable_lifetime(rho, 1.0, ops, 0.93, None)
    assert 0 < tight < loose


@pytest.mark.parametrize("l", [2, 3.5])
@pytest.mark.parametrize("strategy", [UnitaryEveryK(2), UnitaryEveryK(3, 1.1),
                                      AlternatingAntipolarized()],
                         ids=["every-2", "every-3-gamma-1.1", "alternating"])
def test_usable_lifetime_with_strategy_matches_tensor_replay(l, strategy):
    ops = build_spin_operators(l)
    rho = coherent_state(l, np.pi / 2)
    x_hat = np.array([1.0, 0.0, 0.0])
    # several crossings, so a kick moved by one step changes some lifetime
    p0 = p_succ_trace(rho, ops, x_hat)
    thresholds = [0.5 + f * (p0 - 0.5) for f in (0.5, 0.2, 0.1)]
    series, cur = [], rho
    while not series or series[-1] >= min(thresholds):
        cur = average_channel_tensor(cur, 1.0, ops)
        if isinstance(strategy, AlternatingAntipolarized):
            cur = average_channel_tensor(cur, -1.0, ops)
        elif (len(series) + 1) % strategy.k == 0:
            cur = unitary_channel_tensor(cur, -1.0, ops, strategy.gamma)
        series.append(p_succ_trace(cur, ops, x_hat))
    for threshold in thresholds:
        want = next(n for n, p in enumerate(series, start=1) if p < threshold)
        assert usable_lifetime(rho, 1.0, ops, threshold, strategy) == want


@pytest.mark.parametrize("strategy", [UnitaryAfterEachPlus(), ConditionalTuned()],
                         ids=["after-each-plus", "conditional"])
def test_usable_lifetime_rejects_outcome_dependent_strategy(strategy):
    ops = build_spin_operators(2)
    with pytest.raises(ValueError, match="no average evolution"):
        usable_lifetime(coherent_state(2, np.pi / 2), 1.0, ops, 0.7, strategy)
