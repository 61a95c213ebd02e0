import inspect
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qrf_sim.channels as channels
import qrf_sim.trajectory as trajectory
from qrf_sim.channels import (
    average_channel,
    build_projectors,
    selective_unnormalized,
    outcome_probabilities,
    selective_channel,
    step_factors,
    unitary_channel,
    unitary_channel_tensor,
)
from qrf_sim.kernels import band_factors, to_bands
from qrf_sim.metrics import UnpolarizedFrame, band_mean_L, mean_angular_momentum, p_succ_of
from qrf_sim.spin import (
    build_spin_operators,
    coherent_state,
    rotated_dicke_state,
    source_state,
    thermal_partial_coherent,
)
from qrf_sim.trajectory import (
    AlternatingAntipolarized,
    ConditionalTuned,
    LifetimeCapExceeded,
    MeasureStep,
    NumericalInvariantError,
    UnitaryAfterEachPlus,
    UnitaryEveryK,
    UnitaryStep,
    conditional_correction_step,
    run_arm_statistics,
    run_average,
    run_ensemble,
    run_ensemble_statistics,
    run_stochastic,
    schedule_measurements,
    usable_lifetime,
    usable_lifetimes,
    validate_schedule,
)


from helpers import (
    band_error,
    checked_average_steps,
    dense_hygiene,
    inject_after,
    reference_record,
    replay_average,
    replay_outcomes,
)

OPS8 = build_spin_operators(8)
OPS16 = build_spin_operators(16)


def test_schedule_builders_and_validation():
    every2 = [UnitaryEveryK(2).corrections(i, 1.0, None) for i in range(4)]
    kick = UnitaryStep(-1.0, np.pi)
    assert every2 == [(), (kick,), (), (kick,)]
    assert [AlternatingAntipolarized().corrections(i, 1.0, None) for i in range(3)] \
        == [(MeasureStep(-1.0),)] * 3
    with pytest.raises(ValueError):
        validate_schedule([])
    with pytest.raises(TypeError):
        validate_schedule([object()])
    with pytest.raises(ValueError):
        UnitaryStep(1.0, np.inf)


def test_strategy_validation():
    with pytest.raises(ValueError):
        UnitaryEveryK(0, np.pi)
    with pytest.raises(ValueError):
        UnitaryAfterEachPlus(np.nan)
    with pytest.raises(ValueError):
        ConditionalTuned(5.0)


def test_run_average_fixed_point():
    rho = np.eye(OPS8.d) / OPS8.d
    # the unpolarized frame has no direction: supply one, and its inclination is NaN
    run = run_average(rho, schedule_measurements(5, 0.0), OPS8, n_hat=np.array([0.0, 0.0, 1.0]))
    assert np.isnan(run.theta_series).all()
    assert np.abs(run.mean_L).max() <= 1e-15
    assert np.abs(run.p_succ_series - 0.5).max() <= 1e-15
    assert np.abs(run.final_bands - to_bands(rho)).max() <= 1e-15
    with pytest.raises(UnpolarizedFrame):
        run_average(rho, schedule_measurements(5, 0.0), OPS8)


def test_run_average_recording_cadence():
    rho = coherent_state(8, 1.0)
    run = run_average(rho, schedule_measurements(10, 1.0), OPS8, record_every=4)
    assert list(run.step_indices) == [0, 4, 8, 10]
    assert run.mean_L.shape == (4, 3)
    assert run.theta_series.shape == run.p_succ_series.shape == (4,)


def test_reproducibility_identical_seeds():
    a = run_stochastic(coherent_state(8, np.pi / 2), 25, 1.0, None, 77, OPS8)
    b = run_stochastic(coherent_state(8, np.pi / 2), 25, 1.0, None, 77, OPS8)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.array_equal(a.p_succ_series, b.p_succ_series)
    assert np.array_equal(a.final_bands, b.final_bands)
    c = run_stochastic(coherent_state(8, np.pi / 2), 25, 1.0, None, 78, OPS8)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_ensemble_thread_count_invariance():
    # run_ensemble has no thread knob left; a record depends on its seed
    # alone, whatever else the ensemble runs and in whatever order
    rho = coherent_state(8, np.pi / 2)
    seeds = list(range(12))
    ensemble = run_ensemble(rho, 10, 1.0, UnitaryEveryK(2, np.pi), seeds, OPS8)
    alone = [run_stochastic(rho, 10, 1.0, UnitaryEveryK(2, np.pi), s, OPS8)
             for s in reversed(seeds)][::-1]
    assert "threads" not in inspect.signature(run_ensemble).parameters
    for a, b in zip(ensemble, alone):
        assert a.seed == b.seed
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.final_bands, b.final_bands)


def test_first_outcome_fractions_match_exact_probability():
    rho = coherent_state(8, np.pi / 2)
    p_plus, _ = outcome_probabilities(rho, 1.0, OPS8)
    records = run_ensemble(rho, 1, 1.0, None, range(1000), OPS8)
    frac = np.mean([rec.outcomes[0] > 0 for rec in records])
    stderr = np.sqrt(p_plus * (1 - p_plus) / 1000)
    assert abs(frac - p_plus) <= 3 * stderr


def test_certain_outcome_is_forced():
    rho = coherent_state(8, 0.0)
    rec = run_stochastic(rho, 5, 1.0, None, 3, OPS8)
    assert np.all(rec.outcomes == 1)


def test_record_shapes_and_outcome_string():
    rec = run_stochastic(coherent_state(8, 1.2), 7, 0.8, None, 5, OPS8)
    assert rec.outcomes.shape == (7,)
    assert rec.theta_series.shape == (8,)
    assert rec.p_succ_series.shape == (8,)
    assert set(rec.outcome_string) <= {"+", "-"}
    assert np.all((rec.p_succ_series >= 0) & (rec.p_succ_series <= 1))
    assert rec.rng_algorithm == "numpy-philox4x64"


def test_alternating_strategy_records_corrective_measurements():
    rec = run_stochastic(coherent_state(8, 1.2), 6, 1.0, AlternatingAntipolarized(), 11, OPS8)
    assert rec.outcomes.shape == (12,)
    assert rec.outcome_is_corrective.sum() == 6
    assert len(rec.correction_events) == 6
    assert all(e.kind == "measure_antipolarized" for e in rec.correction_events)


def test_alternating_strategy_cancels_drift():
    theta0 = np.pi / 2
    ops = build_spin_operators(32)
    rho = coherent_state(32, theta0)
    uncorrected = run_average(rho, schedule_measurements(50, 1.0), ops)
    drift_unc = abs(uncorrected.theta_series[-1] - theta0)
    stats = run_ensemble_statistics(rho, 50, 1.0, AlternatingAntipolarized(), range(200), ops)
    drift_alt = abs(stats.theta[-1] - theta0)
    assert drift_alt <= drift_unc / 10


def test_unitary_every_two_keeps_inclination():
    theta0 = np.pi / 2
    rec = run_stochastic(coherent_state(16, theta0), 100, 1.0, UnitaryEveryK(2, np.pi), 4, OPS16)
    assert len(rec.correction_events) == 50
    uncorrected = run_stochastic(coherent_state(16, theta0), 100, 1.0, None, 4, OPS16)
    drift_unc = abs(uncorrected.theta_series[-1] - theta0)
    assert np.abs(rec.theta_series - theta0).max() < 0.5 * drift_unc


def test_after_each_plus_only_fires_on_plus():
    rec = run_stochastic(coherent_state(8, 2.0), 40, 1.0, UnitaryAfterEachPlus(np.pi), 9, OPS8)
    n_plus = int((rec.outcomes > 0).sum())
    assert len(rec.correction_events) == n_plus
    assert all(e.kind == "unitary" for e in rec.correction_events)


def test_correction_interface_takes_no_inclination():
    # the periodic unitary correction must work blind: neither the strategy
    # nor the channel it applies accepts the relative angle
    assert "theta" not in inspect.signature(UnitaryEveryK).parameters
    assert "theta" not in inspect.signature(unitary_channel).parameters


def test_conditional_correction_fully_corrects_one_branch():
    from qrf_sim.channels import selective_channel

    theta0 = 2 * np.pi / 3
    rho = coherent_state(16, theta0)
    residuals = {}
    for outcome in (+1, -1):
        post = to_bands(selective_channel(rho, 1.0, OPS16, outcome).post_state)
        choice = conditional_correction_step(post, theta0, outcome, OPS16)
        residuals[outcome] = choice.residual
    assert min(residuals.values()) <= 1e-12
    assert max(residuals.values()) > 1e-3  # the other branch is out of reach here


def test_conditional_correction_outside_correctable_region():
    from qrf_sim.channels import selective_channel

    theta0 = np.pi / 4
    rho = rotated_dicke_state(16, 8, theta0)
    post = to_bands(selective_channel(rho, 1.0, OPS16, -1).post_state)
    choice = conditional_correction_step(post, theta0, -1, OPS16)
    assert choice.residual > 0.1


def test_conditional_correction_noop_when_on_target():
    B = to_bands(coherent_state(16, 1.0))
    choice = conditional_correction_step(B, 1.0, +1, OPS16)
    assert choice.gamma == 0.0
    assert choice.residual <= 1e-12
    assert choice.corrected_bands is B


def kicked_polarization(rho, z, ops, gammas):
    """<L> after the tensor-product unitary channel at every gamma of a scan.

    U = pi_+ + e^{-i gamma} pi_-, so U W U^dag = pi_+ W pi_+ + pi_- W pi_-
    + e^{-i gamma} pi_- W pi_+ + h.c.: two traces give the whole scan.
    """
    pair, d = build_projectors(ops), ops.d
    W = np.kron(rho, source_state(z))

    def moments(M):
        frame = M.reshape(d, 2, d, 2).trace(axis1=1, axis2=3)
        return np.array([np.trace(frame @ L) for L in (ops.Lx, ops.Ly, ops.Lz)])

    still = moments(pair.pi_plus @ W @ pair.pi_plus + pair.pi_minus @ W @ pair.pi_minus)
    cross = moments(pair.pi_minus @ W @ pair.pi_plus)
    return still.real + 2.0 * (np.exp(-1j * gammas)[:, None] * cross).real


def conditional_cases(l):
    """(post-measurement state, source |z|, target) over states, z, outcomes, targets."""
    ops = build_spin_operators(l)
    states = [coherent_state(l, 1.0), thermal_partial_coherent(l, 0.6, 2.0),
              unitary_channel(coherent_state(l, 1.3), 0.5, ops, 0.9)]  # out of plane
    for rho in states:
        v = mean_angular_momentum(rho, ops)
        for z in (1.0, 0.3, -0.7):
            for outcome in (+1, -1):
                post = selective_channel(rho, z, ops, outcome).post_state
                for target in (np.arctan2(v[0], v[2]), 0.4, 1.6, 2.7):
                    yield ops, post, outcome, abs(z), float(target)


@pytest.mark.parametrize("l", [1, 2, 3.5, 8, 16])
def test_conditional_correction_matches_dense_scan(l):
    gammas = np.linspace(0.0, 2.0 * np.pi, 20002)  # 20001 points on [0, 2pi), closed
    n_reached = 0
    for ops, post, outcome, z_mag, target in conditional_cases(l):
        choice = conditional_correction_step(to_bands(post), target, outcome, ops, z_mag=z_mag)
        w = band_mean_L(choice.corrected_bands, ops)
        residual = abs(np.arctan2(w[0], w[2]) - target)
        forward = w[0] * np.sin(target) + w[2] * np.cos(target)
        assert choice.residual == residual
        for sign in (+1, -1):
            v = kicked_polarization(post, sign * z_mag, ops, gammas)
            probe = unitary_channel_tensor(post, sign * z_mag, ops, gammas[7777])
            assert np.abs(v[7777] - mean_angular_momentum(probe, ops)).max() <= 1e-12 * l
            assert residual <= np.abs(np.arctan2(v[:, 0], v[:, 2]) - target).min() + 1e-12
            # a sign change of x cos(target) - z sin(target) on the forward side
            # brackets a kick that hits the target
            miss = v[:, 0] * np.cos(target) - v[:, 2] * np.sin(target)
            ahead = v[:, 0] * np.sin(target) + v[:, 2] * np.cos(target)
            hits = np.flatnonzero((np.sign(miss[:-1]) != np.sign(miss[1:]))
                                  & (ahead[:-1] > 0) & (ahead[1:] > 0))
            if hits.size:
                n_reached += 1
                assert residual <= 1e-12
                assert forward >= np.minimum(ahead[hits], ahead[hits + 1]).max() - 1e-12 * l
    assert n_reached > 0


def test_conditional_correction_makes_one_channel_call_per_kick(monkeypatch):
    # no trial kick: the chosen kick is the one channel call, and on target there is none
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs["gamma"])
        return unitary_channel(*args, **kwargs)

    monkeypatch.setattr(trajectory, "unitary_channel", counting)
    theta0 = 2 * np.pi / 3
    post = to_bands(selective_channel(coherent_state(16, theta0), 1.0, OPS16, +1).post_state)
    choice = conditional_correction_step(post, theta0, +1, OPS16)
    assert choice.gamma != 0.0
    assert calls == [choice.gamma]
    calls.clear()
    on_target = conditional_correction_step(to_bands(coherent_state(16, 1.0)), 1.0, +1, OPS16)
    assert on_target.gamma == 0.0
    assert calls == []


def test_kick_reads_are_the_kicked_polarization():
    # P + Q cos(gamma) + R sin(gamma), read from one weighted sum over B, is
    # what band_mean_L reads after the kick, for either source sign
    rng = np.random.default_rng(21)
    for twice_l in [*range(1, 65), 1024]:
        ops = build_spin_operators(twice_l / 2)
        psi = rng.normal(size=ops.d) + 1j * rng.normal(size=ops.d)
        psi /= np.linalg.norm(psi)
        B = np.zeros((2, ops.d), dtype=np.complex128)
        B[0], B[1, :-1] = abs(psi) ** 2, psi[:-1] * psi[1:].conj()  # a pure state, out of plane
        tol = 1e-13 * max(1.0, ops.l_value)
        for z in (1.0, 0.3, -0.7):
            v0, terms = trajectory._kick_reads(B, ops, abs(z))
            assert np.abs(np.array(v0) - band_mean_L(B, ops)).max() <= tol
            for sign, (P, Q, R) in zip((+1, -1), terms):
                for gamma in rng.uniform(0.0, 2.0 * np.pi, 3):
                    kicked = unitary_channel(B, sign * abs(z), ops, gamma, bands=True)
                    model = (np.array(P) + np.array(Q) * np.cos(gamma)
                             + np.array(R) * np.sin(gamma))
                    assert np.abs(model - band_mean_L(kicked, ops)).max() <= tol, (twice_l, z)


def test_conditional_run_applies_each_chosen_kick_once(monkeypatch):
    # the chosen kick of each conditional_correction_step call, and no second
    # application of it by the run; a clean run checks each block once and
    # repairs nothing, a drifted kick replays its block with one repair per
    # state, the kicked ones included
    calls, repairs, checks = [], [], []

    def counting(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs["gamma"])
        return unitary_channel(*args, **kwargs)

    def counting_hygiene(B):
        repairs.append(B.shape)
        return channels.hygiene(B)

    def counting_drift(B):
        checks.append(B.shape)
        return channels._drift(B)

    class DriftingKick(ConditionalTuned):
        def corrections(self, i, z, outcome, B=None, ops=None, theta0=None):
            (kick,) = super().corrections(i, z, outcome, B, ops, theta0)
            return (replace(kick, bands=B * (1 + 1e-9)),) if i == 20 else (kick,)

    monkeypatch.setattr(trajectory, "unitary_channel", counting)
    monkeypatch.setattr(trajectory, "hygiene", counting_hygiene)
    monkeypatch.setattr(trajectory, "_drift", counting_drift)
    rho = coherent_state(16, 2 * np.pi / 3)
    rec = run_stochastic(rho, 50, 1.0, ConditionalTuned(), 3, OPS16)
    assert sum(e.gamma != 0.0 for e in rec.correction_events) > 0
    assert len(calls) <= 5 * 50
    assert len(repairs) == 0
    assert len(checks) == -(-50 // trajectory.STEP_BLOCK)  # one seed at l = 16: full blocks
    run_stochastic(rho, 50, 1.0, DriftingKick(), 3, OPS16)
    assert len(repairs) == 2 * trajectory.STEP_BLOCK  # a measurement and a kick per step


@pytest.mark.parametrize("l", [3.5, 16])
def test_conditional_mirror_choice_survives_one_ulp(l):
    # on an in-plane post-measurement state the mirror kicks gamma and
    # 2 pi - gamma both hit the target with the same forward component: a
    # one-ulp change of any entry moves gamma by rounding only, never to the mirror
    ops = build_spin_operators(l)
    B = to_bands(selective_channel(coherent_state(l, np.pi / 2), 1.0, ops, +1).post_state)
    B = B.astype(np.complex128)  # a complex copy, so the imaginary parts are perturbed too
    gamma = conditional_correction_step(B, np.pi / 2, +1, ops).gamma
    assert gamma != 0.0
    for k in range(len(B)):
        for j in range(2 * (ops.d - k)):  # the real and imaginary parts of band k
            P = B.copy()
            P.view(np.float64)[k, j] = np.nextafter(P.view(np.float64)[k, j], np.inf)
            assert abs(conditional_correction_step(P, np.pi / 2, +1, ops).gamma - gamma) <= 1e-12


def test_factor_memo_stays_bounded_over_a_conditional_run():
    step_factors.cache_clear()
    run_stochastic(coherent_state(16, 2 * np.pi / 3), 100, 1.0, ConditionalTuned(), 4, OPS16)
    info = step_factors.cache_info()
    assert info.misses > info.maxsize  # each chosen kick is a new entry
    assert info.currsize <= info.maxsize == 32


def test_conditional_strategy_runs_and_records():
    rec = run_stochastic(coherent_state(8, 2.0), 10, 1.0, ConditionalTuned(), 2, OPS8)
    assert len(rec.correction_events) == 10
    assert all(e.kind == "conditional" for e in rec.correction_events)
    assert all(e.residual is not None for e in rec.correction_events)


@pytest.mark.parametrize("l", [3.5, 16])
def test_a_record_does_not_depend_on_the_chunk_it_shares(l):
    # a record depends on its seed alone: every seed's record has the same bits
    # run alone and inside chunks of 2, 3 and 7 seeds, whose batches have other layouts
    ops = build_spin_operators(l)
    rho = coherent_state(l, 1.1)
    seeds = [1, 9, 2, 7, 4, 5, 3]
    alone = {seed: run_stochastic(rho, 40, 0.6, None, seed, ops) for seed in seeds}
    for size in (2, 3, 7):
        for rec in run_ensemble(rho, 40, 0.6, None, seeds[:size], ops):
            for field in ("outcomes", "theta_series", "p_succ_series", "final_bands"):
                assert getattr(rec, field).tobytes() == getattr(alone[rec.seed], field).tobytes(), \
                    (size, rec.seed, field)


def test_ensemble_statistics_single_and_identical_records():
    # one seed, and the same seed twice: the means are that record's series
    # exactly and the spread is exactly zero
    rho = coherent_state(8, 1.0)
    rec = run_stochastic(rho, 6, 0.9, None, 1, OPS8)
    for seeds in ([1], [1, 1]):
        stats = run_ensemble_statistics(rho, 6, 0.9, None, seeds, OPS8)
        assert stats.n_records == len(seeds)
        assert np.abs(stats.p_succ - rec.p_succ_series).max() == 0.0
        assert np.abs(stats.theta - rec.theta_series).max() == 0.0
        assert np.abs(stats.p_succ_stderr).max() == 0.0
        assert np.abs(stats.theta_stderr).max() == 0.0


def test_ensemble_statistics_rejects_empty_seed_list():
    rho = coherent_state(8, 1.0)
    with pytest.raises(ValueError):
        run_ensemble_statistics(rho, 4, 0.9, None, [], OPS8)
    with pytest.raises(ValueError):
        run_ensemble_statistics(rho, 0, 0.9, None, [1], OPS8)


ARMS = (None, UnitaryEveryK(2), UnitaryAfterEachPlus(), UnitaryEveryK(3, 1.0))


@pytest.mark.parametrize("n_seeds", [5, 300])
def test_each_arm_is_its_strategy_run_alone(n_seeds):
    # arms stepped as one batch, on shared draws, give each arm the bytes of its
    # strategy run alone; the gamma = 1 arm makes the shared batch complex, and
    # 300 seeds cross a chunk boundary
    ops = build_spin_operators(6)
    rho = coherent_state(6, 1.2)
    seeds = range(7, 7 + n_seeds)
    arms = run_arm_statistics(rho, 20, 0.8, ARMS, seeds, ops)
    assert len(arms) == len(ARMS)
    for strategy, arm in zip(ARMS, arms):
        alone = run_ensemble_statistics(rho, 20, 0.8, strategy, seeds, ops)
        assert arm.n_records == alone.n_records == n_seeds
        for field in ("theta", "theta_stderr", "p_succ", "p_succ_stderr", "plus_fraction"):
            assert getattr(arm, field).tobytes() == getattr(alone, field).tobytes(), \
                (strategy, field)


def test_arm_kicks_merge_by_position_and_angle():
    # equal (z, gamma) kicks of two arms at the same position are one step
    # masked to both arms' rows; another angle is a step of its own
    B = np.repeat(to_bands(coherent_state(3, 1.0))[None], 9, axis=0)
    outcome = np.array([1, -1, 1] * 3, dtype=np.int8)
    fixes = trajectory._Arms(ARMS[:3]).corrections(1, 0.5, outcome, B)
    assert len(fixes) == 1 and (fixes[0].z, fixes[0].gamma) == (-0.5, np.pi)
    assert fixes[0].where.tolist() == [False] * 3 + [True] * 3 + [True, False, True]
    fixes = trajectory._Arms((UnitaryEveryK(2, 1.0),) + ARMS[1:3]).corrections(1, 0.5, outcome, B)
    assert [(f.gamma, f.where.tolist()) for f in fixes] == [
        (1.0, [True] * 3 + [False] * 6),
        (np.pi, [False] * 3 + [True] * 3 + [True, False, True])]
    # an all-minus step kicks no + arm: the strategies return no step at all
    assert trajectory._Arms(ARMS[:3]).corrections(0, 0.5, -np.abs(outcome), B) == ()


@pytest.mark.parametrize("strategy", [AlternatingAntipolarized(), ConditionalTuned()],
                         ids=["alternating", "conditional"])
def test_arms_that_cannot_share_draws_or_steps_raise(strategy):
    # an antipolarized measurement draws a second uniform and measures the whole
    # batch; a conditional kick hands over its own per-seed bands
    rho = coherent_state(4, 1.0)
    with pytest.raises(ValueError):
        run_arm_statistics(rho, 4, 1.0, (None, strategy), [1, 2], build_spin_operators(4))


@pytest.mark.parametrize("gamma, dtype", [(np.pi, np.float64), (1.3, np.complex128)])
def test_a_masked_kick_steps_only_its_rows(gamma, dtype):
    rng = np.random.default_rng(31)
    ops = build_spin_operators(3.5)
    A = rng.normal(size=(5, ops.d, ops.d))
    B = np.array([to_bands(a @ a.T / np.trace(a @ a.T)) for a in A])
    assert B.dtype == np.float64
    where = np.array([True, False, True, False, False])
    held = B.copy()
    out, outcome = trajectory._apply(B, UnitaryStep(-0.6, gamma, where=where), ops)
    full, _ = trajectory._apply(B, UnitaryStep(-0.6, gamma), ops)
    assert outcome is None and out.dtype == dtype and np.array_equal(B, held)
    assert out[~where].tobytes() == B[~where].astype(dtype).tobytes()
    assert out[where].tobytes() == full[where].tobytes()
    # a + kick after an all-minus step is no step, so no all-False mask reaches _apply
    assert UnitaryAfterEachPlus(gamma).corrections(0, 0.6, np.full(5, -1, np.int8), B) == ()


def test_mean_cumulative_angle_matches_drift_in_short_time_regime():
    # N << l: the ensemble-mean rotation is N times the one-step drift
    l, n_steps, n_seeds = 64, 24, 200
    ops = build_spin_operators(l)
    theta0 = np.pi / 2
    rho = coherent_state(l, theta0)
    records = run_ensemble(rho, n_steps, 1.0, None, range(n_seeds), ops)
    stats = run_ensemble_statistics(rho, n_steps, 1.0, None, range(n_seeds), ops)
    total = np.array([rec.theta_series[-1] - theta0 for rec in records])
    mean, stderr = total.mean(), total.std(ddof=1) / np.sqrt(n_seeds)
    predicted = n_steps * (-(1.0 * 1.0 / (2 * l)) * np.sin(theta0))
    assert abs(mean - predicted) <= 2 * stderr
    assert stats.n_records == n_seeds
    assert abs(stats.theta[-1] - theta0 - mean) <= 1e-14
    assert abs(stats.theta_stderr[-1] - stderr) <= 1e-14


def test_stochastic_mean_state_approaches_average_map():
    # small version of the ensemble-consistency acceptance criterion
    # full matrices: outcome strings and the averaged run replayed densely
    n_seeds, n_steps = 400, 10
    rho = coherent_state(8, np.pi / 2)
    records = run_ensemble(rho, n_steps, 1.0, None, range(n_seeds), OPS8)
    finals = [replay_outcomes(rho, rec.outcomes, 1.0, OPS8) for rec in records]
    for rec, final in zip(records, finals):
        assert band_error(rec.final_bands, final) <= 1e-12
    avg = replay_average(rho, n_steps, 1.0, OPS8)
    assert band_error(run_average(rho, schedule_measurements(n_steps, 1.0), OPS8).final_bands,
                      avg) <= 1e-12
    one_step = np.abs(average_channel(rho, 1.0, OPS8) - rho).max()
    mean_state = sum(finals) / n_seeds
    assert np.abs(mean_state - avg).max() <= (4 / np.sqrt(n_seeds)) * one_step


@pytest.mark.parametrize("l", [0.5, 1, 3.5, 16, 128])
def test_band_run_steps_match_dense_loop(l):
    # 1000 mixed steps through the run loop's step function and per-state
    # check against the dense kernel plus hygiene: average, unitary, and a drawn
    # measurement on a one-seed batch whose uniform picks the dense branch's outcome
    rng = np.random.default_rng(int(2 * l))
    ops = build_spin_operators(l)
    rho = thermal_partial_coherent(l, 0.6, 1.1)
    B = to_bands(rho)
    worst = 0.0
    for _ in range(1000):
        kind = rng.integers(3)
        z = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
        if kind == 2:
            p_plus, _ = outcome_probabilities(rho, z, ops)
            outcome = +1 if rng.random() < np.clip(p_plus, 0.05, 0.95) else -1
            sigma = selective_unnormalized(rho, z, ops, outcome)
            rho = dense_hygiene(sigma / sigma.trace().real)
            u = 0.5 * p_plus if outcome > 0 else 0.5 * (1.0 + p_plus)
            batch, drawn = trajectory._apply(B[None], MeasureStep(z), ops,
                                             iter([np.array([u])]))
            assert drawn.tolist() == [outcome]
            B = trajectory._checked(batch)[0]
        else:
            step = MeasureStep(z) if kind == 0 else UnitaryStep(z, rng.uniform(0, 2 * np.pi))
            dense = (average_channel(rho, z, ops) if kind == 0
                     else unitary_channel(rho, z, ops, step.gamma))
            rho = dense_hygiene(dense)
            B, drawn = trajectory._apply(B, step, ops)
            B = trajectory._checked(B)
            assert drawn is None
        worst = max(worst, np.abs(B - to_bands(rho)).max())
    assert worst <= 1e-12
    assert np.abs(band_mean_L(B, ops) - mean_angular_momentum(rho, ops)).max() <= 1e-12 * l


@pytest.mark.parametrize("strategy", [None, UnitaryEveryK(2), AlternatingAntipolarized()],
                         ids=["none", "unitary_every_2", "alternating"])
def test_usable_lifetime_is_first_crossing_of_run_average(strategy):
    ops = build_spin_operators(8)
    rho = coherent_state(8, np.pi / 2)
    life = usable_lifetime(rho, 1.0, ops, 0.9, strategy)
    run = run_average(rho, schedule_measurements(life + 5, 1.0), ops, strategy=strategy)
    assert np.flatnonzero(run.p_succ_series < 0.9)[0] == life


@pytest.mark.parametrize("n", [1, 16, 17, 24])
def test_usable_lifetime_block_reads_find_the_first_crossing(n):
    # crossings at the first step, at both ends of a block boundary and mid-block,
    # against the per-step reads of run_average
    rho = coherent_state(8, np.pi / 2)
    p = run_average(rho, schedule_measurements(40, 1.0), OPS8).p_succ_series
    assert (np.diff(p) < 0).all()
    threshold = 0.5 * (p[n - 1] + p[n])
    assert usable_lifetime(rho, 1.0, OPS8, threshold) == n
    assert usable_lifetime(rho, 1.0, OPS8, threshold, step_cap=n) == n  # the cap ends a block
    if n > 20:
        with pytest.raises(LifetimeCapExceeded) as exc:
            usable_lifetime(rho, 1.0, OPS8, threshold, step_cap=20)
        assert exc.value.cap == 20


@pytest.mark.parametrize("strategy", [None, UnitaryEveryK(2)], ids=["none", "unitary_every_2"])
def test_one_pass_lifetimes_are_the_one_threshold_lifetimes(strategy):
    rho, thresholds = coherent_state(8, np.pi / 2), [0.9, 0.93, 0.85]
    lives = usable_lifetimes(rho, 1.0, OPS8, thresholds, strategy)
    assert lives == [usable_lifetime(rho, 1.0, OPS8, t, strategy) for t in thresholds]
    cap = sorted(lives)[1]
    assert usable_lifetimes(rho, 1.0, OPS8, thresholds, strategy, step_cap=cap) == \
        [life if life <= cap else None for life in lives]


def test_one_pass_lifetimes_match_the_z0_eigendecomposition():
    # at z = 0 the average map is (1/2 + 1/2d^2) rho + (L+ rho L- + L- rho L+)/d^2
    # + 2 Lz rho Lz/d^2: on diagonal 1, x_i = rho[i, i+1], a real symmetric tridiagonal
    # matrix M, so <Lx>(n) = b.M^n x0 = sum_j alpha_j lambda_j^n with b_i = ladder[i+1]
    # (the start's <Lz> = l cos(pi/2), about 6e-17 l, adds under 1e-32 to p_succ: left out)
    for l, want in ((128, [7241, 11651]), (256, [29106, 46676])):
        ops, rho, thresholds = build_spin_operators(l), coherent_state(l, np.pi / 2), [0.9, 0.85]
        lives = usable_lifetimes(rho, 0.0, ops, thresholds)
        d, m, a = ops.d, ops.m_diag, ops.ladder
        off = a[1:-1] * a[2:] / d**2
        M = np.diag(0.5 + 0.5 / d**2 + 2.0 * m[:-1] * m[1:] / d**2) + np.diag(off, 1) \
            + np.diag(off, -1)
        lam, V = np.linalg.eigh(M)
        alpha = (V.T @ a[1:]) * (V.T @ np.diagonal(rho, 1).real)

        def p_succ(n):
            return 0.5 * (1.0 + alpha @ lam**n / (l + 0.5))

        for life, threshold in zip(lives, thresholds):
            after, before = p_succ(life), p_succ(life - 1)
            assert after < threshold or abs(after - threshold) <= 1e-12
            assert before >= threshold or abs(before - threshold) <= 1e-12
        assert lives == want


def test_usable_lifetime_builds_its_step_factors_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return band_factors(*args)

    monkeypatch.setattr(channels, "band_factors", counting)
    step_factors.cache_clear()
    ops = build_spin_operators(64)
    assert usable_lifetime(coherent_state(64, np.pi / 2), 0.0, ops, 0.9) == 1792
    assert 1 <= len(calls) <= 2


def test_clean_lifetime_checks_each_block_once(monkeypatch):
    # a run without draws checks a clean block of 16 states at once, without hygiene
    calls = []

    def counting(B):
        calls.append(B.shape)
        return channels.hygiene(B)

    monkeypatch.setattr(trajectory, "hygiene", counting)
    ops = build_spin_operators(64)
    assert usable_lifetime(coherent_state(64, np.pi / 2), 0.0, ops, 0.9) == 1792
    assert len(calls) <= 1792 // trajectory.STEP_BLOCK + 16


def _lifetime_setup():
    """A start whose lifetime outlasts two blocks, its band array, the
    clean checked states of 40 steps and a threshold crossed at step 37."""
    rho = coherent_state(8, np.pi / 2)
    B0 = to_bands(rho)
    states = checked_average_steps(B0, 40, 1.0, OPS8)
    v0 = mean_angular_momentum(rho, OPS8)
    p = p_succ_of(band_mean_L(np.array(states), OPS8), v0 / np.linalg.norm(v0), OPS8)
    return rho, B0, states, 0.5 * (p[35] + p[36])


@pytest.mark.parametrize("size, warnings", [(1e-11, 0), (1e-9, 1)])
def test_drifted_block_is_replayed_like_a_per_step_loop(monkeypatch, caplog, size, warnings):
    # a trace drift injected at step 21, mid-block: the kernel-only block fails the
    # silent drift check and its replay repairs step 21 as checking each state
    # does; a drift above 1e-10 logs its one warning there, and only there
    rho, B0, clean, threshold = _lifetime_setup()
    delta = np.zeros_like(B0)
    delta[0, 3] = size
    inject_after(monkeypatch, clean[19], delta)
    with caplog.at_level(logging.WARNING, logger="qrf_sim.channels"):
        states = checked_average_steps(B0, 40, 1.0, OPS8)
    assert len(caplog.records) == warnings
    assert not np.array_equal(states[-1], clean[-1])  # the repair changed the run
    reads = band_mean_L(np.array([B0, *states]), OPS8)
    v0 = reads[0]
    below = p_succ_of(reads[1:], v0 / np.linalg.norm(v0), OPS8) < threshold
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="qrf_sim.channels"):
        run = run_average(rho, schedule_measurements(40, 1.0), OPS8)
        assert len(caplog.records) == warnings
        assert usable_lifetime(rho, 1.0, OPS8, threshold) == below.argmax() + 1
        assert len(caplog.records) == 2 * warnings
    assert np.array_equal(run.mean_L, reads)
    assert np.array_equal(run.final_bands, states[-1])


def test_non_finite_state_mid_block_raises(monkeypatch):
    rho, B0, clean, threshold = _lifetime_setup()
    delta = np.zeros_like(B0)
    delta[1, 2] = np.nan
    inject_after(monkeypatch, clean[19], delta)
    with pytest.raises(NumericalInvariantError, match="finite domain"):
        checked_average_steps(B0, 40, 1.0, OPS8)
    with pytest.raises(NumericalInvariantError, match="finite domain"):
        run_average(rho, schedule_measurements(40, 1.0), OPS8)
    with pytest.raises(NumericalInvariantError, match="finite domain"):
        usable_lifetime(rho, 1.0, OPS8, threshold)


def test_block_that_raises_is_replayed_to_the_first_error_of_a_per_step_loop():
    # a non-finite start fails the check of step 1 before the outcome-dependent
    # strategy refuses its average evolution after it
    rho = coherent_state(2, 1.0).copy()
    rho[0, 1] = np.nan
    with pytest.raises(NumericalInvariantError, match="finite domain"):
        run_average(rho, schedule_measurements(5, 1.0), build_spin_operators(2),
                    n_hat=[0.0, 0.0, 1.0], strategy=UnitaryAfterEachPlus())


STRATEGIES = {"none": None, "alternating": AlternatingAntipolarized(),
              "unitary_every_k": UnitaryEveryK(3, 0.7 * np.pi),
              "unitary_after_each_plus": UnitaryAfterEachPlus(np.pi),
              "conditional": ConditionalTuned()}


def close(a, b) -> bool:
    return np.allclose(a, b, rtol=0.0, atol=1e-14, equal_nan=True)


def assert_matches_reference(rho, n, z, strategy, seeds, ops):
    records = run_ensemble(rho, n, z, strategy, seeds, ops)
    assert [rec.seed for rec in records] == list(seeds)
    probs, thetas = [], []
    for rec in records:
        outcomes, events, p, theta, final = reference_record(rho, n, z, strategy, rec.seed, ops)
        assert rec.outcome_string == outcomes
        assert rec.correction_events == events
        assert np.abs(rec.p_succ_series - p).max() <= 1e-14
        assert close(rec.theta_series, theta)
        assert np.array_equal(rec.final_bands, final)  # the same arithmetic, seed by seed
        probs.append(p)
        thetas.append(theta)
    stats = run_ensemble_statistics(rho, n, z, strategy, seeds, ops)
    assert stats.n_records == len(seeds)
    assert np.abs(stats.p_succ - np.mean(probs, axis=0)).max() <= 1e-14
    assert close(stats.theta, np.mean(thetas, axis=0))  # NaN where a frame is unpolarized
    assert np.abs(stats.p_succ_stderr
                  - np.std(probs, axis=0, ddof=1) / np.sqrt(len(seeds))).max() <= 1e-14
    plus = np.mean([rec.outcomes[~rec.outcome_is_corrective] > 0 for rec in records], axis=0)
    assert np.array_equal(stats.plus_fraction, plus)
    return records


@pytest.mark.parametrize("kind", STRATEGIES)
def test_batched_engine_matches_one_seed_reference(kind):
    # 300 seeds cross the boundary between the first two chunks
    assert trajectory.CHUNK < 300
    ops = build_spin_operators(2)
    assert_matches_reference(coherent_state(2, 2.0), 12, 1.0, STRATEGIES[kind], range(300), ops)


def test_batched_engine_consumes_draws_of_forced_outcomes():
    # l = 1/2 along +Z and a z = 1 source: each primary outcome is forced to
    # +, and the antipolarized measurement after it is a fair coin
    ops = build_spin_operators(0.5)
    rho = coherent_state(0.5, 0.0)
    assert outcome_probabilities(rho, 1.0, ops)[0] == 1.0
    records = assert_matches_reference(rho, 12, 1.0, AlternatingAntipolarized(), range(40), ops)
    assert all(rec.outcome_string.startswith("+") for rec in records)
    assert len({rec.outcome_string for rec in records}) > 1
    assert_matches_reference(rho, 12, 1.0, None, range(3), ops)


@pytest.mark.parametrize("band, error", [(0, "outcome probability"), (1, "finite domain")],
                         ids=["0", "1"])
def test_nonfinite_value_in_one_seed_raises(band, error):
    # band 0 feeds the next outcome probability; band 1 only the finiteness check;
    # the block is replayed to the error a per-step loop raises
    class Poison:
        def corrections(self, i, z, outcome, B, ops, theta0):
            if i == 3:
                B[7, band, 2] = np.nan
            return ()

    with pytest.raises(NumericalInvariantError, match=error):
        run_ensemble_statistics(coherent_state(8, 1.0), 10, 1.0, Poison(), range(20), OPS8)


def test_drifted_drawn_block_is_replayed_on_the_same_draws(monkeypatch, caplog):
    # kicked bands handed back with a trace drift at steps 20 and 37, mid-block:
    # the replays repair them on the uniforms the block drew, as blocks of one step do;
    # only the 1e-9 drift is large enough to log, once per seed
    class DriftingKicks:
        def corrections(self, i, z, outcome, B, ops, theta0):
            size = {20: 1e-11, 37: 1e-9}.get(i)
            return (UnitaryStep(-z, 0.0, bands=B * (1 + size)),) if size else ()

    def records():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="qrf_sim.channels"):
            recs = run_ensemble(coherent_state(8, 1.0), 60, 1.0, DriftingKicks(), range(7), OPS8)
        return recs, [r.getMessage() for r in caplog.records]

    assert 60 // trajectory.STEP_BLOCK > 2  # the drifts lie in two different blocks
    blocked, blocked_warnings = records()
    monkeypatch.setattr(trajectory, "STEP_BLOCK", 1)
    stepped, stepped_warnings = records()
    assert len(blocked_warnings) == 7 and blocked_warnings == stepped_warnings
    for a, b in zip(blocked, stepped, strict=True):
        assert a.outcome_string == b.outcome_string
        assert np.array_equal(a.p_succ_series, b.p_succ_series)
        assert np.array_equal(a.theta_series, b.theta_series, equal_nan=True)
        assert np.array_equal(a.final_bands, b.final_bands)
        assert a.correction_events == b.correction_events


def test_ensemble_statistics_memory_does_not_grow_with_seed_count():
    rho = coherent_state(16, np.pi / 2)
    strategy = UnitaryAfterEachPlus(np.pi)

    def peak(n_seeds):
        tracemalloc.start()
        try:
            run_ensemble_statistics(rho, 5, 1.0, strategy, range(n_seeds), OPS16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_ensemble_statistics(rho, 5, 1.0, strategy, range(2), OPS16)
    small, large = peak(512), peak(2048)
    assert trajectory.CHUNK < 512
    assert large <= 1.1 * small


def test_conditional_statistics_memory_does_not_grow_by_a_batch_per_step():
    # each conditional kick hands the engine its kicked (S, 2, d) batch; the
    # chunk's step log must not keep one per measurement
    rho = coherent_state(8, 2.0)
    n_seeds = 8

    def peak(n_measure):
        tracemalloc.start()
        try:
            run_ensemble_statistics(rho, n_measure, 1.0, ConditionalTuned(), range(n_seeds), OPS8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the first run of a length keeps about 90 KB more under the factor memo, so the
    # warm-up is as long as the longer measured run
    run_ensemble_statistics(rho, 120, 1.0, ConditionalTuned(), range(n_seeds), OPS8)
    rows = len(to_bands(rho))
    batch = n_seeds * rows * OPS8.d * 16  # bytes of one complex (S, rows, d) batch
    # both runs hold one block of states at their peak; 120 measurements span several blocks
    assert peak(120) - peak(40) < 0.5 * 80 * batch  # one batch a step would be 80
